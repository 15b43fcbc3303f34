// djstar/support/env.hpp
// The one grammar of the DJSTAR_* environment variables (README
// "Environment hooks"). src/support/env.cpp is the only code under src/
// that reads the process environment.
//
// A value is trimmed of std::isspace, and set-but-blank throws. Lists
// split on ',' into trimmed fields; an empty field or one too many
// throws. Fields are read by strict typed parsers. Every error is a
// std::invalid_argument reading
//   invalid <subject> '<value as given>': <why> (expected <usage>)
// DJSTAR_FAULTS keeps its lenient contract on top (core/fault.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace djstar::support {

/// A path hook (DJSTAR_FLIGHT, DJSTAR_TRACE, DJSTAR_METRICS): nullopt
/// when unset, else the trimmed value; set-but-blank throws.
std::optional<std::string> env_path(const char* var);

namespace env {

/// How a variable names itself in its error messages.
struct Grammar {
  std::string_view subject;  ///< e.g. "DJSTAR_NET value", "thread count"
  std::string_view usage;    ///< the "(expected …)" text
};

/// One spelling of an enum value; several may share a value (aliases).
template <class E>
struct Name {
  std::string_view name;
  E value;
};

/// Exact, case-sensitive lookup of `text` among `names`.
template <class E, std::size_t N>
std::optional<E> lookup(const Name<E> (&names)[N],
                        std::string_view text) noexcept {
  for (const Name<E>& n : names) {
    if (n.name == text) return n.value;
  }
  return std::nullopt;
}

/// Throws the grammar's error for the value `text`.
[[noreturn]] void fail(const Grammar& g, std::string_view text,
                       std::string_view why);

std::string_view trim(std::string_view text) noexcept;

/// The trimmed pieces of `text` cut at every `sep`, empty ones included.
std::vector<std::string_view> split(std::string_view text, char sep);

/// The raw value of `var`; nullopt when unset.
std::optional<std::string> raw(const char* var);

/// One value under a grammar; field views point into it.
class Value {
 public:
  /// Trims `text`; throws when nothing is left.
  Value(const Grammar& g, std::string_view text);
  /// `var` as a Value; nullopt when unset.
  static std::optional<Value> read(const Grammar& g, const char* var);

  std::string_view trimmed() const noexcept {
    return std::string_view(text_).substr(begin_, size_);
  }
  /// 1..max_fields comma-separated fields, none empty.
  std::vector<std::string_view> fields(std::size_t max_fields) const;

  /// Unsigned decimal, digits only; throws outside [lo, hi].
  std::uint64_t uint(std::string_view field, std::string_view name,
                     std::uint64_t lo, std::uint64_t hi) const;
  /// Unsigned decimal, digits only; values above `hi` read as `hi`.
  std::uint64_t uint_clamped(std::string_view field, std::uint64_t hi) const;
  /// A strtod number spanning the whole field.
  double number(std::string_view field, std::string_view name) const;
  /// number() in (0, hi].
  double positive(std::string_view field, std::string_view name,
                  double hi) const;
  /// lookup() that throws on a miss.
  template <class E, std::size_t N>
  E choice(std::string_view field, const Name<E> (&names)[N]) const {
    if (const auto v = lookup(names, field)) return *v;
    fail("unknown value");
  }

  [[noreturn]] void fail(std::string_view why) const {
    env::fail(grammar_, text_, why);
  }

 private:
  /// Digits only; saturates at UINT64_MAX.
  std::uint64_t digits(std::string_view field) const;

  Grammar grammar_;
  std::string text_;  ///< as given, quoted in errors
  std::size_t begin_ = 0;
  std::size_t size_ = 0;
};

}  // namespace env
}  // namespace djstar::support

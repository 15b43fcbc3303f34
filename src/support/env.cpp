#include "djstar/support/env.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace djstar::support {

std::optional<std::string> env_path(const char* var) {
  const std::string subject = std::string(var) + " path";
  const auto v = env::Value::read({subject, "a file path"}, var);
  if (!v) return std::nullopt;
  return std::string(v->trimmed());
}

namespace env {

void fail(const Grammar& g, std::string_view text, std::string_view why) {
  throw std::invalid_argument("invalid " + std::string(g.subject) + " '" +
                              std::string(text) + "': " + std::string(why) +
                              " (expected " + std::string(g.usage) + ")");
}

std::string_view trim(std::string_view text) noexcept {
  std::size_t b = 0, e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  for (std::size_t cut = 0; cut != std::string_view::npos;) {
    cut = text.find(sep);
    out.push_back(trim(text.substr(0, cut)));
    text.remove_prefix(cut == std::string_view::npos ? text.size() : cut + 1);
  }
  return out;
}

std::optional<std::string> raw(const char* var) {
  const char* v = std::getenv(var);
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

Value::Value(const Grammar& g, std::string_view text)
    : grammar_(g), text_(text) {
  const std::string_view t = trim(text_);
  if (t.empty()) fail("empty");
  begin_ = static_cast<std::size_t>(t.data() - text_.data());
  size_ = t.size();
}

std::optional<Value> Value::read(const Grammar& g, const char* var) {
  const auto r = raw(var);
  if (!r) return std::nullopt;
  return Value(g, *r);
}

std::vector<std::string_view> Value::fields(std::size_t max_fields) const {
  auto out = split(trimmed(), ',');
  if (out.size() > max_fields) fail("too many fields");
  if (std::count(out.begin(), out.end(), "") > 0) fail("empty field");
  return out;
}

std::uint64_t Value::digits(std::string_view field) const {
  if (field.empty()) fail("empty field");
  if (field[0] == '-') fail("negative");
  if (field[0] == '+') fail("sign prefix not accepted");
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t v = 0;
  for (char c : field) {
    if (!std::isdigit(static_cast<unsigned char>(c))) fail("not a number");
    const auto d = static_cast<std::uint64_t>(c - '0');
    v = v > (kMax - d) / 10 ? kMax : v * 10 + d;
  }
  return v;
}

std::uint64_t Value::uint(std::string_view field, std::string_view name,
                          std::uint64_t lo, std::uint64_t hi) const {
  const std::uint64_t v = digits(field);
  if (v < lo || v > hi) {
    fail(std::string(name) + " out of range (" + std::to_string(lo) + ".." +
         std::to_string(hi) + ")");
  }
  return v;
}

std::uint64_t Value::uint_clamped(std::string_view field,
                                  std::uint64_t hi) const {
  return std::min(digits(field), hi);
}

double Value::number(std::string_view field, std::string_view name) const {
  const std::string tmp(field);  // strtod needs NUL termination
  char* end = nullptr;
  const double v = std::strtod(tmp.c_str(), &end);
  if (tmp.empty() || end != tmp.c_str() + tmp.size()) {
    fail("malformed " + std::string(name));
  }
  return v;
}

double Value::positive(std::string_view field, std::string_view name,
                       double hi) const {
  const double v = number(field, name);
  if (!(v > 0) || v > hi) {
    fail(std::string(name) + " out of range (0, " + std::to_string(hi) + "]");
  }
  return v;
}

}  // namespace env
}  // namespace djstar::support

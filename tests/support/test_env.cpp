// The shared DJSTAR_* grammar (support/env): trimming, field splitting,
// and the strict typed field parsers, driven by tables; plus the one
// widening it brings to the variables, surrounding std::isspace.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "djstar/core/graph_opt.hpp"
#include "djstar/core/health.hpp"
#include "djstar/core/thread_count.hpp"
#include "djstar/engine/profiler.hpp"
#include "djstar/serve/breaker.hpp"
#include "djstar/support/env.hpp"
#include "djstar/support/slo.hpp"

namespace env = djstar::support::env;

namespace {

constexpr env::Grammar kTest{"test value", "<n>[,<n>[,<n>]]"};
constexpr const char* kAllSpace = " \t\n\r\v\f";

// Runs `parse` and returns the error text, or nullopt when it succeeded.
template <class F>
std::optional<std::string> error_of(F&& parse) {
  try {
    parse();
  } catch (const std::invalid_argument& e) {
    return std::string(e.what());
  }
  return std::nullopt;
}

// Every error quotes the value as given and names the rule it broke.
void expect_error(const std::optional<std::string>& err,
                  const std::string& text, const char* why) {
  ASSERT_TRUE(err.has_value()) << "'" << text << "' should throw";
  EXPECT_NE(err->find("invalid test value '" + text + "'"),
            std::string::npos)
      << *err;
  EXPECT_NE(err->find(why), std::string::npos) << *err;
}

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

}  // namespace

// ---- value, fields, unsigned fields -----------------------------------------

struct UintCase {
  std::string text;
  std::vector<std::uint64_t> want;  ///< empty: must throw
  const char* why;                  ///< error substring when throwing
};

TEST(EnvGrammar, UnsignedFieldsTable) {
  const std::string sp = kAllSpace;
  const UintCase cases[] = {
      {"7", {7}, ""},
      {sp + "7" + sp, {7}, ""},
      {"1," + sp + "2" + sp + ",3", {1, 2, 3}, ""},
      {"0", {0}, ""},
      {"1000000", {1000000}, ""},
      {"", {}, "empty"},
      {sp, {}, "empty"},
      {"1,,2", {}, "empty field"},
      {"1,", {}, "empty field"},
      {",1", {}, "empty field"},
      {"1, ,2", {}, "empty field"},
      {"1,2,3,4", {}, "too many fields"},
      {"+4", {}, "sign prefix not accepted"},
      {"-4", {}, "negative"},
      {"1,-4", {}, "negative"},
      {"4x", {}, "not a number"},
      {"x4", {}, "not a number"},
      {"99999x", {}, "not a number"},
      {"3.5", {}, "not a number"},
      {"4 4", {}, "not a number"},
      {"0x10", {}, "not a number"},
      {"1000001", {}, "n out of range (0..1000000)"},
      {"18446744073709551616", {}, "n out of range"},  // uint64 overflow
      {"99999999999999999999999", {}, "n out of range"},
  };
  for (const UintCase& c : cases) {
    SCOPED_TRACE("text: '" + c.text + "'");
    std::vector<std::uint64_t> got;
    const auto err = error_of([&] {
      const env::Value v(kTest, c.text);
      for (std::string_view f : v.fields(3)) {
        got.push_back(v.uint(f, "n", 0, 1'000'000));
      }
    });
    if (c.want.empty()) {
      expect_error(err, c.text, c.why);
    } else {
      EXPECT_FALSE(err.has_value()) << *err;
      EXPECT_EQ(got, c.want);
    }
  }
}

TEST(EnvGrammar, UnsignedRangeIsInclusive) {
  const env::Value v(kTest, "16,15,17");
  const auto f = v.fields(3);
  EXPECT_EQ(v.uint(f[0], "kb", 16, 16), 16u);
  expect_error(error_of([&] { v.uint(f[1], "kb", 16, 64); }), "16,15,17",
               "kb out of range (16..64)");
  expect_error(error_of([&] { v.uint(f[2], "kb", 0, 16); }), "16,15,17",
               "kb out of range (0..16)");
}

TEST(EnvGrammar, ClampedUnsignedTable) {
  const struct {
    const char* text;
    std::uint64_t want;
  } cases[] = {
      {"5", 5},
      {"512", 512},
      {"513", 512},
      {"100000", 512},
      {"18446744073709551616", 512},  // uint64 overflow clamps too
  };
  for (const auto& c : cases) {
    const env::Value v(kTest, c.text);
    EXPECT_EQ(v.uint_clamped(v.trimmed(), 512), c.want) << c.text;
  }
  // Clamping never forgives a malformed field.
  for (const char* bad : {"-1", "+1", "1e3", "99999999999x"}) {
    const env::Value v(kTest, bad);
    EXPECT_THROW((void)v.uint_clamped(v.trimmed(), 512),
                 std::invalid_argument)
        << bad;
  }
}

// ---- positive doubles --------------------------------------------------------

TEST(EnvGrammar, PositiveDoubleTable) {
  const struct {
    const char* text;
    double want;      ///< 0: must throw
    const char* why;
  } cases[] = {
      {"0.5", 0.5, ""},
      {"1", 1.0, ""},
      {"1e-3", 1e-3, ""},
      {"+0.25", 0.25, ""},
      {"0", 0, "r out of range (0, 1"},
      {"-0.5", 0, "r out of range"},
      {"1.5", 0, "r out of range"},
      {"nan", 0, "r out of range"},
      {"0.5x", 0, "malformed r"},
      {"x", 0, "malformed r"},
      {"0.5 0.5", 0, "malformed r"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string("text: '") + c.text + "'");
    double got = 0;
    const auto err = error_of([&] {
      const env::Value v(kTest, c.text);
      got = v.positive(v.trimmed(), "r", 1.0);
    });
    if (c.want == 0) {
      expect_error(err, c.text, c.why);
    } else {
      EXPECT_FALSE(err.has_value()) << *err;
      EXPECT_DOUBLE_EQ(got, c.want);
    }
  }
}

// ---- enums with aliases ------------------------------------------------------

enum class Shade { kLight, kDark };
constexpr env::Name<Shade> kShades[] = {
    {"light", Shade::kLight},
    {"dark", Shade::kDark},
    {"dark-mode", Shade::kDark},  // alias
};

TEST(EnvGrammar, EnumLookupWithAliases) {
  EXPECT_EQ(env::lookup(kShades, "light"), Shade::kLight);
  EXPECT_EQ(env::lookup(kShades, "dark"), Shade::kDark);
  EXPECT_EQ(env::lookup(kShades, "dark-mode"), Shade::kDark);
  EXPECT_FALSE(env::lookup(kShades, "Dark").has_value());
  EXPECT_FALSE(env::lookup(kShades, " dark").has_value());
  EXPECT_FALSE(env::lookup(kShades, "").has_value());

  const env::Value v(kTest, "\tdark-mode\n");
  EXPECT_EQ(v.choice(v.trimmed(), kShades), Shade::kDark);
  const env::Value bad(kTest, "dim");
  expect_error(error_of([&] { bad.choice(bad.trimmed(), kShades); }), "dim",
               "unknown value");
}

// ---- reading the environment -------------------------------------------------

TEST(EnvGrammar, ReadTrimsAndRejectsBlank) {
  constexpr const char* kVar = "DJSTAR_TEST_ENV_GRAMMAR";
  {
    ScopedEnv e(kVar, nullptr);
    EXPECT_FALSE(env::raw(kVar).has_value());
    EXPECT_FALSE(env::Value::read(kTest, kVar).has_value());
    EXPECT_FALSE(djstar::support::env_path(kVar).has_value());
  }
  {
    const std::string padded = std::string(kAllSpace) + "a b" + kAllSpace;
    ScopedEnv e(kVar, padded.c_str());
    EXPECT_EQ(env::raw(kVar), padded);
    const auto v = env::Value::read(kTest, kVar);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->trimmed(), "a b");
    EXPECT_EQ(djstar::support::env_path(kVar), "a b");
  }
  for (const char* blank : {"", " ", "\n\t\v"}) {
    ScopedEnv e(kVar, blank);
    EXPECT_THROW((void)env::Value::read(kTest, kVar), std::invalid_argument)
        << "'" << blank << "'";
    EXPECT_THROW((void)djstar::support::env_path(kVar),
                 std::invalid_argument);
  }
}

// Every variable now trims all of std::isspace, not only spaces and tabs.
TEST(EnvGrammar, EveryVariableTrimsAllWhitespace) {
  const std::string sp = kAllSpace;
  EXPECT_EQ(djstar::core::parse_thread_count(sp + "6" + sp), 6u);
  EXPECT_EQ(djstar::serve::BreakerConfig::parse(sp + "3,\v40\f").trip_failures,
            3u);
  {
    const std::string v = sp + "fuse" + sp;
    ScopedEnv e("DJSTAR_GRAPH_OPT", v.c_str());
    EXPECT_EQ(djstar::core::graph_opt::mode_from_env(),
              djstar::core::graph_opt::Mode::kFuse);
  }
  {
    const std::string v = sp + "attrib" + sp;
    ScopedEnv e("DJSTAR_PROF", v.c_str());
    EXPECT_EQ(djstar::engine::prof_mode_from_env(),
              djstar::engine::ProfMode::kAttrib);
  }
  {
    const std::string v = "\non,\v0.02\f,\r5000\n";
    ScopedEnv e("DJSTAR_SLO", v.c_str());
    const auto cfg = djstar::support::SloConfig::from_env();
    ASSERT_TRUE(cfg.has_value());
    EXPECT_TRUE(cfg->enabled);
    EXPECT_DOUBLE_EQ(cfg->spec.miss_ratio, 0.02);
    EXPECT_DOUBLE_EQ(cfg->spec.p99_us, 5000.0);
  }
}

TEST(EnvGrammar, HealEnvAcceptsSurroundingWhitespace) {
  namespace dc = djstar::core;
  {
    ScopedEnv e("DJSTAR_HEAL", " respawn ");
    EXPECT_EQ(dc::heal_mode_from_env(dc::HealMode::kOff),
              dc::HealMode::kRespawn);
  }
  {
    ScopedEnv e("DJSTAR_HEAL", "\tquarantine\n");
    EXPECT_EQ(dc::heal_mode_from_env(dc::HealMode::kOff),
              dc::HealMode::kQuarantine);
  }
  {
    ScopedEnv e("DJSTAR_HEAL", " \n ");
    EXPECT_THROW(dc::heal_mode_from_env(), std::invalid_argument);
  }
  // The text-level parser stays exact.
  EXPECT_THROW(dc::parse_heal_mode(" respawn "), std::invalid_argument);
}

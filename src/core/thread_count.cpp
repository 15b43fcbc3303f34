#include "djstar/core/thread_count.hpp"

#include <thread>

#include "djstar/support/env.hpp"

namespace djstar::core {
namespace {

constexpr support::env::Grammar kThreads{
    "thread count", "a non-negative integer; 0 = auto"};

}  // namespace

unsigned parse_thread_count(std::string_view text) {
  const support::env::Value v(kThreads, text);
  return static_cast<unsigned>(v.uint_clamped(v.trimmed(), kMaxThreads));
}

unsigned resolve_thread_count(unsigned requested, const char* env_var) {
  unsigned n = requested;
  if (env_var != nullptr) {
    if (const auto raw = support::env::raw(env_var)) {
      n = parse_thread_count(*raw);
    }
  }
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;  // the standard allows "unknown"
  }
  if (n > kMaxThreads) n = kMaxThreads;
  return n;
}

}  // namespace djstar::core

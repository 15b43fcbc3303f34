#include "djstar/core/fault.hpp"

#include <cstdio>
#include <stdexcept>

#include "djstar/support/env.hpp"
#include "djstar/support/rng.hpp"

namespace djstar::core::chaos {
namespace {

// Independent mixing constants so (cycle, node) pairs decorrelate.
constexpr std::uint64_t kCycleMix = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kNodeMix = 0xbf58476d1ce4e5b9ULL;

constexpr support::env::Grammar kFaults{"DJSTAR_FAULTS value",
                                       "key=value[,key=value...]"};
constexpr support::env::Name<std::uint32_t FaultPlan::*> kRates[] = {
    {"latency", &FaultPlan::latency_permille},
    {"throw", &FaultPlan::throw_permille},
    {"nan", &FaultPlan::nan_permille},
    {"stall", &FaultPlan::stall_permille},
    {"stall_forever", &FaultPlan::stall_forever_permille},
    {"abort", &FaultPlan::abort_permille}};

}  // namespace

const char* to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kLatencySpike: return "latency-spike";
    case FaultKind::kThrow: return "throw";
    case FaultKind::kNanOutput: return "nan-output";
    case FaultKind::kStall: return "stall";
    case FaultKind::kStallForever: return "stall-forever";
    case FaultKind::kWorkerAbort: return "worker-abort";
  }
  return "?";
}

std::optional<FaultPlan> FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  if (support::env::trim(spec).empty()) return plan;
  const support::env::Value v(kFaults, spec);
  try {
    for (std::string_view item : support::env::split(v.trimmed(), ',')) {
      if (item.empty()) continue;
      const auto kv = support::env::split(item, '=');
      if (kv.size() != 2) return std::nullopt;
      const std::string_view key = kv[0], val = kv[1];
      if (const auto rate = support::env::lookup(kRates, key)) {
        plan.*(*rate) = static_cast<std::uint32_t>(v.uint_clamped(val, 1000));
      } else if (key == "seed") {
        plan.seed = v.uint(val, key, 0, ~std::uint64_t{0});
      } else if (key == "latency_us") {
        const auto dots = val.find("..");
        const double lo = v.number(val.substr(0, dots), key);
        const double hi = dots == std::string_view::npos
                              ? lo
                              : v.number(val.substr(dots + 2), key);
        if (lo < 0 || hi < lo) return std::nullopt;
        plan.latency_min_us = lo;
        plan.latency_max_us = hi;
      } else if (key == "stall_us") {
        plan.stall_us = v.number(val, key);
        if (plan.stall_us < 0) return std::nullopt;
      } else {
        return std::nullopt;
      }
    }
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  return plan;
}

std::optional<FaultPlan> FaultPlan::from_env(const char* var) {
  const auto raw = support::env::raw(var);
  if (!raw || support::env::trim(*raw).empty()) return std::nullopt;
  auto plan = parse(*raw);
  if (!plan) {
    std::fprintf(stderr, "djstar: ignoring malformed %s=\"%s\"\n", var,
                 raw->c_str());
  }
  return plan;
}

FaultAction decide(const FaultPlan& plan, std::uint64_t cycle,
                   NodeId node) noexcept {
  support::SplitMix64 rng(plan.seed ^ (cycle * kCycleMix) ^
                          (std::uint64_t{node} * kNodeMix));
  const std::uint64_t draw = rng.next();
  const std::uint32_t r = static_cast<std::uint32_t>(draw % 1000);

  // Cascade the rates so one uniform draw covers all kinds; order puts
  // the rarest/most-disruptive kinds first so rounding never hides them.
  std::uint32_t edge = plan.throw_permille;
  if (r < edge) return {FaultKind::kThrow, 0.0};
  edge += plan.stall_permille;
  if (r < edge) return {FaultKind::kStall, plan.stall_us};
  edge += plan.latency_permille;
  if (r < edge) {
    const double frac =
        static_cast<double>((draw >> 32) & 0xffffff) / 16777215.0;
    return {FaultKind::kLatencySpike,
            plan.latency_min_us +
                frac * (plan.latency_max_us - plan.latency_min_us)};
  }
  edge += plan.nan_permille;
  if (r < edge) return {FaultKind::kNanOutput, 0.0};
  // Worker faults last: appending after the original kinds keeps every
  // decision of a pre-existing plan (their rates are zero) bit-identical.
  edge += plan.stall_forever_permille;
  if (r < edge) return {FaultKind::kStallForever, plan.stall_us};
  edge += plan.abort_permille;
  if (r < edge) return {FaultKind::kWorkerAbort, 0.0};
  return {};
}

}  // namespace djstar::core::chaos

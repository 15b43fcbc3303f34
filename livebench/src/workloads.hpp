// The benchmark's workloads. Each returns one Result: the end-to-end
// metrics when opt.trace is false, the per-layer metrics otherwise.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "djstar/core/executor.hpp"
#include "djstar/support/attrib.hpp"

namespace livebench {

/// acc += now - before, field by field.
inline void add_delta(djstar::core::ExecutorStats::Snapshot& acc,
                      const djstar::core::ExecutorStats::Snapshot& now,
                      const djstar::core::ExecutorStats::Snapshot& before) {
  acc.nodes_executed += now.nodes_executed - before.nodes_executed;
  acc.busy_wait_spins += now.busy_wait_spins - before.busy_wait_spins;
  acc.sleeps += now.sleeps - before.sleeps;
  acc.wakeups += now.wakeups - before.wakeups;
  acc.steals += now.steals - before.steals;
  acc.steal_failures += now.steal_failures - before.steal_failures;
}

/// Sums of CycleAttribution fields over the cycles added; per-worker
/// buckets are summed across workers.
struct AttribSums {
  double makespan = 0, cp_run = 0, cp_wait = 0, cp_steal_idle = 0,
         cp_barrier = 0, cp_overhead = 0;
  double w_run = 0, w_steal_idle = 0, w_barrier = 0, w_overhead = 0;
  double steals = 0;  // kRun spans that were stolen
  std::uint64_t cycles = 0;

  void add(const djstar::support::attrib::CycleAttribution& at) {
    makespan += at.makespan_us;
    cp_run += at.cp_run_us;
    cp_wait += at.cp_wait_us;
    cp_steal_idle += at.cp_steal_idle_us;
    cp_barrier += at.cp_barrier_us;
    cp_overhead += at.cp_overhead_us;
    for (const auto& w : at.workers) {
      w_run += w.run_us;
      w_steal_idle += w.steal_idle_us;
      w_barrier += w.barrier_us;
      w_overhead += w.overhead_us;
      steals += w.steals;
    }
    ++cycles;
  }

  void add(const AttribSums& o) {
    makespan += o.makespan;
    cp_run += o.cp_run;
    cp_wait += o.cp_wait;
    cp_steal_idle += o.cp_steal_idle;
    cp_barrier += o.cp_barrier;
    cp_overhead += o.cp_overhead;
    w_run += o.w_run;
    w_steal_idle += o.w_steal_idle;
    w_barrier += o.w_barrier;
    w_overhead += o.w_overhead;
    steals += o.steals;
    cycles += o.cycles;
  }

  /// The core.* attribution metrics, per attributed cycle.
  std::vector<Metric> metrics() const {
    const double n = cycles > 0 ? static_cast<double>(cycles) : 1.0;
    return {{"core.makespan_us", makespan / n, "us"},
            {"core.cp_run_us", cp_run / n, "us"},
            {"core.cp_wait_us", cp_wait / n, "us"},
            {"core.cp_steal_idle_us", cp_steal_idle / n, "us"},
            {"core.cp_barrier_us", cp_barrier / n, "us"},
            {"core.cp_overhead_us", cp_overhead / n, "us"},
            {"core.worker_run_us", w_run / n, "us"},
            {"core.worker_steal_idle_us", w_steal_idle / n, "us"},
            {"core.worker_barrier_us", w_barrier / n, "us"},
            {"core.worker_overhead_us", w_overhead / n, "us"}};
  }
};

/// The core.* executor-counter metrics over `ops` operations.
inline std::vector<Metric> executor_metrics(
    const djstar::core::ExecutorStats::Snapshot& x, double ops) {
  const auto per = [ops](std::uint64_t v) {
    return ops > 0 ? static_cast<double>(v) / ops : 0.0;
  };
  const double attempts =
      static_cast<double>(x.steals) + static_cast<double>(x.steal_failures);
  return {{"core.nodes_per_apc", per(x.nodes_executed), "count"},
          {"core.steals_per_apc", per(x.steals), "count"},
          {"core.steal_failures_per_apc", per(x.steal_failures), "count"},
          {"core.steal_hit_ratio",
           attempts > 0 ? static_cast<double>(x.steals) / attempts : 0.0,
           "ratio"},
          {"core.sleeps_per_apc", per(x.sleeps), "count"},
          {"core.wakeups_per_apc", per(x.wakeups), "count"},
          {"core.spins_per_apc", per(x.busy_wait_spins), "count"}};
}

/// The obs.* metrics from paired observability-cost samples (percent).
inline std::vector<Metric> obs_metrics(const std::vector<double>& cost_pct) {
  return {{"obs.attrib_cost_pct", median(cost_pct), "%"},
          {"obs.attrib_cost_iqr_pct",
           quantile(cost_pct, 0.75) - quantile(cost_pct, 0.25), "%"},
          {"obs.pairs", static_cast<double>(cost_pct.size()), "count"}};
}

/// `e2e` with every name prefixed "e2e.": the end-to-end figures that
/// are reported without a bound, alongside the layers.
inline std::vector<Metric> prefixed_e2e(const std::vector<Metric>& e2e) {
  std::vector<Metric> m;
  for (const Metric& e : e2e) m.push_back({"e2e." + e.name, e.value, e.unit});
  return m;
}

/// apc_keylock_busy (keylock_busy = true) or apc_varispeed_ws.
Result run_apc(const Options& opt, bool keylock_busy);

/// fleet_loopback.
Result run_fleet(const Options& opt);

/// Every metric name and unit a run prints, in print order, so all
/// workloads report the same set (layers a workload does not reach
/// read 0).
const std::vector<Metric>& end_to_end_metrics();
const std::vector<Metric>& per_layer_metrics();

/// Fill `r` with the metric set for its mode, taking values from
/// `values` by name; missing names read 0.
void finish_metrics(Result& r, bool trace, const std::vector<Metric>& values);

}  // namespace livebench

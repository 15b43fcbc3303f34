// djstar/core/graph_opt.hpp
// Cost-model-driven graph compilation pipeline, run between TaskGraph and
// CompiledGraph (DESIGN.md §11).
//
// The paper's central finding is that fine-grained audio nodes make
// *scheduling overhead*, not raw compute, the speedup limiter: many DJ
// Star nodes run in well under a microsecond while every dynamic
// dispatch costs a dependency check plus a ready-queue operation
// (support/cost_table.hpp: ~1.2 us). This pass attacks that overhead at
// compile time, in two stages:
//
//  1. FUSION — a legality-checked pass that collapses linear chains,
//     single-use fan-in clusters, and batches of independent sinks of
//     cheap nodes into fused *units*. A
//     unit is the executors' new scheduling granule: one dependency
//     counter, one queue entry, members executed back to back in
//     topological order. Fusion never crosses the cost budget that would
//     serialize the critical path, and it preserves:
//       - precedence (units are convex: no path leaves and re-enters),
//       - exactly-once semantics (each member still executes once),
//       - fault-injection identity (faults keep targeting ORIGINAL node
//         ids — CompiledGraph::execute() is still per-node),
//       - per-node observability (executors emit one kRun span per
//         member, nested inside a kFused envelope span).
//
//  2. STATIC SCHEDULE — for graphs whose measured variance is low, a
//     critical-path-first (longest-path-first, He et al.'s "Longer Is
//     Shorter" shaping) list schedule over the fused units, cached as a
//     per-worker replay list. Executors replay it with near-zero queue
//     traffic: each worker walks its own list, spin-checks the unit's
//     dependency counter, runs it, resolves successors. The plan carries
//     an atomic validity flag so the engine can invalidate it between
//     cycles (EWMA drift, supervisor level change) and executors fall
//     back to their dynamic path on the very next cycle.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "djstar/core/graph.hpp"
#include "djstar/support/cost_table.hpp"

namespace djstar::core {

class CompiledGraph;

namespace graph_opt {

/// Pipeline stage selection (DJSTAR_GRAPH_OPT=off|fuse|fuse+static).
enum class Mode {
  kOff,         ///< compile the graph as-is (one unit per node)
  kFuse,        ///< run the fusion pass
  kFuseStatic,  ///< fusion + cached static schedule replay
};

std::string_view to_string(Mode m) noexcept;
std::optional<Mode> parse_mode(std::string_view name) noexcept;

/// DJSTAR_GRAPH_OPT under the support/env grammar: unset returns
/// nullopt; a blank value or unknown mode throws std::invalid_argument
/// (a misspelled mode must not silently disable the optimizer).
std::optional<Mode> mode_from_env();

// ---- cost model -------------------------------------------------------------

/// Per-node execution-cost estimates in microseconds.
///
/// Seeded once from offline measurements (bench/node_profile's per-node
/// means, or DjStarGraph::reference_durations() for the paper graph) and
/// refined online through observe(): an EWMA of subsequent measurements
/// (executor span timings, re-measurement sweeps). The model also tracks
/// an EWMA of the absolute deviation per node, which is what the static
/// schedule pass consults — a plan is only worth caching when the
/// measured variance is low.
///
/// Thread safety: none. Mutate from the controlling thread between
/// cycles, like every other compile-time structure.
class CostModel {
 public:
  /// `n` nodes, all starting at `default_cost_us`.
  explicit CostModel(std::size_t n, double default_cost_us = 1.0);

  /// Replace every estimate (deviations reset to zero). `costs.size()`
  /// must equal node_count().
  void seed(std::span<const double> costs);

  /// Fold one measurement of node `n` into the EWMA estimate.
  void observe(NodeId n, double us) noexcept;

  /// Fold one whole-cycle graph time into the cycle-level EWMA (drives
  /// the engine's drift detection; see drift_ratio()).
  void observe_cycle(double graph_us) noexcept;

  std::size_t node_count() const noexcept { return cost_.size(); }
  double cost(NodeId n) const noexcept { return cost_[n]; }
  std::span<const double> costs() const noexcept { return cost_; }
  /// EWMA of |measurement - estimate| for node `n` (0 until observed).
  double deviation(NodeId n) const noexcept { return dev_[n]; }
  std::uint64_t observations() const noexcept { return observations_; }

  /// Largest per-node coefficient of variation (deviation / cost) over
  /// nodes whose cost is non-negligible. The static-schedule pass caches
  /// a plan only when this is at most its variance gate.
  double max_cv() const noexcept;

  /// Cycle-level EWMA of graph time (0 until observe_cycle() was called).
  double cycle_ewma_us() const noexcept { return cycle_ewma_us_; }
  /// Ratio of the current cycle EWMA to `baseline_us` (1.0 when either
  /// is zero) — the engine's staleness test for cached static plans.
  double drift_ratio(double baseline_us) const noexcept;

  /// EWMA smoothing factor (weight of the newest sample).
  double alpha() const noexcept { return alpha_; }
  void set_alpha(double a) noexcept { alpha_ = a; }

 private:
  std::vector<double> cost_;
  std::vector<double> dev_;
  double alpha_ = 0.1;
  double cycle_ewma_us_ = 0.0;
  std::uint64_t observations_ = 0;
};

// ---- fusion pass ------------------------------------------------------------

/// Fusion pass tuning.
struct FusionOptions {
  /// Dispatch overhead a dynamic executor pays per scheduled unit
  /// (dependency check + one ready-queue operation, from the calibrated
  /// cost table). Fusing k nodes into one unit saves (k-1) times this.
  double dispatch_overhead_us = support::costs::kPerNodeDispatchUs;
  /// A node is "cheap" (fusion candidate) when its estimated cost is
  /// below fuse_threshold x dispatch_overhead_us — i.e. when dispatching
  /// it costs at least 1/fuse_threshold of running it.
  double fuse_threshold = 4.0;
  /// Never grow a unit beyond this summed cost: over-fusing serializes
  /// the critical path (the flip side of He et al.'s path shaping).
  double max_unit_cost_us = 40.0;
  /// Hard cap on members per unit.
  std::uint32_t max_unit_size = 8;
  /// Allow fusing nodes from different graph sections. Off by default so
  /// work-stealing's by-section seeding keeps its locality meaning.
  bool fuse_across_sections = false;
};

/// A partition of the graph's nodes into fused units. `units[u]` lists
/// the member nodes of unit `u` in intra-unit execution order (original
/// topological order); `unit_of[n]` is the inverse map. The identity
/// plan has one singleton unit per node, in node-id order.
struct Plan {
  std::vector<std::vector<NodeId>> units;
  std::vector<std::uint32_t> unit_of;

  std::size_t unit_count() const noexcept { return units.size(); }
  std::size_t node_count() const noexcept { return unit_of.size(); }
  /// Number of multi-node units.
  std::size_t fused_unit_count() const noexcept;

  static Plan identity(std::size_t n);

  /// Full legality re-check against `g` (used by the property tests and
  /// asserted by CompiledGraph in debug builds):
  ///  - units partition [0, node_count) exactly;
  ///  - every intra-unit edge respects the member order;
  ///  - units are convex: contracting them leaves the graph acyclic
  ///    (no path leaves a unit and re-enters it).
  bool validate(const TaskGraph& g) const;
};

/// Compute a legal fusion plan for `g` under `costs`.
///
/// Three cluster shapes are fused, all provably convex in a DAG:
///  - linear chains a->b where a has out-degree 1 and b in-degree 1;
///  - fan-in clusters: a join node plus cheap predecessors whose ONLY
///    successor is the join;
///  - sink batches: independent sinks (out-degree 0) with identical
///    predecessor sets — including edge-free utility nodes, whose
///    predecessor set is empty.
/// Only cheap nodes (see FusionOptions) are fused, chains stop at the
/// cost/size budget, and with fuse_across_sections=false members must
/// share a section. The result always passes Plan::validate().
Plan plan_fusion(const TaskGraph& g, const CostModel& costs,
                 const FusionOptions& opt = {});

// ---- cached static schedule -------------------------------------------------

/// A cached critical-path-first schedule over a compiled graph's units:
/// per-worker replay lists, ordered by scheduled start time. Executors
/// given a plan via ExecOptions replay it when valid() and fall back to
/// their dynamic scheduling when not. The flag is the only field ever
/// touched concurrently (engine writes between cycles, executors read at
/// cycle start).
class StaticPlan {
 public:
  StaticPlan(unsigned threads,
             std::vector<std::vector<std::uint32_t>> assignment,
             double predicted_makespan_us)
      : threads_(threads),
        assignment_(std::move(assignment)),
        predicted_makespan_us_(predicted_makespan_us) {}

  // Movable so build_static_plan() can return by value (the atomic flag
  // needs a manual transfer); not copyable.
  StaticPlan(StaticPlan&& o) noexcept
      : threads_(o.threads_),
        assignment_(std::move(o.assignment_)),
        predicted_makespan_us_(o.predicted_makespan_us_),
        valid_(o.valid_.load(std::memory_order_relaxed)) {}
  StaticPlan& operator=(StaticPlan&&) = delete;

  /// Swap in a freshly built schedule and revalidate. Call only between
  /// cycles — executors hold a pointer to this object and read it while
  /// a cycle is in flight.
  void replace(StaticPlan&& fresh) noexcept {
    threads_ = fresh.threads_;
    assignment_ = std::move(fresh.assignment_);
    predicted_makespan_us_ = fresh.predicted_makespan_us_;
    valid_.store(true, std::memory_order_release);
  }

  unsigned threads() const noexcept { return threads_; }
  /// Unit ids worker `w` replays, in start order.
  std::span<const std::uint32_t> worker_units(unsigned w) const noexcept {
    return assignment_[w];
  }
  double predicted_makespan_us() const noexcept {
    return predicted_makespan_us_;
  }

  bool valid() const noexcept {
    return valid_.load(std::memory_order_acquire);
  }
  /// Engine-side staleness lever; call only between cycles.
  void invalidate() noexcept {
    valid_.store(false, std::memory_order_release);
  }
  void revalidate() noexcept {
    valid_.store(true, std::memory_order_release);
  }

 private:
  unsigned threads_;
  std::vector<std::vector<std::uint32_t>> assignment_;
  double predicted_makespan_us_;
  std::atomic<bool> valid_{true};
};

/// Build a static plan for `threads` workers over `cg`'s units with
/// longest-path-first list scheduling (HLF / He et al.): ready units are
/// started in decreasing upward-rank order on the earliest-free worker.
/// Unit costs are the sums of `costs` over members. The per-worker
/// order is the simulated start order, which makes lock-step replay
/// deadlock-free (every unit's predecessors appear strictly earlier in
/// the simulated schedule).
StaticPlan build_static_plan(const CompiledGraph& cg, const CostModel& costs,
                             unsigned threads);

}  // namespace graph_opt
}  // namespace djstar::core

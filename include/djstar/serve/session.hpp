// djstar/serve/session.hpp
// One hosted session: an independent task graph with its own compiled
// form, supervisor, deadline monitor, and latency histogram, executed on
// the host's shared worker pool.
//
// Isolation: everything a session's nodes touch lives in the session —
// the TaskGraph's captured buffers (kept alive via SessionSpec::arena),
// the CompiledGraph's cycle state, the hosted executor's deques. The
// only shared object is the core::Team, which runs one session's graph
// at a time; the team's generation release/acquire publishes each
// session's cycle state to the workers, so sessions never share mutable
// state concurrently.
//
// Degradation: the engine's CycleSupervisor ladder is reused per
// session. The serve actuation is simpler than AudioEngine's —
//   kFull                everything runs
//   kBypassFx/kNoStretch spec.sheddable nodes are masked (one shed tier;
//                        generic graphs have no stretch to disable)
//   kSequentialFallback  graph runs on the session's sequential executor
//   kSafeMode            graph skipped; supervisor emits faded repeats
// The ladder steps down on its own when a session's service latency
// (dispatch wait + compute) blows its deadline, and the host can force
// it down when the *fleet* is behind (overload shedding).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "djstar/audio/buffer.hpp"
#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/graph.hpp"
#include "djstar/core/sequential.hpp"
#include "djstar/core/team.hpp"
#include "djstar/core/work_stealing.hpp"
#include "djstar/engine/deadline.hpp"
#include "djstar/engine/profiler.hpp"
#include "djstar/engine/supervisor.hpp"
#include "djstar/serve/qos.hpp"
#include "djstar/support/histogram.hpp"
#include "djstar/support/time.hpp"
#include "djstar/support/trace.hpp"

namespace djstar::serve {

/// Everything a client supplies to open a session.
struct SessionSpec {
  std::string name = "session";
  QoS qos = QoS::kStandard;
  /// Per-buffer deadline. Sessions may run at different rates; a
  /// session with 2x the fleet tick runs every other tick.
  double deadline_us = audio::kDeadlineUs;
  /// The session's task graph (moved into the session).
  core::TaskGraph graph;
  /// Nodes maskable under degradation (bypass forms may be registered
  /// on the compiled graph by the workload builder via node order).
  std::vector<core::NodeId> sheddable;
  /// Declared per-node costs (indexed by NodeId) for the admission
  /// estimate; may be empty when cost_estimate_us is set directly.
  std::vector<double> node_cost_us;
  /// Per-cycle cost estimate; 0 = derive from node_cost_us via the
  /// He-et-al. DAG bound at admission time.
  double cost_estimate_us = 0;
  /// Output packet to validate (NaN scan + fallback splicing). May be
  /// null for graphs without an audio sink; a silent buffer is used.
  const audio::AudioBuffer* output = nullptr;
  /// Opaque owner of whatever the WorkFns capture (buffers, DSP state).
  std::shared_ptr<void> arena;
  /// Node fault injection armed on the session's compiled graph at
  /// construction when any rate is non-zero (chaos tests: forced stalls
  /// must surface in the attribution blame reports). Survives breaker
  /// trips like the rest of the spec.
  core::chaos::FaultPlan faults{};
};

/// Per-session serve-level counters (service latency = wait + compute,
/// measured against the session's own deadline).
struct SessionCounters {
  std::uint64_t cycles = 0;
  std::uint64_t misses = 0;       ///< completion offset > allowed time
  std::uint64_t degraded_cycles = 0;  ///< ran below kFull
};

/// Lightweight state carried across a breaker trip: everything needed to
/// resume a rebuilt session where the old one left off that is NOT
/// already owned by SessionSpec::arena (the DSP state itself survives in
/// the arena; this is the serve-level control state).
struct SessionSnapshot {
  engine::DegradationLevel level = engine::DegradationLevel::kFull;
  double cost_estimate_us = 0;
};

/// A hosted session. Constructed by EngineHost; all methods are called
/// from the host's data-plane thread only.
class Session {
 public:
  Session(SessionId id, SessionSpec spec, core::Team& team,
          const core::ExecOptions& exec, const core::WorkStealingOptions& ws,
          engine::SupervisorConfig scfg);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  SessionId id() const noexcept { return id_; }
  const std::string& name() const noexcept { return spec_.name; }
  QoS qos() const noexcept { return spec_.qos; }
  double deadline_us() const noexcept { return spec_.deadline_us; }

  /// Admission density C/D with the current cost estimate.
  double density() const noexcept {
    return cost_estimate_us_ / spec_.deadline_us;
  }
  double cost_estimate_us() const noexcept { return cost_estimate_us_; }
  void set_cost_estimate_us(double c) noexcept { cost_estimate_us_ = c; }

  /// Absolute virtual-time deadline of the next due packet (managed by
  /// the host's EDF dispatcher).
  double next_due_us() const noexcept { return next_due_us_; }
  void set_next_due_us(double t) noexcept { next_due_us_ = t; }

  /// Wall-clock submission time (host-stamped at drain), the start of
  /// the admission-wait stage; default-constructed when never stamped.
  support::Clock::time_point submitted_at() const noexcept {
    return submitted_at_;
  }
  void set_submitted_at(support::Clock::time_point t) noexcept {
    submitted_at_ = t;
  }

  /// Run one cycle on the shared pool. `wait_us` is the dispatch delay
  /// already spent in this tick (EDF queueing; it counts against the
  /// deadline), `allowed_us` the budget from tick start to this
  /// session's absolute deadline. Returns the completion offset
  /// (wait + compute) in microseconds.
  double run_cycle(double wait_us, double allowed_us);

  const engine::DeadlineMonitor& monitor() const noexcept { return monitor_; }
  engine::CycleSupervisor& supervisor() noexcept { return supervisor_; }
  const engine::CycleSupervisor& supervisor() const noexcept {
    return supervisor_;
  }
  const SessionCounters& counters() const noexcept { return counters_; }
  const support::Histogram& latency_histogram() const noexcept {
    return latency_;
  }
  const core::Executor& hosted_executor() const noexcept { return *hosted_; }
  std::size_t node_count() const noexcept { return compiled_->node_count(); }

  /// p99 of measured per-cycle compute cost (graph phase only), for
  /// EngineHost::recalibrate(). Falls back to the estimate while fewer
  /// than 32 cycles have run.
  double observed_cost_p99_us() const;

  /// Schedule tracing (host-driven): spans land in recorder() with one
  /// lane per worker; the host exports one pid per session.
  void arm_tracing(std::size_t capacity_per_worker);
  const support::TraceRecorder& recorder() const noexcept { return trace_; }

  // ---- cycle attribution (engine/profiler.hpp, DESIGN.md §14) ----

  /// Attach a per-session attribution profiler. The session's trace
  /// recorder doubles as the per-cycle span buffer (armed here when the
  /// host has not armed it; cleared between cycles), so with profiling
  /// on, a fleet Chrome-trace export covers only each session's most
  /// recent cycle. `registry`/`journal` are the host's (shared metric
  /// series via register-or-fetch; may be null).
  void enable_profiler(const engine::ProfilerConfig& pcfg,
                       support::MetricsRegistry* registry,
                       support::EventJournal* journal);
  bool profiler_enabled() const noexcept { return profiler_ != nullptr; }
  engine::CycleProfiler& profiler() noexcept { return *profiler_; }
  const engine::CycleProfiler& profiler() const noexcept { return *profiler_; }

  /// Arm/disarm node fault injection on the session's compiled graph
  /// (chaos testing of hosted sessions, mirroring AudioEngine).
  void arm_faults(const core::chaos::FaultPlan& plan);
  void disarm_faults() noexcept;

  // ---- circuit-breaker support (serve/breaker.hpp, DESIGN.md §12) ----

  /// Outcome of the last run_cycle() (kClean before any cycle ran);
  /// the host's breaker failure predicate reads this.
  engine::CycleOutcome last_outcome() const noexcept { return last_outcome_; }
  /// Slot verdict of the last run_cycle(): its completion offset exceeded
  /// `allowed_us` (false before any cycle ran). Counted in
  /// counters().misses; the host's exports, SLOs and breaker read it.
  bool last_missed() const noexcept { return last_missed_; }

  /// Capture the control state a breaker trip must preserve.
  SessionSnapshot snapshot() const noexcept {
    return {supervisor_.level(), cost_estimate_us_};
  }
  /// Re-apply a snapshot to a freshly rebuilt session: walk the ladder
  /// down to the saved level and restore the admission cost estimate.
  void restore(const SessionSnapshot& snap);

  /// Surrender the spec for a rebuild (arena shared_ptr and graph move
  /// out intact). The session MUST be destroyed without running further
  /// cycles afterwards — compiled_ references the moved-from graph.
  SessionSpec take_spec() noexcept { return std::move(spec_); }

 private:
  void apply_level(engine::DegradationLevel level);

  SessionId id_;
  SessionSpec spec_;
  double cost_estimate_us_ = 0;
  double next_due_us_ = 0;
  support::Clock::time_point submitted_at_{};

  std::unique_ptr<core::CompiledGraph> compiled_;
  std::unique_ptr<core::WorkStealingExecutor> hosted_;
  std::unique_ptr<core::SequentialExecutor> fallback_;
  engine::DeadlineMonitor monitor_;
  engine::CycleSupervisor supervisor_;
  engine::DegradationLevel applied_level_ = engine::DegradationLevel::kFull;
  engine::CycleOutcome last_outcome_ = engine::CycleOutcome::kClean;
  bool last_missed_ = false;
  support::Histogram latency_;
  SessionCounters counters_;
  support::TraceRecorder trace_;
  std::unique_ptr<engine::CycleProfiler> profiler_;
  std::vector<support::TraceSpan> prof_spans_;  // per-cycle scratch
  audio::AudioBuffer silent_{2, audio::kBlockSize};
};

/// Bins for per-session / fleet latency histograms: [0, 4x deadline).
inline constexpr std::size_t kLatencyBins = 128;

}  // namespace djstar::serve

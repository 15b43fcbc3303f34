// djstar/engine/engine.hpp
// The Audio Engine facade (paper Fig. 2): four decks, the 67-node task
// graph, a pluggable scheduling strategy, and the APC driver that times
// every phase against the 2.9 ms deadline.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include <atomic>

#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/factory.hpp"
#include "djstar/engine/deadline.hpp"
#include "djstar/engine/deck.hpp"
#include "djstar/engine/djstar_graph.hpp"
#include "djstar/engine/profiler.hpp"
#include "djstar/engine/supervisor.hpp"
#include "djstar/engine/telemetry.hpp"
#include "djstar/support/slo.hpp"
#include "djstar/support/tsdb.hpp"

namespace djstar::engine {

/// Engine construction parameters.
struct EngineConfig {
  core::Strategy strategy = core::Strategy::kBusyWait;
  unsigned threads = 4;
  bool keylock = true;
  /// Seeds for the four decks' synthetic tracks.
  std::array<std::uint64_t, 4> track_seeds = {1, 2, 3, 4};
  double deadline_us = audio::kDeadlineUs;
  /// Retain per-cycle samples in the monitor (hist benches need them).
  bool keep_samples = true;
  core::ExecOptions exec{};  ///< threads field is overwritten
  core::WorkStealingOptions ws{};

  /// Graph compilation pipeline stage (core/graph_opt, DESIGN.md §11).
  /// Overridden by DJSTAR_GRAPH_OPT=off|fuse|fuse+static when set.
  core::graph_opt::Mode graph_opt = core::graph_opt::Mode::kOff;
  /// Fusion pass tuning (used when graph_opt != kOff).
  core::graph_opt::FusionOptions fusion{};
  /// Invalidate the cached static plan when the cycle-level graph-time
  /// EWMA drifts beyond this factor from its value at plan build (in
  /// either direction).
  double plan_drift_ratio = 1.5;
  /// Variance gate: a freshly built static plan starts invalid when the
  /// cost model's max coefficient of variation exceeds this.
  double plan_max_cv = 0.25;

  /// Worker self-healing (DESIGN.md §12). Overridden by
  /// DJSTAR_HEAL=off|quarantine|respawn when set. With mode != kOff the
  /// parallel executors run their team with heartbeats and a medic, the
  /// engine polls quarantine/respawn counters into the supervisor and
  /// telemetry after every cycle, and static-plan replay is disabled
  /// (the cached schedule assumes a fixed healthy team).
  core::TeamHealConfig heal{};

  /// Cycle attribution profiler (engine/profiler, DESIGN.md §14). Mode
  /// overridden by DJSTAR_PROF=off|attrib|attrib+hw when set. mode !=
  /// kOff implies telemetry (the flight recorder is the span source).
  ProfilerConfig profiler{};

  /// SLO engine (support/slo + support/tsdb, DESIGN.md §15). enabled/
  /// spec overridden by DJSTAR_SLO=off|on[,<miss_ratio>[,<p99_us>]] when
  /// set. enabled implies telemetry (gauges, journal events, and the
  /// page-triggered flight dump all need its sinks).
  support::SloConfig slo{};
};

/// DJ Star's audio engine. Single-threaded control interface: construct,
/// tweak parameters, call run_cycle() per audio packet.
class AudioEngine {
 public:
  explicit AudioEngine(EngineConfig cfg = {});

  /// Execute one full audio processing cycle and return its phase
  /// timings (also recorded into monitor()).
  CycleBreakdown run_cycle();

  /// Convenience: run `n` cycles back to back.
  void run_cycles(std::size_t n);

  /// The packet handed to the sound card after the last cycle.
  const audio::AudioBuffer& output() const noexcept {
    return graph_nodes_.output();
  }

  // ---- fault tolerance (engine/supervisor.hpp) ----

  /// Attach a CycleSupervisor and pre-build the sequential fallback
  /// executor. Afterwards use run_cycle_supervised() + safe_output().
  void enable_supervision(const SupervisorConfig& scfg = {});
  bool supervised() const noexcept { return supervisor_ != nullptr; }
  CycleSupervisor& supervisor() noexcept { return *supervisor_; }
  const CycleSupervisor& supervisor() const noexcept { return *supervisor_; }

  /// Supervised cycle: applies the ladder's current level (masks, deck
  /// flags, executor choice), runs the phases under the watchdog, then
  /// validates the output. The packet for the sound card is
  /// safe_output(), which is valid even when this cycle faulted.
  CycleBreakdown run_cycle_supervised();

  /// The validated output packet (falls back to output() unsupervised).
  const audio::AudioBuffer& safe_output() const noexcept {
    return supervisor_ ? supervisor_->safe_output() : graph_nodes_.output();
  }

  // ---- telemetry (engine/telemetry.hpp) ----

  /// Attach the telemetry bundle: metrics registry, event journal, and
  /// always-on flight recorder (wired into the workers — rebuilds the
  /// executor). The constructor calls this automatically when
  /// DJSTAR_FLIGHT=<dump-path> is set.
  void enable_telemetry(const TelemetryConfig& tcfg = {});
  bool telemetry_enabled() const noexcept { return telemetry_ != nullptr; }
  EngineTelemetry& telemetry() noexcept { return *telemetry_; }
  const EngineTelemetry& telemetry() const noexcept { return *telemetry_; }

  // ---- cycle attribution (engine/profiler.hpp, DESIGN.md §14) ----

  /// Attach the attribution profiler: per-cycle realized-critical-path
  /// analysis, ranked blame reports on misses, and (attrib+hw mode)
  /// per-worker perf_event counters. Enables telemetry when absent (the
  /// flight recorder is the span source). The constructor calls this
  /// automatically when DJSTAR_PROF names a mode other than off.
  void enable_profiler(const ProfilerConfig& pcfg);
  bool profiler_enabled() const noexcept { return profiler_ != nullptr; }
  CycleProfiler& profiler() noexcept { return *profiler_; }
  const CycleProfiler& profiler() const noexcept { return *profiler_; }

  // ---- SLO engine (support/slo.hpp, DESIGN.md §15) ----

  /// Attach the SLO engine: a per-engine time-series store fed every
  /// cycle (with the verdict DeadlineMonitor::add returned) and a
  /// burn-rate tracker evaluated once per sealed window. The store's
  /// clock is virtual — cycles × deadline_us — so the alert state
  /// machine is deterministic. Page-level alerts force one supervisor
  /// ladder step (when supervised) and trigger a flight incident dump.
  /// Enables telemetry when absent. The constructor calls this
  /// automatically when DJSTAR_SLO=on[,...] is set.
  void enable_slo(const support::SloConfig& scfg);
  bool slo_enabled() const noexcept { return slo_ != nullptr; }
  const support::SloTracker& slo() const noexcept { return *slo_; }
  support::TimeSeriesStore* slo_store() noexcept { return slo_tsdb_.get(); }

  /// Arm/disarm node fault injection on the compiled graph. (The
  /// constructor also arms automatically from DJSTAR_FAULTS.)
  void arm_faults(const core::chaos::FaultPlan& plan) {
    compiled_->arm_faults(plan);
  }
  void disarm_faults() noexcept { compiled_->disarm_faults(); }

  Deck& deck(unsigned i) noexcept { return *decks_[i]; }
  DjStarGraph& graph_nodes() noexcept { return graph_nodes_; }
  core::CompiledGraph& compiled() noexcept { return *compiled_; }
  core::Executor& executor() noexcept { return *executor_; }
  const DeadlineMonitor& monitor() const noexcept { return monitor_; }
  DeadlineMonitor& monitor() noexcept { return monitor_; }

  core::Strategy strategy() const noexcept { return cfg_.strategy; }
  unsigned threads() const noexcept { return cfg_.threads; }

  /// Swap the scheduling strategy / thread count. Destroys and rebuilds
  /// the executor (joins old workers). Not callable mid-cycle. Monitor
  /// history, supervisor ladder state, and any degradation applied to
  /// the graph all survive the swap (tested) — callers who want fresh
  /// accounting must reset the monitor explicitly.
  void set_strategy(core::Strategy s, unsigned threads);

  /// Measure mean per-node execution times over `cycles` sequential
  /// graph runs (the paper's "average vertex computation time using 10k
  /// APC executions"). Returns microseconds per node id.
  std::vector<double> measure_node_durations(std::size_t cycles);

  /// Current master tempo estimate (VC phase output).
  double master_tempo_bpm() const noexcept { return master_tempo_bpm_; }

  // ---- graph optimization (core/graph_opt, DESIGN.md §11) ----

  core::graph_opt::Mode graph_opt_mode() const noexcept {
    return cfg_.graph_opt;
  }
  /// Per-node cost model: seeded from the graph's reference durations at
  /// construction, refined online via observe_spans() / observe().
  core::graph_opt::CostModel& cost_model() noexcept { return *cost_model_; }
  const core::graph_opt::CostModel& cost_model() const noexcept {
    return *cost_model_;
  }
  /// Cached static schedule (nullptr unless mode is fuse+static).
  const core::graph_opt::StaticPlan* static_plan() const noexcept {
    return static_plan_.get();
  }

  /// EWMA refinement hook: fold every kRun span of `trace` into the
  /// per-node cost estimates. Returns the number of spans folded.
  std::size_t observe_spans(const support::TraceRecorder& trace);

  /// Rebuild the cached static plan from the current cost model (and
  /// re-create the executor so workers pick it up). No-op unless mode is
  /// fuse+static. Called automatically when the plan was invalidated by
  /// drift and the engine is between cycles.
  void rebuild_static_plan();

 private:
  CycleBreakdown run_cycle_body(CycleSupervisor* sup);
  void invalidate_static_plan();
  void track_graph_time(double graph_us);
  void poll_heal();
  void profile_cycle(bool missed);
  core::ExecOptions exec_options() const noexcept;
  void rebuild_executor();
  void apply_degradation(DegradationLevel target);
  void phase_tp(CycleBreakdown& c);
  void phase_gp(CycleBreakdown& c);
  void phase_vc(CycleBreakdown& c);
  void apply_pending_poison() noexcept;
  void finish_cycle_telemetry(const CycleBreakdown& c, bool missed,
                              unsigned level);
  void slo_cycle(const CycleBreakdown& c, bool missed, bool good);

  EngineConfig cfg_;
  std::array<std::unique_ptr<Deck>, 4> decks_;
  DjStarGraph graph_nodes_;
  // Declared before the graph and executors so workers and the graph's
  // journal pointer never outlive their sinks.
  std::unique_ptr<EngineTelemetry> telemetry_;
  // DJSTAR_TRACE support: armed at construction, dumped after the first
  // cycle, then disarmed (record() becomes a no-op).
  std::unique_ptr<support::TraceRecorder> env_trace_;
  std::string env_trace_path_;
  bool env_trace_pending_ = false;
  std::unique_ptr<core::graph_opt::CostModel> cost_model_;
  std::unique_ptr<core::CompiledGraph> compiled_;
  // Owned by the engine, pointed at by the executors via ExecOptions;
  // mutated (invalidate/replace) only between cycles.
  std::unique_ptr<core::graph_opt::StaticPlan> static_plan_;
  // Cycle-EWMA graph time captured when the current plan was built;
  // 0 until the first post-build cycle establishes it.
  double plan_baseline_us_ = 0.0;
  std::unique_ptr<core::Executor> executor_;
  DeadlineMonitor monitor_;
  double master_tempo_bpm_ = 0.0;
  double beat_phase_ = 0.0;

  // Fault tolerance. The ladder level actually applied to the graph
  // (masks, deck flags) — follows supervisor().level() with a one-cycle
  // lag because actuation happens between cycles.
  std::unique_ptr<CycleSupervisor> supervisor_;
  std::unique_ptr<core::Executor> fallback_exec_;
  DegradationLevel applied_level_ = DegradationLevel::kFull;
  // Set by the graph's poison hook (worker threads); consumed after the
  // executor returns so injected NaNs land in the finished output packet
  // instead of contaminating filter state mid-graph.
  std::atomic<bool> poison_pending_{false};

  // Self-healing poll state (DESIGN.md §12): last-seen cumulative team
  // counters, diffed after every cycle into supervisor/telemetry, plus
  // the live worker count from the previous poll (0 = not yet seen) for
  // static-plan invalidation on team-size changes.
  std::uint64_t seen_heal_quarantines_ = 0;
  std::uint64_t seen_heal_respawns_ = 0;
  unsigned seen_heal_live_ = 0;
  std::uint64_t heal_cycle_ = 0;

  // Cycle attribution (DESIGN.md §14). Declared after telemetry_ so the
  // profiler (which borrows telemetry's registry/journal) is destroyed
  // first. cp_baseline_us_ mirrors plan_baseline_us_: the realized
  // critical-path EWMA captured when the current static plan was built,
  // reset whenever the plan changes.
  std::unique_ptr<CycleProfiler> profiler_;
  std::unique_ptr<HwSampler> hw_sampler_;
  bool hw_armed_ = false;
  std::vector<support::TraceSpan> prof_spans_;  // per-cycle scratch
  double cp_baseline_us_ = 0.0;

  // SLO engine (DESIGN.md §15). The tracker owns series inside the
  // store, so it is declared after (destroyed before) the store.
  std::unique_ptr<support::TimeSeriesStore> slo_tsdb_;
  std::unique_ptr<support::SloTracker> slo_;
  support::Gauge g_slo_budget_;
  support::Gauge g_slo_state_;
  support::Gauge g_slo_burn_fast_;
  support::Gauge g_slo_burn_slow_;
  std::uint64_t slo_cycles_seen_ = 0;  // drives the virtual tsdb clock
};

}  // namespace djstar::engine

#include "djstar/engine/engine.hpp"

#include <cmath>
#include <string>

#include "djstar/core/team.hpp"
#include "djstar/core/thread_count.hpp"
#include "djstar/support/assert.hpp"
#include "djstar/support/env.hpp"
#include "djstar/support/time.hpp"

namespace djstar::engine {
namespace {

std::array<std::unique_ptr<Deck>, 4> make_decks(const EngineConfig& cfg) {
  std::array<std::unique_ptr<Deck>, 4> decks;
  for (unsigned d = 0; d < 4; ++d) {
    audio::TrackSpec spec;
    spec.seed = cfg.track_seeds[d];
    spec.bpm = 120.0 + 4.0 * d;  // slightly different tempos to beat-match
    spec.root_note = 45 + static_cast<int>(d) * 2;
    decks[d] = std::make_unique<Deck>(d, spec);
    decks[d]->set_keylock(cfg.keylock);
  }
  return decks;
}

std::array<const audio::AudioBuffer*, 4> deck_inputs(
    const std::array<std::unique_ptr<Deck>, 4>& decks) {
  return {&decks[0]->input(), &decks[1]->input(), &decks[2]->input(),
          &decks[3]->input()};
}

}  // namespace

AudioEngine::AudioEngine(EngineConfig cfg)
    : cfg_(cfg),
      decks_(make_decks(cfg)),
      graph_nodes_(deck_inputs(decks_)),
      monitor_(cfg.deadline_us, cfg.keep_samples) {
  // Hardened: DJSTAR_THREADS overrides, 0 = auto, garbage throws.
  cfg_.threads = core::resolve_thread_count(cfg_.threads);
  // Hardened: DJSTAR_GRAPH_OPT overrides, garbage throws.
  if (auto mode = core::graph_opt::mode_from_env()) cfg_.graph_opt = *mode;
  // Hardened: DJSTAR_HEAL overrides, garbage throws.
  cfg_.heal.mode = core::heal_mode_from_env(cfg_.heal.mode);
  // Hardened: DJSTAR_PROF overrides, garbage throws.
  if (auto pmode = prof_mode_from_env()) cfg_.profiler.mode = *pmode;
  // Hardened: DJSTAR_SLO overrides enabled/spec, garbage throws. Window
  // geometry and retention stay whatever the embedder configured.
  if (auto slo = support::SloConfig::from_env()) {
    cfg_.slo.enabled = slo->enabled;
    cfg_.slo.spec = slo->spec;
  }

  // Cost model: seeded offline from the graph's reference durations,
  // refined online via observe_spans()/observe() (DESIGN.md §11).
  cost_model_ = std::make_unique<core::graph_opt::CostModel>(
      graph_nodes_.graph().node_count());
  cost_model_->seed(graph_nodes_.reference_durations());

  const auto plan =
      cfg_.graph_opt == core::graph_opt::Mode::kOff
          ? core::graph_opt::Plan::identity(graph_nodes_.graph().node_count())
          : core::graph_opt::plan_fusion(graph_nodes_.graph(), *cost_model_,
                                         cfg_.fusion);
  compiled_ = std::make_unique<core::CompiledGraph>(graph_nodes_.graph(), plan);

  // Register the bypass forms once; masking toggles them per level.
  for (core::NodeId n = 0; n < compiled_->node_count(); ++n) {
    if (graph_nodes_.degrade_tier(n) == DegradeTier::kFxBypass) {
      compiled_->set_bypass(n, graph_nodes_.bypass_work(n));
    }
  }
  // NaN faults are applied *after* the executor returns (see
  // apply_pending_poison) so injected NaNs never enter filter state.
  compiled_->set_poison_hook([this](core::NodeId) {
    poison_pending_.store(true, std::memory_order_relaxed);
  });
  if (auto faults = core::chaos::FaultPlan::from_env()) {
    compiled_->arm_faults(*faults);
  }

  // DJSTAR_FLIGHT=<path>: telemetry on, incidents auto-dump to <path>.
  if (auto path = support::env_path("DJSTAR_FLIGHT")) {
    TelemetryConfig tcfg;
    tcfg.flight_dump_path = *path;
    telemetry_ =
        std::make_unique<EngineTelemetry>(tcfg, cfg_.deadline_us, cfg_.threads);
    compiled_->set_journal(&telemetry_->journal());
  }
  // DJSTAR_TRACE=<path>: capture the first cycle as a Chrome trace.
  if (auto path = support::env_path("DJSTAR_TRACE")) {
    env_trace_path_ = *path;
    env_trace_ = std::make_unique<support::TraceRecorder>();
    env_trace_->arm(cfg_.threads);
    env_trace_pending_ = true;
  }

  rebuild_static_plan();  // no-op unless fuse+static
  rebuild_executor();

  if (cfg_.profiler.mode != ProfMode::kOff) enable_profiler(cfg_.profiler);
  if (cfg_.slo.enabled) enable_slo(cfg_.slo);
}

core::ExecOptions AudioEngine::exec_options() const noexcept {
  core::ExecOptions opts = cfg_.exec;
  opts.threads = cfg_.threads;
  opts.heal = cfg_.heal;
  if (env_trace_ != nullptr) opts.trace = env_trace_.get();
  if (telemetry_ != nullptr) opts.flight = &telemetry_->flight();
  if (static_plan_ != nullptr) opts.static_plan = static_plan_.get();
  return opts;
}

std::size_t AudioEngine::observe_spans(const support::TraceRecorder& trace) {
  std::size_t folded = 0;
  for (const auto& s : trace.collect()) {
    if (s.kind == support::SpanKind::kRun && s.node >= 0 &&
        static_cast<std::size_t>(s.node) < cost_model_->node_count()) {
      cost_model_->observe(static_cast<core::NodeId>(s.node), s.duration_us());
      ++folded;
    }
  }
  return folded;
}

void AudioEngine::rebuild_static_plan() {
  if (cfg_.graph_opt != core::graph_opt::Mode::kFuseStatic) return;
  auto fresh = core::graph_opt::build_static_plan(*compiled_, *cost_model_,
                                                  cfg_.threads);
  if (static_plan_ == nullptr) {
    static_plan_ = std::make_unique<core::graph_opt::StaticPlan>(
        std::move(fresh));
    // Wire the plan pointer into the workers (during construction the
    // first executor is built right after this).
    if (executor_ != nullptr) rebuild_executor();
  } else {
    static_plan_->replace(std::move(fresh));
  }
  plan_baseline_us_ = 0.0;
  cp_baseline_us_ = 0.0;
  if (cost_model_->max_cv() > cfg_.plan_max_cv) invalidate_static_plan();
}

// Fall back to dynamic scheduling from the next cycle on, until
// rebuild_static_plan(). Neither drift baseline is read while the plan
// is invalid, so both restart from the first cycle under the next plan.
void AudioEngine::invalidate_static_plan() {
  if (static_plan_ == nullptr) return;
  static_plan_->invalidate();
  plan_baseline_us_ = 0.0;
  cp_baseline_us_ = 0.0;
}

void AudioEngine::track_graph_time(double graph_us) {
  cost_model_->observe_cycle(graph_us);
  if (static_plan_ == nullptr || !static_plan_->valid()) return;
  if (plan_baseline_us_ <= 0.0) {
    // First cycle after a (re)build establishes the drift baseline.
    plan_baseline_us_ = cost_model_->cycle_ewma_us();
    return;
  }
  const double r = cost_model_->drift_ratio(plan_baseline_us_);
  if (r > cfg_.plan_drift_ratio || r < 1.0 / cfg_.plan_drift_ratio) {
    // The cached schedule no longer matches reality.
    invalidate_static_plan();
  }
}

void AudioEngine::rebuild_executor() {
  executor_.reset();  // join old workers before spawning new ones
  executor_ =
      core::make_executor(cfg_.strategy, *compiled_, exec_options(), cfg_.ws);
  seen_heal_live_ = 0;  // fresh team: re-baseline the live-worker poll
  hw_armed_ = false;    // fresh team: new tids; re-arm perf counters lazily
}

// Fold the team's self-healing counters into the supervisor and
// telemetry, and invalidate the cached static plan when the effective
// team size changed (a quarantine shrank it, a respawn restored it) —
// the recovery rung runs degraded on N-1 workers until the replacement
// rejoins (DESIGN.md §12). Called between cycles, after the executor
// returned.
void AudioEngine::poll_heal() {
  const core::Team* tm = executor_->team();
  if (tm == nullptr || !tm->healing()) return;
  ++heal_cycle_;
  const core::HealStats hs = tm->heal_stats();
  if (supervisor_) {
    if (hs.quarantines > seen_heal_quarantines_) {
      supervisor_->note_worker_quarantine(
          hs.quarantines - seen_heal_quarantines_, heal_cycle_);
    }
    if (hs.respawns > seen_heal_respawns_) {
      supervisor_->note_worker_respawn(hs.respawns - seen_heal_respawns_,
                                       heal_cycle_);
    }
  }
  seen_heal_quarantines_ = hs.quarantines;
  seen_heal_respawns_ = hs.respawns;
  if (seen_heal_live_ != 0 && hs.live != seen_heal_live_) {
    invalidate_static_plan();
  }
  seen_heal_live_ = hs.live;
  if (telemetry_) telemetry_->on_heal(hs);
}

void AudioEngine::enable_profiler(const ProfilerConfig& pcfg) {
  cfg_.profiler = pcfg;
  if (cfg_.profiler.mode == ProfMode::kOff) {
    profiler_.reset();
    hw_sampler_.reset();
    return;
  }
  // The flight recorder is the per-cycle span source.
  if (telemetry_ == nullptr) enable_telemetry();
  const auto& g = graph_nodes_.graph();
  std::vector<std::vector<std::int32_t>> preds(g.node_count());
  for (core::NodeId n = 0; n < g.node_count(); ++n) {
    for (core::NodeId s : g.successors(n)) {
      preds[s].push_back(static_cast<std::int32_t>(n));
    }
  }
  profiler_ = std::make_unique<CycleProfiler>(
      cfg_.profiler, std::move(preds), cfg_.deadline_us,
      &telemetry_->registry(), &telemetry_->journal());
  if (cfg_.profiler.mode == ProfMode::kAttribHw) {
    hw_sampler_ = std::make_unique<HwSampler>();
    profiler_->set_hw(hw_sampler_.get());
  } else {
    hw_sampler_.reset();
  }
  hw_armed_ = false;
  cp_baseline_us_ = 0.0;
}

// Attribute the finished cycle from its flight spans, then treat
// realized-critical-path drift as a first-class invalidation signal for
// the cached static plan: the plan's longest-chain-first ordering was
// built around a predicted critical path, so when the realized one
// moves far enough the schedule is stale even before total cycle time
// drifts (DESIGN.md §14).
void AudioEngine::profile_cycle(bool missed) {
  if (profiler_ == nullptr || telemetry_ == nullptr) return;
  if (hw_sampler_ != nullptr && !hw_armed_) {
    // Arm perf counters lazily after the first cycle: by then every
    // team worker has started and recorded its tid.
    std::vector<std::int32_t> tids;
    if (const core::Team* tm = executor_->team()) {
      for (unsigned w = 0; w < tm->threads(); ++w) {
        tids.push_back(tm->worker_tid(w));
      }
    } else {
      tids.push_back(HwSampler::self_tid());  // sequential: the caller
    }
    hw_sampler_->open(tids);
    hw_armed_ = true;
  }
  const std::uint64_t fcycle = telemetry_->flight().cycle();
  telemetry_->flight().collect_cycle(fcycle, prof_spans_);
  const auto& at = profiler_->on_cycle(prof_spans_, missed, fcycle);

  if (static_plan_ != nullptr && static_plan_->valid() && !at.empty()) {
    if (cp_baseline_us_ <= 0.0) {
      cp_baseline_us_ = profiler_->cp_ewma_us();
    } else {
      const double r = profiler_->drift_ratio(cp_baseline_us_);
      if (r > cfg_.profiler.cp_drift_ratio ||
          r < 1.0 / cfg_.profiler.cp_drift_ratio) {
        invalidate_static_plan();
        profiler_->note_cp_drift(r, fcycle);
      }
    }
  }
}

void AudioEngine::enable_slo(const support::SloConfig& scfg) {
  cfg_.slo = scfg;
  slo_.reset();  // tracker drops its series before the store goes
  slo_tsdb_.reset();
  if (!cfg_.slo.enabled) return;
  // Gauges, journal events, and the page-triggered incident dump all
  // live on the telemetry bundle.
  if (telemetry_ == nullptr) enable_telemetry();
  if (!cfg_.slo.windows.valid()) {
    cfg_.slo.windows =
        support::SloWindows::sre_defaults(cfg_.slo.tsdb.window_us);
  }
  slo_tsdb_ = std::make_unique<support::TimeSeriesStore>(cfg_.slo.tsdb);
  slo_ = std::make_unique<support::SloTracker>(*slo_tsdb_, "engine",
                                               cfg_.slo.spec,
                                               cfg_.slo.windows);
  auto& reg = telemetry_->registry();
  g_slo_budget_ = reg.gauge(
      "djstar_slo_budget_remaining",
      "Error budget remaining over the slow-long window (worst "
      "objective; 1 = untouched, 0 = exhausted)");
  g_slo_state_ = reg.gauge("djstar_slo_alert_state",
                           "SLO alert state (0 = ok, 1 = warn, 2 = page)");
  g_slo_burn_fast_ =
      reg.gauge("djstar_slo_miss_burn_fast",
                "Deadline-miss burn rate over the fast-short window");
  g_slo_burn_slow_ =
      reg.gauge("djstar_slo_miss_burn_slow",
                "Deadline-miss burn rate over the slow-short window");
  g_slo_budget_.set(1.0);
  g_slo_state_.set(0.0);
  slo_cycles_seen_ = 0;
}

// Feed the finished cycle into the SLO tracker and, when the virtual
// clock sealed a tsdb window, re-evaluate the burn rates. A page-level
// escalation is handed to the supervisor as an early-degradation signal
// and to the flight recorder as an incident-dump trigger (DESIGN.md §15).
void AudioEngine::slo_cycle(const CycleBreakdown& c, bool missed, bool good) {
  if (slo_ == nullptr) return;
  slo_->record_cycle(c.total_us(), missed, good);
  ++slo_cycles_seen_;
  // Virtual clock: cycles × deadline. Deterministic, so the whole alert
  // state machine replays identically under test.
  const double now_us =
      static_cast<double>(slo_cycles_seen_) * cfg_.deadline_us;
  if (slo_tsdb_->advance(now_us) == 0) return;
  const support::SloAlertState prev = slo_->status().state;
  if (slo_->evaluate()) {
    const support::SloStatus& st = slo_->status();
    const bool escalated = st.state > prev;
    telemetry_->journal().push(
        escalated ? support::EventKind::kSloAlert
                  : support::EventKind::kSloRecover,
        slo_cycles_seen_, /*a=*/0,
        static_cast<std::int64_t>(st.state), st.budget_remaining);
    if (escalated && st.state == support::SloAlertState::kPage) {
      if (supervisor_) supervisor_->force_degrade();
      telemetry_->on_slo_page(slo_cycles_seen_);
    }
  }
  const support::SloStatus& st = slo_->status();
  g_slo_budget_.set(st.budget_remaining);
  g_slo_state_.set(static_cast<double>(st.state));
  g_slo_burn_fast_.set(st.miss.fast_short);
  g_slo_burn_slow_.set(st.miss.slow_short);
}

void AudioEngine::enable_telemetry(const TelemetryConfig& tcfg) {
  telemetry_ =
      std::make_unique<EngineTelemetry>(tcfg, cfg_.deadline_us, cfg_.threads);
  compiled_->set_journal(&telemetry_->journal());
  if (supervisor_) supervisor_->set_journal(&telemetry_->journal());
  rebuild_executor();  // wire the flight recorder into the workers
}

void AudioEngine::set_strategy(core::Strategy s, unsigned threads) {
  cfg_.strategy = s;
  cfg_.threads = core::resolve_thread_count(threads);
  if (telemetry_) telemetry_->on_threads_changed(cfg_.threads);
  if (env_trace_ && env_trace_pending_) env_trace_->arm(cfg_.threads);
  // The cached schedule is per-width; rebuild it for the new team.
  if (static_plan_ != nullptr) rebuild_static_plan();
  rebuild_executor();
  // The compiled graph (including any degradation masks) and the
  // monitor are untouched; tell the supervisor so it can keep its
  // ladder state across the swap.
  if (supervisor_) supervisor_->on_executor_rebuilt();
}

void AudioEngine::enable_supervision(const SupervisorConfig& scfg) {
  SupervisorConfig sc = scfg;
  sc.deadline_us = cfg_.deadline_us;
  supervisor_ = std::make_unique<CycleSupervisor>(*compiled_, sc);
  if (telemetry_) supervisor_->set_journal(&telemetry_->journal());
  if (!fallback_exec_) {
    // Pre-built so stepping onto the kSequentialFallback rung is a
    // pointer swap, not an executor construction on the audio path.
    core::ExecOptions opts = exec_options();
    opts.threads = 1;
    fallback_exec_ = core::make_executor(core::Strategy::kSequential,
                                         *compiled_, opts, cfg_.ws);
  }
}

void AudioEngine::phase_tp(CycleBreakdown& c) {
  // TP: decode the external control signals (paper: 16% of the APC).
  support::ScopedTimer t(c.tp_us);
  for (auto& d : decks_) d->process_timecode();
}

void AudioEngine::phase_gp(CycleBreakdown& c) {
  // GP: time stretching, phase alignment, buffer overhead (33%).
  support::ScopedTimer t(c.gp_us);
  for (auto& d : decks_) d->preprocess();
}

void AudioEngine::phase_vc(CycleBreakdown& c) {
  // VC: accounting calculations, e.g. updating the master tempo.
  support::ScopedTimer t(c.vc_us);
  double tempo = 0.0;
  for (auto& d : decks_) {
    tempo += std::abs(d->decoded_pitch()) * d->track().bpm();
  }
  tempo *= 0.25;
  master_tempo_bpm_ += 0.1 * (tempo - master_tempo_bpm_);
  const double beats_per_block =
      master_tempo_bpm_ / 60.0 * (static_cast<double>(audio::kBlockSize) /
                                  audio::kSampleRate);
  beat_phase_ = std::fmod(beat_phase_ + beats_per_block, 1.0);
}

void AudioEngine::apply_pending_poison() noexcept {
  if (poison_pending_.exchange(false, std::memory_order_relaxed)) {
    graph_nodes_.poison_output();
  }
}

void AudioEngine::finish_cycle_telemetry(const CycleBreakdown& c,
                                         bool missed, unsigned level) {
  // DJSTAR_TRACE: the armed first cycle just finished — dump and disarm
  // (workers see the disarm at the next cycle's synchronization).
  if (env_trace_pending_ && env_trace_ != nullptr) {
    env_trace_->write_chrome_trace(env_trace_path_);
    env_trace_->disarm();
    env_trace_pending_ = false;
  }
  if (telemetry_ != nullptr) {
    SupervisorStats sup{};
    const SupervisorStats* sp = nullptr;
    if (supervisor_) {
      sup = supervisor_->stats();
      sp = &sup;
    }
    const support::TraceRecorder* trace =
        env_trace_ != nullptr ? env_trace_.get() : cfg_.exec.trace;
    telemetry_->on_cycle(c, missed, level, sp, compiled_->faults_injected(),
                         trace);
  }
}

void AudioEngine::apply_degradation(DegradationLevel target) {
  if (target == applied_level_) return;
  const bool shed = target >= DegradationLevel::kBypassFx;
  for (core::NodeId n = 0; n < compiled_->node_count(); ++n) {
    switch (graph_nodes_.degrade_tier(n)) {
      case DegradeTier::kFxBypass:   // masked FX run their bypass form
      case DegradeTier::kSinkSkip:   // masked sinks are skipped outright
        compiled_->set_node_masked(n, shed);
        break;
      case DegradeTier::kEssential:
        break;
    }
  }
  const bool no_stretch = target >= DegradationLevel::kNoStretch;
  for (auto& d : decks_) d->set_stretch_degraded(no_stretch);
  applied_level_ = target;
  // Masking/bypass changes the effective node costs, so a cached
  // schedule computed for the previous level is stale.
  invalidate_static_plan();
}

CycleBreakdown AudioEngine::run_cycle() { return run_cycle_body(nullptr); }

CycleBreakdown AudioEngine::run_cycle_supervised() {
  DJSTAR_ASSERT_MSG(supervisor_ != nullptr,
                    "call enable_supervision() first");
  // Actuate the level the ladder decided at the end of the previous
  // cycle; all graph mutation happens here, between cycles.
  apply_degradation(supervisor_->level());
  return run_cycle_body(supervisor_.get());
}

// The one cycle body behind both entry points. Unsupervised (`sup` null)
// the cycle runs at level 0 on the main executor and every cycle counts
// as available; misses still burn the miss budget.
CycleBreakdown AudioEngine::run_cycle_body(CycleSupervisor* sup) {
  const DegradationLevel level =
      sup != nullptr ? applied_level_ : DegradationLevel::kFull;
  // Safe mode keeps decoding the control signals (so recovery resumes in
  // sync) but skips GP/Graph/VC; the supervisor feeds the sound card.
  const bool safe_mode = level == DegradationLevel::kSafeMode;
  if (telemetry_) telemetry_->flight().begin_cycle();

  CycleBreakdown c;
  phase_tp(c);
  if (!safe_mode) {
    phase_gp(c);
    {
      // Graph: the task graph under the selected strategy (38%).
      support::ScopedTimer t(c.graph_us);
      core::Executor* exec = level >= DegradationLevel::kSequentialFallback
                                 ? fallback_exec_.get()
                                 : executor_.get();
      if (sup != nullptr) sup->watchdog_arm();
      exec->run_cycle();
      if (sup != nullptr) sup->watchdog_disarm();
    }
    track_graph_time(c.graph_us);
    poll_heal();
    apply_pending_poison();
    phase_vc(c);
  }

  const auto lvl = static_cast<unsigned>(level);
  const bool missed = monitor_.add(c, lvl);
  CycleOutcome outcome = CycleOutcome::kClean;
  if (safe_mode) {
    sup->supervise_safe_mode_cycle(c);
    outcome = CycleOutcome::kSafeMode;
  } else if (sup != nullptr) {
    outcome = sup->supervise_cycle(c, missed, graph_nodes_.output());
  }
  finish_cycle_telemetry(c, missed, lvl);
  profile_cycle(missed);  // safe mode has no graph spans; counts stay exact
  slo_cycle(c, missed, emitted_real_audio(outcome));
  return c;
}

void AudioEngine::run_cycles(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) run_cycle();
}

std::vector<double> AudioEngine::measure_node_durations(std::size_t cycles) {
  const auto order = compiled_->order();
  std::vector<double> sum(compiled_->node_count(), 0.0);
  for (std::size_t it = 0; it < cycles; ++it) {
    for (auto& d : decks_) d->process_timecode();
    for (auto& d : decks_) d->preprocess();
    for (core::NodeId n : order) {
      const auto t0 = support::now();
      compiled_->work(n)();
      sum[n] += support::since_us(t0);
    }
  }
  for (auto& s : sum) s /= static_cast<double>(cycles ? cycles : 1);
  return sum;
}

}  // namespace djstar::engine

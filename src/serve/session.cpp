#include "djstar/serve/session.hpp"

#include "djstar/serve/admission.hpp"
#include "djstar/support/assert.hpp"
#include "djstar/support/time.hpp"

#include <algorithm>
#include <vector>

namespace djstar::serve {
namespace {

engine::SupervisorConfig session_supervisor_cfg(engine::SupervisorConfig scfg,
                                                double deadline_us) {
  scfg.deadline_us = deadline_us;
  // One watchdog thread per session does not scale to a fleet; a stuck
  // session is the host's problem (future host-level watchdog).
  scfg.use_watchdog = false;
  return scfg;
}

}  // namespace

Session::Session(SessionId id, SessionSpec spec, core::Team& team,
                 const core::ExecOptions& exec,
                 const core::WorkStealingOptions& ws,
                 engine::SupervisorConfig scfg)
    : id_(id),
      spec_(std::move(spec)),
      compiled_(std::make_unique<core::CompiledGraph>(spec_.graph)),
      monitor_(spec_.deadline_us, /*keep_samples=*/true, /*reserve=*/4096),
      supervisor_(*compiled_,
                  session_supervisor_cfg(scfg, spec_.deadline_us)),
      latency_(0.0, 4.0 * spec_.deadline_us, kLatencyBins) {
  core::ExecOptions opts = exec;
  opts.threads = team.threads();
  opts.trace = &trace_;
  hosted_ = std::make_unique<core::WorkStealingExecutor>(*compiled_, team,
                                                         opts, ws);
  core::ExecOptions seq_opts = exec;
  seq_opts.threads = 1;
  seq_opts.trace = nullptr;
  fallback_ = std::make_unique<core::SequentialExecutor>(*compiled_, seq_opts);

  cost_estimate_us_ =
      spec_.cost_estimate_us > 0
          ? spec_.cost_estimate_us
          : estimate_graph_cost_us(*compiled_, spec_.node_cost_us,
                                   team.threads());
  if (spec_.faults.any()) compiled_->arm_faults(spec_.faults);
  DJSTAR_ASSERT_MSG(spec_.deadline_us > 0, "session deadline must be > 0");
}

void Session::apply_level(engine::DegradationLevel level) {
  if (level == applied_level_) return;
  const bool shed = level >= engine::DegradationLevel::kBypassFx;
  for (core::NodeId n : spec_.sheddable) {
    compiled_->set_node_masked(n, shed);
  }
  applied_level_ = level;
}

double Session::run_cycle(double wait_us, double allowed_us) {
  using engine::DegradationLevel;
  // Actuate the ladder level decided at the end of the previous cycle —
  // between cycles, where the compiled graph permits mutation.
  const DegradationLevel level = supervisor_.level();
  apply_level(level);
  // Profiling reuses the trace recorder as a cycle-scoped span buffer:
  // drop the previous cycle's spans now, between cycles (allocation-free).
  if (profiler_ != nullptr && trace_.armed()) trace_.clear_spans();
  const auto level_idx = static_cast<unsigned>(level);

  engine::CycleBreakdown c;
  // EDF dispatch delay counts against the session's deadline: a packet
  // served late is late no matter how fast its graph ran. The TP slot
  // is reused for it (the serve layer has no timecode phase).
  c.tp_us = wait_us;

  const bool safe_mode = level == DegradationLevel::kSafeMode;
  if (!safe_mode) {
    const auto t0 = support::now();
    core::Executor* exec = level >= DegradationLevel::kSequentialFallback
                               ? static_cast<core::Executor*>(fallback_.get())
                               : static_cast<core::Executor*>(hosted_.get());
    exec->run_cycle();
    c.graph_us = support::since_us(t0);
  }
  // The ladder's verdict: wait + graph against the session's own
  // deadline, decided by the monitor and handed to the supervisor.
  const bool overran = monitor_.add(c, level_idx);
  if (safe_mode) {
    supervisor_.supervise_safe_mode_cycle(c);
    last_outcome_ = engine::CycleOutcome::kSafeMode;
  } else {
    last_outcome_ = supervisor_.supervise_cycle(
        c, overran, spec_.output != nullptr ? *spec_.output : silent_);
  }

  // The slot verdict: completion against this tick's budget to the
  // session's absolute deadline. Counters, the profiler and the host's
  // exports, SLOs and breaker all read this one.
  const double completion = c.total_us();
  ++counters_.cycles;
  last_missed_ = completion > allowed_us;
  if (last_missed_) ++counters_.misses;
  if (level != DegradationLevel::kFull) ++counters_.degraded_cycles;
  latency_.add(completion);

  if (profiler_ != nullptr) {
    // Safe mode / sequential fallback record no spans into trace_; the
    // empty attribution still counts the cycle so exports stay exact.
    trace_.collect_into(prof_spans_);
    profiler_->on_cycle(prof_spans_, last_missed_, counters_.cycles);
  }
  return completion;
}

void Session::enable_profiler(const engine::ProfilerConfig& pcfg,
                              support::MetricsRegistry* registry,
                              support::EventJournal* journal) {
  if (pcfg.mode == engine::ProfMode::kOff) {
    profiler_.reset();
    return;
  }
  if (!trace_.armed()) {
    // Cycle-scoped buffer: one slot per node is enough for run spans plus
    // a generous margin for wait spans.
    trace_.arm(hosted_->threads(), 2 * compiled_->node_count() + 64);
  }
  std::vector<std::vector<std::int32_t>> preds(compiled_->node_count());
  for (std::size_t n = 0; n < compiled_->node_count(); ++n) {
    for (core::NodeId s : spec_.graph.successors(static_cast<core::NodeId>(n))) {
      preds[static_cast<std::size_t>(s)].push_back(
          static_cast<std::int32_t>(n));
    }
  }
  profiler_ = std::make_unique<engine::CycleProfiler>(
      pcfg, std::move(preds), spec_.deadline_us, registry, journal);
}

void Session::arm_faults(const core::chaos::FaultPlan& plan) {
  compiled_->arm_faults(plan);
}

void Session::disarm_faults() noexcept { compiled_->disarm_faults(); }

double Session::observed_cost_p99_us() const {
  const auto& xs = monitor_.graph_samples();
  if (xs.size() < 32) return cost_estimate_us_;
  std::vector<double> sorted(xs);
  std::sort(sorted.begin(), sorted.end());
  const auto idx = static_cast<std::size_t>(
      0.99 * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

void Session::arm_tracing(std::size_t capacity_per_worker) {
  trace_.arm(hosted_->threads(), capacity_per_worker);
}

void Session::restore(const SessionSnapshot& snap) {
  // Walk the fresh supervisor's ladder down to the saved level so a
  // session that tripped while degraded does not restart at full quality
  // only to fault again; the next clean window recovers it normally.
  while (supervisor_.level() < snap.level && supervisor_.force_degrade()) {
  }
  if (snap.cost_estimate_us > 0) cost_estimate_us_ = snap.cost_estimate_us;
}

}  // namespace djstar::serve

#include "djstar/core/busy_wait.hpp"

#include <thread>

#include "djstar/core/chaos.hpp"
#include "djstar/core/detail/heal_run.hpp"
#include "djstar/core/detail/spin.hpp"
#include "djstar/core/detail/span_sink.hpp"
#include "djstar/core/detail/unit_run.hpp"

namespace djstar::core {

BusyWaitExecutor::BusyWaitExecutor(CompiledGraph& graph, ExecOptions opts)
    : graph_(graph), opts_(opts) {
  team_ = std::make_unique<Team>(
      opts_.threads, StartMode::kSpin, opts_.spin,
      [this](unsigned w) { worker_body(w); }, opts_.heal);
  // No rescue hook: the busy-waiting heal body polls the health board on
  // every wait burst, so survivors discover quarantined lanes without a
  // kick from the medic.
}

void BusyWaitExecutor::run_cycle() {
  graph_.begin_cycle();
  use_plan_ = detail::plan_active(opts_);
  cycle_start_ = support::now();
  team_->run_cycle();
}

void BusyWaitExecutor::worker_body(unsigned w) {
  const auto order = graph_.unit_order();
  const unsigned T = opts_.threads;
  const detail::SpanSink emit(opts_, w);
  const bool tracing = emit.tracing();

  if (use_plan_) {
    detail::replay_static(graph_, *opts_.static_plan, w, stats_, opts_.spin,
                          tracing, cycle_start_, emit,
                          support::SpanKind::kBusyWait);
    return;
  }

  if (team_->healing()) {
    heal_body(w);
    return;
  }

  for (std::size_t k = w; k < order.size(); k += T) {
    const UnitId u = order[k];
    auto& pending = graph_.unit_pending(u);

    double wait_begin = 0.0;
    if (tracing) wait_begin = support::elapsed_us(cycle_start_, support::now());

    // Dependency check + busy wait (the gray boxes in paper Fig. 11).
    chaos::maybe_perturb(chaos::Site::kDependencyCheck);
    if (pending.load(std::memory_order_acquire) != 0) {
      detail::SpinWaiter waiter(opts_.spin);
      while (pending.load(std::memory_order_acquire) != 0) {
        waiter.step();
      }
      stats_.busy_wait_spins.fetch_add(waiter.spins(),
                                       std::memory_order_relaxed);
    }

    if (tracing) {
      const double run_begin =
          support::elapsed_us(cycle_start_, support::now());
      if (run_begin - wait_begin > 0.5) {
        emit({wait_begin, run_begin, w,
              static_cast<std::int32_t>(graph_.unit_members(u).front()),
              support::SpanKind::kBusyWait});
      }
    }

    detail::run_unit(graph_, u, w, stats_, tracing, cycle_start_, emit);

    for (UnitId s : graph_.unit_successors(u)) {
      graph_.unit_pending(s).fetch_sub(1, std::memory_order_acq_rel);
    }
  }
}

// Heal-armed variant of the round-robin body: claim-gated runs, bounded
// spin bursts (so the adopt scan interleaves with dependency waits), and
// a help phase that keeps every survivor working until the whole graph
// is done (DESIGN.md §12).
void BusyWaitExecutor::heal_body(unsigned w) {
  const detail::SpanSink emit(opts_, w);
  const bool tracing = emit.tracing();
  HealthBoard& hb = team_->health();

  const auto wait_ready = [&](UnitId u) {
    auto& pending = graph_.unit_pending(u);
    std::uint32_t spins = 0;
    while (spins < 256 &&
           pending.load(std::memory_order_acquire) != 0) {
      detail::cpu_pause();
      ++spins;
    }
    stats_.busy_wait_spins.fetch_add(spins, std::memory_order_relaxed);
    hb.beat(w);
    return true;
  };
  const auto resolve = [&](UnitId u) {
    for (UnitId s : graph_.unit_successors(u)) {
      graph_.unit_pending(s).fetch_sub(1, std::memory_order_acq_rel);
    }
  };
  const auto help_pause = [] { std::this_thread::yield(); };

  detail::heal_round_robin_body(graph_, hb, w, opts_.threads, stats_, tracing,
                                cycle_start_, emit, wait_ready, resolve,
                                help_pause);
}

}  // namespace djstar::core

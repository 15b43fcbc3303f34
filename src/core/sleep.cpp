#include "djstar/core/sleep.hpp"

#include <chrono>
#include <thread>

#include "djstar/core/chaos.hpp"
#include "djstar/core/detail/heal_run.hpp"
#include "djstar/core/detail/span_sink.hpp"
#include "djstar/core/detail/unit_run.hpp"

namespace djstar::core {

SleepExecutor::SleepExecutor(CompiledGraph& graph, ExecOptions opts)
    : graph_(graph), opts_(opts) {
  slots_.reserve(opts_.threads);
  for (unsigned i = 0; i < opts_.threads; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
  team_ = std::make_unique<Team>(
      opts_.threads, StartMode::kCondvar, opts_.spin,
      [this](unsigned w) { worker_body(w); }, opts_.heal);
  if (team_->healing()) {
    // A quarantined worker may have been the one slated to wake a
    // sleeper (its unfinished unit resolves the sleeper's dependency).
    // The heal body's parks are bounded, so sleepers re-check on their
    // own; the rescue kick just shortens the detection latency.
    team_->set_rescue([this](unsigned) {
      for (auto& slot : slots_) {
        const std::lock_guard<std::mutex> lk(slot->m);
        slot->cv.notify_all();
      }
    });
  }
}

void SleepExecutor::run_cycle() {
  graph_.begin_cycle();
  use_plan_ = detail::plan_active(opts_);
  cycle_start_ = support::now();
  team_->run_cycle();
}

void SleepExecutor::worker_body(unsigned w) {
  const auto order = graph_.unit_order();
  const unsigned T = opts_.threads;
  const detail::SpanSink emit(opts_, w);
  const bool tracing = emit.tracing();
  const auto wid = static_cast<std::int32_t>(w);

  if (use_plan_) {
    detail::replay_static(graph_, *opts_.static_plan, w, stats_, opts_.spin,
                          tracing, cycle_start_, emit,
                          support::SpanKind::kSleep);
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

    chaos::maybe_perturb(chaos::Site::kDependencyCheck);
    if (pending.load(std::memory_order_acquire) != 0) {
      // Register as this unit's executor (paper Fig. 6a), then re-check:
      // either we observe pending==0 here (the resolving predecessor ran
      // between our first check and the registration), or the
      // predecessor observes our registration and wakes us. seq_cst on
      // both sides makes the flag/counter protocol race-free.
      graph_.unit_waiter(u).store(wid, std::memory_order_seq_cst);
      chaos::maybe_perturb(chaos::Site::kBeforeWait);
      if (pending.load(std::memory_order_seq_cst) != 0) {
        stats_.sleeps.fetch_add(1, std::memory_order_relaxed);
        Slot& slot = *slots_[w];
        std::unique_lock<std::mutex> lk(slot.m);
        slot.cv.wait(lk, [&] {
          return pending.load(std::memory_order_acquire) == 0;
        });
      }
    }

    if (tracing) {
      const double run_begin =
          support::elapsed_us(cycle_start_, support::now());
      if (run_begin - wait_begin > 0.5) {
        emit({wait_begin, run_begin, w,
              static_cast<std::int32_t>(graph_.unit_members(u).front()),
              support::SpanKind::kSleep});
      }
    }

    detail::run_unit(graph_, u, w, stats_, tracing, cycle_start_, emit);

    // Signal successors (paper Fig. 6b): the predecessor that resolves
    // the last dependency wakes the registered executor, if any.
    for (UnitId s : graph_.unit_successors(u)) {
      if (graph_.unit_pending(s).fetch_sub(1, std::memory_order_seq_cst) ==
          1) {
        chaos::maybe_perturb(chaos::Site::kBeforeNotify);
        const std::int32_t sleeper =
            graph_.unit_waiter(s).exchange(-1, std::memory_order_seq_cst);
        if (sleeper >= 0) {
          Slot& slot = *slots_[static_cast<unsigned>(sleeper)];
          // Taking the slot mutex orders this notify after the sleeper's
          // predicate check, so the wakeup cannot be lost (CP.42).
          const std::lock_guard<std::mutex> lk(slot.m);
          slot.cv.notify_one();
          stats_.wakeups.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }
}

// Heal-armed body: same waiter-registration protocol, but every park is
// bounded — a sleeper whose waker was quarantined must wake on its own
// to run the adopt scan — and every run goes through the claim gate
// (DESIGN.md §12). The rescue hook's notify_all shortens the bounded
// park when a quarantine happens mid-wait.
void SleepExecutor::heal_body(unsigned w) {
  const detail::SpanSink emit(opts_, w);
  const bool tracing = emit.tracing();
  HealthBoard& hb = team_->health();
  const auto wid = static_cast<std::int32_t>(w);

  const auto wait_ready = [&](UnitId u) {
    auto& pending = graph_.unit_pending(u);
    // Register as the unit's executor so a live resolver still wakes us
    // promptly; the timeout covers a dead resolver. Leaving the
    // registration in place across loop iterations is harmless — a
    // notify to an awake worker is a no-op.
    graph_.unit_waiter(u).store(wid, std::memory_order_seq_cst);
    if (pending.load(std::memory_order_seq_cst) != 0) {
      stats_.sleeps.fetch_add(1, std::memory_order_relaxed);
      Slot& slot = *slots_[w];
      std::unique_lock<std::mutex> lk(slot.m);
      slot.cv.wait_for(lk, std::chrono::microseconds(200), [&] {
        return pending.load(std::memory_order_acquire) == 0;
      });
    }
    hb.beat(w);
    return true;
  };
  const auto resolve = [&](UnitId u) {
    for (UnitId s : graph_.unit_successors(u)) {
      if (graph_.unit_pending(s).fetch_sub(1, std::memory_order_seq_cst) ==
          1) {
        const std::int32_t sleeper =
            graph_.unit_waiter(s).exchange(-1, std::memory_order_seq_cst);
        if (sleeper >= 0) {
          Slot& slot = *slots_[static_cast<unsigned>(sleeper)];
          const std::lock_guard<std::mutex> lk(slot.m);
          slot.cv.notify_one();
          stats_.wakeups.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };
  // Help phase: nobody is registered to wake us, so poll politely.
  const auto help_pause = [] { std::this_thread::yield(); };

  detail::heal_round_robin_body(graph_, hb, w, opts_.threads, stats_, tracing,
                                cycle_start_, emit, wait_ready, resolve,
                                help_pause);
}

}  // namespace djstar::core

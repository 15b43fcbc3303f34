#include "djstar/core/work_stealing.hpp"

#include <chrono>

#include "djstar/core/chaos.hpp"
#include "djstar/core/detail/heal_run.hpp"
#include "djstar/core/detail/spin.hpp"
#include "djstar/core/detail/span_sink.hpp"
#include "djstar/core/detail/unit_run.hpp"
#include "djstar/support/assert.hpp"

namespace djstar::core {

WorkStealingExecutor::WorkStealingExecutor(CompiledGraph& graph,
                                           ExecOptions opts,
                                           WorkStealingOptions ws)
    : graph_(graph), opts_(opts), ws_(ws), per_worker_(opts.threads) {
  for (auto& pw : per_worker_) {
    pw.deque = std::make_unique<ChaseLevDeque>(graph.node_count() + 1);
    pw.inbox.reserve(graph.node_count());
  }
  orphan_.reserve(graph.node_count());
  team_ = std::make_unique<Team>(
      opts_.threads, StartMode::kCondvar, opts_.spin,
      [this](unsigned w) { worker_body(w); }, opts_.heal);
  if (team_->healing()) {
    team_->set_rescue([this](unsigned victim) { heal_rescue(victim); });
  }
}

WorkStealingExecutor::WorkStealingExecutor(CompiledGraph& graph,
                                           Team& shared_team, ExecOptions opts,
                                           WorkStealingOptions ws)
    : graph_(graph), opts_(opts), ws_(ws), per_worker_(opts.threads),
      shared_(&shared_team), body_([this](unsigned w) { worker_body(w); }),
      rescue_fn_([this](unsigned victim) { heal_rescue(victim); }) {
  DJSTAR_ASSERT_MSG(opts_.threads == shared_team.threads(),
                    "hosted executor must match the shared team's width");
  for (auto& pw : per_worker_) {
    pw.deque = std::make_unique<ChaseLevDeque>(graph.node_count() + 1);
    pw.inbox.reserve(graph.node_count());
  }
  orphan_.reserve(graph.node_count());
}

void WorkStealingExecutor::seed_inboxes() {
  // Paper §V-C: "the main thread fills up the processing queues of all
  // executor threads. It distributes all nodes without dependencies
  // (source nodes) to the threads", grouped by section for data locality.
  // Fusion preserves this: units inherit their first member's section.
  const unsigned T = opts_.threads;
  const Team* tm = shared_ != nullptr ? shared_ : team_.get();
  unsigned rr = 0;
  for (UnitId u : graph_.unit_sources()) {
    unsigned target;
    if (ws_.seed == SeedMode::kBySection) {
      target = graph_.unit_section_index(u) % T;
    } else {
      target = rr++ % T;
    }
    // A quarantined worker never drains its inbox (kQuarantine mode runs
    // degraded on the survivors), so donate its seeds to worker 0 — the
    // caller thread, which is always alive.
    if (heal_armed_ && target != 0 &&
        tm->health().state(target) == WorkerState::kQuarantined) {
      target = 0;
    }
    per_worker_[target].inbox.push_back(u);
  }
}

void WorkStealingExecutor::run_cycle() {
  graph_.begin_cycle();
  use_plan_ = detail::plan_active(opts_);
  Team* const tm = shared_ != nullptr ? shared_ : team_.get();
  heal_armed_ = !use_plan_ && tm->healing();
  executed_.store(0, std::memory_order_relaxed);
  for (auto& pw : per_worker_) pw.inbox.clear();
  if (heal_armed_) {
    // Healing can leave stale duplicates behind (a republished unit whose
    // claim winner came from elsewhere); never let them leak into the
    // next cycle's UnitIds.
    for (auto& pw : per_worker_) pw.deque->clear();
    orphan_.clear();
  }
  if (!use_plan_) seed_inboxes();
  cycle_start_ = support::now();
  // Team::run_cycle()'s generation bump publishes the inboxes
  // (release store observed by the workers' acquire load).
  if (shared_ != nullptr) {
    if (heal_armed_) {
      shared_->run_cycle(body_, rescue_fn_);
    } else {
      shared_->run_cycle(body_);
    }
  } else {
    team_->run_cycle();
  }
}

void WorkStealingExecutor::on_unit_ready(unsigned w, UnitId u) {
  per_worker_[w].deque->push(static_cast<ChaseLevDeque::Item>(u));
  // Wake a parked worker, if any (lost-wake safe: idlers re-check with a
  // timeout and an epoch counter).
  chaos::maybe_perturb(chaos::Site::kNodeReady);
  if (idlers_.load(std::memory_order_acquire) > 0) {
    idle_epoch_.fetch_add(1, std::memory_order_release);
    idle_cv_.notify_one();
  }
}

bool WorkStealingExecutor::try_get_unit(unsigned w, UnitId& out,
                                        std::int32_t& stolen_from) {
  stolen_from = -1;
  // 1) Own deque, bottom (LIFO).
  const auto own = per_worker_[w].deque->pop();
  if (own >= 0) {
    out = static_cast<UnitId>(own);
    return true;
  }
  // 1b) Healing only: adopt a quarantined worker's republished unit.
  // dead() is the cheap gate — it only rises mid-cycle, and the orphan
  // buffer is populated strictly after it does (Team::quarantine()).
  if (heal_armed_ && team()->health().dead() > 0) {
    const std::lock_guard<std::mutex> lk(orphan_mutex_);
    if (!orphan_.empty()) {
      out = orphan_.back();
      orphan_.pop_back();
      return true;
    }
  }
  // 2) Steal round: probe every other worker's top (FIFO).
  const unsigned T = opts_.threads;
  for (unsigned d = 1; d < T; ++d) {
    const unsigned victim = (w + d) % T;
    const auto got = per_worker_[victim].deque->steal();
    if (got >= 0) {
      out = static_cast<UnitId>(got);
      stolen_from = static_cast<std::int32_t>(victim);
      stats_.steals.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    stats_.steal_failures.fetch_add(1, std::memory_order_relaxed);
  }
  return false;
}

void WorkStealingExecutor::worker_body(unsigned w) {
  const std::size_t total = graph_.unit_count();
  detail::SpanSink emit(opts_, w);
  const bool tracing = emit.tracing();

  if (use_plan_) {
    detail::replay_static(graph_, *opts_.static_plan, w, stats_, opts_.spin,
                          tracing, cycle_start_, emit,
                          support::SpanKind::kSteal);
    return;
  }

  // Drain the inbox the main thread seeded for us.
  for (UnitId u : per_worker_[w].inbox) {
    per_worker_[w].deque->push(static_cast<ChaseLevDeque::Item>(u));
  }

  HealthBoard* const hb =
      heal_armed_ ? &(shared_ != nullptr ? *shared_ : *team_).health()
                  : nullptr;

  std::uint32_t failed_rounds = 0;
  while (executed_.load(std::memory_order_acquire) < total) {
    if (hb != nullptr) hb->beat(w);
    UnitId u;
    double probe_begin = 0.0;
    if (tracing) probe_begin = support::elapsed_us(cycle_start_, support::now());

    if (!try_get_unit(w, u, emit.steal_origin)) {
      ++failed_rounds;
      if (failed_rounds < ws_.steal_rounds_before_park) {
        detail::cpu_pause();
        std::this_thread::yield();
      } else {
        // Park until new work is pushed (paper: sleeping happens only
        // when solely blocked nodes remain). The timeout is a safety
        // net against the push-vs-park race.
        const auto epoch = idle_epoch_.load(std::memory_order_acquire);
        chaos::maybe_perturb(chaos::Site::kBeforeWait);
        stats_.sleeps.fetch_add(1, std::memory_order_relaxed);
        idlers_.fetch_add(1, std::memory_order_acq_rel);
        {
          std::unique_lock<std::mutex> lk(idle_mutex_);
          idle_cv_.wait_for(lk, std::chrono::microseconds(100), [&] {
            return idle_epoch_.load(std::memory_order_acquire) != epoch ||
                   executed_.load(std::memory_order_acquire) >= total;
          });
        }
        idlers_.fetch_sub(1, std::memory_order_acq_rel);
        if (tracing) {
          emit({probe_begin,
                support::elapsed_us(cycle_start_, support::now()), w, -1,
                support::SpanKind::kSteal});
        }
      }
      continue;
    }
    failed_rounds = 0;

    if (tracing) {
      const double run_begin =
          support::elapsed_us(cycle_start_, support::now());
      if (run_begin - probe_begin > 0.5) {
        emit({probe_begin, run_begin, w, -1, support::SpanKind::kSteal});
      }
    }

    if (hb != nullptr) {
      // Claim gate (DESIGN.md §12): a republished duplicate or an entry a
      // false-positive quarantine left behind loses the CAS and is simply
      // discarded; only the winner resolves successors and counts toward
      // the exit condition, so executed_ still converges on unit_count().
      if (!detail::heal_claim_run(graph_, *hb, w, u, stats_, tracing,
                                  cycle_start_, emit)) {
        if (HealthBoard::abandoned()) return;  // wedged or aborted
        continue;
      }
    } else {
      detail::run_unit(graph_, u, w, stats_, tracing, cycle_start_, emit);
    }

    // Release successor units whose last dependency this unit resolved;
    // they join *our* deque (LIFO) for cache locality (paper §V-C).
    for (UnitId s : graph_.unit_successors(u)) {
      if (graph_.unit_pending(s).fetch_sub(1, std::memory_order_acq_rel) ==
          1) {
        on_unit_ready(w, s);
      }
    }

    const std::size_t done = executed_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (done == total) {
      // Everyone still parked must observe completion promptly.
      idle_epoch_.fetch_add(1, std::memory_order_release);
      idle_cv_.notify_all();
    }
  }
}

// Medic-side rescue (DESIGN.md §12): runs on the medic thread right after
// `victim`'s quarantine transition and before the medic credits its slot
// at the barrier. Drains the victim's deque from the thief side (legal
// concurrently with a still-live false positive) and republishes any
// ready, unclaimed unit only the victim knew about — e.g. the one it
// popped and was about to run when it wedged.
void WorkStealingExecutor::heal_rescue(unsigned victim) {
  if (!heal_armed_) return;
  std::size_t rescued = 0;
  {
    const std::lock_guard<std::mutex> lk(orphan_mutex_);
    const auto in_orphan = [&](UnitId u) {
      for (UnitId o : orphan_) {
        if (o == u) return true;
      }
      return false;
    };
    for (;;) {
      const auto got = per_worker_[victim].deque->steal();
      if (got == ChaseLevDeque::kAbort) continue;
      if (got < 0) break;
      const auto u = static_cast<UnitId>(got);
      if (!in_orphan(u)) {
        orphan_.push_back(u);
        ++rescued;
      }
    }
    rescued += detail::heal_republish_scan(graph_, [&](UnitId u) {
      if (!in_orphan(u)) orphan_.push_back(u);
    });
  }
  Team* const tm = shared_ != nullptr ? shared_ : team_.get();
  tm->health().note_rescued(rescued);
  // Kick every parked survivor: the work they were waiting on may now
  // live in the orphan buffer.
  idle_epoch_.fetch_add(1, std::memory_order_release);
  idle_cv_.notify_all();
}

}  // namespace djstar::core

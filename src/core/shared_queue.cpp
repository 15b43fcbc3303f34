#include "djstar/core/shared_queue.hpp"

#include <chrono>

#include "djstar/core/chaos.hpp"
#include "djstar/core/detail/heal_run.hpp"
#include "djstar/core/detail/span_sink.hpp"
#include "djstar/core/detail/unit_run.hpp"

namespace djstar::core {

SharedQueueExecutor::SharedQueueExecutor(CompiledGraph& graph,
                                         ExecOptions opts)
    : graph_(graph), opts_(opts), ring_(graph.node_count() + 1) {
  team_ = std::make_unique<Team>(
      opts_.threads, StartMode::kCondvar, opts_.spin,
      [this](unsigned w) { worker_body(w); }, opts_.heal);
  if (team_->healing()) {
    team_->set_rescue([this](unsigned) { heal_rescue(); });
  }
}

void SharedQueueExecutor::run_cycle() {
  graph_.begin_cycle();
  use_plan_ = detail::plan_active(opts_);
  heal_armed_ = !use_plan_ && team_->healing();
  {
    // Seed the ready queue with all source units.
    const std::lock_guard<std::mutex> lk(mutex_);
    head_ = tail_ = 0;
    executed_ = 0;
    if (!use_plan_) {
      for (UnitId u : graph_.unit_sources()) {
        ring_[tail_] = u;
        tail_ = (tail_ + 1) % ring_.size();
      }
    }
  }
  cycle_start_ = support::now();
  team_->run_cycle();
}

void SharedQueueExecutor::worker_body(unsigned w) {
  const std::size_t total = graph_.unit_count();
  const detail::SpanSink emit(opts_, w);
  const bool tracing = emit.tracing();

  if (use_plan_) {
    detail::replay_static(graph_, *opts_.static_plan, w, stats_, opts_.spin,
                          tracing, cycle_start_, emit,
                          support::SpanKind::kSleep);
    return;
  }

  if (heal_armed_) {
    heal_body(w);
    return;
  }

  for (;;) {
    UnitId u = kInvalidNode;
    double wait_begin = 0.0;
    if (tracing) wait_begin = support::elapsed_us(cycle_start_, support::now());
    chaos::maybe_perturb(chaos::Site::kBeforeWait);
    {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_.wait(lk, [&] { return head_ != tail_ || executed_ == total; });
      if (executed_ == total) return;
      u = ring_[head_];
      head_ = (head_ + 1) % ring_.size();
    }

    if (tracing) {
      const double run_begin =
          support::elapsed_us(cycle_start_, support::now());
      if (run_begin - wait_begin > 0.5) {
        emit({wait_begin, run_begin, w, -1, support::SpanKind::kSleep});
      }
    }

    detail::run_unit(graph_, u, w, stats_, tracing, cycle_start_, emit);

    // Release successor units and publish completion.
    std::size_t newly_ready = 0;
    {
      const std::lock_guard<std::mutex> lk(mutex_);
      for (UnitId s : graph_.unit_successors(u)) {
        if (graph_.unit_pending(s).fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
          ring_[tail_] = s;
          tail_ = (tail_ + 1) % ring_.size();
          ++newly_ready;
        }
      }
      ++executed_;
      if (executed_ == total) {
        cv_.notify_all();  // everyone can exit
        return;
      }
    }
    if (newly_ready >= 1) {
      chaos::maybe_perturb(chaos::Site::kBeforeNotify);
      if (newly_ready == 1) {
        cv_.notify_one();
      } else {
        cv_.notify_all();
      }
    }
  }
}

// Heal-armed body (DESIGN.md §12): same centralized queue, but pops wait
// with a bounded timeout (a dead worker may have been the only one slated
// to push the next ready unit — its republished entry arrives via
// heal_rescue(), and the timeout covers the window), every run goes
// through the claim gate, and only claim winners resolve successors and
// advance executed_, so the exit condition still converges on
// unit_count() despite republished duplicates.
void SharedQueueExecutor::heal_body(unsigned w) {
  const std::size_t total = graph_.unit_count();
  const detail::SpanSink emit(opts_, w);
  const bool tracing = emit.tracing();
  HealthBoard& hb = team_->health();

  for (;;) {
    hb.beat(w);
    UnitId u = kInvalidNode;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      while (!cv_.wait_for(lk, std::chrono::microseconds(200), [&] {
        return head_ != tail_ || executed_ == total;
      })) {
        hb.beat(w);
      }
      if (executed_ == total) return;
      u = ring_[head_];
      head_ = (head_ + 1) % ring_.size();
    }

    if (!detail::heal_claim_run(graph_, hb, w, u, stats_, tracing,
                                cycle_start_, emit)) {
      if (HealthBoard::abandoned()) return;  // wedged or aborted
      continue;  // lost the claim to an adopter; duplicate discarded
    }

    std::size_t newly_ready = 0;
    {
      const std::lock_guard<std::mutex> lk(mutex_);
      for (UnitId s : graph_.unit_successors(u)) {
        if (graph_.unit_pending(s).fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
          ring_[tail_] = s;
          tail_ = (tail_ + 1) % ring_.size();
          ++newly_ready;
        }
      }
      ++executed_;
      if (executed_ == total) {
        cv_.notify_all();
        return;
      }
    }
    if (newly_ready >= 1) {
      if (newly_ready == 1) {
        cv_.notify_one();
      } else {
        cv_.notify_all();
      }
    }
  }
}

// Medic-side rescue: republish everything ready, unclaimed, and not
// already enqueued. The in-ring dedupe keeps the occupancy invariant (at
// most one copy of a unit in flight) that sizes the ring.
void SharedQueueExecutor::heal_rescue() {
  if (!heal_armed_) return;
  std::size_t rescued = 0;
  {
    const std::lock_guard<std::mutex> lk(mutex_);
    const auto in_ring = [&](UnitId u) {
      for (std::size_t i = head_; i != tail_; i = (i + 1) % ring_.size()) {
        if (ring_[i] == u) return true;
      }
      return false;
    };
    rescued = detail::heal_republish_scan(graph_, [&](UnitId u) {
      if (in_ring(u)) return;
      ring_[tail_] = u;
      tail_ = (tail_ + 1) % ring_.size();
    });
  }
  team_->health().note_rescued(rescued);
  cv_.notify_all();
}

}  // namespace djstar::core

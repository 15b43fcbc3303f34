// djstar/engine/deadline.hpp
// Cycle accounting against the real-time constraint (paper §III-A/§VI):
// one audio packet of 128 samples at 44.1 kHz every 2.9 ms, of which the
// task graph may use at most 2.1 ms after TP/GP/VC overheads.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "djstar/audio/buffer.hpp"
#include "djstar/support/stats.hpp"

namespace djstar::engine {

/// Phase timings of one audio processing cycle, in microseconds.
/// T(APC) = T(TP) + T(GP) + T(Graph) + T(VC)   (paper §VI).
struct CycleBreakdown {
  double tp_us = 0;     ///< timecode processing
  double gp_us = 0;     ///< graph preprocessing (time stretch, buffers)
  double graph_us = 0;  ///< task graph execution
  double vc_us = 0;     ///< various calculations (tempo, accounting)

  double total_us() const noexcept {
    return tp_us + gp_us + graph_us + vc_us;
  }
};

/// Collects cycle breakdowns, counts missed deadlines, and optionally
/// retains per-cycle samples for histogram benches. When the engine runs
/// supervised, each cycle is also attributed to the degradation level it
/// ran at (level 0 = full quality), so "how long did we spend degraded,
/// and how did those cycles perform" falls straight out of the monitor.
class DeadlineMonitor {
 public:
  /// Maximum degradation levels tracked (DegradationLevel fits with room).
  static constexpr unsigned kMaxLevels = 8;

  /// `reserve` pre-sizes the sample vectors so add() never allocates on
  /// the audio path until that many cycles have been recorded.
  explicit DeadlineMonitor(double deadline_us = audio::kDeadlineUs,
                           bool keep_samples = true,
                           std::size_t reserve = 4096)
      : deadline_us_(deadline_us),
        keep_samples_(keep_samples),
        reserve_(reserve) {
    if (keep_samples_) {
      graph_samples_.reserve(reserve_);
      total_samples_.reserve(reserve_);
    }
  }

  /// Record a cycle at degradation level 0 (the unsupervised path).
  bool add(const CycleBreakdown& c) { return add(c, 0); }
  /// Record a cycle attributed to `level` (clamped to kMaxLevels - 1).
  /// Returns the cycle's deadline verdict (total_us() > deadline_us()).
  /// This is the only place it is decided: the supervisor, telemetry,
  /// profiler and SLO tracker are all handed this result.
  bool add(const CycleBreakdown& c, unsigned level);
  void reset();

  std::size_t cycles() const noexcept { return cycles_; }
  std::size_t misses() const noexcept { return misses_; }
  double miss_rate() const noexcept {
    return cycles_ ? static_cast<double>(misses_) / static_cast<double>(cycles_)
                   : 0.0;
  }
  double deadline_us() const noexcept { return deadline_us_; }

  const support::OnlineStats& tp() const noexcept { return tp_; }
  const support::OnlineStats& gp() const noexcept { return gp_; }
  const support::OnlineStats& graph() const noexcept { return graph_; }
  const support::OnlineStats& vc() const noexcept { return vc_; }
  const support::OnlineStats& total() const noexcept { return total_; }

  /// p99 of per-cycle APC totals. Cached: recomputed only when cycles
  /// have been added since the last call, so repeated callers (the
  /// supervisor, the headroom advisor) don't re-sort the samples. Falls
  /// back to max() when samples are not retained.
  double p99() const;
  /// Worst APC total seen (O(1), always available).
  double max_us() const noexcept { return total_.max(); }

  // ---- per-degradation-level accounting ----
  std::size_t level_cycles(unsigned level) const noexcept {
    return level < kMaxLevels ? level_cycles_[level] : 0;
  }
  std::size_t level_misses(unsigned level) const noexcept {
    return level < kMaxLevels ? level_misses_[level] : 0;
  }
  /// APC totals of cycles run at `level` (count 0 when never visited).
  const support::OnlineStats& level_total(unsigned level) const noexcept {
    return level_total_[level < kMaxLevels ? level : kMaxLevels - 1];
  }

  /// Per-cycle task-graph times (empty when keep_samples is off).
  const std::vector<double>& graph_samples() const noexcept {
    return graph_samples_;
  }
  /// Per-cycle APC totals (empty when keep_samples is off).
  const std::vector<double>& total_samples() const noexcept {
    return total_samples_;
  }

 private:
  double deadline_us_;
  bool keep_samples_;
  std::size_t reserve_;
  std::size_t cycles_ = 0;
  std::size_t misses_ = 0;
  support::OnlineStats tp_, gp_, graph_, vc_, total_;
  std::vector<double> graph_samples_;
  std::vector<double> total_samples_;
  std::array<std::size_t, kMaxLevels> level_cycles_{};
  std::array<std::size_t, kMaxLevels> level_misses_{};
  std::array<support::OnlineStats, kMaxLevels> level_total_{};
  mutable double p99_cache_ = 0.0;
  mutable std::size_t p99_cache_cycles_ = 0;
};

}  // namespace djstar::engine

// djstar/support/tsdb.hpp
// In-process time-series store (DESIGN.md §15).
//
// The metrics registry answers "what is the value now"; SLO evaluation
// needs "what happened over the last N seconds". This store keeps a
// fixed-memory ring of sealed aggregation windows per series:
//
//   - record() is the hot path: writer-thread-only, wait-free,
//     allocation-free — it folds the sample into the series' open-window
//     accumulator (count/sum/min/max), nothing else.
//   - advance(now_us) is called once per engine tick with the caller's
//     clock (the serve host passes its *virtual* fleet clock, the engine
//     passes cycles × deadline — both deterministic, which is what makes
//     SLO tests reproducible). When `now_us` crosses a window boundary
//     the open accumulators are sealed into the ring under a mutex;
//     idle gaps seal as empty windows so window indices always map to
//     wall (virtual) time.
//   - Histogram-backed series snapshot an existing live Histogram at each
//     seal and store the windowed delta's percentiles via
//     Histogram::delta_since — the same rollover-safe windowing the
//     attribution cache uses.
//   - Readers (debug HTTP, SLO evaluation) take the seal mutex and copy;
//     render_json() builds the /debug/timeseries payload reader-side, so
//     the engine thread never renders JSON for a socket.
//
// Memory is bounded at registration time: retention × sizeof(Window) per
// series, plus one Histogram copy for histogram-backed series. Nothing
// on the record() path allocates or locks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "djstar/support/histogram.hpp"

namespace djstar::support {

struct TsdbConfig {
  double window_us = 1'000'000.0;  ///< aggregation window (default 1 s)
  std::size_t retention = 600;     ///< sealed windows kept per series
};

/// One sealed aggregation window. p50/p99 are populated only for
/// histogram-backed series (from the window's Histogram delta).
struct TsWindow {
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p99 = 0;
};

namespace detail {
struct TsSeries;
}  // namespace detail

class TimeSeriesStore {
 public:
  /// Opaque series handle. Trivially copyable; a default-constructed
  /// handle is an inert no-op (mirrors the metrics handles). Invalidated
  /// by remove_series() of its series — the owner drops it.
  class SeriesRef {
   public:
    SeriesRef() = default;
    explicit operator bool() const noexcept { return s_ != nullptr; }

   private:
    friend class TimeSeriesStore;
    explicit SeriesRef(detail::TsSeries* s) noexcept : s_(s) {}
    detail::TsSeries* s_ = nullptr;
  };

  /// Reader-side copy of a series' sealed windows (oldest first).
  struct SeriesSnapshot {
    std::string name;
    double window_us = 0;
    bool histogram = false;
    std::uint64_t first_index = 0;  ///< global index of windows.front()
    std::vector<TsWindow> windows;
  };

  explicit TimeSeriesStore(TsdbConfig cfg = {});
  ~TimeSeriesStore();
  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  /// Register a counter/sample series. Allocates (ring storage) — call at
  /// setup or from the control plane, never mid-cycle. Throws
  /// std::invalid_argument on an empty or duplicate name.
  SeriesRef add_series(std::string_view name);

  /// Register a series backed by a live Histogram owned by the caller
  /// (which must outlive the series). Each seal stores the delta since
  /// the previous seal: count plus p50/p99 of the windowed distribution.
  SeriesRef add_histogram_series(std::string_view name,
                                 const Histogram* live);

  /// Drop a series (sessions come and go). Outstanding SeriesRef handles
  /// to it become dangling — the owner discards them with the series.
  void remove_series(std::string_view name);

  /// Hot path: fold `v` into the open window. Writer thread only;
  /// wait-free, allocation-free, lock-free.
  void record(SeriesRef s, double v) noexcept;

  /// Advance the store clock (writer thread). Seals one window per full
  /// `window_us` crossed — including empty gap windows — and returns how
  /// many were sealed. `now_us` must be monotonic non-decreasing.
  std::size_t advance(double now_us);

  double window_us() const noexcept { return cfg_.window_us; }
  std::size_t retention() const noexcept { return cfg_.retention; }
  double now_us() const noexcept { return now_us_; }
  /// Total windows sealed since construction (monotonic; SLO evaluation
  /// uses it to run once per seal instead of once per cycle).
  std::uint64_t sealed_windows() const noexcept { return sealed_; }
  std::size_t series_count() const;

  /// Writer-thread aggregate of the newest `n` sealed windows (fewer if
  /// fewer exist; n == 0 means all retained). min/max skip empty windows;
  /// p50/p99 are the max across windows (conservative for alerting).
  TsWindow aggregate(SeriesRef s, std::size_t n) const;

  /// Reader-side copy (any thread). Returns false when `name` is not
  /// registered. `max_windows == 0` means all retained windows.
  bool snapshot(std::string_view name, std::size_t max_windows,
                SeriesSnapshot& out) const;

  std::vector<std::string> series_names() const;

  /// Reader-side JSON for GET /debug/timeseries: the series' newest
  /// `max_windows` sealed windows, or {"error":...,"series":[...]} with
  /// the series index when `name` is unknown.
  std::string render_json(std::string_view name,
                          std::size_t max_windows) const;

  /// Reader-side JSON index: {"window_us":..,"retention":..,"series":[..]}.
  std::string index_json() const;

 private:
  void seal_one_window_locked();

  TsdbConfig cfg_;
  double now_us_ = 0;
  std::uint64_t sealed_ = 0;
  mutable std::mutex mutex_;  ///< guards ring storage + series list
  std::vector<std::unique_ptr<detail::TsSeries>> series_;
};

}  // namespace djstar::support

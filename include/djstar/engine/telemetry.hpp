// djstar/engine/telemetry.hpp
// Per-engine telemetry bundle (DESIGN.md §10): a metrics registry, a
// structured event journal, and an always-on flight recorder, wired into
// the APC driver so every cycle is accounted with zero locks and zero
// allocation on the audio path.
//
// Division of labour: AudioEngine owns the cycle loop and calls
// on_cycle() between cycles with what just happened; EngineTelemetry
// owns the sinks and the *policy* of what to export — counter deltas,
// histograms, journal records, and the automatic flight-recorder dump
// when a cycle misses its deadline, the degradation ladder moves, or
// the watchdog fires.
//
// Counter contract: the miss verdict is decided once per cycle, by
// DeadlineMonitor::add, and handed to on_cycle(), so a Prometheus scrape
// and monitor().misses() can be compared for equality.
#pragma once

#include <cstdint>
#include <string>

#include "djstar/core/health.hpp"
#include "djstar/engine/deadline.hpp"
#include "djstar/engine/supervisor.hpp"
#include "djstar/support/flight.hpp"
#include "djstar/support/journal.hpp"
#include "djstar/support/metrics.hpp"
#include "djstar/support/trace.hpp"

namespace djstar::engine {

/// Telemetry construction knobs.
struct TelemetryConfig {
  /// Flight-recorder ring capacity per worker lane (spans).
  std::size_t flight_spans_per_thread = 2048;
  /// Event-journal ring capacity (events).
  std::size_t journal_capacity = 4096;
  /// When non-empty, incidents (deadline miss, ladder movement, watchdog
  /// cancel) automatically dump the flight recorder here as a
  /// Chrome/Perfetto trace (the file is overwritten per dump).
  std::string flight_dump_path;
  /// Cycles of history per automatic dump.
  std::uint64_t flight_dump_cycles = 32;
  /// Minimum cycles between automatic dumps (a sustained incident storm
  /// produces one trace per window, not one per cycle).
  std::uint64_t flight_dump_cooldown = 256;
};

/// What triggered an automatic flight dump (journal payload `a`).
enum class FlightDumpTrigger : std::uint8_t {
  kDeadlineMiss = 0,
  kLevelChange,
  kWatchdogFire,
  kWorkerQuarantine,
  kSloPage,
};

class EngineTelemetry {
 public:
  /// `deadline_us` doubles as the flight-recorder timeline period;
  /// `threads` sizes the flight lanes (lane per worker).
  EngineTelemetry(const TelemetryConfig& cfg, double deadline_us,
                  unsigned threads);

  EngineTelemetry(const EngineTelemetry&) = delete;
  EngineTelemetry& operator=(const EngineTelemetry&) = delete;

  support::MetricsRegistry& registry() noexcept { return registry_; }
  const support::MetricsRegistry& registry() const noexcept {
    return registry_;
  }
  support::EventJournal& journal() noexcept { return journal_; }
  support::FlightRecorder& flight() noexcept { return flight_; }
  const support::FlightRecorder& flight() const noexcept { return flight_; }

  const TelemetryConfig& config() const noexcept { return cfg_; }

  /// Account the cycle that just finished. Called by AudioEngine between
  /// cycles, after DeadlineMonitor::add; `missed` is its verdict for `c`.
  /// `sup` is the supervisor's current stats (null unsupervised);
  /// `faults_injected` is the graph's cumulative fault count; `trace` is
  /// the engine's TraceRecorder for drop accounting (may be null).
  /// Cumulative sources are delta-synced into monotone counters, so
  /// exports always agree with the sources.
  void on_cycle(const CycleBreakdown& c, bool missed, unsigned level,
                const SupervisorStats* sup, std::uint64_t faults_injected,
                const support::TraceRecorder* trace);

  /// Resize the flight lanes after a thread-count change. Discards
  /// retained spans; call between cycles only.
  void on_threads_changed(unsigned threads);

  /// Account the team's self-healing state (DESIGN.md §12). Called by
  /// AudioEngine between cycles when healing is armed. Delta-syncs the
  /// cumulative quarantine/respawn/rescue counters, tracks the live
  /// worker count as a gauge, and — every quarantine being an incident —
  /// dumps the flight recorder automatically.
  void on_heal(const core::HealStats& hs);

  /// A page-level SLO alert is an incident: dump the flight recorder.
  /// Pages bypass the dump cooldown — the tracker's multi-window
  /// hysteresis already rate-limits them, and the miss that sealed the
  /// paging window may have consumed the cooldown in this very cycle.
  /// Called by AudioEngine on the transition into the page state.
  void on_slo_page(std::uint64_t cycle) {
    maybe_dump_flight(FlightDumpTrigger::kSloPage, cycle, /*force=*/true);
  }

  std::uint64_t flight_dumps() const noexcept { return flight_dump_count_; }

  /// Prometheus text exposition of the current metric values.
  std::string prometheus() const { return registry_.prometheus(); }
  /// JSON object of the current metric values.
  std::string json() const { return registry_.json(); }

 private:
  void maybe_dump_flight(FlightDumpTrigger trigger, std::uint64_t cycle,
                         bool force = false);

  TelemetryConfig cfg_;
  double deadline_us_;

  support::MetricsRegistry registry_;
  support::EventJournal journal_;
  support::FlightRecorder flight_;

  // Handles resolved once at construction; hot-path use is inc/record.
  support::Counter cycles_;
  support::Counter misses_;
  support::Counter faults_;
  support::Counter degrades_;
  support::Counter recoveries_;
  support::Counter watchdog_cancels_;
  support::Counter trace_dropped_;
  support::Counter journal_dropped_;
  support::Counter flight_dumps_total_;
  support::Counter quarantines_;
  support::Counter respawns_;
  support::Counter rescued_units_;
  support::Gauge live_workers_;
  support::Gauge level_gauge_;
  support::Gauge uptime_;  ///< djstar_uptime_seconds (refreshed per cycle)
  support::HistogramMetric apc_us_;
  support::HistogramMetric graph_us_;

  // Last-seen cumulative values for delta sync.
  std::uint64_t seen_faults_ = 0;
  std::uint64_t seen_degrades_ = 0;
  std::uint64_t seen_recoveries_ = 0;
  std::uint64_t seen_wd_cancels_ = 0;
  std::uint64_t seen_trace_dropped_ = 0;
  std::uint64_t seen_journal_dropped_ = 0;
  std::uint64_t seen_quarantines_ = 0;
  std::uint64_t seen_respawns_ = 0;
  std::uint64_t seen_rescued_ = 0;

  std::uint64_t cycle_count_ = 0;
  unsigned last_level_ = 0;
  std::uint64_t last_dump_cycle_ = 0;
  bool dumped_once_ = false;
  std::uint64_t flight_dump_count_ = 0;
};

}  // namespace djstar::engine

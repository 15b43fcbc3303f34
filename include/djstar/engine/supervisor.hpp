// djstar/engine/supervisor.hpp
// The cycle watchdog and graceful-degradation ladder.
//
// The paper's constraint is absolute: one audio packet every 2.9 ms, no
// exceptions (§III-A). DeadlineMonitor *counts* violations; this class
// *enforces* the constraint. Each supervised cycle is deadlined by a
// watchdog thread (a stuck cycle is cancelled via
// CompiledGraph::request_cancel, which every executor honours by
// draining), its output is validated (fault state + NaN scan), and on
// trouble the supervisor walks a degradation ladder that sheds load one
// rung at a time:
//
//   kFull               everything runs
//   kBypassFx           deck effects run in bypass, GUI sinks skipped
//   kNoStretch          decks use varispeed instead of WSOLA keylock
//   kSequentialFallback graph runs on a pre-built sequential executor
//                       (no thread coordination to go wrong)
//   kSafeMode           graph skipped; faded repeats of the last good
//                       packet keep the sound card fed
//
// Stepping down is fast (one fault, or `overrun_trip` consecutive
// overruns); stepping up requires `recover_cycles` consecutive clean
// cycles with comfortable margin (hysteresis), so a borderline system
// settles at the highest level it can sustain instead of oscillating.
//
// Audio never hard-cuts: when a cycle's output is unusable the
// supervisor emits the last good packet, decayed toward silence, and
// every splice between real and fallback audio is ramped over a few
// samples to avoid clicks.
//
// Division of labour: the supervisor owns *policy* (ladder state,
// output validation, the safe buffer); AudioEngine owns *actuation*
// (node masks, deck flags, executor choice) and applies the
// supervisor's level at the start of the next cycle — so all actuation
// happens between cycles, where the graph allows mutation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "djstar/audio/buffer.hpp"
#include "djstar/core/compiled_graph.hpp"
#include "djstar/engine/deadline.hpp"
#include "djstar/support/journal.hpp"

namespace djstar::engine {

/// Rungs of the degradation ladder, mildest first.
enum class DegradationLevel : std::uint8_t {
  kFull = 0,
  kBypassFx,
  kNoStretch,
  kSequentialFallback,
  kSafeMode,
};
inline constexpr unsigned kDegradationLevelCount = 5;

const char* to_string(DegradationLevel level) noexcept;

/// How one supervised cycle went.
enum class CycleOutcome : std::uint8_t {
  kClean,      ///< on time, valid audio
  kOverrun,    ///< valid audio, but past the deadline
  kFault,      ///< a node threw; cycle drained
  kCancelled,  ///< watchdog (or caller) cancelled the cycle
  kNanOutput,  ///< output packet contained non-finite samples
  kSafeMode,   ///< no graph ran; fallback packet emitted
};

const char* to_string(CycleOutcome outcome) noexcept;

/// Availability: a clean or merely-late cycle emitted real audio; a
/// faulted, cancelled, NaN or safe-mode cycle shipped a fallback packet.
inline constexpr bool emitted_real_audio(CycleOutcome outcome) noexcept {
  return outcome == CycleOutcome::kClean ||
         outcome == CycleOutcome::kOverrun;
}

/// Supervision policy knobs.
struct SupervisorConfig {
  double deadline_us = audio::kDeadlineUs;
  /// Wall-clock budget before the watchdog cancels the graph phase.
  /// Deliberately above the deadline: a mild overrun should finish and
  /// count as kOverrun, not be cut off mid-cycle.
  double cancel_budget_us = 2.0 * audio::kDeadlineUs;
  unsigned overrun_trip = 3;     ///< consecutive overruns per rung down
  unsigned fault_trip = 1;       ///< faulted cycles per rung down
  unsigned recover_cycles = 256; ///< clean cycles per rung up
  double recover_margin = 0.75;  ///< "clean" = total < margin * deadline
  float fallback_decay = 0.7f;   ///< gain multiplier per repeated packet
  std::size_t splice_ramp_frames = 16;  ///< crossfade at splice points
  bool use_watchdog = true;      ///< spawn the watchdog thread
};

/// One ladder movement, for reproducibility checks and post-mortems.
struct LevelTransition {
  std::uint64_t cycle = 0;  ///< supervised-cycle count at the transition
  DegradationLevel from = DegradationLevel::kFull;
  DegradationLevel to = DegradationLevel::kFull;
  CycleOutcome reason = CycleOutcome::kClean;
};

/// Counters over the supervisor's lifetime.
struct SupervisorStats {
  std::uint64_t cycles = 0;
  std::uint64_t clean_cycles = 0;
  std::uint64_t overruns = 0;
  std::uint64_t faults = 0;
  std::uint64_t cancels = 0;
  std::uint64_t nan_patches = 0;
  std::uint64_t fallback_emissions = 0;
  std::uint64_t recoveries = 0;        ///< rungs climbed back up
  std::uint64_t watchdog_cancels = 0;  ///< cancels issued by the watchdog
  std::uint64_t worker_quarantines = 0;  ///< team workers quarantined
  std::uint64_t worker_respawns = 0;     ///< replacement workers rejoined
};

class CycleSupervisor {
 public:
  CycleSupervisor(core::CompiledGraph& graph, SupervisorConfig cfg = {});
  ~CycleSupervisor();

  CycleSupervisor(const CycleSupervisor&) = delete;
  CycleSupervisor& operator=(const CycleSupervisor&) = delete;

  DegradationLevel level() const noexcept { return level_; }
  const SupervisorConfig& config() const noexcept { return cfg_; }
  SupervisorStats stats() const noexcept;
  const std::vector<LevelTransition>& transitions() const noexcept {
    return transitions_;
  }

  /// Arm the watchdog for the imminent graph phase / disarm after it.
  /// With use_watchdog off both are no-ops.
  void watchdog_arm();
  void watchdog_disarm() noexcept;

  /// Judge the cycle that just finished: read the graph's fault/cancel
  /// state, scan `out` for non-finite samples, fill safe_output() (the
  /// real packet, spliced, or a faded repeat of the last good one), and
  /// advance the ladder. `missed` is the owner's DeadlineMonitor::add
  /// verdict for `c`. Call between cycles, watchdog disarmed.
  CycleOutcome supervise_cycle(const CycleBreakdown& c, bool missed,
                               const audio::AudioBuffer& out);

  /// Account a kSafeMode cycle (no graph ran): emits a faded repeat and
  /// lets hysteresis climb back toward kSequentialFallback.
  void supervise_safe_mode_cycle(const CycleBreakdown& c);

  /// Recovery-rung accounting for the self-healing team (DESIGN.md §12):
  /// the engine reports quarantines/respawns it observed on the
  /// executor's team so supervised runs carry them in stats() and the
  /// journal. Running degraded on N-1 workers is NOT a ladder step — the
  /// graph still computes at full quality, just on fewer threads — so
  /// these only count and journal. Call between cycles.
  void note_worker_quarantine(std::uint64_t n, std::uint64_t cycle);
  void note_worker_respawn(std::uint64_t n, std::uint64_t cycle);

  /// Externally driven shed: step the ladder down one rung immediately
  /// (no-op at the floor), resetting the streak counters. Used by the
  /// serve layer's overload handler, which degrades whole sessions when
  /// the fleet — not this one graph — is behind. Returns true when a
  /// transition happened.
  bool force_degrade();

  /// The validated packet for the sound card. Always finite, always
  /// click-free at splices, even when the cycle it came from was not.
  const audio::AudioBuffer& safe_output() const noexcept { return safe_out_; }

  /// Structured event journal to receive ladder movements (kDegrade /
  /// kRecover, a=from, b=to) and watchdog cancellations
  /// (kWatchdogCancel). Push is lock-free, so the watchdog thread may
  /// publish directly. May be null; set between cycles only, and the
  /// journal must outlive the supervisor or be detached first.
  void set_journal(support::EventJournal* journal) noexcept {
    journal_ = journal;
  }

  /// Called by AudioEngine::set_strategy() after swapping executors.
  /// Ladder state, streaks, and the fallback buffers survive a rebuild
  /// by design; this hook only exists to document that contract (and to
  /// catch a future supervisor that *does* cache executor state).
  void on_executor_rebuilt() noexcept {}

 private:
  void step_down(CycleOutcome reason);
  void step_up();
  void note_clean(double total_us);
  void emit_real(const audio::AudioBuffer& out);
  void emit_fallback();
  void splice_ramp();
  void save_tail();
  void watchdog_main();

  core::CompiledGraph& graph_;
  SupervisorConfig cfg_;

  DegradationLevel level_ = DegradationLevel::kFull;
  unsigned overrun_streak_ = 0;
  unsigned fault_streak_ = 0;
  unsigned clean_streak_ = 0;
  SupervisorStats stats_;
  std::vector<LevelTransition> transitions_;
  support::EventJournal* journal_ = nullptr;

  // Fallback audio state. last_tail_ holds the final sample of the
  // previously emitted packet per channel; splices ramp from it.
  audio::AudioBuffer safe_out_{2, audio::kBlockSize};
  audio::AudioBuffer last_good_{2, audio::kBlockSize};
  float last_tail_[2] = {0.0f, 0.0f};
  float fallback_gain_ = 1.0f;
  bool last_was_fallback_ = false;

  // Watchdog thread. `gen_` disambiguates cycles: a timeout only
  // cancels when the generation it armed for is still the armed one,
  // so a late wakeup can never cancel the following cycle.
  std::mutex wd_mutex_;
  std::condition_variable wd_cv_;
  bool wd_armed_ = false;
  bool wd_stop_ = false;
  std::uint64_t wd_gen_ = 0;
  std::chrono::steady_clock::time_point wd_deadline_{};
  std::atomic<std::uint64_t> watchdog_cancels_{0};
  std::thread wd_thread_;
};

}  // namespace djstar::engine

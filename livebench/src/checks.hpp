// Output checkers. Each one judges the program's output against a value
// the benchmark computes on its own, never against a figure the layer
// under test reports about itself:
//   - SequenceCheck: packets, in order, bit-identical to a reference
//     stream (a kSequential engine for the APC workloads, a direct
//     topological-order execution of the session graph for the fleet);
//   - audible: every sample finite and the packet not silent;
//   - pitch_matches: a locked timecode decoder recovers the pitch the
//     benchmark set on the platter;
//   - tempo_matches: the master tempo equals 1/4 * sum(|pitch| * bpm).
// self_test() feeds each checker doctored input (a flipped sample, a
// missing frame, a reordered frame, a wrong pitch) and fails unless
// every one is rejected.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>

namespace livebench {

/// Compares a stream of packets with reference packets by position:
/// the k-th packet fed must equal reference(k) bit for bit. A dropped
/// packet shifts every later one onto the wrong reference, and a
/// reordered pair lands each on the other's slot, so both fail.
class SequenceCheck {
 public:
  using Reference = std::function<std::span<const float>(std::uint64_t)>;

  explicit SequenceCheck(Reference ref) : ref_(std::move(ref)) {}

  /// Judge the next packet; returns true when it matches.
  bool feed(std::span<const float> packet);

  std::uint64_t fed() const noexcept { return next_; }
  std::uint64_t failures() const noexcept { return failures_; }

 private:
  Reference ref_;
  std::uint64_t next_ = 0;
  std::uint64_t failures_ = 0;
};

/// Every sample finite and at least one above -120 dBFS.
bool audible(std::span<const float> packet);

/// A locked decoder's pitch is within kPitchTolerance of the set pitch.
inline constexpr double kPitchTolerance = 2e-3;
bool pitch_matches(double set_pitch, double decoded_pitch);

/// Master tempo the engine should converge to.
double expected_master_tempo(std::span<const double> pitches,
                             std::span<const double> bpms);
/// Relative agreement within kTempoTolerance.
inline constexpr double kTempoTolerance = 1e-3;
bool tempo_matches(double master_bpm, double expected_bpm);

/// Runs every checker on doctored input. Returns false (with `why`)
/// when a checker accepts something it must reject, or rejects a
/// correct input.
bool self_test(std::string& why);

}  // namespace livebench

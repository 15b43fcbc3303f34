#include "checks.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <vector>

namespace livebench {

bool SequenceCheck::feed(std::span<const float> packet) {
  const std::span<const float> want = ref_(next_++);
  const bool ok = want.size() == packet.size() &&
                  std::memcmp(want.data(), packet.data(),
                              packet.size_bytes()) == 0;
  if (!ok) ++failures_;
  return ok;
}

bool audible(std::span<const float> packet) {
  bool loud = false;
  for (float x : packet) {
    if (!std::isfinite(x)) return false;
    if (std::fabs(x) > 1e-6f) loud = true;
  }
  return loud;
}

bool pitch_matches(double set_pitch, double decoded_pitch) {
  return std::fabs(decoded_pitch - set_pitch) <= kPitchTolerance;
}

double expected_master_tempo(std::span<const double> pitches,
                             std::span<const double> bpms) {
  double sum = 0.0;
  for (std::size_t d = 0; d < pitches.size() && d < bpms.size(); ++d) {
    sum += std::fabs(pitches[d]) * bpms[d];
  }
  return 0.25 * sum;
}

bool tempo_matches(double master_bpm, double expected_bpm) {
  return std::fabs(master_bpm - expected_bpm) <=
         kTempoTolerance * std::fabs(expected_bpm);
}

namespace {

// Three distinct reference packets of 8 samples each.
std::array<std::vector<float>, 3> demo_packets() {
  std::array<std::vector<float>, 3> p;
  for (std::size_t k = 0; k < p.size(); ++k) {
    p[k].resize(8);
    for (std::size_t i = 0; i < 8; ++i) {
      p[k][i] = 0.1f * static_cast<float>(k + 1) +
                0.01f * static_cast<float>(i);
    }
  }
  return p;
}

// Feed `order` (indices into the demo packets) and report whether every
// packet was accepted.
bool stream_passes(const std::array<std::vector<float>, 3>& pk,
                   std::span<const std::size_t> order,
                   const std::vector<float>* doctored = nullptr) {
  SequenceCheck check([&](std::uint64_t k) {
    return std::span<const float>(pk[k % pk.size()]);
  });
  bool all = true;
  for (std::size_t j = 0; j < order.size(); ++j) {
    const std::vector<float>& p =
        doctored != nullptr && j == 1 ? *doctored : pk[order[j]];
    all = check.feed(p) && all;
  }
  return all && check.failures() == 0;
}

}  // namespace

bool self_test(std::string& why) {
  const auto pk = demo_packets();
  const std::array<std::size_t, 3> in_order = {0, 1, 2};
  const std::array<std::size_t, 2> missing = {0, 2};
  const std::array<std::size_t, 3> reordered = {0, 2, 1};
  if (!stream_passes(pk, in_order)) {
    why = "sequence check rejected a correct stream";
    return false;
  }
  std::vector<float> flipped = pk[1];
  std::uint32_t bits = 0;
  std::memcpy(&bits, &flipped[3], sizeof bits);
  bits ^= 1u;  // lowest mantissa bit of one sample
  std::memcpy(&flipped[3], &bits, sizeof bits);
  if (stream_passes(pk, in_order, &flipped)) {
    why = "sequence check accepted a flipped sample";
    return false;
  }
  if (stream_passes(pk, missing)) {
    why = "sequence check accepted a missing frame";
    return false;
  }
  if (stream_passes(pk, reordered)) {
    why = "sequence check accepted reordered frames";
    return false;
  }

  std::vector<float> silent(8, 0.0f);
  std::vector<float> nan_packet = pk[0];
  nan_packet[5] = std::nanf("");
  if (!audible(pk[0]) || audible(silent) || audible(nan_packet)) {
    why = "audibility check misjudged a packet";
    return false;
  }

  if (!pitch_matches(1.03, 1.0303) || pitch_matches(1.03, 1.05) ||
      pitch_matches(1.03, -1.03)) {
    why = "pitch check misjudged a decoded pitch";
    return false;
  }

  const std::array<double, 4> pitches = {0.97, 1.03, 0.95, 1.05};
  const std::array<double, 4> bpms = {120, 124, 128, 132};
  const double want = expected_master_tempo(pitches, bpms);
  if (std::fabs(want - 126.08) > 1e-9 || !tempo_matches(126.08, want) ||
      tempo_matches(126.08 * 1.01, want)) {
    why = "tempo check misjudged the master tempo";
    return false;
  }
  return true;
}

}  // namespace livebench

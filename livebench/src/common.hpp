// Shared helpers for the live benchmark: clocks, process counters,
// order statistics, seeding, and the result line.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

namespace livebench {

inline double wall_us() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

/// CPU time of the whole process (all threads), in microseconds.
inline double process_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Quantile with linear interpolation between order statistics (the
/// same rule as numpy's default). Sorts a copy.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Time the hypervisor has stolen from all of this machine's CPUs so
/// far, in microseconds (the steal column of /proc/stat); 0 where the
/// file or the column is missing.
inline double machine_steal_us() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  const long hz = sysconf(_SC_CLK_TCK);
  if (got != 8 || hz <= 0) return 0.0;
  return static_cast<double>(v[7]) * 1e6 / static_cast<double>(hz);
}

/// Share of the machine's CPU time stolen over `wall_us` of wall time
/// that began when machine_steal_us() read `steal0_us`.
inline double steal_share(double steal0_us, double wall_us_elapsed) {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  if (wall_us_elapsed <= 0 || cpus <= 0) return 0.0;
  return (machine_steal_us() - steal0_us) /
         (wall_us_elapsed * static_cast<double>(cpus));
}

/// The blocks a run's timing figures come from: those whose steal
/// share is at or below the median block's, i.e. the half of the run
/// during which the virtual machine kept its CPUs. A block's figures
/// are then medians over these blocks.
inline std::vector<std::size_t> cleaner_half(
    const std::vector<double>& steal) {
  const double cut = quantile(steal, 0.5);
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= cut) idx.push_back(i);
  }
  return idx;
}

/// Median of `values` over the indices in `idx`.
inline double median_of(const std::vector<double>& values,
                        const std::vector<std::size_t>& idx) {
  std::vector<double> picked;
  for (std::size_t i : idx) {
    if (i < values.size()) picked.push_back(values[i]);
  }
  return median(picked);
}

/// splitmix64: derives every input of a run from --seed.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: operations attempted and failed, and metrics.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

}  // namespace livebench

#pragma once

// The benchmark's own statistics: pure functions of their inputs,
// self-tested by `perfbench_driver --self-test`.
//
//   * tail_percentile — the highest percentile of a fixed grid that still
//     leaves at least ten samples strictly beyond it, so a reported tail is
//     never an extrapolation from a handful of outliers;
//   * median;
//   * mix / SeedRng — derive every input and per-query seed from the
//     workload seed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// splitmix64 — the benchmark derives every input and per-query seed from
/// the workload seed with its own mixer, so its inputs never move when the
/// library's RNG does.
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return state_ = mix(state_, 0x5eed); }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [lo, hi].
  std::uint32_t between(std::uint32_t lo, std::uint32_t hi) {
    return lo + static_cast<std::uint32_t>(next() % (hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Percentiles a tail may be reported at. A grid (instead of 1 - 10/N)
/// keeps the chosen percentile fixed while the sample count drifts a little
/// from run to run.
inline constexpr double kTailGrid[] = {50, 75, 90, 95, 98, 99, 99.5, 99.9};
inline constexpr std::size_t kMinBeyond = 10;

struct Tail {
  double percentile = 0;
  double value = 0;
  std::size_t beyond = 0;  ///< samples strictly above the percentile's rank
};

/// The highest grid percentile with at least `min_beyond` samples beyond
/// it; nullopt when even the median has fewer (too few samples for a
/// tail).
inline std::optional<Tail> tail_percentile(std::vector<double> samples,
                                           std::size_t min_beyond = kMinBeyond) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  std::optional<Tail> best;
  for (const double p : kTailGrid) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (n == 0 || rank < 1 || n - rank < min_beyond) break;
    best = Tail{p, samples[rank - 1], n - rank};
  }
  return best;
}

}  // namespace perfbench

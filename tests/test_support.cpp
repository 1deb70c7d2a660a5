// Unit and property tests for the parallel primitives and RNG streams.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"

namespace ppsi::support {
namespace {

TEST(ParallelFor, CoversEveryIndexOnce) {
  std::vector<int> hits(10000, 0);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, EmptyAndSingleton) {
  int count = 0;
  parallel_for(5, 5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  parallel_for(7, 8, [&](std::size_t i) { count += static_cast<int>(i); });
  EXPECT_EQ(count, 7);
}

TEST(ParallelReduce, MatchesSerialSum) {
  const auto value = [](std::size_t i) {
    return static_cast<std::uint64_t>(i * 2654435761u % 1000);
  };
  // 123457 leaves a remainder at 2, 3 and 4 threads: uneven blocks.
  for (const std::size_t n : {123456u, 123457u}) {
    std::uint64_t serial = 0;
    for (std::size_t i = 0; i < n; ++i) serial += value(i);
    EXPECT_EQ(parallel_reduce<std::uint64_t>(
                  0, n, 0, value,
                  [](std::uint64_t a, std::uint64_t b) { return a + b; }),
              serial)
        << n;
  }
}

TEST(ParallelReduce, MaxCombiner) {
  const auto r = parallel_reduce<std::uint32_t>(
      0, 100000, 0u,
      [](std::size_t i) {
        return static_cast<std::uint32_t>((i * 37) % 54321);
      },
      [](std::uint32_t a, std::uint32_t b) { return std::max(a, b); });
  std::uint32_t expect = 0;
  for (std::size_t i = 0; i < 100000; ++i)
    expect = std::max(expect, static_cast<std::uint32_t>((i * 37) % 54321));
  EXPECT_EQ(r, expect);
}

TEST(ParallelReduce, BodyExceptionReachesTheCaller) {
  const auto throwing = [](std::size_t i) -> std::uint64_t {
    if (i == 77777) throw std::runtime_error("reduce body");
    return 1;
  };
  EXPECT_THROW(parallel_reduce<std::uint64_t>(
                   0, 100000, 0, throwing,
                   [](std::uint64_t a, std::uint64_t b) { return a + b; }),
               std::runtime_error);
}

class ScanSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanSizes, ExclusiveScanMatchesSerial) {
  const std::size_t n = GetParam();
  std::vector<std::uint64_t> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = (i * 31 + 7) % 101;
  std::vector<std::uint64_t> expect(n);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expect[i] = acc;
    acc += values[i];
  }
  std::vector<std::uint64_t> got = values;
  const std::uint64_t total = exclusive_scan_inplace(got);
  EXPECT_EQ(total, acc);
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanSizes,
                         ::testing::Values(0, 1, 2, 100, 2047, 2048, 2049,
                                           100000));

TEST(Rng, DeterministicPerSeedAndStream) {
  Rng a(42, 7), b(42, 7), c(42, 8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  bool differs = false;
  Rng a2(42, 7);
  for (int i = 0; i < 100; ++i) differs |= a2.next_u64() != c.next_u64();
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformBelowBound) {
  Rng rng(1);
  for (std::uint64_t bound : {1ull, 2ull, 10ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(5);
  const double mean = 8.0;
  double sum = 0;
  const int samples = 200000;
  for (int i = 0; i < samples; ++i) sum += rng.next_exponential(mean);
  EXPECT_NEAR(sum / samples, mean, 0.15);
}

TEST(Rng, DoublesInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Metrics, AbsorbSequentialAndParallel) {
  Metrics total;
  Metrics a, b;
  a.add_work(10);
  a.add_rounds(3);
  b.add_work(20);
  b.add_rounds(5);
  total.absorb(a);
  total.absorb(b);
  EXPECT_EQ(total.work(), 30u);
  EXPECT_EQ(total.rounds(), 8u);
  Metrics par;
  par.absorb_parallel(a);
  par.absorb_parallel(b);
  EXPECT_EQ(par.work(), 30u);
  EXPECT_EQ(par.rounds(), 5u);  // max, not sum
}

TEST(Metrics, AllocAndScratchCountersCompose) {
  Metrics a, b;
  a.add_allocs(2);
  a.note_scratch_peak(100);
  b.add_allocs(3);
  b.note_scratch_peak(70);
  Metrics total;
  total.absorb(a);
  total.absorb(b);
  EXPECT_EQ(total.allocs(), 5u);          // events add
  EXPECT_EQ(total.scratch_peak_bytes(), 100u);  // peaks max-merge
  Metrics par;
  par.absorb_parallel(a);
  par.absorb_parallel(b);
  EXPECT_EQ(par.allocs(), 5u);
  EXPECT_EQ(par.scratch_peak_bytes(), 100u);
  // Copy and reset carry all four counters.
  const Metrics copy = total;
  EXPECT_EQ(copy.allocs(), 5u);
  EXPECT_EQ(copy.scratch_peak_bytes(), 100u);
  total.reset();
  EXPECT_EQ(total.allocs(), 0u);
  EXPECT_EQ(total.scratch_peak_bytes(), 0u);
}

TEST(Stats, SummarizeOddAndEven) {
  const SampleStats odd = summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(odd.count, 3u);
  EXPECT_DOUBLE_EQ(odd.min, 1.0);
  EXPECT_DOUBLE_EQ(odd.max, 3.0);
  EXPECT_DOUBLE_EQ(odd.mean, 2.0);
  EXPECT_DOUBLE_EQ(odd.median, 2.0);
  EXPECT_DOUBLE_EQ(odd.stddev, 1.0);

  const SampleStats even = summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(even.median, 2.5);
  EXPECT_DOUBLE_EQ(even.mean, 2.5);
}

TEST(Stats, SummarizeDegenerate) {
  const SampleStats empty = summarize({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.median, 0.0);

  const SampleStats one = summarize({7.5});
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.median, 7.5);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);  // undefined for n=1; reported as 0
}

TEST(Stats, ScopedTimerAccumulates) {
  double acc = 0;
  {
    ScopedTimer outer(acc);
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
  }
  const double first = acc;
  EXPECT_GT(first, 0.0);
  {
    ScopedTimer again(acc);
  }
  EXPECT_GE(acc, first);  // accumulates, never resets
}

TEST(Hashing, SplitmixSpreads) {
  // Adjacent inputs should produce very different outputs.
  std::uint64_t collisions = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    if ((splitmix64(i) & 0xffff) == (splitmix64(i + 1) & 0xffff))
      ++collisions;
  }
  EXPECT_LT(collisions, 5u);
}

}  // namespace
}  // namespace ppsi::support

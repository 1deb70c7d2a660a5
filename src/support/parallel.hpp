#pragma once

// Fork-join primitives realizing the paper's CREW PRAM steps as OpenMP
// parallel loops. Every primitive is deterministic: results never depend on
// the schedule, only on the inputs (randomized algorithms draw from
// per-index RNG streams, see rng.hpp).

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <omp.h>
#include <vector>

namespace ppsi::support {

/// Number of OpenMP threads a parallel region will use.
inline int num_threads() { return omp_get_max_threads(); }

/// Grain below which parallel loops fall back to serial execution.
inline constexpr std::size_t kDefaultGrain = 2048;

namespace detail {

// Fork/join epochs mirroring parallel_for's region boundaries with edges
// TSan can see (libgomp's futex barriers are uninstrumented, and the
// region's shared-variable struct is written at the call site, after every
// caller statement — only an in-region handshake can order it). Thread 0
// is the caller: its release-increment inside the region is ordered after
// the caller's setup; workers acquire it after the entry barrier before
// first touching shared state, and release their own increment on the way
// out for the caller's post-region acquire. Same pattern as
// support/scheduler.cpp's region epochs.
inline std::atomic<std::uint64_t> pfor_fork_epoch{0};
inline std::atomic<std::uint64_t> pfor_join_epoch{0};

// First-exception trap for loop bodies running inside an OMP worksharing
// region, and for TaskGraph tasks (support/scheduler.cpp), where an
// escaping exception would std::terminate the process. capture() records
// the first failure; later iterations short-circuit via failed() so a
// poisoned loop drains fast; rethrow() re-raises on the calling thread
// after the region joins, letting the failure unwind through ordinary code
// into the query-boundary containment.
class RegionTrap {
 public:
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  void capture() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::current_exception();
    failed_.store(true, std::memory_order_release);
  }
  void rethrow() {
    if (!failed()) return;
    std::exception_ptr error;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      error = error_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  std::atomic<bool> failed_{false};
  std::mutex mutex_;
  std::exception_ptr error_;
};

}  // namespace detail

/// Applies f(i) for i in [begin, end). One PRAM round over `end - begin`
/// items; f must be safe to run concurrently for distinct i.
template <typename F>
void parallel_for(std::size_t begin, std::size_t end, F&& f,
                  std::size_t grain = kDefaultGrain) {
  if (end <= begin) return;
  const std::size_t count = end - begin;
  if (count < grain) {
    for (std::size_t i = begin; i < end; ++i) f(i);
    return;
  }
  detail::RegionTrap trap;
#pragma omp parallel default(shared)
  {
    if (omp_get_thread_num() == 0)
      detail::pfor_fork_epoch.fetch_add(1, std::memory_order_release);
#pragma omp barrier
    detail::pfor_fork_epoch.load(std::memory_order_acquire);
#pragma omp for schedule(static)
    for (std::size_t i = begin; i < end; ++i) {
      if (!trap.failed()) {
        try {
          f(i);
        } catch (...) {
          trap.capture();
        }
      }
    }
    detail::pfor_join_epoch.fetch_add(1, std::memory_order_release);
  }
  detail::pfor_join_epoch.load(std::memory_order_acquire);
  trap.rethrow();
}

/// One per-thread accumulator slot, padded to a cache line so adjacent
/// threads' partials never share one (the unpadded layout made every
/// partial-write a coherence miss on its neighbors).
template <typename T>
struct alignas(alignof(T) > 64 ? alignof(T) : 64) PaddedAccumulator {
  T value;
};

/// Parallel reduction of f(i) over [begin, end) with a commutative,
/// associative combiner; `identity` is the combiner's neutral element.
/// One contiguous block per thread (the static partition: the first
/// count % threads blocks take one extra item), each folded serially, then
/// the partials folded in block order.
template <typename T, typename F, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, T identity, F&& f,
                  Combine&& combine, std::size_t grain = kDefaultGrain) {
  if (end <= begin) return identity;
  const std::size_t count = end - begin;
  if (count < grain) {
    T acc = identity;
    for (std::size_t i = begin; i < end; ++i) acc = combine(acc, f(i));
    return acc;
  }
  const std::size_t blocks = static_cast<std::size_t>(num_threads());
  const std::size_t base = count / blocks;
  const std::size_t extra = count % blocks;
  std::vector<PaddedAccumulator<T>> partial(blocks,
                                            PaddedAccumulator<T>{identity});
  parallel_for(
      0, blocks,
      [&](std::size_t b) {
        const std::size_t lo = begin + b * base + std::min(b, extra);
        const std::size_t hi = lo + base + (b < extra ? 1 : 0);
        T acc = identity;
        for (std::size_t i = lo; i < hi; ++i) acc = combine(acc, f(i));
        partial[b].value = acc;
      },
      /*grain=*/1);
  T acc = identity;
  for (const PaddedAccumulator<T>& p : partial) acc = combine(acc, p.value);
  return acc;
}

/// Exclusive prefix sum of `values` in place; returns the total.
/// Two-pass blocked scan (O(n) work, O(log n) PRAM depth shape), one
/// contiguous block per thread.
template <typename T>
T exclusive_scan_inplace(std::vector<T>& values) {
  const std::size_t n = values.size();
  if (n == 0) return T{};
  const int threads = num_threads();
  if (n < kDefaultGrain || threads == 1) {
    T total{};
    for (std::size_t i = 0; i < n; ++i) {
      T v = values[i];
      values[i] = total;
      total += v;
    }
    return total;
  }
  const std::size_t blocks = static_cast<std::size_t>(threads);
  const std::size_t block_size = (n + blocks - 1) / blocks;
  std::vector<T> block_total(blocks, T{});
  parallel_for(
      0, blocks,
      [&](std::size_t b) {
        const std::size_t lo = b * block_size;
        const std::size_t hi = std::min(n, lo + block_size);
        T acc{};
        for (std::size_t i = lo; i < hi; ++i) acc += values[i];
        block_total[b] = acc;
      },
      /*grain=*/1);
  T total{};
  for (std::size_t b = 0; b < blocks; ++b) {
    T v = block_total[b];
    block_total[b] = total;
    total += v;
  }
  parallel_for(
      0, blocks,
      [&](std::size_t b) {
        const std::size_t lo = b * block_size;
        const std::size_t hi = std::min(n, lo + block_size);
        T acc = block_total[b];
        for (std::size_t i = lo; i < hi; ++i) {
          T v = values[i];
          values[i] = acc;
          acc += v;
        }
      },
      /*grain=*/1);
  return total;
}

}  // namespace ppsi::support

#pragma once

// Scratch-arena accounting for per-thread reusable working storage.
//
// The DP engine keeps one scratch holder per thread (isomorphism/
// dp_scratch.hpp) whose buffers are *acquired* (cleared, capacity kept)
// at each use instead of being reallocated. A ScratchArena instruments
// that reuse: every capacity growth of a tracked buffer is one
// *allocation event*, and the sum of tracked capacities is the arena
// footprint, whose high-water mark is the *peak*. After warmup (the
// first queries of each shape) the buffers stop growing and the
// allocation-event counter goes flat — which is exactly the property the
// Solver tests and the bench JSON (`allocs`, `scratch_peak`) expose.
//
// The arena does not own the buffers; owners route growth through
// acquire()/settle() so the counters stay truthful:
//   * acquire(v, n)       — clear v and reserve >= n (growth counted),
//   * acquire_fill(v,n,x) — acquire then fill with n copies of x,
//   * settle(before,after)— record organic growth of a buffer that was
//                           filled via push_back (capacity bytes before
//                           and after the fill).
// Output storage (solution tables sized exactly and written once) is
// deliberately untracked: the counters measure steady-state *scratch*
// churn, not the result itself.
//
// Footprint and peak are thread-lifetime values: buffers are never freed,
// so a solve's reported peak is the residency of the arena it ran on,
// which may have been sized by an earlier, larger query on that thread.
// Allocation *events* are the per-use signal — solves report them as a
// delta around the use (zero in steady state).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/fault.hpp"

namespace ppsi::support {

namespace detail {
/// Process-wide sum of all arenas' tracked capacities, in bytes. Grows
/// monotonically (arena buffers never shrink); feeds the per-query
/// memory budget (QueryOptions::max_memory_bytes) and the pool's
/// admission high-watermark (PoolOptions::memory_high_watermark_bytes).
inline std::atomic<std::uint64_t> g_scratch_residency{0};
}  // namespace detail

/// Current process-wide tracked scratch residency, in bytes.
inline std::uint64_t scratch_residency_bytes() {
  return detail::g_scratch_residency.load(std::memory_order_relaxed);
}

class ScratchArena {
 public:
  template <class T>
  void acquire(std::vector<T>& v, std::size_t n) {
    v.clear();
    if (v.capacity() < n) {
      PPSI_FAULT_POINT("arena.grow");
      const std::size_t before = v.capacity() * sizeof(T);
      v.reserve(n);
      settle(before, v.capacity() * sizeof(T));
    }
  }

  template <class T>
  void acquire_fill(std::vector<T>& v, std::size_t n, const T& fill) {
    acquire(v, n);
    v.assign(n, fill);
  }

  /// Current heap bytes of `v` (for settle() bookkeeping around a
  /// push_back-filled use).
  template <class T>
  static std::size_t bytes_of(const std::vector<T>& v) {
    return v.capacity() * sizeof(T);
  }

  /// Records a tracked buffer growing from `before` to `after` capacity
  /// bytes (no-op when it did not grow; buffers never shrink).
  void settle(std::size_t before, std::size_t after) {
    if (after <= before) return;
    ++alloc_events_;
    footprint_ += after - before;
    if (footprint_ > peak_bytes_) peak_bytes_ = footprint_;
    detail::g_scratch_residency.fetch_add(after - before,
                                          std::memory_order_relaxed);
  }

  /// Number of times a tracked buffer had to (re)allocate.
  std::uint64_t alloc_events() const { return alloc_events_; }
  /// Current sum of tracked buffer capacities, in bytes.
  std::uint64_t footprint_bytes() const { return footprint_; }
  /// High-water mark of footprint_bytes().
  std::uint64_t peak_bytes() const { return peak_bytes_; }

 private:
  std::uint64_t alloc_events_ = 0;
  std::uint64_t footprint_ = 0;
  std::uint64_t peak_bytes_ = 0;
};

}  // namespace ppsi::support

#pragma once

// Work/depth accounting.
//
// The paper states its results as PRAM work (total operations) and depth
// (length of the critical path). We measure both machine-independently:
//   * work  – instrumented operation counts (each algorithm ticks the counter
//             for the dominant unit of work it performs), and
//   * rounds – the number of synchronous parallel steps executed (BFS levels,
//             clustering rounds, shortcut-BFS hops, DP layers). A PRAM
//             algorithm of depth D runs in O(D) such rounds, so round counts
//             are the empirical proxy benches compare against the bounds.
//
// Two memory-side counters ride along (support/arena.hpp):
//   * allocs – scratch-arena allocation events (a reusable buffer had to
//             grow). Flat-at-zero across repeated queries demonstrates the
//             engine reaches steady state without allocating.
//   * scratch_peak_bytes – high-water mark of the serving threads' scratch
//             residency. Arenas live for the thread and are reused across
//             queries, so a query on a thread that previously served a
//             larger one reports the larger footprint: the counter answers
//             "how much scratch was resident", not "how much this query
//             alone required". Composes as a maximum (thread-local, not
//             summed).

#include <atomic>
#include <cstdint>

namespace ppsi::support {

/// Accumulates work and round counts for one algorithm invocation.
/// Thread-safe: parallel regions accumulate locally and flush once.
class Metrics {
 public:
  Metrics() = default;
  Metrics(const Metrics& other)
      : work_(other.work()),
        rounds_(other.rounds()),
        allocs_(other.allocs()),
        scratch_peak_(other.scratch_peak_bytes()) {}
  Metrics& operator=(const Metrics& other) {
    work_.store(other.work(), std::memory_order_relaxed);
    rounds_.store(other.rounds(), std::memory_order_relaxed);
    allocs_.store(other.allocs(), std::memory_order_relaxed);
    scratch_peak_.store(other.scratch_peak_bytes(),
                        std::memory_order_relaxed);
    return *this;
  }

  void add_work(std::uint64_t ops) {
    work_.fetch_add(ops, std::memory_order_relaxed);
  }
  void add_rounds(std::uint64_t rounds) {
    rounds_.fetch_add(rounds, std::memory_order_relaxed);
  }
  void add_allocs(std::uint64_t events) {
    allocs_.fetch_add(events, std::memory_order_relaxed);
  }
  /// Raises the recorded scratch high-water mark (max-merge).
  void note_scratch_peak(std::uint64_t bytes) {
    fetch_max(scratch_peak_, bytes);
  }
  /// Records a sub-computation: its work adds, its rounds add (sequential
  /// composition of parallel phases). Allocation events add; scratch peaks
  /// max-merge (per-thread arenas are reused, not stacked).
  void absorb(const Metrics& sub) {
    add_work(sub.work());
    add_rounds(sub.rounds());
    add_allocs(sub.allocs());
    note_scratch_peak(sub.scratch_peak_bytes());
  }
  /// Records parallel composition: work adds, rounds take the maximum.
  void absorb_parallel(const Metrics& sub) {
    add_work(sub.work());
    fetch_max(rounds_, sub.rounds());
    add_allocs(sub.allocs());
    note_scratch_peak(sub.scratch_peak_bytes());
  }

  std::uint64_t work() const { return work_.load(std::memory_order_relaxed); }
  std::uint64_t rounds() const {
    return rounds_.load(std::memory_order_relaxed);
  }
  std::uint64_t allocs() const {
    return allocs_.load(std::memory_order_relaxed);
  }
  std::uint64_t scratch_peak_bytes() const {
    return scratch_peak_.load(std::memory_order_relaxed);
  }
  void reset() {
    work_.store(0, std::memory_order_relaxed);
    rounds_.store(0, std::memory_order_relaxed);
    allocs_.store(0, std::memory_order_relaxed);
    scratch_peak_.store(0, std::memory_order_relaxed);
  }

 private:
  static void fetch_max(std::atomic<std::uint64_t>& slot,
                        std::uint64_t candidate) {
    std::uint64_t current = slot.load(std::memory_order_relaxed);
    while (candidate > current &&
           !slot.compare_exchange_weak(current, candidate,
                                       std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> work_{0};
  std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> scratch_peak_{0};
};

}  // namespace ppsi::support

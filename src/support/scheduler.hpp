#pragma once

// Dependency-driven task scheduler on OpenMP tasks.
//
// The engines' parallelism used to be fork-join `parallel_for` with a full
// barrier after every layer of every slice. A TaskGraph instead names each
// unit of work once, wires explicit predecessor edges, and Scheduler::run
// executes the graph with atomic ready-counters: every task holds the
// number of unfinished predecessors, the last predecessor to finish spawns
// it, and nothing waits at a layer boundary. One OMP thread team executes
// every level of nesting — a graph started from inside a running task
// (slice tasks spawning path tasks) shares the enclosing team instead of
// opening a nested region.
//
// Determinism contract: the scheduler never decides *what* is computed,
// only *when*. Tasks must write disjoint state (or accumulate through
// commutative atomics, e.g. support::Metrics sums), and any order-sensitive
// reduction is replayed by the caller in canonical index order after run()
// returns. Under that discipline results are bit-identical for every
// thread count and schedule (pinned by tests/differential/
// test_differential_threads.cpp).
//
// Memory-model notes (the CI TSan job runs against an uninstrumented
// libgomp whose barriers/task queues it cannot see, so every edge the
// correctness argument needs is mirrored with C++ atomics):
//   * fork: run() release-publishes the graph before spawning; every task
//     acquire-loads that flag first,
//   * dependency: predecessor completion decrements the successor's ready
//     counter with acq_rel; the successor acquire-loads its own counter on
//     entry, synchronizing with the whole release sequence of decrements,
//   * join: every task release-increments a finished counter; run()
//     acquire-spins on it after the taskgroup (the spin is momentary — the
//     taskgroup already joined — it only makes the edge TSan-visible),
//   * handoff: spawned OMP tasks capture nothing (libgomp's firstprivate
//     copy lives in uninstrumented runtime memory); the (run, task) pair
//     travels through a pthread-mutex-guarded LIFO stack instead
//     (scheduler.cpp), and the region fork/join is mirrored by global
//     epoch counters incremented inside the region.
//
// Locking discipline: a thread suspended at a nested run()'s taskgroup may
// pick up ANY queued task of the team — libgomp observably runs sibling
// tasks there, not just descendants — so a task that holds a lock while
// calling run() (or anything that spawns tasks) can find an arbitrary
// other task on its own stack trying to take the same lock: deadlock.
// NEVER hold a mutex across a TaskGraph run. Parallel work under a lock
// belongs in support::parallel_for, whose nested regions cannot steal
// tasks (the cover build's clustering, which runs under the cover cache's
// entry lock, does exactly this).
//
// Cooperative cancellation rides along as a CancelWatermark: "first
// accepting index wins" queries lower the watermark when an index accepts,
// and queued work keyed by a strictly greater index skips itself. The
// watermark is monotone decreasing, so anything at or below the final
// watermark is guaranteed to have run to completion — which is what makes
// cancelled runs replayable deterministically (see api/solver.cpp). A
// CancelScope additionally carries the query-wide CancelToken and
// DeadlineClock (support/cancel.hpp), so one checkpoint covers all three
// cancellation sources.

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "support/cancel.hpp"

namespace ppsi::support {

namespace detail {
class GraphRun;  // scheduler.cpp: one run()'s execution state
}

/// Monotone-decreasing index watermark for first-accepting-index queries.
/// Thread-safe; starts at kNone (nothing accepted, nothing obsolete).
class CancelWatermark {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Records that `index` accepted; the watermark becomes the minimum
  /// accepting index seen so far.
  void accept(std::uint32_t index) {
    std::uint32_t current = mark_.load(std::memory_order_relaxed);
    while (index < current &&
           !mark_.compare_exchange_weak(current, index,
                                        std::memory_order_acq_rel)) {
    }
  }

  /// True when work keyed by `index` is no longer needed: some strictly
  /// smaller index already accepted. Work at or below the watermark is
  /// never obsolete, so every index up to the final watermark completes.
  bool obsolete(std::uint32_t index) const {
    return index > mark_.load(std::memory_order_acquire);
  }

  /// Smallest accepting index so far (kNone if none).
  std::uint32_t watermark() const {
    return mark_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint32_t> mark_{kNone};
};

/// One submission's view of every cancellation source: the subject's own
/// index against the shared watermark, plus the query-wide CancelToken and
/// DeadlineClock when the query has them. Default-constructed scopes never
/// cancel (solo queries). All three sources are monotone, so a scope that
/// reported cancelled() stays cancelled.
struct CancelScope {
  const CancelWatermark* watermark = nullptr;
  std::uint32_t index = 0;
  const CancelToken* token = nullptr;
  const DeadlineClock* deadline = nullptr;

  bool cancelled() const {
    if (watermark != nullptr && watermark->obsolete(index)) return true;
    if (token != nullptr && token->cancelled()) return true;
    return deadline != nullptr && deadline->expired();
  }
};

/// A static dependency graph of tasks. Build single-threaded (add/add_edge),
/// run once via Scheduler::run. Task ids are dense and assigned in add()
/// order, so callers can keep per-task output slots in a plain vector.
class TaskGraph {
 public:
  using Fn = std::function<void()>;

  /// Adds a task; returns its id (== number of prior add() calls).
  std::uint32_t add(Fn fn);

  /// Declares that `succ` may only start after `pred` finished.
  /// Both ids must already exist; the graph must stay acyclic.
  void add_edge(std::uint32_t pred, std::uint32_t succ);

  std::size_t size() const { return nodes_.size(); }

 private:
  friend class Scheduler;
  friend class detail::GraphRun;

  struct Node {
    Fn fn;
    std::atomic<std::uint32_t> pending{0};  ///< unfinished predecessors

    Node() = default;
    explicit Node(Fn f) : fn(std::move(f)) {}
    // Build-time only (the node vector may grow while single-threaded).
    Node(Node&& other) noexcept
        : fn(std::move(other.fn)),
          pending(other.pending.load(std::memory_order_relaxed)) {}
  };

  /// Buckets edges_ into the successor CSR; run() calls it once, before
  /// any task starts. Each task keeps its successors in add_edge order.
  void seal();
  std::span<const std::uint32_t> successors(std::uint32_t id) const {
    return {succ_.data() + succ_offsets_[id],
            succ_.data() + succ_offsets_[id + 1]};
  }

  std::vector<Node> nodes_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;  ///< (pred, succ)
  std::vector<std::uint32_t> succ_offsets_;  ///< size() + 1 after seal()
  std::vector<std::uint32_t> succ_;          ///< successors, grouped by pred
};

/// Executes TaskGraphs on the process-wide OMP thread pool.
class Scheduler {
 public:
  /// Runs `graph` to completion. Callable from outside any parallel region
  /// (opens one) or from inside a running task (spawns into the enclosing
  /// team; the caller participates in executing descendants while waiting).
  /// A graph is single-use: run it once.
  static void run(TaskGraph& graph);

  /// Detached submission for the serving layer: enqueues `job` on a small
  /// process-wide pool of serving threads and returns immediately. Jobs
  /// drain highest `priority` first, FIFO within a priority level (the
  /// default 0 keeps plain submissions strictly FIFO; SolverPool maps its
  /// admission classes onto this so an interactive dispatch overtakes
  /// already-enqueued bulk ones). Up to serving_threads() jobs run
  /// concurrently; a job is free to open OMP parallel regions of its own
  /// — i.e. to call Scheduler::run — each serving thread owns an
  /// independent team. Completion is the caller's to observe (e.g. through
  /// a PendingResult); the pool drains and joins at process exit.
  static void submit(std::function<void()> job, int priority = 0);

  /// Number of serving threads backing submit().
  static std::size_t serving_threads();
};

}  // namespace ppsi::support

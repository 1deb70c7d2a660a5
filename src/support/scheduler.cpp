#include "support/scheduler.hpp"

#include <omp.h>

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "support/fault.hpp"
#include "support/parallel.hpp"
#include "support/types.hpp"

namespace ppsi::support {

std::uint32_t TaskGraph::add(Fn fn) {
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back(std::move(fn));
  return id;
}

void TaskGraph::add_edge(std::uint32_t pred, std::uint32_t succ) {
  require(pred < nodes_.size() && succ < nodes_.size(),
          "TaskGraph::add_edge: unknown task id");
  edges_.emplace_back(pred, succ);
  nodes_[succ].pending.fetch_add(1, std::memory_order_relaxed);
}

void TaskGraph::seal() {
  // Counting sort by pred. Filling from the back keeps each task's
  // successors in add_edge order and leaves every offset at its block's
  // start.
  succ_offsets_.assign(nodes_.size() + 1, 0);
  for (const auto& edge : edges_) ++succ_offsets_[edge.first];
  for (std::size_t id = 1; id < succ_offsets_.size(); ++id)
    succ_offsets_[id] += succ_offsets_[id - 1];
  succ_.resize(edges_.size());
  for (auto it = edges_.rbegin(); it != edges_.rend(); ++it)
    succ_[--succ_offsets_[it->first]] = it->second;
}

namespace detail {

/// Per-run() execution state. Lives on the calling frame; tasks reference
/// it for the duration of the run (run() does not return before every task
/// finished, so the lifetime is safe).
class GraphRun;

namespace {

// Task handoff. libgomp copies a task's firstprivate frame into its own
// (uninstrumented) heap and hands it over through futex-based queues TSan
// cannot order, so spawned tasks capture NOTHING: the (run, task id) pair
// travels through this mutex-guarded global stack instead — pthread
// mutexes are TSan-instrumented, so every edge of the handoff is visible.
//
// LIFO is load-bearing, not a preference. Which OMP task object pops
// which entry is decoupled, and at one thread a run's taskgroup must be
// able to finish on its own objects: LIFO keeps the stack top owned by
// the innermost active run (nested runs push above their parents'
// remaining entries), so a run's objects drain the run's own entries and
// a foreign entry is only ever popped where other threads exist to finish
// it. Entries are pushed before their task object is created, so the
// stack is provably non-empty at every pop.
std::mutex ready_mutex;
std::vector<std::pair<GraphRun*, std::uint32_t>> ready_stack;

/// Body of every spawned task (no captures): pop the newest handoff entry
/// and execute it.
void execute_from_ready_stack();

}  // namespace

class GraphRun {
 public:
  explicit GraphRun(TaskGraph& graph) : graph_(graph) {}

  /// Fork edge, caller side: release-publishes the run state and the graph
  /// (both built non-atomically) BEFORE any other thread can reach them —
  /// i.e. before the parallel region opens. With `single nowait` any team
  /// member may become the spawner, so the publish cannot wait until
  /// run_all.
  void publish() { published_.store(1, std::memory_order_release); }
  /// Fork edge, team side: first thing every team thread (and every task
  /// body) does.
  void join_fork_edge() { published_.load(std::memory_order_acquire); }

  void run_all() {
    join_fork_edge();
    // Snapshot the root set BEFORE spawning anything: once the first root
    // is live, predecessors may finish and drive other counters to zero
    // concurrently, and reading the live counters here would spawn such a
    // successor twice (its own predecessor spawns it as well).
    const std::size_t n = graph_.nodes_.size();
    std::vector<std::uint32_t> roots;
    for (std::uint32_t id = 0; id < n; ++id) {
      if (graph_.nodes_[id].pending.load(std::memory_order_relaxed) == 0)
        roots.push_back(id);
    }
#pragma omp taskgroup
    {
      // Reverse order: the handoff stack is LIFO, so descending pushes
      // make concurrent pops start with the LOWEST root ids — the
      // low-index completion bias first-accepting-index queries rely on.
      for (auto it = roots.rbegin(); it != roots.rend(); ++it) spawn(*it);
    }
    await_joined();
  }

  /// Join edge: acquire-syncs with every task's finished-increment. The
  /// taskgroup (or region barrier) already joined, so the spin is
  /// momentary; it exists because the thread that returns to the caller
  /// must own the edge itself — with `single nowait` the spawner may be a
  /// worker, and libgomp's barriers are invisible to TSan.
  void await_joined() const {
    while (finished_.load(std::memory_order_acquire) < graph_.nodes_.size()) {
    }
  }

  void execute(std::uint32_t id) {
    // Fork edge (see publish). For tasks with predecessors the acquire load
    // of the own ready counter additionally synchronizes with the release
    // sequence of every predecessor's decrement.
    join_fork_edge();
    TaskGraph::Node& node = graph_.nodes_[id];
    node.pending.load(std::memory_order_acquire);
    // Exception containment at the task boundary: an exception escaping an
    // OMP task body terminates the process, so the first failure is
    // recorded here and rethrown by run() on the calling thread. Later
    // tasks of a failed run skip their body (the run's outcome is decided;
    // draining fast matters more) but still propagate successor counts and
    // the finished increment, so the graph drains and joins normally.
    if (node.fn && !trap_.failed()) {
      try {
        PPSI_FAULT_POINT("scheduler.task");
        node.fn();
      } catch (...) {
        trap_.capture();
      }
    }
    for (const std::uint32_t succ : graph_.successors(id)) {
      if (graph_.nodes_[succ].pending.fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        spawn(succ);
      }
    }
    finished_.fetch_add(1, std::memory_order_release);
  }

  /// Rethrows the run's first recorded task failure, if any. Called by
  /// Scheduler::run after the join, on the thread that returns to the
  /// caller — from there the exception unwinds through ordinary
  /// single-threaded code into the query-boundary containment.
  void rethrow_if_failed() { trap_.rethrow(); }

 private:
  void spawn(std::uint32_t id) {
    {
      const std::lock_guard<std::mutex> lock(ready_mutex);
      ready_stack.emplace_back(this, id);
    }
#pragma omp task default(none)
    execute_from_ready_stack();
  }

  TaskGraph& graph_;
  std::atomic<std::uint32_t> published_{0};
  std::atomic<std::size_t> finished_{0};
  RegionTrap trap_;  ///< first task failure (see execute)
};

namespace {

void execute_from_ready_stack() {
  GraphRun* run;
  std::uint32_t id;
  {
    const std::lock_guard<std::mutex> lock(ready_mutex);
    run = ready_stack.back().first;
    id = ready_stack.back().second;
    ready_stack.pop_back();
  }
  run->execute(id);
}

}  // namespace

}  // namespace detail

namespace {

// Fork/join epochs of top-level (region-opening) runs. libgomp's futex
// barriers are invisible to TSan, and the compiler materializes the
// region's shared-variable struct on the caller's stack at the region
// call site — after every user statement — so no member atomic can order
// workers' first reads of that struct. These globals can: thread 0 of the
// region IS the caller, so its in-region release-increment is ordered
// after all of the caller's setup writes, and a worker's acquire-load
// after the entry barrier is guaranteed (by the real barrier) to observe
// it, handing TSan the fork edge before the worker first touches shared
// state. The join epoch mirrors this at region exit. Shared across
// concurrent top-level runs by design: extra observed increments only add
// ordering, never remove it.
std::atomic<std::uint64_t> fork_epoch{0};
std::atomic<std::uint64_t> join_epoch{0};

}  // namespace

namespace {

// The detached serving pool behind Scheduler::submit. Plain std::threads,
// not OMP: each serving thread must be able to open OMP parallel regions
// of its own (a submitted query calls Scheduler::run), which a thread that
// is itself an OMP task could not do without nesting inside the submitting
// team. Lazily started on first submit; the function-local singleton joins
// its (idle, queue drained by callers waiting on their results) threads at
// static destruction.
class ServingPool {
 public:
  static ServingPool& instance() {
    static ServingPool pool;
    return pool;
  }

  static std::size_t thread_count() {
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw / 2u, 2u, 8u);
  }

  void submit(std::function<void()> job, int priority) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(Entry{priority, next_seq_++, std::move(job)});
      if (threads_.empty()) {
        const std::size_t n = thread_count();
        threads_.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
          threads_.emplace_back([this] { worker_loop(); });
      }
    }
    ready_.notify_one();
  }

  ~ServingPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    ready_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

 private:
  /// One queued job. Workers drain by (highest priority, lowest seq): the
  /// seq tiebreak keeps equal-priority jobs strictly FIFO, so default
  /// submissions behave exactly as before priorities existed.
  struct Entry {
    int priority = 0;
    std::uint64_t seq = 0;
    std::function<void()> job;
  };

  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ and drained
        auto best = queue_.begin();
        for (auto it = std::next(best); it != queue_.end(); ++it) {
          if (it->priority > best->priority) best = it;
        }
        job = std::move(best->job);
        queue_.erase(best);
      }
      // Last-resort backstop: an exception escaping a detached serving
      // thread is std::terminate. Every submitted job resolves its own
      // PendingResult handle and contains its own failures (SolverPool's
      // jobs); anything reaching here has already been reported,
      // so swallowing keeps the worker alive for the next job.
      try {
        job();
      } catch (...) {
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Entry> queue_;
  std::uint64_t next_seq_ = 0;  // guarded by mutex_
  std::vector<std::thread> threads_;  // guarded by mutex_ until started
  bool stop_ = false;
};

}  // namespace

void Scheduler::submit(std::function<void()> job, int priority) {
  ServingPool::instance().submit(std::move(job), priority);
}

std::size_t Scheduler::serving_threads() {
  return ServingPool::thread_count();
}

void Scheduler::run(TaskGraph& graph) {
  if (graph.size() == 0) return;
  graph.seal();
  if (!omp_in_parallel() && omp_get_max_threads() == 1) {
    // Serial fast path: with one thread there is nothing to overlap, so
    // skip the region/task/handoff machinery and execute inline in a
    // topological order. Outputs are identical by the determinism
    // contract (tasks write disjoint slots; callers replay reductions in
    // canonical order), and nested runs from inside these tasks take this
    // same path (no region is ever opened). FIFO (cursor over a grow-only
    // worklist), not a stack: lowest-id-ready-first preserves the
    // low-index completion bias first-accepting-index queries rely on for
    // their cancellation watermark (solve_all_slices's window chains
    // would otherwise drain highest chain first).
    std::vector<std::uint32_t> ready;
    const std::size_t n = graph.nodes_.size();
    for (std::uint32_t id = 0; id < n; ++id) {
      if (graph.nodes_[id].pending.load(std::memory_order_relaxed) == 0)
        ready.push_back(id);
    }
    // Mirrors GraphRun's containment: record the first task failure, skip
    // later bodies, keep draining so the cycle check below stays valid,
    // then rethrow to the caller.
    std::exception_ptr error;
    for (std::size_t next = 0; next < ready.size(); ++next) {
      const std::uint32_t id = ready[next];
      TaskGraph::Node& node = graph.nodes_[id];
      if (node.fn && !error) {
        try {
          PPSI_FAULT_POINT("scheduler.task");
          node.fn();
        } catch (...) {
          error = std::current_exception();
        }
      }
      for (const std::uint32_t succ : graph.successors(id)) {
        if (graph.nodes_[succ].pending.fetch_sub(
                1, std::memory_order_relaxed) == 1) {
          ready.push_back(succ);
        }
      }
    }
    require(ready.size() == n, "Scheduler::run: dependency cycle in TaskGraph");
    if (error) std::rethrow_exception(error);
    return;
  }
  detail::GraphRun state(graph);
  state.publish();
  if (omp_in_parallel()) {
    // Nested start (e.g. a slice task spawning its path tasks): the tasks
    // join the enclosing team; the taskgroup in run_all suspends this task
    // and lets the thread execute descendants meanwhile. The member
    // published_/finished_ atomics carry the fork/join edges (caller and
    // task bodies touch them directly; no region struct is involved).
    state.run_all();
    state.rethrow_if_failed();
  } else {
#pragma omp parallel default(shared)
    {
      if (omp_get_thread_num() == 0)
        fork_epoch.fetch_add(1, std::memory_order_release);
#pragma omp barrier
      fork_epoch.load(std::memory_order_acquire);
#pragma omp single nowait
      state.run_all();
      // Threads other than the one taking `single` fall through to the
      // region's implicit barrier, where they execute spawned tasks
      // (whose accesses the member finished_ counter orders; see
      // await_joined below).
      join_epoch.fetch_add(1, std::memory_order_release);
    }
    // Region joined: every thread's join increment really happened, so
    // this acquire-load observes them all and orders their non-task work
    // before the caller continues; the finished_ spin covers the task
    // bodies themselves (the `single` — and its await_joined — may have
    // run on a worker, so the returning thread must own both edges).
    join_epoch.load(std::memory_order_acquire);
    state.await_joined();
    state.rethrow_if_failed();
  }
}

}  // namespace ppsi::support

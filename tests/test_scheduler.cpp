// support::TaskGraph / Scheduler / CancelWatermark unit tests.
//
// The scheduler is the substrate of the barrier-free engines, so these
// tests pin its contract directly: dependency edges are honored (a task
// never starts before every predecessor finished), every task runs exactly
// once, graphs nest (tasks starting graphs of their own on the shared
// team, the slice×path shape), and the cancellation watermark is a
// monotone minimum. ctest runs the suite under OMP_NUM_THREADS=1 and =4.

#include <gtest/gtest.h>

#include <omp.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "support/scheduler.hpp"

namespace ppsi::support {
namespace {

TEST(TaskGraph, EmptyGraphRuns) {
  TaskGraph graph;
  Scheduler::run(graph);  // must not hang or crash
  EXPECT_EQ(graph.size(), 0u);
}

TEST(TaskGraph, SingleTaskRuns) {
  TaskGraph graph;
  std::atomic<int> runs{0};
  graph.add([&] { runs.fetch_add(1); });
  Scheduler::run(graph);
  EXPECT_EQ(runs.load(), 1);
}

TEST(TaskGraph, EveryTaskRunsExactlyOnce) {
  TaskGraph graph;
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> runs(kTasks);
  for (int i = 0; i < kTasks; ++i)
    graph.add([&runs, i] { runs[i].fetch_add(1); });
  Scheduler::run(graph);
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
}

TEST(TaskGraph, ChainHonorsDependencyOrder) {
  TaskGraph graph;
  constexpr std::uint32_t kLength = 64;
  std::vector<std::uint32_t> order;
  order.reserve(kLength);
  for (std::uint32_t i = 0; i < kLength; ++i)
    graph.add([&order, i] { order.push_back(i); });  // serialized by edges
  for (std::uint32_t i = 0; i + 1 < kLength; ++i) graph.add_edge(i, i + 1);
  Scheduler::run(graph);
  ASSERT_EQ(order.size(), kLength);
  for (std::uint32_t i = 0; i < kLength; ++i) EXPECT_EQ(order[i], i);
}

TEST(TaskGraph, DiamondJoinWaitsForBothBranches) {
  // a -> {b, c} -> d, repeated over many diamonds to catch schedule races.
  for (int trial = 0; trial < 25; ++trial) {
    TaskGraph graph;
    std::atomic<int> a_done{0}, branches_done{0};
    bool d_saw_both = false;
    const std::uint32_t a = graph.add([&] { a_done.store(1); });
    const std::uint32_t b = graph.add([&] {
      EXPECT_EQ(a_done.load(), 1);
      branches_done.fetch_add(1);
    });
    const std::uint32_t c = graph.add([&] {
      EXPECT_EQ(a_done.load(), 1);
      branches_done.fetch_add(1);
    });
    const std::uint32_t d =
        graph.add([&] { d_saw_both = branches_done.load() == 2; });
    graph.add_edge(a, b);
    graph.add_edge(a, c);
    graph.add_edge(b, d);
    graph.add_edge(c, d);
    Scheduler::run(graph);
    EXPECT_TRUE(d_saw_both) << "trial " << trial;
  }
}

TEST(TaskGraph, LayeredFanHonorsAllEdges) {
  // A path-decomposition-shaped graph: every task of layer l+1 depends on
  // two tasks of layer l; each records the maximum finished layer it saw.
  constexpr std::uint32_t kLayers = 6;
  constexpr std::uint32_t kWidth = 8;
  TaskGraph graph;
  std::vector<std::atomic<std::uint32_t>> finished_in_layer(kLayers);
  std::vector<std::vector<std::uint32_t>> ids(kLayers);
  for (std::uint32_t l = 0; l < kLayers; ++l) {
    for (std::uint32_t w = 0; w < kWidth; ++w) {
      ids[l].push_back(graph.add([&finished_in_layer, l] {
        if (l > 0) {
          // Both predecessors finished, so the previous layer has at least
          // two completions from this task's perspective.
          EXPECT_GE(finished_in_layer[l - 1].load(), 2u);
        }
        finished_in_layer[l].fetch_add(1);
      }));
    }
  }
  for (std::uint32_t l = 0; l + 1 < kLayers; ++l) {
    for (std::uint32_t w = 0; w < kWidth; ++w) {
      graph.add_edge(ids[l][w], ids[l + 1][w]);
      graph.add_edge(ids[l][(w + 1) % kWidth], ids[l + 1][w]);
    }
  }
  Scheduler::run(graph);
  for (std::uint32_t l = 0; l < kLayers; ++l)
    EXPECT_EQ(finished_in_layer[l].load(), kWidth);
}

TEST(TaskGraph, SuccessorsOfFastRootsRunExactlyOnce) {
  // Regression: the run loop must snapshot the root set before spawning.
  // With instant roots, a successor's ready-counter hits zero while later
  // roots are still being spawned; reading live counters in that loop
  // double-spawned such successors (observed as nondeterministic work
  // counts in the slice fan-out).
  for (int trial = 0; trial < 20; ++trial) {
    TaskGraph graph;
    constexpr std::uint32_t kChains = 200;
    std::vector<std::atomic<int>> succ_runs(kChains);
    for (std::uint32_t i = 0; i < kChains; ++i) {
      const std::uint32_t root = graph.add([] {});  // finishes instantly
      const std::uint32_t succ =
          graph.add([&succ_runs, i] { succ_runs[i].fetch_add(1); });
      graph.add_edge(root, succ);
    }
    Scheduler::run(graph);
    for (std::uint32_t i = 0; i < kChains; ++i)
      EXPECT_EQ(succ_runs[i].load(), 1) << "trial " << trial << " chain " << i;
  }
}

TEST(TaskGraph, NestedGraphsShareTheTeam) {
  // The slice×path shape: every outer task runs an inner dependency chain
  // of its own via a nested Scheduler::run. The inner run must complete
  // before the outer task returns.
  static constexpr int kOuter = 12;
  static constexpr std::uint32_t kInner = 16;
  TaskGraph outer;
  std::vector<std::atomic<std::uint32_t>> inner_done(kOuter);
  for (int s = 0; s < kOuter; ++s) {
    outer.add([&inner_done, s] {
      TaskGraph inner;
      auto& done = inner_done[s];
      for (std::uint32_t i = 0; i < kInner; ++i) {
        inner.add([&done, i] {
          EXPECT_EQ(done.load(), i);  // chain order within the slice
          done.fetch_add(1);
        });
      }
      for (std::uint32_t i = 0; i + 1 < kInner; ++i) inner.add_edge(i, i + 1);
      Scheduler::run(inner);
      EXPECT_EQ(done.load(), kInner);
    });
  }
  Scheduler::run(outer);
  for (int s = 0; s < kOuter; ++s) EXPECT_EQ(inner_done[s].load(), kInner);
}

// File scope so the region below captures nothing: a hand-opened
// `#pragma omp parallel` passes captured locals through a stack struct
// whose handoff TSan cannot order (libgomp's barriers are uninstrumented).
std::atomic<int> g_region_runs{0};

TEST(TaskGraph, RunsFromInsideParallelRegion) {
  g_region_runs.store(0);
#pragma omp parallel default(none)
#pragma omp single
  {
    // Built inside the region by the single-taker itself, so construction
    // and the nested Scheduler::run share one thread; the run's own
    // atomics order the task bodies.
    TaskGraph graph;
    for (int i = 0; i < 32; ++i)
      graph.add([] { g_region_runs.fetch_add(1); });
    Scheduler::run(graph);
  }
  EXPECT_EQ(g_region_runs.load(), 32);
}

TEST(CancelWatermark, StartsOpenAndTakesTheMinimum) {
  CancelWatermark mark;
  EXPECT_EQ(mark.watermark(), CancelWatermark::kNone);
  EXPECT_FALSE(mark.obsolete(0));
  EXPECT_FALSE(mark.obsolete(1000000));
  mark.accept(7);
  EXPECT_EQ(mark.watermark(), 7u);
  EXPECT_FALSE(mark.obsolete(6));
  EXPECT_FALSE(mark.obsolete(7));  // the watermark itself stays needed
  EXPECT_TRUE(mark.obsolete(8));
  mark.accept(9);  // larger accepts never raise the mark
  EXPECT_EQ(mark.watermark(), 7u);
  mark.accept(3);
  EXPECT_EQ(mark.watermark(), 3u);
  EXPECT_TRUE(mark.obsolete(7));
}

TEST(CancelWatermark, ConcurrentAcceptsConvergeToTheMinimum) {
  CancelWatermark mark;
  TaskGraph graph;
  for (std::uint32_t i = 0; i < 128; ++i)
    graph.add([&mark, i] { mark.accept(100 + (i * 37) % 64); });
  Scheduler::run(graph);
  EXPECT_EQ(mark.watermark(), 100u);
}

TEST(TaskGraph, CancelledTasksSkipDeterministically) {
  // The solve_all_slices pattern: independent indexed tasks; index 3
  // "accepts"; tasks with larger indices may or may not run their payload,
  // but every index <= 3 must complete. Repeat to exercise schedules.
  for (int trial = 0; trial < 25; ++trial) {
    CancelWatermark mark;
    constexpr std::uint32_t kTasks = 40;
    std::vector<std::atomic<int>> ran(kTasks);
    TaskGraph graph;
    for (std::uint32_t i = 0; i < kTasks; ++i) {
      graph.add([&, i] {
        const CancelScope scope{&mark, i};
        if (scope.cancelled()) return;
        ran[i].store(1);
        if (i == 3) mark.accept(i);
      });
    }
    Scheduler::run(graph);
    for (std::uint32_t i = 0; i <= 3; ++i)
      EXPECT_EQ(ran[i].load(), 1) << "trial " << trial << " index " << i;
  }
}

TEST(CancelScope, DefaultScopeNeverCancels) {
  const CancelScope scope;
  EXPECT_FALSE(scope.cancelled());
}

TEST(CancelToken, CancelIsStickyAndVisible) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  token.cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

TEST(DeadlineClock, UnarmedClockNeverExpires) {
  const DeadlineClock clock;
  EXPECT_FALSE(clock.armed());
  EXPECT_FALSE(clock.expired());
  EXPECT_GT(clock.remaining_seconds(), 1e18);  // +inf
}

TEST(DeadlineClock, ArmedClockExpiresAndGoesNegative) {
  DeadlineClock clock;
  clock.arm(1e-9);
  EXPECT_TRUE(clock.armed());
  while (!clock.expired()) {  // the nanosecond passes almost immediately
  }
  EXPECT_TRUE(clock.expired());
  EXPECT_LE(clock.remaining_seconds(), 0.0);
}

TEST(DeadlineClock, GenerousDeadlineStaysUnexpired) {
  DeadlineClock clock;
  clock.arm(3600.0);
  EXPECT_FALSE(clock.expired());
  EXPECT_GT(clock.remaining_seconds(), 3000.0);
}

TEST(CancelScope, EverySourceCancelsIndependently) {
  CancelWatermark mark;
  CancelToken token;
  DeadlineClock deadline;
  deadline.arm(3600.0);
  CancelScope scope{&mark, 5, &token, &deadline};
  EXPECT_FALSE(scope.cancelled());

  mark.accept(2);  // index 5 is beyond the accepted minimum
  EXPECT_TRUE(scope.cancelled());

  CancelScope surviving{&mark, 1, &token, &deadline};
  EXPECT_FALSE(surviving.cancelled());
  token.cancel();
  EXPECT_TRUE(surviving.cancelled());

  DeadlineClock expired;
  expired.arm(1e-9);
  CancelScope timed{nullptr, 0, nullptr, &expired};
  while (!timed.cancelled()) {
  }
  EXPECT_TRUE(timed.cancelled());
}

TEST(ServingPool, SubmitRunsDetachedJobs) {
  std::mutex mutex;
  std::condition_variable done;
  int completed = 0;
  constexpr int kJobs = 8;
  for (int i = 0; i < kJobs; ++i) {
    Scheduler::submit([&] {
      const std::lock_guard<std::mutex> lock(mutex);
      ++completed;
      done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  done.wait(lock, [&] { return completed == kJobs; });
  EXPECT_EQ(completed, kJobs);
  EXPECT_GE(Scheduler::serving_threads(), 2u);
}

TEST(ServingPool, SubmittedJobsCanOpenTheirOwnTaskGraphs) {
  // A serving thread is a plain thread: jobs on it run nested Scheduler
  // work of their own (this is how SolverPool queries execute).
  std::mutex mutex;
  std::condition_variable done;
  int total = -1;
  Scheduler::submit([&] {
    std::atomic<int> sum{0};
    TaskGraph graph;
    for (int i = 1; i <= 10; ++i)
      graph.add([&sum, i] { sum.fetch_add(i); });
    Scheduler::run(graph);
    const std::lock_guard<std::mutex> lock(mutex);
    total = sum.load();
    done.notify_all();
  });
  std::unique_lock<std::mutex> lock(mutex);
  done.wait(lock, [&] { return total >= 0; });
  EXPECT_EQ(total, 55);
}

}  // namespace
}  // namespace ppsi::support

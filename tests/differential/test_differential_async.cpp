// Differential test: the asynchronous serving layer returns bit-identical
// results to the blocking API.
//
// A SolverPool query runs the *same* blocking query on a serving thread,
// with the deadline armed at execution start, so outputs, runs,
// slices_solved, and the instrumented work/round counters must match
// Solver::find and find_batch exactly, whatever the admission class. The blocking reference additionally sweeps
// OMP_NUM_THREADS 1/2/4 in-process; the async queries execute at the
// ambient thread count (serving threads inherit the environment), which
// the omp1/omp4 ctest variants cover — determinism makes all of these the
// same numbers.
//
// Every measurement uses a fresh Solver: cover-build metrics are charged
// only to the query that built the cover, so mixing warm and cold runs
// would not compare like with like. Allocs/scratch peaks are deliberately
// not pinned (per-thread arenas; see test_differential_threads.cpp).

#include <gtest/gtest.h>

#include <omp.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/solver.hpp"
#include "api/solver_pool.hpp"
#include "graph/generators.hpp"
#include "testing/random_inputs.hpp"

namespace ppsi {
namespace {

using cover::CountResult;
using cover::DecisionResult;
using cover::ListingResult;
using iso::Pattern;

const std::vector<int> kThreadCounts = {1, 2, 4};

/// Runs fn() with omp_set_num_threads(t), restoring the ambient setting.
template <typename F>
auto with_threads(int t, F&& fn) {
  const int saved = omp_get_max_threads();
  omp_set_num_threads(t);
  auto result = fn();
  omp_set_num_threads(saved);
  return result;
}

struct FindCapture {
  bool found = false;
  std::optional<iso::Assignment> witness;
  std::uint32_t runs = 0;
  std::size_t slices_solved = 0;
  std::uint64_t work = 0;
  std::uint64_t rounds = 0;
};

FindCapture capture(const Result<DecisionResult>& r) {
  EXPECT_TRUE(r.ok()) << r.status().to_string();
  return {r->found,          r->witness,        r->runs,
          r->slices_solved,  r->metrics.work(), r->metrics.rounds()};
}

void expect_same_find(const FindCapture& want, const FindCapture& got,
                      const std::string& context) {
  EXPECT_EQ(want.found, got.found) << context;
  EXPECT_EQ(want.witness, got.witness) << context;
  EXPECT_EQ(want.runs, got.runs) << context;
  EXPECT_EQ(want.slices_solved, got.slices_solved) << context;
  EXPECT_EQ(want.work, got.work) << context;
  EXPECT_EQ(want.rounds, got.rounds) << context;
}

class AsyncDifferential : public ::testing::TestWithParam<int> {};

TEST_P(AsyncDifferential, FindAsyncMatchesFindAndBatchAcrossThreadCounts) {
  const std::uint64_t seed = 11200 + GetParam();
  std::string family;
  const Graph g = ppsi::testing::random_target(seed, &family);
  const Pattern pattern = ppsi::testing::random_pattern(seed, 2, 4);
  const std::string context =
      "seed " + std::to_string(seed) + " family " + family;
  QueryOptions opts;
  opts.seed = seed + 13;
  opts.max_runs = 4;
  opts.engine = cover::EngineKind::kParallel;

  // Async reference at the ambient thread count (the serving threads run
  // their OMP teams with whatever the environment configured): a
  // one-target pool at the default admission class.
  const FindCapture async = [&] {
    SolverPool pool;
    auto pending = pool.find_async(pool.add_target(g), pattern, opts);
    return capture(pending.get());
  }();

  // The blocking API, swept across thread counts in-process.
  for (const int t : kThreadCounts) {
    const FindCapture blocking = with_threads(t, [&]() -> FindCapture {
      Solver solver(g);
      return capture(solver.find(pattern, opts));
    });
    expect_same_find(async, blocking,
                     context + " blocking threads=" + std::to_string(t));
  }

  // find_batch reproduces the same capture. One slot only: slots share
  // the cover cache, and with *identical* patterns in several slots which
  // slot gets charged the cover-build metrics is schedule-dependent (the
  // disjoint-slot determinism is pinned by test_differential_threads).
  {
    Solver solver(g);
    const auto batch =
        solver.find_batch(std::vector<Pattern>{pattern}, opts);
    ASSERT_EQ(batch.size(), 1u);
    expect_same_find(async, capture(batch[0]), context + " batch");
  }

  // The admission class cycles with the seed: the policy engine may
  // reorder or park queries but must never change what one computes.
  {
    SolverPool pool;
    const TargetId id = pool.add_target(g);
    Admission admission;
    admission.priority = static_cast<Priority>(GetParam() % 3);
    auto pending = pool.find_async(id, pattern, opts, admission);
    expect_same_find(async, capture(pending.get()),
                     context + " pool class=" +
                         to_string(admission.priority));
  }
}

TEST_P(AsyncDifferential, ListAndCountAsyncMatchBlocking) {
  const std::uint64_t seed = 11400 + GetParam();
  std::string family;
  const Graph g = ppsi::testing::random_target(seed, &family);
  const Pattern pattern = ppsi::testing::random_pattern(seed, 2, 4);
  const std::string context =
      "seed " + std::to_string(seed) + " family " + family;
  QueryOptions opts;
  opts.seed = seed + 3;

  const auto blocking_list = [&] {
    Solver solver(g);
    return solver.list(pattern, opts);
  }();
  ASSERT_TRUE(blocking_list.ok()) << context;

  SolverPool list_pool;
  auto pending = list_pool.list_async(list_pool.add_target(g), pattern, opts);
  const auto& alist = pending.get();
  ASSERT_TRUE(alist.ok()) << context;
  EXPECT_EQ(alist->occurrences, blocking_list->occurrences) << context;
  EXPECT_EQ(alist->iterations, blocking_list->iterations) << context;
  EXPECT_EQ(alist->metrics.work(), blocking_list->metrics.work()) << context;
  EXPECT_EQ(alist->metrics.rounds(), blocking_list->metrics.rounds())
      << context;

  const auto blocking_count = [&] {
    Solver solver(g);
    return solver.count(pattern, opts);
  }();
  ASSERT_TRUE(blocking_count.ok()) << context;
  SolverPool count_pool;
  auto pending_count =
      count_pool.count_async(count_pool.add_target(g), pattern, opts);
  const auto& acount = pending_count.get();
  ASSERT_TRUE(acount.ok()) << context;
  EXPECT_EQ(acount->assignments, blocking_count->assignments) << context;
  EXPECT_EQ(acount->subgraphs, blocking_count->subgraphs) << context;
  EXPECT_EQ(acount->metrics.work(), blocking_count->metrics.work()) << context;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsyncDifferential, ::testing::Range(0, 8));

TEST(AsyncDifferentialLimit, ListLimitCutIsThreadCountInvariant) {
  // The limit-hit cancellation drops the speculative tail of the slice
  // fan-out; the *returned* occurrence set and accounted work must still be
  // the sequential-replay prefix, identical at every thread count.
  const Graph g = gen::grid_graph(8, 8);
  const Pattern c4 = Pattern::from_graph(gen::cycle_graph(4));
  QueryOptions opts;
  opts.seed = 77;
  opts.list_limit = 9;
  opts.engine = cover::EngineKind::kParallel;

  struct Capture {
    std::vector<iso::Assignment> occurrences;
    std::uint64_t work = 0;
    std::uint64_t rounds = 0;
  };
  const auto run = [&](int t) {
    return with_threads(t, [&]() -> Capture {
      Solver solver(g);
      const auto r = solver.list(c4, opts);
      EXPECT_EQ(r.status().code(), StatusCode::kListLimitReached);
      EXPECT_TRUE(r.has_value());
      return {r->occurrences, r->metrics.work(), r->metrics.rounds()};
    });
  };
  const Capture reference = run(1);
  EXPECT_EQ(reference.occurrences.size(), opts.list_limit);
  for (const int t : kThreadCounts) {
    const Capture got = run(t);
    const std::string where = "threads=" + std::to_string(t);
    EXPECT_EQ(reference.occurrences, got.occurrences) << where;
    EXPECT_EQ(reference.work, got.work) << where;
    EXPECT_EQ(reference.rounds, got.rounds) << where;
  }
}

}  // namespace
}  // namespace ppsi

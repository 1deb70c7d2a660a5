// Differential test: thread-count invariance of the task-parallel runtime.
//
// The determinism contract of the scheduler refactor (README "Parallel
// architecture") is that outputs *and* instrumented work/round counters are
// bit-identical for every OMP thread count. This suite runs solve_parallel
// and Solver::find/list/find_batch at OMP_NUM_THREADS 1, 2 and 4 inside one
// process (fresh Solver per thread count, so cover-build accounting
// matches) and pins everything against the single-thread reference.
//
// Deliberately not pinned: Metrics::allocs / scratch_peak_bytes. Scratch
// arenas are per *thread*; which arenas grow (and whose residency a query
// reports) depends on which threads the scheduler placed the tasks on.
// Work and rounds are layout- and schedule-invariant by design.

#include <gtest/gtest.h>

#include <omp.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/dynamic.hpp"
#include "api/solver.hpp"
#include "graph/generators.hpp"
#include "isomorphism/parallel_engine.hpp"
#include "testing/random_inputs.hpp"
#include "treedecomp/greedy_decomposition.hpp"

namespace ppsi {
namespace {

using cover::DecisionResult;
using cover::ListingResult;
using iso::DpSolution;
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

std::set<std::pair<std::uint64_t, std::uint64_t>> state_set(
    const iso::SolvedNode& node) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const iso::StateKey s : node.states) out.insert({s.code, s.sep});
  return out;
}

void expect_identical_solutions(const DpSolution& want, const DpSolution& got,
                                std::size_t num_nodes,
                                const std::string& context) {
  ASSERT_EQ(want.accepted, got.accepted) << context;
  ASSERT_EQ(want.accepting, got.accepting) << context;
  for (std::size_t x = 0; x < num_nodes; ++x) {
    EXPECT_EQ(state_set(want.nodes[x]), state_set(got.nodes[x]))
        << context << " node " << x;
  }
  EXPECT_EQ(want.metrics.work(), got.metrics.work()) << context;
  EXPECT_EQ(want.metrics.rounds(), got.metrics.rounds()) << context;
}

class SolveParallelThreads : public ::testing::TestWithParam<int> {};

TEST_P(SolveParallelThreads, SolutionAndCountersAreThreadCountInvariant) {
  const std::uint64_t seed = 9000 + GetParam();
  std::string family;
  const Graph g = ppsi::testing::random_target(seed, &family);
  const Pattern pattern = ppsi::testing::random_pattern(seed);
  const auto td = treedecomp::binarize(treedecomp::greedy_decomposition(g));
  const std::string context =
      "seed " + std::to_string(seed) + " family " + family;

  const DpSolution reference = with_threads(
      1, [&] { return iso::solve_parallel(g, td, pattern, {}); });
  for (const int t : kThreadCounts) {
    const DpSolution sol = with_threads(
        t, [&] { return iso::solve_parallel(g, td, pattern, {}); });
    expect_identical_solutions(reference, sol, td.num_nodes(),
                               context + " threads=" + std::to_string(t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolveParallelThreads,
                         ::testing::Range(0, 30));

struct FindCapture {
  bool found = false;
  std::optional<iso::Assignment> witness;
  std::uint32_t runs = 0;
  std::uint64_t slices_solved = 0;
  std::uint64_t work = 0;
  std::uint64_t rounds = 0;
};

void expect_same_find(const FindCapture& want, const FindCapture& got,
                      const std::string& context) {
  EXPECT_EQ(want.found, got.found) << context;
  EXPECT_EQ(want.witness, got.witness) << context;
  EXPECT_EQ(want.runs, got.runs) << context;
  EXPECT_EQ(want.slices_solved, got.slices_solved) << context;
  EXPECT_EQ(want.work, got.work) << context;
  EXPECT_EQ(want.rounds, got.rounds) << context;
}

class SolverThreads : public ::testing::TestWithParam<int> {};

TEST_P(SolverThreads, FindIsThreadCountInvariant) {
  const std::uint64_t seed = 9500 + GetParam();
  std::string family;
  const Graph g = ppsi::testing::random_target(seed, &family);
  const Pattern pattern = ppsi::testing::random_pattern(seed, 2, 4);
  const std::string context =
      "seed " + std::to_string(seed) + " family " + family;

  // Every engine goes through the slice task fan-out; the parallel engine
  // additionally nests path tasks inside the slice tasks.
  for (const auto engine :
       {cover::EngineKind::kSparse, cover::EngineKind::kParallel}) {
    QueryOptions opts;
    opts.seed = seed + 31;
    opts.max_runs = 4;
    opts.engine = engine;
    const auto run_find = [&](int t) {
      return with_threads(t, [&]() -> FindCapture {
        Solver solver(g);  // fresh cache per run: cover builds accounted
        const Result<DecisionResult> r = solver.find(pattern, opts);
        EXPECT_TRUE(r.ok()) << context;
        return {r->found,         r->witness,
                r->runs,          r->slices_solved,
                r->metrics.work(), r->metrics.rounds()};
      });
    };
    const FindCapture reference = run_find(1);
    for (const int t : kThreadCounts) {
      expect_same_find(reference, run_find(t),
                       context + " engine=" +
                           std::to_string(static_cast<int>(engine)) +
                           " threads=" + std::to_string(t));
    }
  }
}

TEST_P(SolverThreads, ListIsThreadCountInvariant) {
  const std::uint64_t seed = 9700 + GetParam();
  std::string family;
  const Graph g = ppsi::testing::random_target(seed, &family);
  const Pattern pattern = ppsi::testing::random_pattern(seed, 2, 4);
  const std::string context =
      "seed " + std::to_string(seed) + " family " + family;
  QueryOptions opts;
  opts.seed = seed + 7;
  opts.engine = cover::EngineKind::kParallel;

  struct Capture {
    std::vector<iso::Assignment> occurrences;
    std::uint32_t iterations = 0;
    std::uint64_t work = 0;
    std::uint64_t rounds = 0;
  };
  const auto run_list = [&](int t) {
    return with_threads(t, [&]() -> Capture {
      Solver solver(g);
      const Result<ListingResult> r = solver.list(pattern, opts);
      EXPECT_TRUE(r.ok()) << context;
      return {r->occurrences, r->iterations, r->metrics.work(),
              r->metrics.rounds()};
    });
  };
  const Capture reference = run_list(1);
  for (const int t : kThreadCounts) {
    const Capture got = run_list(t);
    const std::string where = context + " threads=" + std::to_string(t);
    EXPECT_EQ(reference.occurrences, got.occurrences) << where;
    EXPECT_EQ(reference.iterations, got.iterations) << where;
    EXPECT_EQ(reference.work, got.work) << where;
    EXPECT_EQ(reference.rounds, got.rounds) << where;
  }
}

TEST_P(SolverThreads, ColdCacheStatsAreThreadCountInvariant) {
  // Slice decompositions are built on demand inside speculative slice
  // tasks, so how many get built varies with the team size; the cache
  // counters must not. They count what the slice-order replay accounts.
  const std::uint64_t seed = 9800 + GetParam();
  std::string family;
  const Graph g = ppsi::testing::random_target(seed, &family);
  const Pattern pattern = ppsi::testing::random_pattern(seed, 2, 4);
  const std::string context =
      "seed " + std::to_string(seed) + " family " + family;
  QueryOptions opts;
  opts.seed = seed + 3;
  opts.max_runs = 4;

  struct Capture {
    std::vector<std::uint64_t> counters;
    std::uint64_t work = 0;
  };
  const auto run_cold = [&](int t) {
    return with_threads(t, [&]() -> Capture {
      Solver solver(g);
      Capture out;
      const Result<DecisionResult> cold = solver.find(pattern, opts);
      EXPECT_TRUE(cold.ok()) << context;
      out.work = cold->metrics.work();
      // One edit, then the same decision: the rebuilt/reused split of the
      // incremental query must be schedule-independent too.
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        if (g.degree(v) == 0) continue;
        EXPECT_TRUE(solver.remove_edge(v, g.neighbors(v)[0]).ok()) << context;
        const Result<DecisionResult> edited = solver.find(pattern, opts);
        EXPECT_TRUE(edited.ok()) << context;
        out.work += edited->metrics.work();
        break;
      }
      const CacheStats s = solver.cache_stats();
      out.counters = {s.cover_hits,     s.cover_misses,  s.cover_entries,
                      s.cover_evictions, s.slices_rebuilt, s.slices_reused,
                      s.stale_covers_purged};
      return out;
    });
  };
  const Capture reference = run_cold(1);
  EXPECT_GT(reference.counters[4], 0u) << context;  // slices_rebuilt
  for (const int t : kThreadCounts) {
    const Capture got = run_cold(t);
    const std::string where = context + " threads=" + std::to_string(t);
    EXPECT_EQ(reference.counters, got.counters) << where;
    EXPECT_EQ(reference.work, got.work) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverThreads, ::testing::Range(0, 12));

TEST(SolverBatchThreads, DisjointBatchIsThreadCountInvariantPerSlot) {
  // Patterns of pairwise-distinct (diameter, size) classes never share a
  // cover, so every slot builds and charges its own covers: each slot's
  // outputs AND work/round counters are bit-identical across thread counts.
  const Graph g = gen::grid_graph(8, 8);
  std::vector<Pattern> patterns;
  patterns.push_back(Pattern::from_graph(gen::cycle_graph(4)));
  patterns.push_back(Pattern::from_graph(gen::path_graph(3)));
  patterns.push_back(Pattern::from_graph(gen::cycle_graph(5)));  // absent
  patterns.push_back(Pattern::from_graph(gen::cycle_graph(6)));
  patterns.push_back(Pattern::from_graph(gen::path_graph(5)));
  QueryOptions opts;
  opts.seed = 1234;
  opts.max_runs = 4;
  opts.engine = cover::EngineKind::kParallel;

  const auto run_batch = [&](int t) {
    return with_threads(t, [&]() -> std::vector<FindCapture> {
      Solver solver(g);
      const auto batch = solver.find_batch(patterns, opts);
      std::vector<FindCapture> captures;
      for (const auto& r : batch) {
        EXPECT_TRUE(r.ok()) << r.status().to_string();
        captures.push_back({r->found, r->witness, r->runs, r->slices_solved,
                            r->metrics.work(), r->metrics.rounds()});
      }
      return captures;
    });
  };
  const std::vector<FindCapture> reference = run_batch(1);
  ASSERT_EQ(reference.size(), patterns.size());
  for (const int t : kThreadCounts) {
    const std::vector<FindCapture> got = run_batch(t);
    ASSERT_EQ(got.size(), reference.size()) << "threads " << t;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      expect_same_find(reference[i], got[i],
                       "pattern " + std::to_string(i) + " threads " +
                           std::to_string(t));
    }
  }
}

TEST(SolverBatchThreads, SharedBatchOutputsAndTotalsAreInvariant) {
  // A mixed batch with repeated pattern classes shares cover builds, and a
  // shared build's metrics are charged to whichever slot requested it
  // first — schedule-dependent attribution, exactly as in the
  // pre-scheduler OMP-for batch. The invariants are per-slot decision
  // outputs (found/witness/runs/slices_solved) and the batch-wide metric
  // totals: every needed cover is built exactly once and every slot's own
  // solve work is deterministic, so the sums are too.
  const Graph g = gen::grid_graph(8, 8);
  std::vector<Pattern> patterns;
  for (int rep = 0; rep < 3; ++rep) {
    patterns.push_back(Pattern::from_graph(gen::cycle_graph(4)));
    patterns.push_back(Pattern::from_graph(gen::path_graph(4)));
    patterns.push_back(Pattern::from_graph(gen::cycle_graph(5)));  // absent
    patterns.push_back(Pattern::from_graph(gen::star_graph(4)));
  }
  QueryOptions opts;
  opts.seed = 1234;
  opts.max_runs = 4;
  opts.engine = cover::EngineKind::kParallel;

  struct BatchCapture {
    std::vector<FindCapture> slots;
    std::uint64_t total_work = 0;
    std::uint64_t total_rounds = 0;
  };
  const auto run_batch = [&](int t) {
    return with_threads(t, [&]() -> BatchCapture {
      Solver solver(g);
      const auto batch = solver.find_batch(patterns, opts);
      BatchCapture capture;
      for (const auto& r : batch) {
        EXPECT_TRUE(r.ok()) << r.status().to_string();
        capture.slots.push_back({r->found, r->witness, r->runs,
                                 r->slices_solved, r->metrics.work(),
                                 r->metrics.rounds()});
        capture.total_work += r->metrics.work();
        capture.total_rounds += r->metrics.rounds();
      }
      return capture;
    });
  };
  const BatchCapture reference = run_batch(1);
  ASSERT_EQ(reference.slots.size(), patterns.size());
  for (const int t : kThreadCounts) {
    const BatchCapture got = run_batch(t);
    ASSERT_EQ(got.slots.size(), reference.slots.size()) << "threads " << t;
    for (std::size_t i = 0; i < reference.slots.size(); ++i) {
      const std::string where =
          "pattern " + std::to_string(i) + " threads " + std::to_string(t);
      EXPECT_EQ(reference.slots[i].found, got.slots[i].found) << where;
      EXPECT_EQ(reference.slots[i].witness, got.slots[i].witness) << where;
      EXPECT_EQ(reference.slots[i].runs, got.slots[i].runs) << where;
      EXPECT_EQ(reference.slots[i].slices_solved, got.slots[i].slices_solved)
          << where;
    }
    EXPECT_EQ(reference.total_work, got.total_work) << "threads " << t;
    EXPECT_EQ(reference.total_rounds, got.total_rounds) << "threads " << t;
  }
}

TEST(SolverThreadsSeparating, FindSeparatingIsThreadCountInvariant) {
  // The separating engine takes the slice fan-out too (no shortcuts, no
  // translation forest): pin one representative instance.
  const Graph g = ppsi::testing::random_embedded_planar(77, 8, 20).graph();
  support::Rng rng(77, /*stream=*/0xab);
  std::vector<std::uint8_t> in_s(g.num_vertices(), 0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) in_s[v] = rng.next_bool();
  const Pattern cycle = Pattern::from_graph(gen::cycle_graph(4));
  QueryOptions opts;
  opts.seed = 41;
  opts.max_runs = 5;
  opts.engine = cover::EngineKind::kParallel;

  const auto run = [&](int t) {
    return with_threads(t, [&]() -> FindCapture {
      Solver solver(g);
      const auto r = solver.find_separating(in_s, cycle, opts);
      EXPECT_TRUE(r.ok());
      return {r->found,          r->witness,
              r->runs,           r->slices_solved,
              r->metrics.work(), r->metrics.rounds()};
    });
  };
  const FindCapture reference = run(1);
  for (const int t : kThreadCounts)
    expect_same_find(reference, run(t), "threads " + std::to_string(t));
}

}  // namespace
}  // namespace ppsi

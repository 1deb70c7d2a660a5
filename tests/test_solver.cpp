// ppsi::Solver unit tests: eager option validation and the Status model,
// budget/deadline interruption with partial results, the listing cap,
// cover-cache observability (hits/misses/clear), find_batch, and
// asynchronous use through a one-target SolverPool (PendingResult handles,
// Admission classing).
// Cache-state equivalence is covered by
// tests/differential/test_differential_solver.cpp.

#include <gtest/gtest.h>

#include <omp.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "api/budget.hpp"
#include "api/solver.hpp"
#include "api/solver_pool.hpp"
#include "graph/generators.hpp"
#include "support/cancel.hpp"

namespace ppsi {
namespace {

using cover::DecisionResult;
using cover::EngineKind;
using iso::Pattern;

Pattern cycle_pattern(Vertex k) {
  return Pattern::from_graph(gen::cycle_graph(k));
}

TEST(QueryOptionsValidation, DefaultsAreValid) {
  EXPECT_TRUE(validate(QueryOptions{}).ok());
}

TEST(QueryOptionsValidation, RejectsZeroListLimit) {
  QueryOptions opts;
  opts.list_limit = 0;
  const Status status = validate(opts);
  EXPECT_EQ(status.code(), StatusCode::kInvalidOptions);
  EXPECT_NE(status.message().find("list_limit"), std::string::npos);
}

TEST(QueryOptionsValidation, RejectsUnknownEngine) {
  QueryOptions opts;
  opts.engine = static_cast<EngineKind>(42);
  EXPECT_EQ(validate(opts).code(), StatusCode::kInvalidOptions);
}

TEST(QueryOptionsValidation, RejectsNegativeDeadline) {
  QueryOptions opts;
  opts.deadline_seconds = -1.0;
  EXPECT_EQ(validate(opts).code(), StatusCode::kInvalidOptions);
}

TEST(QueryOptionsValidation, QueriesRejectEagerly) {
  // Invalid options are rejected before any work, on every entry point.
  Solver solver(gen::grid_graph(4, 4));
  QueryOptions bad;
  bad.list_limit = 0;
  const Pattern c4 = cycle_pattern(4);
  EXPECT_EQ(solver.find(c4, bad).status().code(),
            StatusCode::kInvalidOptions);
  EXPECT_EQ(solver.list(c4, bad).status().code(),
            StatusCode::kInvalidOptions);
  EXPECT_EQ(solver.count(c4, bad).status().code(),
            StatusCode::kInvalidOptions);
  EXPECT_EQ(solver.find_disconnected(c4, bad).status().code(),
            StatusCode::kInvalidOptions);
  EXPECT_EQ(solver.find_once(c4, 1, bad).status().code(),
            StatusCode::kInvalidOptions);
  const std::vector<std::uint8_t> in_s(solver.target().num_vertices(), 1);
  EXPECT_EQ(solver.find_separating(in_s, c4, bad).status().code(),
            StatusCode::kInvalidOptions);
  Solver embedded(gen::embedded_grid(4, 4));
  EXPECT_EQ(embedded.vertex_connectivity(bad).status().code(),
            StatusCode::kInvalidOptions);
  EXPECT_EQ(solver.cache_stats().cover_misses, 0u);
  EXPECT_EQ(embedded.cache_stats().cover_misses, 0u);

  // Invalid patterns are rejected as eagerly, find_once included: two
  // disjoint C4s are a disconnected pattern for every connected-only query.
  Solver grid(gen::grid_graph(6, 6));
  const Pattern two_c4 = Pattern::from_graph(
      gen::disjoint_union({gen::cycle_graph(4), gen::cycle_graph(4)}));
  EXPECT_EQ(grid.find(two_c4).status().code(), StatusCode::kInvalidPattern);
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto once = grid.find_once(two_c4, seed);
    EXPECT_EQ(once.status().code(), StatusCode::kInvalidPattern) << seed;
    EXPECT_FALSE(once.has_value()) << seed;
  }
  EXPECT_EQ(grid.list(two_c4).status().code(), StatusCode::kInvalidPattern);
  EXPECT_EQ(grid.count(two_c4).status().code(), StatusCode::kInvalidPattern);
  EXPECT_EQ(grid.cache_stats().cover_misses, 0u);
}

TEST(QueryOptionsValidation, PatternLargerThanTargetBuildsNoCover) {
  // k > n: find and find_once answer "absent" from the entry checks alone,
  // with no cover run and no work.
  Solver solver(gen::grid_graph(2, 2));
  const Pattern c6 = cycle_pattern(6);
  const auto find = solver.find(c6);
  ASSERT_TRUE(find.ok()) << find.status().to_string();
  EXPECT_FALSE(find->found);
  EXPECT_EQ(find->runs, 0u);
  const auto once = solver.find_once(c6, 7);
  ASSERT_TRUE(once.ok()) << once.status().to_string();
  EXPECT_FALSE(once->found);
  EXPECT_EQ(once->runs, 0u);
  EXPECT_EQ(once->metrics.work(), 0u);
  EXPECT_EQ(solver.cache_stats().cover_misses, 0u);
}

TEST(QueryOptionsValidation, InvalidPatternOutranksCancellation) {
  // Status precedence: a rejection (here a disconnected pattern) is
  // reported before the entry budget check sees the cancelled token.
  Solver solver(gen::grid_graph(6, 6));
  support::CancelToken token;
  token.cancel();
  QueryOptions opts;
  opts.cancel = &token;
  const Pattern two_c4 = Pattern::from_graph(
      gen::disjoint_union({gen::cycle_graph(4), gen::cycle_graph(4)}));
  EXPECT_EQ(solver.find(two_c4, opts).status().code(),
            StatusCode::kInvalidPattern);
  EXPECT_EQ(solver.find_once(two_c4, 3, opts).status().code(),
            StatusCode::kInvalidPattern);
  EXPECT_EQ(solver.list(two_c4, opts).status().code(),
            StatusCode::kInvalidPattern);
}

TEST(SolverStatus, VertexConnectivityNeedsEmbedding) {
  Solver solver(gen::grid_graph(4, 4));
  EXPECT_FALSE(solver.has_embedding());
  const auto r = solver.vertex_connectivity();
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  EXPECT_FALSE(r.has_value());

  Solver embedded(gen::embedded_grid(4, 4));
  EXPECT_TRUE(embedded.has_embedding());
  const auto ok = embedded.vertex_connectivity();
  ASSERT_TRUE(ok.ok()) << ok.status().to_string();
  EXPECT_EQ(ok->connectivity, 2u);
}

TEST(SolverStatus, SeparatingRejectsMismatchedMarking) {
  Solver solver(gen::grid_graph(4, 4));
  const std::vector<std::uint8_t> wrong_size(3, 1);
  EXPECT_EQ(solver.find_separating(wrong_size, cycle_pattern(4)).status()
                .code(),
            StatusCode::kInvalidOptions);
}

TEST(SolverStatus, WorkBudgetInterruptsWithPartialResult) {
  // C5 is absent from the bipartite grid, so the full run budget would be
  // spent; a tiny work budget stops after the first cover run.
  Solver solver(gen::grid_graph(8, 8));
  QueryOptions opts;
  opts.max_work = 1;
  const auto r = solver.find(cycle_pattern(5), opts);
  EXPECT_EQ(r.status().code(), StatusCode::kWorkBudgetExceeded);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->found);
  EXPECT_EQ(r->runs, 1u);
  EXPECT_GT(r->metrics.work(), 1u);
}

TEST(SolverStatus, DeadlineInterruptsWithPartialResult) {
  Solver solver(gen::grid_graph(8, 8));
  QueryOptions opts;
  opts.deadline_seconds = 1e-9;
  const auto r = solver.find(cycle_pattern(5), opts);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(r.has_value());
  // An immediately-expired deadline preempts at the entry check (runs == 0)
  // or, at the latest, mid-first-cover (runs == 1): it no longer pays for a
  // full cover run.
  EXPECT_LE(r->runs, 1u);
}

TEST(SolverStatus, WorkBudgetAppliesToListing) {
  // Listing metrics meter the DP solve work, so the budget trips even when
  // every cover is already cached.
  Solver solver(gen::grid_graph(6, 6));
  QueryOptions opts;
  opts.max_work = 1;
  const auto cold = solver.list(cycle_pattern(4), opts);
  EXPECT_EQ(cold.status().code(), StatusCode::kWorkBudgetExceeded);
  ASSERT_TRUE(cold.has_value());
  const auto warm = solver.list(cycle_pattern(4), opts);
  EXPECT_EQ(warm.status().code(), StatusCode::kWorkBudgetExceeded);
}

TEST(SolverStatus, BudgetPropagatesIntoVertexConnectivityProbes) {
  // A single cycle probe is a full find_separating loop; the deadline must
  // interrupt inside it, not after it.
  Solver solver(gen::antiprism(8));
  QueryOptions opts;
  opts.deadline_seconds = 1e-9;
  const auto r = solver.vertex_connectivity(opts);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(r.has_value());
  QueryOptions work;
  work.max_work = 1;
  const auto w = solver.vertex_connectivity(work);
  EXPECT_EQ(w.status().code(), StatusCode::kWorkBudgetExceeded);
  ASSERT_TRUE(w.has_value());
}

TEST(SolverCache, CapacityBoundEvictsLeastRecentlyUsed) {
  Solver solver(gen::grid_graph(8, 8));
  solver.set_cache_capacity(2);
  QueryOptions opts;
  opts.max_runs = 3;  // three distinct cover seeds > capacity
  ASSERT_TRUE(solver.find(cycle_pattern(5), opts).ok());
  CacheStats stats = solver.cache_stats();
  EXPECT_EQ(stats.cover_misses, 3u);
  EXPECT_LE(stats.cover_entries, 2u);
  EXPECT_GE(stats.cover_evictions, 1u);
  // Lowering the capacity shrinks immediately; 0 lifts the bound.
  solver.set_cache_capacity(1);
  EXPECT_EQ(solver.cache_stats().cover_entries, 1u);
  solver.set_cache_capacity(0);
  ASSERT_TRUE(solver.find(cycle_pattern(5), opts).ok());
  EXPECT_EQ(solver.cache_stats().cover_entries, 3u);
}

TEST(SolverStatus, ListLimitReachedReturnsTruncatedSet) {
  // The 6x6 grid holds 200 C4 assignments; a cap of 5 must interrupt.
  Solver solver(gen::grid_graph(6, 6));
  QueryOptions opts;
  opts.list_limit = 5;
  const auto r = solver.list(cycle_pattern(4), opts);
  EXPECT_EQ(r.status().code(), StatusCode::kListLimitReached);
  ASSERT_TRUE(r.has_value());
  EXPECT_GE(r->occurrences.size(), 5u);
  // Counting propagates the interruption but still aggregates the partial
  // listing.
  const auto count = solver.count(cycle_pattern(4), opts);
  EXPECT_EQ(count.status().code(), StatusCode::kListLimitReached);
  ASSERT_TRUE(count.has_value());
  EXPECT_GE(count->assignments, 5u);
}

TEST(SolverStatus, ToStringNamesTheCode) {
  const Status status = Status::InvalidOptions("boom");
  EXPECT_EQ(status.to_string(), "invalid options: boom");
  EXPECT_TRUE(Status::Ok().ok());
}

TEST(SolverCache, RepeatedQueriesHitTheCoverCache) {
  // A negative query (C5 on a bipartite grid) runs a deterministic number
  // of covers, so hit/miss counts are exact.
  Solver solver(gen::grid_graph(8, 8));
  QueryOptions opts;
  opts.max_runs = 3;
  const Pattern c5 = cycle_pattern(5);

  const auto cold = solver.find(c5, opts);
  ASSERT_TRUE(cold.ok());
  CacheStats stats = solver.cache_stats();
  EXPECT_EQ(stats.cover_misses, 3u);
  EXPECT_EQ(stats.cover_hits, 0u);
  EXPECT_EQ(stats.cover_entries, 3u);

  const auto warm = solver.find(c5, opts);
  ASSERT_TRUE(warm.ok());
  stats = solver.cache_stats();
  EXPECT_EQ(stats.cover_misses, 3u);
  EXPECT_EQ(stats.cover_hits, 3u);

  // Identical answers; the warm query skipped the cover-build work.
  EXPECT_EQ(warm->found, cold->found);
  EXPECT_EQ(warm->runs, cold->runs);
  EXPECT_LT(warm->metrics.work(), cold->metrics.work());

  solver.clear_cache();
  stats = solver.cache_stats();
  EXPECT_EQ(stats.cover_entries, 0u);
  EXPECT_EQ(stats.cover_hits, 0u);
  EXPECT_EQ(stats.slices_rebuilt, 0u);
  ASSERT_TRUE(solver.find(c5, opts).ok());
  EXPECT_EQ(solver.cache_stats().cover_misses, 3u);
}

TEST(SolverCache, ColdQueriesDecomposeOnlyTheSlicesTheySolve) {
  // Slice decompositions are built on demand. A present C4 stops at its
  // first accepting slice, so it decomposes exactly the slices it solved,
  // and a warm repeat decomposes none.
  Solver solver(gen::grid_graph(12, 12));
  QueryOptions one;
  one.max_runs = 1;
  const auto present = solver.find(cycle_pattern(4), one);
  ASSERT_TRUE(present.ok());
  ASSERT_TRUE(present->found);
  EXPECT_EQ(solver.cache_stats().slices_rebuilt, present->slices_solved);
  EXPECT_EQ(solver.cache_stats().slices_reused, 0u);

  const auto again = solver.find(cycle_pattern(4), one);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->slices_solved, present->slices_solved);
  EXPECT_EQ(solver.cache_stats().slices_rebuilt, present->slices_solved);

  // An absent pattern with the same cover key (diameter 2, 4 vertices: the
  // diamond, which needs a triangle) reuses that cover and solves every
  // eligible slice, decomposing the ones the C4 left untouched.
  const Pattern diamond = Pattern::from_graph(
      Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}));
  const auto absent = solver.find(diamond, one);
  ASSERT_TRUE(absent.ok());
  ASSERT_FALSE(absent->found);
  EXPECT_EQ(solver.cache_stats().cover_hits, 2u);
  EXPECT_EQ(solver.cache_stats().slices_rebuilt, absent->slices_solved);
  EXPECT_LT(present->slices_solved, absent->slices_solved);
}

TEST(SolverCache, AbsentPatternDecomposesEveryEligibleSlice) {
  // C5 on the bipartite grid never accepts: every run solves, and so
  // decomposes, each slice large enough to host the pattern once.
  Solver solver(gen::grid_graph(8, 8));
  const auto absent = solver.find(cycle_pattern(5));
  ASSERT_TRUE(absent.ok());
  ASSERT_FALSE(absent->found);
  EXPECT_GT(absent->slices_solved, absent->runs);
  EXPECT_EQ(solver.cache_stats().slices_rebuilt, absent->slices_solved);
  const auto warm = solver.find(cycle_pattern(5));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(solver.cache_stats().slices_rebuilt, absent->slices_solved);
}

TEST(SolverCache, VertexConnectivityReusesFaceVertexState) {
  Solver solver(gen::antiprism(8));
  QueryOptions opts;
  opts.max_runs = 4;
  const auto cold = solver.vertex_connectivity(opts);
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  const CacheStats after_cold = solver.cache_stats();
  EXPECT_GT(after_cold.cover_misses, 0u);
  const auto warm = solver.vertex_connectivity(opts);
  ASSERT_TRUE(warm.ok());
  const CacheStats after_warm = solver.cache_stats();
  EXPECT_EQ(warm->connectivity, cold->connectivity);
  EXPECT_EQ(after_warm.cover_misses, after_cold.cover_misses);
  EXPECT_GT(after_warm.cover_hits, after_cold.cover_hits);
  EXPECT_LT(warm->metrics.work(), cold->metrics.work());
}

TEST(SolverBatch, MatchesSequentialFindsAndFlagsBadPatterns) {
  Solver solver(gen::grid_graph(10, 10));
  QueryOptions opts;
  opts.max_runs = 4;
  std::vector<Pattern> patterns = {
      cycle_pattern(4),
      cycle_pattern(6),
      cycle_pattern(4),  // duplicate: shares every cover with patterns[0]
      Pattern::from_graph(gen::path_graph(4)),
      Pattern::from_graph(
          gen::disjoint_union({gen::path_graph(2), gen::path_graph(2)})),
      cycle_pattern(5),  // absent (bipartite target)
  };
  const auto batch = solver.find_batch(patterns, opts);
  ASSERT_EQ(batch.size(), patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    if (i == 4) {
      EXPECT_EQ(batch[i].status().code(), StatusCode::kInvalidPattern);
      continue;
    }
    ASSERT_TRUE(batch[i].ok()) << i << ": " << batch[i].status().to_string();
    const auto solo = solver.find(patterns[i], opts);
    ASSERT_TRUE(solo.ok());
    EXPECT_EQ(batch[i]->found, solo->found) << "pattern " << i;
    EXPECT_EQ(batch[i]->witness, solo->witness) << "pattern " << i;
  }
  // The duplicated C4 shared the first C4's covers within the batch.
  const CacheStats stats = solver.cache_stats();
  EXPECT_GT(stats.cover_hits, 0u);
}

TEST(SolverScratch, AllocationCounterGoesFlatAcrossRepeatedQueries) {
  // The per-thread scratch arena warms up on the first query of a shape;
  // repeating the identical query must then run with zero scratch
  // allocation events. Arenas are per thread and the scheduler fans slice
  // tasks out across the team, so which arenas serve (and report their
  // peaks) is schedule-dependent at >1 thread; pinning to one thread makes
  // the steady-state property deterministic, which is what this test is
  // about (thread-count invariance of outputs/work is pinned by
  // tests/differential/test_differential_threads.cpp).
  struct ThreadPin {  // restore even through an ASSERT early return
    int saved = omp_get_max_threads();
    ThreadPin() { omp_set_num_threads(1); }
    ~ThreadPin() { omp_set_num_threads(saved); }
  } pin;
  Solver solver(gen::grid_graph(8, 8));
  const Pattern c4 = cycle_pattern(4);
  // The sparse engine is the default; its per-node dedup set is scratch
  // too, as are the parallel engine's per-path-node and projection sets.
  for (const auto engine : {EngineKind::kSequential, EngineKind::kSparse,
                            EngineKind::kParallel}) {
    QueryOptions opts;
    opts.max_runs = 3;
    opts.engine = engine;
    const auto cold = solver.find(c4, opts);
    ASSERT_TRUE(cold.ok());
    const auto warm = solver.find(c4, opts);
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm->metrics.allocs(), 0u)
        << "steady-state scratch allocation in the DP engine "
        << static_cast<int>(engine);
    // The scratch high-water mark is visible and stable.
    EXPECT_GT(warm->metrics.scratch_peak_bytes(), 0u);
    EXPECT_EQ(warm->metrics.scratch_peak_bytes(),
              cold->metrics.scratch_peak_bytes())
        << static_cast<int>(engine);
  }
}

// ---------------------------------------------------------------------------
// Budget boundary semantics. These pin the sub-query forwarding rules at the
// exhaustion edges: both option sentinels (max_work = 0, deadline_seconds =
// 0) mean "unlimited", so an exhausted budget must forward the smallest
// positive remainder instead of rounding onto the sentinel.

TEST(BudgetBoundaries, WorkBoundIsExclusive) {
  QueryOptions opts;
  opts.max_work = 5;
  const Budget budget(opts);
  support::Metrics at_bound;
  at_bound.add_work(5);
  EXPECT_TRUE(budget.check(at_bound).ok());  // spending exactly max_work is fine
  support::Metrics over;
  over.add_work(6);
  EXPECT_EQ(budget.check(over).code(), StatusCode::kWorkBudgetExceeded);
}

TEST(BudgetBoundaries, ExhaustedWorkForwardsOneNotTheSentinel) {
  QueryOptions opts;
  opts.max_work = 5;
  const Budget budget(opts);
  support::Metrics spent;
  EXPECT_EQ(budget.remaining_work(spent), 5u);
  spent.add_work(3);
  EXPECT_EQ(budget.remaining_work(spent), 2u);
  spent.add_work(2);  // exactly exhausted
  EXPECT_EQ(budget.remaining_work(spent), 1u);
  spent.add_work(100);  // overshot
  EXPECT_EQ(budget.remaining_work(spent), 1u);
}

TEST(BudgetBoundaries, UnlimitedBudgetsKeepTheirSentinels) {
  const Budget budget{QueryOptions{}};
  support::Metrics spent;
  spent.add_work(1u << 20);
  EXPECT_EQ(budget.remaining_work(spent), 0u);
  EXPECT_EQ(budget.remaining_seconds(), 0.0);
  EXPECT_EQ(budget.deadline(), nullptr);
  EXPECT_EQ(budget.token(), nullptr);
}

TEST(BudgetBoundaries, ExpiredDeadlineForwardsEpsilonNotTheSentinel) {
  QueryOptions opts;
  opts.deadline_seconds = 1e-9;
  const Budget budget(opts);
  while (budget.check({}).ok()) {  // spin the nanosecond out
  }
  EXPECT_EQ(budget.check({}).code(), StatusCode::kDeadlineExceeded);
  // The remainder rounds toward 0 but must stay positive: 0 would read as
  // "no deadline" and grant the sub-query unlimited time.
  EXPECT_GT(budget.remaining_seconds(), 0.0);
  EXPECT_LE(budget.remaining_seconds(), 1e-9);
}

TEST(BudgetBoundaries, ForwardedEpsilonArmsTheSubQuery) {
  QueryOptions opts;
  opts.deadline_seconds = 1e-9;
  const Budget budget(opts);
  while (budget.check({}).ok()) {
  }
  // Inherit the remainder exactly as composite queries do.
  QueryOptions sub;
  sub.deadline_seconds = budget.remaining_seconds();
  const Budget sub_budget(sub);
  // The epsilon is a real (armed) deadline: the sub-query trips at its
  // first checkpoint instead of running without one.
  ASSERT_NE(sub_budget.deadline(), nullptr);
  while (sub_budget.check({}).ok()) {
  }
  EXPECT_EQ(sub_budget.check({}).code(), StatusCode::kDeadlineExceeded);
}

TEST(BudgetBoundaries, CancellationOutranksWorkAndDeadline) {
  support::CancelToken token;
  QueryOptions opts;
  opts.max_work = 1;
  opts.deadline_seconds = 1e-9;
  opts.cancel = &token;
  const Budget budget(opts);
  token.cancel();
  support::Metrics spent;
  spent.add_work(100);  // every resource is exhausted at once
  EXPECT_EQ(budget.check(spent).code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation through QueryOptions::cancel.

TEST(SolverCancellation, PreCancelledTokenDoesNoWork) {
  Solver solver(gen::grid_graph(8, 8));
  support::CancelToken token;
  token.cancel();
  QueryOptions opts;
  opts.cancel = &token;
  const auto find = solver.find(cycle_pattern(4), opts);
  EXPECT_EQ(find.status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(find.has_value());
  EXPECT_EQ(find->runs, 0u);
  EXPECT_EQ(find->metrics.work(), 0u);
  const auto list = solver.list(cycle_pattern(4), opts);
  EXPECT_EQ(list.status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(list.has_value());
  EXPECT_TRUE(list->occurrences.empty());
  EXPECT_EQ(list->metrics.work(), 0u);
  // The entry check kept the cover cache cold: no cover was built for a
  // dead query.
  EXPECT_EQ(solver.cache_stats().cover_misses, 0u);
}

TEST(SolverStatus, DeadlinePreemptsMidCover) {
  // On a target where one cover run takes well over the deadline, the
  // deadline must preempt *inside* the run — observable as strictly fewer
  // slices solved than a complete run, not merely as an early return at the
  // next between-runs checkpoint.
  const Graph g = gen::grid_graph(40, 40);
  const Pattern c5 = cycle_pattern(5);  // absent: the grid is bipartite

  QueryOptions full;
  full.max_runs = 1;
  Solver reference(g);
  const auto complete = reference.find(c5, full);
  ASSERT_TRUE(complete.ok());
  ASSERT_GT(complete->slices_solved, 0u);

  QueryOptions tight = full;
  tight.deadline_seconds = 1e-3;
  Solver solver(g);
  const auto r = solver.find(c5, tight);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(r.has_value());
  EXPECT_LE(r->runs, 1u);
  EXPECT_LT(r->slices_solved, complete->slices_solved);
}

// ---------------------------------------------------------------------------
// Asynchronous queries: a one-target SolverPool is the async surface of a
// single Solver. Cancellation in every state, shedding and the destructor
// drain are covered by tests/test_solver_pool.cpp.

TEST(OneTargetPool, FindMatchesBlockingFind) {
  // Fresh solver per measurement: cover-build metrics are charged only to
  // the query that built the cover, so a warm/cold mix would skew the
  // comparison.
  const Graph g = gen::grid_graph(8, 8);
  const Pattern c4 = cycle_pattern(4);
  QueryOptions opts;
  opts.max_runs = 3;

  Solver blocking_solver(g);
  const auto blocking = blocking_solver.find(c4, opts);
  ASSERT_TRUE(blocking.ok());

  SolverPool pool;
  const TargetId id = pool.add_target(g);
  auto pending = pool.find_async(id, c4, opts);
  ASSERT_TRUE(pending.valid());
  const auto& async = pending.get();
  ASSERT_TRUE(async.ok()) << async.status().to_string();
  EXPECT_EQ(async->found, blocking->found);
  EXPECT_EQ(async->witness, blocking->witness);
  EXPECT_EQ(async->runs, blocking->runs);
  EXPECT_EQ(async->slices_solved, blocking->slices_solved);
  EXPECT_EQ(async->metrics.work(), blocking->metrics.work());
  EXPECT_EQ(async->metrics.rounds(), blocking->metrics.rounds());
}

TEST(OneTargetPool, ListAndCountMatchBlocking) {
  const Graph g = gen::grid_graph(6, 6);
  const Pattern c4 = cycle_pattern(4);
  QueryOptions opts;
  opts.seed = 11;

  Solver blocking_solver(g);
  const auto list = blocking_solver.list(c4, opts);
  const auto count = blocking_solver.count(c4, opts);
  ASSERT_TRUE(list.ok());
  ASSERT_TRUE(count.ok());

  SolverPool list_pool;
  auto pending_list = list_pool.list_async(list_pool.add_target(g), c4, opts);
  const auto& alist = pending_list.get();
  ASSERT_TRUE(alist.ok());
  EXPECT_EQ(alist->occurrences, list->occurrences);
  EXPECT_EQ(alist->iterations, list->iterations);

  SolverPool count_pool;
  auto pending_count =
      count_pool.count_async(count_pool.add_target(g), c4, opts);
  const auto& acount = pending_count.get();
  ASSERT_TRUE(acount.ok());
  EXPECT_EQ(acount->assignments, count->assignments);
  EXPECT_EQ(acount->subgraphs, count->subgraphs);
}

TEST(SolverBatch, InvalidOptionsFailEverySlot) {
  Solver solver(gen::grid_graph(4, 4));
  QueryOptions bad;
  bad.list_limit = 0;
  const std::vector<Pattern> patterns = {cycle_pattern(4), cycle_pattern(6)};
  const auto batch = solver.find_batch(patterns, bad);
  ASSERT_EQ(batch.size(), 2u);
  for (const auto& r : batch)
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidOptions);
}

// ---------------------------------------------------------------------------
// Deadline boundary: a deadline that is already due when the query arms it
// must report kDeadlineExceeded *deterministically* at the entry check — no
// clock read may rescue it — so serving-layer shedding and execution-layer
// preemption agree on what "expired" means.

TEST(BudgetBoundaries, SubTickDeadlineIsExpiredTheInstantItArms) {
  // 1e-300 s truncates to zero steady_clock ticks: the clock must latch
  // "expired at arm" instead of depending on how fast now() is called.
  support::DeadlineClock clock;
  clock.arm(1e-300);
  EXPECT_TRUE(clock.armed());
  EXPECT_TRUE(clock.expired());
  EXPECT_EQ(clock.remaining_seconds(), 0.0);

  QueryOptions opts;
  opts.deadline_seconds = 1e-300;
  const Budget budget(opts);
  // Deterministic: no spin-wait needed, unlike a 1 ns deadline.
  EXPECT_EQ(budget.check({}).code(), StatusCode::kDeadlineExceeded);
  // The forwarded remainder still avoids the "no deadline" sentinel.
  EXPECT_GT(budget.remaining_seconds(), 0.0);
}

TEST(BudgetBoundaries, EntryCheckShedsDueDeadlineBeforeAnyWork) {
  Solver solver(gen::grid_graph(8, 8));
  QueryOptions opts;
  opts.deadline_seconds = 1e-300;
  const auto r = solver.find(cycle_pattern(4), opts);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->runs, 0u);
  EXPECT_EQ(r->metrics.work(), 0u);
  // Deterministically caught at entry: the cover cache stayed cold.
  EXPECT_EQ(solver.cache_stats().cover_misses, 0u);
}

TEST(BudgetBoundaries, DeadlinesBeyondTheClockRangeNeverExpire) {
  // 1e12 s and +inf overflow a nanosecond steady_clock duration; the clock
  // saturates at the end of its range instead of wrapping into the past.
  for (const double seconds :
       {1e10, 1e12, std::numeric_limits<double>::infinity()}) {
    support::DeadlineClock clock;
    clock.arm(seconds);
    EXPECT_TRUE(clock.armed()) << seconds;
    EXPECT_FALSE(clock.expired()) << seconds;
    EXPECT_GT(clock.remaining_seconds(), 1e9) << seconds;
    clock.extend(seconds);  // crediting parked time saturates too
    EXPECT_FALSE(clock.expired()) << seconds;

    QueryOptions opts;
    opts.deadline_seconds = seconds;
    ASSERT_TRUE(validate(opts).ok()) << seconds;
    const Budget budget(opts);
    EXPECT_TRUE(budget.check({}).ok()) << seconds;
    EXPECT_GT(budget.remaining_seconds(), 1e9) << seconds;

    Solver solver(gen::grid_graph(6, 6));
    const auto r = solver.find(cycle_pattern(4), opts);
    ASSERT_TRUE(r.ok()) << seconds << ": " << r.status().to_string();
    EXPECT_TRUE(r->found) << seconds;
  }
}

TEST(BudgetBoundaries, ExtendPushesTheDeadlineLater) {
  // extend() is the park-credit primitive: suspended wall time is handed
  // back to the clock, so remaining time grows by what was credited.
  support::DeadlineClock clock;
  clock.arm(100.0);
  ASSERT_FALSE(clock.expired());
  const double before = clock.remaining_seconds();
  clock.extend(50.0);
  EXPECT_GT(clock.remaining_seconds(), before);

  QueryOptions opts;
  opts.deadline_seconds = 100.0;
  const Budget budget(opts);
  const double base = budget.remaining_seconds();
  budget.credit_parked(25.0);
  EXPECT_GT(budget.remaining_seconds(), base);
  // Crediting a query that never had a deadline stays a no-op.
  const Budget unlimited{QueryOptions{}};
  unlimited.credit_parked(25.0);
  EXPECT_EQ(unlimited.remaining_seconds(), 0.0);
}

// ---------------------------------------------------------------------------
// PendingResult handle semantics: moves, shared copies, repeated get(), and
// abandoned handles.

TEST(OneTargetPoolHandles, MoveTransfersValidity) {
  SolverPool pool;
  const TargetId id = pool.add_target(gen::grid_graph(6, 6));
  auto pending = pool.find_async(id, cycle_pattern(4));
  ASSERT_TRUE(pending.valid());
  PendingResult<DecisionResult> moved = std::move(pending);
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(pending.valid());  // NOLINT(bugprone-use-after-move): pinned
  ASSERT_TRUE(moved.get().ok());
  EXPECT_TRUE(moved.get()->found);

  // Move assignment over an existing handle rebinds it the same way.
  auto second = pool.find_async(id, cycle_pattern(4));
  PendingResult<DecisionResult> target;
  EXPECT_FALSE(target.valid());
  target = std::move(second);
  ASSERT_TRUE(target.valid());
  EXPECT_TRUE(target.get().ok());
}

TEST(OneTargetPoolHandles, CopiesShareTheResultAndGetIsRepeatable) {
  SolverPool pool;
  const TargetId id = pool.add_target(gen::grid_graph(6, 6));
  auto pending = pool.find_async(id, cycle_pattern(4));
  PendingResult<DecisionResult> copy = pending;
  ASSERT_TRUE(copy.valid());
  ASSERT_TRUE(pending.valid());

  // get() is stable across calls and across handles: both see one result
  // object, and reading it twice returns the same reference.
  const Result<DecisionResult>& first = pending.get();
  const Result<DecisionResult>& again = pending.get();
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(&copy.get(), &first);
  EXPECT_TRUE(copy.ready());
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->found);
}

TEST(OneTargetPoolHandles, AbandonedHandleBlocksNobody) {
  // Dropping the handle without get() must neither leak (the shared state
  // dies with the producer) nor block the pool's destructor drain.
  SolverPool pool;
  const TargetId id = pool.add_target(gen::grid_graph(10, 10));
  QueryOptions opts;
  opts.max_runs = 2;
  { auto dropped = pool.find_async(id, cycle_pattern(5), opts); }
  // A later query on the same target still behaves normally.
  auto follow_up = pool.find_async(id, cycle_pattern(4), opts);
  EXPECT_TRUE(follow_up.get().ok());
}

// ---------------------------------------------------------------------------
// Admission classing on a one-target pool (the policy engine itself is
// covered by tests/test_solver_pool.cpp).

TEST(OneTargetPoolAdmission, InvalidAdmissionRejectsEagerly) {
  SolverPool pool;
  const TargetId id = pool.add_target(gen::grid_graph(6, 6));
  Admission bad;
  bad.tenant_weight = 0.0;
  auto pending = pool.find_async(id, cycle_pattern(4), {}, bad);
  ASSERT_TRUE(pending.valid());
  EXPECT_TRUE(pending.ready());
  EXPECT_EQ(pending.get().status().code(), StatusCode::kInvalidOptions);

  bad = {};
  bad.deadline_seconds = -1.0;
  EXPECT_EQ(pool.list_async(id, cycle_pattern(4), {}, bad)
                .get()
                .status()
                .code(),
            StatusCode::kInvalidOptions);
  bad = {};
  bad.priority = static_cast<Priority>(17);
  EXPECT_EQ(pool.count_async(id, cycle_pattern(4), {}, bad)
                .get()
                .status()
                .code(),
            StatusCode::kInvalidOptions);
  EXPECT_EQ(pool.stats().submitted, 0u);
}

TEST(OneTargetPoolAdmission, ShedStatusHasAName) {
  const Status shed{StatusCode::kShed, "shed"};
  EXPECT_NE(shed.to_string().find("shed"), std::string::npos);
  EXPECT_EQ(std::string(to_string(Priority::kInteractive)), "interactive");
  EXPECT_EQ(std::string(to_string(Priority::kNormal)), "normal");
  EXPECT_EQ(std::string(to_string(Priority::kBulk)), "bulk");
}

}  // namespace
}  // namespace ppsi

// FaultInjector unit tests plus memory-governance and containment checks
// that hold in *every* build flavor.
//
// The injector object itself (arm/disarm/visit/stats) is always compiled
// into the library — only the PPSI_FAULT_POINT call sites are gated by the
// PPSI_FAULT_INJECTION build option — so determinism, filtering, and kind
// tests drive visit() directly and pass identically with injection ON or
// OFF. Tests that need production code to *reach* a fault point gate their
// fired-count assertions on FaultInjector::compiled_in(); in a default
// build they still run the same queries fault-free and assert success.

#include <gtest/gtest.h>

#include <new>
#include <vector>

#include "api/solver.hpp"
#include "api/solver_pool.hpp"
#include "graph/generators.hpp"
#include "support/arena.hpp"
#include "support/fault.hpp"

namespace ppsi {
namespace {

using support::FaultInjector;
using support::FaultKind;
using support::FaultPlan;
using support::FaultStats;
using support::InjectedFault;
using support::ScopedFaultPlan;

iso::Pattern cycle_pattern(Vertex k) {
  return iso::Pattern::from_graph(gen::cycle_graph(k));
}

/// Drives `visits` visits of one point under `plan` and returns the indices
/// that threw (either exception kind).
std::vector<int> fire_pattern(const FaultPlan& plan, int visits) {
  auto& injector = FaultInjector::instance();
  const ScopedFaultPlan scoped(plan);
  std::vector<int> fired;
  for (int i = 0; i < visits; ++i) {
    try {
      injector.visit("test.point");
    } catch (const InjectedFault&) {
      fired.push_back(i);
    } catch (const std::bad_alloc&) {
      fired.push_back(i);
    }
  }
  return fired;
}

TEST(FaultInjector, SerialReplayIsDeterministic) {
  FaultPlan plan;
  plan.seed = 42;
  plan.rate = 3;
  plan.kind = FaultKind::kThrow;
  const std::vector<int> first = fire_pattern(plan, 300);
  const std::vector<int> second = fire_pattern(plan, 300);
  EXPECT_FALSE(first.empty());  // rate 3 over 300 visits must fire
  EXPECT_EQ(first, second);     // arm() resets the visit counter

  plan.seed = 43;  // a different seed fires a different pattern
  EXPECT_NE(fire_pattern(plan, 300), first);
}

TEST(FaultInjector, DisarmedNeverFires) {
  auto& injector = FaultInjector::instance();
  injector.reset_stats();
  EXPECT_FALSE(injector.armed());
  for (int i = 0; i < 100; ++i) injector.visit("test.point");
  const FaultStats stats = injector.stats();
  EXPECT_EQ(stats.visits, 100u);
  EXPECT_EQ(stats.fired(), 0u);
}

TEST(FaultInjector, PointFilterScopesTheBlast) {
  auto& injector = FaultInjector::instance();
  injector.reset_stats();
  FaultPlan plan;
  plan.seed = 7;
  plan.rate = 2;
  plan.kind = FaultKind::kThrow;
  plan.point_filter = "arena";
  const ScopedFaultPlan scoped(plan);
  for (int i = 0; i < 200; ++i) injector.visit("solver.slice");
  EXPECT_EQ(injector.stats().fired(), 0u);  // filtered out, never fires
  std::uint64_t arena_fires = 0;
  for (int i = 0; i < 200; ++i) {
    try {
      injector.visit("arena.grow");
    } catch (const InjectedFault&) {
      ++arena_fires;
    }
  }
  EXPECT_GT(arena_fires, 0u);
  EXPECT_EQ(injector.stats().thrown, arena_fires);
}

TEST(FaultInjector, KindsMapToTheRightFailures) {
  auto& injector = FaultInjector::instance();
  FaultPlan plan;
  plan.seed = 1;
  plan.rate = 1;  // every visit fires
  plan.kind = FaultKind::kBadAlloc;
  {
    const ScopedFaultPlan scoped(plan);
    EXPECT_THROW(injector.visit("test.point"), std::bad_alloc);
  }
  plan.kind = FaultKind::kThrow;
  {
    const ScopedFaultPlan scoped(plan);
    EXPECT_THROW(injector.visit("test.point"), InjectedFault);
  }
  plan.kind = FaultKind::kDelay;
  {
    injector.reset_stats();
    const ScopedFaultPlan scoped(plan);
    injector.visit("test.point");  // sleeps, must not throw
    EXPECT_EQ(injector.stats().delays, 1u);
  }
}

// ---------------------------------------------------------------------------
// Memory governance (works in every build: no fault points involved).

TEST(MemoryGovernance, TinyBudgetDegradesToResourceExhaustedWithPartials) {
  Solver solver(gen::grid_graph(8, 8));
  // Prime the arenas: scratch residency is monotone, so after one query the
  // process sits above any 1-byte budget deterministically.
  ASSERT_TRUE(solver.find(cycle_pattern(4)).ok());
  ASSERT_GT(support::scratch_residency_bytes(), 1u);

  QueryOptions tiny;
  tiny.max_runs = 2;
  tiny.max_memory_bytes = 1;
  const auto r = solver.find(cycle_pattern(4), tiny);
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(r.has_value());  // interruption carries partial stats
  // The solver stays serviceable: an unbudgeted rerun succeeds.
  EXPECT_TRUE(solver.find(cycle_pattern(4)).ok());
}

TEST(MemoryGovernance, GenerousBudgetIsInvisible) {
  Solver solver(gen::grid_graph(6, 6));
  QueryOptions roomy;
  roomy.max_memory_bytes = std::uint64_t{1} << 60;
  const auto budgeted = solver.find(cycle_pattern(4), roomy);
  const auto unbudgeted = solver.find(cycle_pattern(4));
  ASSERT_TRUE(budgeted.ok());
  ASSERT_TRUE(unbudgeted.ok());
  EXPECT_EQ(budgeted->found, unbudgeted->found);
  EXPECT_EQ(budgeted->witness, unbudgeted->witness);
}

// ---------------------------------------------------------------------------
// Containment at the blocking-query boundary. With injection compiled out
// the armed plan never fires and the queries simply succeed — the test is
// still valid, just fault-free.

TEST(FaultContainment, BlockingQueryContainsInjectedFaults) {
  auto& injector = FaultInjector::instance();
  Solver solver(gen::grid_graph(10, 10));
  const iso::Pattern c4 = cycle_pattern(4);
  QueryOptions opts;
  opts.max_runs = 3;
  const auto reference = solver.find(c4, opts);
  ASSERT_TRUE(reference.ok());

  injector.reset_stats();
  FaultPlan plan;
  plan.seed = 1234;
  plan.rate = 5;
  plan.kind = FaultKind::kMixed;
  int contained = 0;
  {
    const ScopedFaultPlan scoped(plan);
    for (int i = 0; i < 8; ++i) {
      const auto r = solver.find(c4, opts);
      ASSERT_TRUE(r.has_value()) << "attempt " << i;  // never a bare crash
      if (r.ok()) {
        // A fault-free (or delay-only) replay must be bit-identical.
        EXPECT_EQ(r->found, reference->found) << "attempt " << i;
        EXPECT_EQ(r->witness, reference->witness) << "attempt " << i;
      } else {
        ++contained;
        EXPECT_TRUE(r.status().code() == StatusCode::kInternal ||
                    r.status().code() == StatusCode::kResourceExhausted)
            << "attempt " << i << ": " << r.status().to_string();
      }
    }
  }
  const FaultStats stats = injector.stats();
  if (FaultInjector::compiled_in()) {
    EXPECT_GT(stats.visits, 0u);  // production code reached the points
  } else {
    EXPECT_EQ(stats.visits, 0u);
    EXPECT_EQ(contained, 0);  // no points compiled in, nothing to contain
  }
  // Whatever was injected, the solver must still answer correctly after.
  const auto after = solver.find(c4, opts);
  ASSERT_TRUE(after.ok()) << after.status().to_string();
  EXPECT_EQ(after->found, reference->found);
  EXPECT_EQ(after->witness, reference->witness);
}

TEST(FaultContainment, DecomposeFaultLeavesTheSlotEmptyAndRetryMatches) {
  // Slice decompositions are built on demand inside slice tasks, so the
  // "solver.decompose" point fires there, after the cover build. The
  // reference solver warms its cover; the faulted solver's armed attempts
  // build theirs unfaulted and fault every decomposition. One run per
  // query: an armed attempt stops in its first run, so with more runs the
  // later covers would stay unbuilt and the disarmed retry would pay for
  // cover builds the reference's warm repeat does not.
  auto& injector = FaultInjector::instance();
  const iso::Pattern c5 = cycle_pattern(5);  // absent: every slice solved
  QueryOptions opts;
  opts.max_runs = 1;
  Solver faulted(gen::grid_graph(10, 10));
  Solver reference(gen::grid_graph(10, 10));
  ASSERT_TRUE(reference.find(c5, opts).ok());
  const std::uint64_t rebuilt_before = faulted.cache_stats().slices_rebuilt;

  FaultPlan plan;
  plan.seed = 3;
  plan.rate = 1;  // every decomposition attempt throws
  plan.kind = FaultKind::kThrow;
  plan.point_filter = "solver.decompose";
  // The second armed attempt proves the first left its slots empty: a
  // published decomposition would never be rebuilt (and never throw).
  for (int attempt = 0; attempt < 2; ++attempt) {
    injector.reset_stats();
    const ScopedFaultPlan scoped(plan);
    const auto r = faulted.find(c5, opts);
    ASSERT_TRUE(r.has_value()) << "attempt " << attempt;
    if (FaultInjector::compiled_in()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInternal)
          << "attempt " << attempt << ": " << r.status().to_string();
      EXPECT_GT(injector.stats().thrown, 0u) << "attempt " << attempt;
      // A failed query accounts no slice, so the counters do not move.
      EXPECT_EQ(faulted.cache_stats().slices_rebuilt, rebuilt_before);
    } else {
      EXPECT_TRUE(r.ok()) << r.status().to_string();
    }
  }

  // Disarmed, the retry decomposes afresh and answers bit-identically to a
  // solver that never saw a fault, with equal work.
  const auto retry = faulted.find(c5, opts);
  const auto want = reference.find(c5, opts);
  ASSERT_TRUE(retry.ok()) << retry.status().to_string();
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(retry->found, want->found);
  EXPECT_EQ(retry->witness, want->witness);
  EXPECT_EQ(retry->runs, want->runs);
  EXPECT_EQ(retry->slices_solved, want->slices_solved);
  EXPECT_EQ(retry->metrics.work(), want->metrics.work());
  EXPECT_EQ(faulted.cache_stats().slices_rebuilt,
            reference.cache_stats().slices_rebuilt);
}

TEST(FaultContainment, PoolDestructorDrainsAsyncUnderFaults) {
  FaultPlan plan;
  plan.seed = 5;
  plan.rate = 4;
  plan.kind = FaultKind::kMixed;
  std::vector<PendingResult<cover::DecisionResult>> kept;
  {
    // Faults keep firing while ~SolverPool drains the serving threads;
    // every submitted query — kept or abandoned — must still resolve its
    // handle.
    const ScopedFaultPlan scoped(plan);
    SolverPool pool;
    const TargetId id = pool.add_target(gen::grid_graph(10, 10));
    QueryOptions opts;
    opts.max_runs = 3;
    for (int i = 0; i < 6; ++i) {
      auto pending = pool.find_async(id, cycle_pattern(5), opts);
      if (i % 2 == 0) kept.push_back(std::move(pending));
      // odd slots: abandoned immediately, possibly mid-failure
    }
  }
  for (auto& pending : kept) {
    ASSERT_TRUE(pending.valid());
    ASSERT_TRUE(pending.ready());
    const auto& r = pending.get();
    ASSERT_TRUE(r.has_value());
    if (!r.ok()) {
      EXPECT_TRUE(r.status().code() == StatusCode::kInternal ||
                  r.status().code() == StatusCode::kResourceExhausted ||
                  r.status().code() == StatusCode::kCancelled)
          << r.status().to_string();
    }
  }
}

}  // namespace
}  // namespace ppsi

// End-to-end pipeline tests on the ppsi::Solver API: decision (Theorem
// 2.1), listing (Theorem 4.2), counting, disconnected patterns (Lemma 4.1),
// engine agreement, and soundness (witnesses verified, no false positives
// ever). The legacy free functions are covered separately by
// tests/differential/test_differential_solver.cpp.

#include <gtest/gtest.h>

#include <set>

#include "api/solver.hpp"
#include "baseline/eppstein_sequential.hpp"
#include "baseline/ullmann.hpp"
#include "graph/generators.hpp"
#include "testing/witness_checks.hpp"

namespace ppsi {
namespace {

using cover::CountResult;
using cover::DecisionResult;
using cover::EngineKind;
using cover::ListingResult;
using iso::Assignment;
using iso::Pattern;

void verify_witness(const Graph& g, const Pattern& pattern,
                    const Assignment& witness) {
  testing::expect_valid_embedding(g, pattern, witness, "pipeline witness");
}

struct PipelineCase {
  std::string name;
  Graph g;
  Graph h;
};

std::vector<PipelineCase> pipeline_cases() {
  return {
      {"grid8_p4", gen::grid_graph(8, 8), gen::path_graph(4)},
      {"grid8_c4", gen::grid_graph(8, 8), gen::cycle_graph(4)},
      {"grid8_c6", gen::grid_graph(8, 8), gen::cycle_graph(6)},
      {"grid8_k3", gen::grid_graph(8, 8), gen::complete_graph(3)},
      {"grid8_star5", gen::grid_graph(8, 8), gen::star_graph(5)},
      {"apo60_c6", gen::apollonian(60, 11).graph(), gen::cycle_graph(6)},
      {"apo60_k4", gen::apollonian(60, 11).graph(), gen::complete_graph(4)},
      {"cycle30_c4", gen::cycle_graph(30), gen::cycle_graph(4)},
      {"cycle30_p5", gen::cycle_graph(30), gen::path_graph(5)},
      {"tree40_star4", gen::random_tree(40, 4), gen::star_graph(4)},
      {"tree40_c3", gen::random_tree(40, 4), gen::complete_graph(3)},
      {"wheel12_k3", gen::wheel(12).graph(), gen::complete_graph(3)},
      {"grid8_c5", gen::grid_graph(8, 8), gen::cycle_graph(5)},  // bipartite
  };
}

class Decision : public ::testing::TestWithParam<int> {};

TEST_P(Decision, MatchesOracleAndVerifiesWitness) {
  const PipelineCase c = pipeline_cases()[GetParam()];
  const Pattern pattern = Pattern::from_graph(c.h);
  const auto oracle = baseline::ullmann_decide(c.g, pattern);
  Solver solver(c.g);
  const Result<DecisionResult> ours = solver.find(pattern);
  ASSERT_TRUE(ours.ok()) << ours.status().to_string();
  EXPECT_EQ(ours->found, oracle.found) << c.name;
  if (ours->found) {
    ASSERT_TRUE(ours->witness.has_value());
    verify_witness(c.g, pattern, *ours->witness);
  }
}

TEST_P(Decision, AllEnginesAgree) {
  const PipelineCase c = pipeline_cases()[GetParam()];
  const Pattern pattern = Pattern::from_graph(c.h);
  Solver solver(c.g);
  QueryOptions opts;
  opts.max_runs = 3;
  std::set<bool> answers;
  for (const EngineKind engine :
       {EngineKind::kSparse, EngineKind::kSequential, EngineKind::kParallel}) {
    opts.engine = engine;
    // One solver serves all three engines: the covers are engine-independent
    // and shared, only the per-slice DP differs.
    const Result<DecisionResult> r = solver.find(pattern, opts);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    answers.insert(r->found);
  }
  EXPECT_EQ(answers.size(), 1u) << c.name << ": engines disagree";
}

TEST_P(Decision, EppsteinBaselineAgrees) {
  const PipelineCase c = pipeline_cases()[GetParam()];
  const Pattern pattern = Pattern::from_graph(c.h);
  Solver solver(c.g);
  const Result<DecisionResult> ours = solver.find(pattern);
  ASSERT_TRUE(ours.ok()) << ours.status().to_string();
  const auto epp = baseline::eppstein_decide(c.g, pattern);
  EXPECT_EQ(ours->found, epp.found) << c.name;
  if (epp.found && epp.witness.has_value())
    verify_witness(c.g, pattern, *epp.witness);
}

INSTANTIATE_TEST_SUITE_P(Cases, Decision, ::testing::Range(0, 13));

TEST(Decision, NeverFalsePositive) {
  // Soundness is deterministic: repeated queries for absent patterns must
  // return false on every seed.
  const Graph g = gen::grid_graph(9, 9);  // bipartite: no odd cycles
  const Pattern c3 = Pattern::from_graph(gen::cycle_graph(3));
  const Pattern c5 = Pattern::from_graph(gen::cycle_graph(5));
  Solver solver(g);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    QueryOptions opts;
    opts.seed = seed;
    opts.max_runs = 2;
    EXPECT_FALSE(solver.find(c3, opts)->found);
    EXPECT_FALSE(solver.find(c5, opts)->found);
  }
}

TEST(Decision, SingleRunFindsPlantedPatternOften) {
  // Theorem 2.1: one run succeeds with probability >= 1/2 when the pattern
  // occurs. Empirical success rate over seeds must clear 1/2.
  const Graph g = gen::grid_graph(12, 12);
  const Pattern pattern = Pattern::from_graph(gen::cycle_graph(4));
  Solver solver(g);
  int hits = 0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    if (solver.find_once(pattern, 10'000 + t)->found) ++hits;
  }
  EXPECT_GT(hits, trials / 2) << hits << "/" << trials;
}

TEST(Listing, MatchesBruteForceOnGrid) {
  const Graph g = gen::grid_graph(6, 6);
  const Pattern pattern = Pattern::from_graph(gen::cycle_graph(4));
  Solver solver(g);
  const Result<ListingResult> ours = solver.list(pattern);
  ASSERT_TRUE(ours.ok()) << ours.status().to_string();
  const auto expect = baseline::brute_force_list(g, pattern, 1 << 20);
  const std::set<Assignment> a(ours->occurrences.begin(),
                               ours->occurrences.end());
  const std::set<Assignment> b(expect.begin(), expect.end());
  EXPECT_EQ(a, b);
  EXPECT_GT(ours->iterations, 0u);
}

TEST(Listing, MatchesUllmannOnApollonian) {
  const Graph g = gen::apollonian(40, 21).graph();
  const Pattern pattern = Pattern::from_graph(gen::complete_graph(4));
  Solver solver(g);
  const Result<ListingResult> ours = solver.list(pattern);
  ASSERT_TRUE(ours.ok()) << ours.status().to_string();
  const auto expect = baseline::ullmann_list(g, pattern, 1 << 20);
  EXPECT_EQ(ours->occurrences.size(), expect.size());
}

TEST(Listing, StressSeeds) {
  // The stopping rule must never truncate: across seeds the result is the
  // same complete set.
  const Graph g = gen::grid_graph(5, 5);
  const Pattern pattern = Pattern::from_graph(gen::path_graph(3));
  const std::size_t expect =
      baseline::brute_force_list(g, pattern, 1 << 20).size();
  Solver solver(g);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    QueryOptions opts;
    opts.seed = seed;
    EXPECT_EQ(solver.list(pattern, opts)->occurrences.size(), expect);
  }
}

TEST(Counting, AssignmentsAndSubgraphs) {
  const Graph g = gen::grid_graph(5, 5);
  const Pattern pattern = Pattern::from_graph(gen::cycle_graph(4));
  Solver solver(g);
  const Result<CountResult> count = solver.count(pattern);
  ASSERT_TRUE(count.ok()) << count.status().to_string();
  // 16 unit squares; each square is one subgraph with 8 automorphic maps.
  EXPECT_EQ(count->subgraphs, 16u);
  EXPECT_EQ(count->assignments, 16u * 8u);
  // Counting goes through listing, whose instrumented work it reports.
  EXPECT_GT(count->metrics.work(), 0u);
}

TEST(Disconnected, TwoComponents) {
  const Graph g = gen::grid_graph(7, 7);
  const Pattern pattern = Pattern::from_graph(
      gen::disjoint_union({gen::cycle_graph(4), gen::path_graph(3)}));
  Solver solver(g);
  const Result<DecisionResult> r = solver.find_disconnected(pattern);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  ASSERT_TRUE(r->found);
  verify_witness(g, pattern, *r->witness);
}

TEST(Disconnected, ThreeComponents) {
  const Graph g = gen::apollonian(50, 3).graph();
  const Pattern pattern = Pattern::from_graph(gen::disjoint_union(
      {gen::complete_graph(3), gen::path_graph(2), gen::path_graph(2)}));
  Solver solver(g);
  const Result<DecisionResult> r = solver.find_disconnected(pattern);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  ASSERT_TRUE(r->found);
  verify_witness(g, pattern, *r->witness);
}

TEST(Disconnected, AbsentComponentIsNotFound) {
  // One component is a triangle; grids have none, so the whole pattern is
  // absent regardless of the other component.
  const Graph g = gen::grid_graph(6, 6);
  const Pattern pattern = Pattern::from_graph(
      gen::disjoint_union({gen::complete_graph(3), gen::path_graph(2)}));
  Solver solver(g);
  QueryOptions opts;
  opts.max_runs = 30;  // cap the l^k attempt budget for the test
  EXPECT_FALSE(solver.find_disconnected(pattern, opts)->found);
}

TEST(Disconnected, FallsBackToConnected) {
  const Graph g = gen::grid_graph(5, 5);
  const Pattern pattern = Pattern::from_graph(gen::path_graph(3));
  Solver solver(g);
  EXPECT_TRUE(solver.find_disconnected(pattern)->found);
}

TEST(Pipeline, PatternLargerThanGraph) {
  const Graph g = gen::path_graph(3);
  const Pattern pattern = Pattern::from_graph(gen::path_graph(6));
  Solver solver(g);
  const Result<DecisionResult> r = solver.find(pattern);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_FALSE(r->found);
}

TEST(Pipeline, RejectsDisconnectedPatternInConnectedDriver) {
  const Graph g = gen::grid_graph(4, 4);
  const Pattern pattern = Pattern::from_graph(
      gen::disjoint_union({gen::path_graph(2), gen::path_graph(2)}));
  Solver solver(g);
  const Result<DecisionResult> r = solver.find(pattern);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidPattern);
  EXPECT_FALSE(r.has_value());
}

}  // namespace
}  // namespace ppsi

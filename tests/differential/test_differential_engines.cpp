// Differential test: the three DP engines (sequential §3.2, parallel §3.3,
// sparse) must be exactly equivalent — same decision, same per-node valid
// state sets, same recovered assignment sets, and every recovered witness
// must be a real embedding — over hundreds of seeded random instances.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "graph/generators.hpp"
#include "isomorphism/parallel_engine.hpp"
#include "isomorphism/pattern.hpp"
#include "isomorphism/sequential_dp.hpp"
#include "isomorphism/sparse_dp.hpp"
#include "testing/dp_checks.hpp"
#include "testing/random_inputs.hpp"
#include "testing/witness_checks.hpp"
#include "treedecomp/greedy_decomposition.hpp"

namespace ppsi::iso {
namespace {

constexpr std::size_t kListLimit = 1 << 18;

std::set<std::pair<std::uint64_t, std::uint64_t>> state_set(
    const SolvedNode& node) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const StateKey s : node.states) out.insert({s.code, s.sep});
  return out;
}

void expect_identical_solutions(const DpSolution& a, const DpSolution& b,
                                const treedecomp::TreeDecomposition& td,
                                const std::string& context) {
  ASSERT_EQ(a.accepted, b.accepted) << context;
  for (std::size_t x = 0; x < td.num_nodes(); ++x) {
    EXPECT_EQ(state_set(a.nodes[x]), state_set(b.nodes[x]))
        << context << " node " << x;
  }
}

class EngineEquivalence : public ::testing::TestWithParam<int> {};

// One random (target, pattern) instance per seed; all three engines solved
// and compared state-for-state, then listing-for-listing.
TEST_P(EngineEquivalence, ParallelAndSparseMatchSequential) {
  const std::uint64_t seed = GetParam();
  std::string family;
  const Graph g = testing::random_target(seed, &family);
  const Pattern pattern = testing::random_pattern(seed);
  const std::string context = "seed " + std::to_string(seed) + " family " +
                              family + " n=" + std::to_string(g.num_vertices()) +
                              " k=" + std::to_string(pattern.size());

  const auto td = treedecomp::binarize(treedecomp::greedy_decomposition(g));
  ASSERT_TRUE(td.validate(g)) << context;

  const DpSolution seq = solve_sequential(g, td, pattern, {});
  const DpSolution sparse = solve_sparse(g, td, pattern, {});
  ParallelStats stats;
  const DpSolution par = solve_parallel(g, td, pattern, {}, &stats);

  expect_identical_solutions(seq, sparse, td, context + " [sparse]");
  // The sparse engine builds its signature groups as it discovers states.
  testing::expect_reference_sig_groups(sparse, pattern,
                                       context + " [sparse]");
  expect_identical_solutions(seq, par, td, context + " [parallel]");

  // Same occurrences, not just same state tables.
  const auto seq_list = recover_assignments(seq, td, kListLimit);
  const auto sparse_list = recover_assignments(sparse, td, kListLimit);
  const auto par_list = recover_assignments(par, td, kListLimit);
  const std::set<Assignment> seq_set(seq_list.begin(), seq_list.end());
  EXPECT_EQ(seq_set, std::set<Assignment>(sparse_list.begin(),
                                          sparse_list.end()))
      << context << " [sparse listing]";
  EXPECT_EQ(seq_set, std::set<Assignment>(par_list.begin(), par_list.end()))
      << context << " [parallel listing]";

  EXPECT_EQ(seq.accepted, !seq_list.empty()) << context;
  for (const Assignment& a : seq_list)
    testing::expect_valid_embedding(g, pattern, a, context.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalence, ::testing::Range(0, 120));

// The shortcut option is a pure optimization: both configurations of the
// parallel engine must agree with the sequential engine.
class ParallelOptionsEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ParallelOptionsEquivalence, AllConfigurationsAgree) {
  const std::uint64_t seed = 5000 + GetParam();
  std::string family;
  const Graph g = testing::random_target(seed, &family);
  const Pattern pattern = testing::random_pattern(seed);
  const std::string context = "seed " + std::to_string(seed);
  const auto td = treedecomp::binarize(treedecomp::greedy_decomposition(g));

  const DpSolution reference = solve_sequential(g, td, pattern, {});
  for (const bool shortcuts : {false, true}) {
    ParallelOptions options;
    options.use_shortcuts = shortcuts;
    const DpSolution sol = solve_parallel(g, td, pattern, options);
    expect_identical_solutions(
        reference, sol, td,
        context + " shortcuts=" + std::to_string(shortcuts));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelOptionsEquivalence,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace ppsi::iso

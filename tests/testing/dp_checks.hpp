#pragma once

// Solved-node comparison helpers shared by the unit, golden and
// differential suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "isomorphism/sequential_dp.hpp"
#include "treedecomp/tree_decomposition.hpp"

namespace ppsi::testing {

/// Expects equal signature groups (signatures, then each group's state
/// indices).
inline void expect_same_sig_groups(const iso::SolvedNode& got,
                                   const iso::SolvedNode& want,
                                   const std::string& context) {
  ASSERT_TRUE(std::ranges::equal(got.sig_groups.sigs(),
                                 want.sig_groups.sigs()))
      << context;
  for (std::size_t i = 0; i < want.sig_groups.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(got.sig_groups.group_at(i),
                                   want.sig_groups.group_at(i)))
        << context << " group " << i;
  }
}

/// Expects every non-root node of `sol` to carry the signature groups that
/// detail::build_sig_groups recomputes from the node's states. The sparse
/// engine builds them while it discovers the states; the other engines call
/// build_sig_groups itself.
inline void expect_reference_sig_groups(const iso::DpSolution& sol,
                                        const iso::Pattern& pattern,
                                        const std::string& context) {
  iso::DpSolution rebuilt = iso::detail::prepare_solution(sol.plan, pattern);
  for (treedecomp::NodeId x = 0; x < sol.nodes.size(); ++x) {
    if (x == sol.plan->root()) continue;
    rebuilt.nodes[x].states = sol.nodes[x].states;
    iso::detail::build_sig_groups(pattern, x, rebuilt);
    expect_same_sig_groups(sol.nodes[x], rebuilt.nodes[x],
                           context + " node " + std::to_string(x));
  }
}

}  // namespace ppsi::testing

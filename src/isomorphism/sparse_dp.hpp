#pragma once

// Output-sensitive bottom-up DP ("sparse engine").
//
// solve_sequential/solve_parallel realize the paper's per-node cost: they
// enumerate all (|bag|+2)^k locally valid partial matches and filter by
// child support. This engine instead *generates* exactly the supported
// states from the children's signature sets: it joins the two signature
// sets on their shared-position restriction, derives the forced base state
// of each compatible pair, and enumerates only the genuinely free choices
// (new matches on bag-only vertices, labels of unconstrained components).
// The resulting per-node state sets are identical to solve_sequential's
// (tested), but the work is proportional to the states that actually exist
// — the difference between hours and seconds on the vertex-connectivity
// workloads (separating C8 probes).

#include "isomorphism/sequential_dp.hpp"

namespace ppsi::iso {

/// Sparse counterpart of solve_sequential over a slice's plan.
DpSolution solve_sparse(const std::shared_ptr<const DpPlan>& plan,
                        const Pattern& pattern, const DpOptions& options);
/// The same over a temporary plan of (g, td, options.spec); `td` must be
/// binary.
DpSolution solve_sparse(const Graph& g,
                        const treedecomp::TreeDecomposition& td,
                        const Pattern& pattern, const DpOptions& options);

}  // namespace ppsi::iso

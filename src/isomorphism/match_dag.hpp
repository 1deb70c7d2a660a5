#pragma once

// The graph of partial matches over one decomposition path (paper §3.3.2)
// and its shortcut reachability (§3.3.3, Lemma 3.3).
//
// For a path X_1..X_p of the decomposition tree (bottom to top), the DAG has
//   * one vertex per (node, partial match): X_1 carries its exactly-solved
//     valid states, X_j (j > 1) carries all locally valid candidates;
//   * one auxiliary vertex per distinct projection of X_j's states into
//     X_{j+1}'s coordinates ("pi vertex"), with an edge state -> pi;
//   * an edge pi -> S for every candidate S of X_{j+1} and C-attribution /
//     subtree-bit combination whose side-child requirement is present in
//     the (already solved) side child and whose path-child requirement
//     equals pi's projection;
//   * translation edges S -> translate(S) (the unique no-new-match
//     extension, Figure 5), which form a forest F;
//   * shortcut edges on F per Lemma 3.3: within every path of F's layer
//     decomposition, every ceil(log2 N)-th vertex is marked and marked
//     vertices get exponentially spaced jumps; every vertex gets an express
//     edge to the first vertex after its path ("first vertex in a lower
//     layer").
// A state is *valid* iff it is reachable from X_1's valid states; the
// number of BFS rounds is the empirical depth the benches compare against
// the O(k log n) bound.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "isomorphism/pattern.hpp"
#include "isomorphism/sequential_dp.hpp"
#include "support/metrics.hpp"
#include "treedecomp/tree_decomposition.hpp"

namespace ppsi::iso {

struct PathStats {
  std::uint64_t dag_vertices = 0;
  std::uint64_t dag_edges = 0;
  std::uint64_t translation_edges = 0;
  std::uint64_t shortcut_edges = 0;
  std::uint64_t bfs_rounds = 0;
  std::uint64_t enumerated_states = 0;
  std::size_t path_length = 0;
};

struct ParallelOptions;  // parallel_engine.hpp

/// Solves the path `nodes` (bottom to top). Side children of path nodes
/// must already be solved in `solution`; on return every path node's
/// SolvedNode holds its valid states and its signature index toward its
/// tree parent. X_1 (= nodes.front()) is solved exactly against its
/// children; the remaining nodes are solved by shortcut reachability.
/// `solution` comes from detail::prepare_solution. Thread-safe for
/// distinct paths (per-thread scratch; writes only the states and signature
/// groups of the SolvedNodes of `nodes` and of their consumed children,
/// through the solution's locked NodeStore, and reads everything else from
/// the shared read-only plan).
PathStats solve_path(const Pattern& pattern,
                     std::span<const treedecomp::NodeId> nodes,
                     const ParallelOptions& options, DpSolution& solution);

}  // namespace ppsi::iso

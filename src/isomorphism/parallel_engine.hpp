#pragma once

// The parallel bounded-treewidth engine (paper §3.3, Lemma 3.1).
//
// The decomposition tree is split into layered paths (Lemma 3.2, computed
// with the Appendix A tree-contraction evaluation); each path is solved
// through the shortcut reachability of its partial-match DAG (§3.3.2–3.3.3).
// Setup and accepting scan are the other engines' (sequential_dp.hpp), and
// every path task reads bags, masks and links from the shared read-only
// plan.
//
// Scheduling: by default every path is one task in a support::TaskGraph
// whose ready-counter is its number of child paths, so a path starts the
// moment its own children finish — no barrier at layer boundaries, and the
// tasks interleave with other slices' paths on the one shared OMP team.
// Solutions and instrumented work/round counts are bit-identical for every
// thread count (per-path metric deltas are folded in canonical layer order
// after the join).

#include "isomorphism/match_dag.hpp"
#include "isomorphism/sequential_dp.hpp"
#include "support/scheduler.hpp"

namespace ppsi::iso {

/// The shared DpOptions plus the shortcut switch. Cancellation is polled
/// per path task rather than per node: once the scope reports cancelled,
/// the remaining path tasks skip themselves, and the partial solution's
/// outputs and metrics MUST be discarded by the caller (api/solver.cpp's
/// deterministic replay never reads cancelled slices).
struct ParallelOptions : DpOptions {
  bool use_shortcuts = true;  ///< Lemma 3.3 shortcuts (base mode only)
};

struct ParallelStats {
  std::uint32_t num_layers = 0;
  std::uint32_t num_paths = 0;
  std::size_t max_path_length = 0;
  std::uint64_t dag_vertices = 0;
  std::uint64_t dag_edges = 0;
  std::uint64_t translation_edges = 0;
  std::uint64_t shortcut_edges = 0;
  /// Critical-path BFS rounds: max over the paths of a layer, summed over
  /// layers (plus the contraction rounds, reported in the metrics).
  std::uint64_t bfs_rounds = 0;
  std::uint64_t contraction_rounds = 0;
};

/// Parallel counterpart of solve_sequential over a slice's plan.
DpSolution solve_parallel(const std::shared_ptr<const DpPlan>& plan,
                          const Pattern& pattern,
                          const ParallelOptions& options,
                          ParallelStats* stats = nullptr);
/// The same over a temporary plan of (g, td, options.spec); `td` must be
/// binary.
DpSolution solve_parallel(const Graph& g,
                          const treedecomp::TreeDecomposition& td,
                          const Pattern& pattern,
                          const ParallelOptions& options,
                          ParallelStats* stats = nullptr);

}  // namespace ppsi::iso

#include "isomorphism/parallel_engine.hpp"

#include <algorithm>

#include "support/fault.hpp"
#include "support/scheduler.hpp"
#include "treepath/tree_paths.hpp"

namespace ppsi::iso {
namespace {

/// One task per path; a path's ready-counter is its number of child paths
/// (paths whose top node's tree parent lies in it), so it starts the moment
/// its own children finish — the slowest path of a layer never holds back
/// unrelated paths of the next. Task ids equal path ids, so per-path stats
/// land in pre-sized slots.
void run_paths_task_graph(const Pattern& pattern,
                          const treepath::PathDecomposition& paths,
                          const ParallelOptions& options, DpSolution& sol,
                          std::vector<PathStats>& per_path) {
  const std::size_t num_paths = paths.paths.size();
  support::TaskGraph graph;
  for (std::size_t pi = 0; pi < num_paths; ++pi) {
    graph.add([&, pi] {
      if (options.cancel.cancelled()) return;  // slice query already done
      PPSI_FAULT_POINT("engine.path");
      per_path[pi] = solve_path(pattern, paths.paths[pi], options, sol);
    });
  }
  for (std::uint32_t pi = 0; pi < num_paths; ++pi) {
    const treedecomp::NodeId top = paths.paths[pi].back();
    const treedecomp::NodeId parent = sol.plan->parent(top);
    if (parent != treedecomp::kNoNode)
      graph.add_edge(pi, paths.path_of[parent]);
  }
  support::Scheduler::run(graph);
}

}  // namespace

DpSolution solve_parallel(const std::shared_ptr<const DpPlan>& plan,
                          const Pattern& pattern,
                          const ParallelOptions& options,
                          ParallelStats* stats) {
  DpSolution sol = detail::prepare_solution(plan, pattern);

  // Lemma 3.2: layered path decomposition of the decomposition tree.
  treepath::Forest forest;
  forest.parent.assign(plan->parents().begin(), plan->parents().end());
  support::Metrics contraction_metrics;
  const treepath::PathDecomposition paths = treepath::decompose_into_paths(
      forest,
      treepath::layer_numbers_contraction(forest, &contraction_metrics));
  sol.metrics.absorb(contraction_metrics);

  ParallelStats local_stats;
  local_stats.num_layers = paths.num_layers;
  local_stats.num_paths = static_cast<std::uint32_t>(paths.paths.size());

  // One per-solve stats array indexed by path id (hoisted out of the old
  // per-layer loop); tasks write disjoint slots.
  std::vector<PathStats> per_path(paths.paths.size());
  run_paths_task_graph(pattern, paths, options, sol, per_path);

  // Canonical-order fold: identical arithmetic to the old per-layer loop,
  // independent of the order the path tasks ran in. The critical path
  // of a layer is its slowest path; layers compose sequentially.
  for (std::uint32_t layer = 0; layer < paths.num_layers; ++layer) {
    const std::uint32_t begin = paths.layer_path_offsets[layer];
    const std::uint32_t end = paths.layer_path_offsets[layer + 1];
    std::uint64_t layer_rounds = 0;
    for (std::uint32_t pi = begin; pi < end; ++pi) {
      const PathStats& ps = per_path[pi];
      layer_rounds = std::max(layer_rounds, ps.bfs_rounds);
      local_stats.dag_vertices += ps.dag_vertices;
      local_stats.dag_edges += ps.dag_edges;
      local_stats.translation_edges += ps.translation_edges;
      local_stats.shortcut_edges += ps.shortcut_edges;
      local_stats.max_path_length =
          std::max(local_stats.max_path_length, ps.path_length);
    }
    local_stats.bfs_rounds += layer_rounds;
    sol.metrics.add_rounds(layer_rounds);
  }
  local_stats.contraction_rounds = contraction_metrics.rounds();

  detail::collect_accepting(sol);
  if (stats != nullptr) *stats = local_stats;
  return sol;
}

DpSolution solve_parallel(const Graph& g,
                          const treedecomp::TreeDecomposition& td,
                          const Pattern& pattern,
                          const ParallelOptions& options,
                          ParallelStats* stats) {
  return solve_parallel(std::make_shared<const DpPlan>(g, td, options.spec),
                        pattern, options, stats);
}

}  // namespace ppsi::iso

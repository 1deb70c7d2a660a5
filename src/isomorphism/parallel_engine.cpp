#include "isomorphism/parallel_engine.hpp"

#include <algorithm>

#include "support/fault.hpp"
#include "support/parallel.hpp"
#include "support/scheduler.hpp"
#include "treepath/tree_paths.hpp"

namespace ppsi::iso {
namespace {

/// One task per path; a path's ready-counter is its number of child paths
/// (paths whose top node's tree parent lies in it), so it starts the moment
/// its own children finish — the slowest path of a layer never holds back
/// unrelated paths of the next. Task ids equal path ids, so per-path stats
/// land in pre-sized slots.
void run_paths_task_graph(const treedecomp::TreeDecomposition& td,
                          const Pattern& pattern,
                          const treepath::PathDecomposition& paths,
                          const PathSolveConfig& config,
                          const support::CancelScope& cancel,
                          DpSolution& sol, std::vector<PathStats>& per_path) {
  const std::size_t num_paths = paths.paths.size();
  support::TaskGraph graph;
  for (std::size_t pi = 0; pi < num_paths; ++pi) {
    graph.add([&, pi] {
      if (cancel.cancelled()) return;  // owning slice query already accepted
      PPSI_FAULT_POINT("engine.path");
      per_path[pi] = solve_path(td, pattern, paths.paths[pi], config, sol);
    });
  }
  for (std::uint32_t pi = 0; pi < num_paths; ++pi) {
    const treedecomp::NodeId top = paths.paths[pi].back();
    const treedecomp::NodeId parent = td.parent[top];
    if (parent != treedecomp::kNoNode)
      graph.add_edge(pi, paths.path_of[parent]);
  }
  support::Scheduler::run(graph);
}

}  // namespace

DpSolution solve_parallel(const Graph& g,
                          const treedecomp::TreeDecomposition& td,
                          const Pattern& pattern,
                          const ParallelOptions& options,
                          ParallelStats* stats) {
  const bool separating = options.spec.enabled;
  support::require(td.is_binary(), "solve_parallel: binary tree required");
  DpSolution sol;
  sol.separating = separating;
  std::size_t max_bag = 1;
  for (const auto& bag : td.bags) max_bag = std::max(max_bag, bag.size());
  sol.codec =
      StateCodec::make(pattern.size(), static_cast<std::uint32_t>(max_bag));
  const ParityPin pin = parity_pin(g, options.spec, pattern);
  sol.nodes.resize(td.num_nodes());
  support::parallel_for(0, td.num_nodes(), [&](std::size_t x) {
    sol.nodes[x].ctx = make_bag_context(g, td.bags[x], options.spec, pin);
  });

  // Lemma 3.2: layered path decomposition of the decomposition tree.
  treepath::Forest forest;
  forest.parent.assign(td.parent.begin(), td.parent.end());
  support::Metrics contraction_metrics;
  std::vector<std::uint32_t> layers =
      options.use_tree_contraction
          ? treepath::layer_numbers_contraction(forest, &contraction_metrics)
          : treepath::layer_numbers_sequential(forest);
  const treepath::PathDecomposition paths =
      treepath::decompose_into_paths(forest, std::move(layers));
  sol.metrics.absorb(contraction_metrics);

  ParallelStats local_stats;
  local_stats.num_layers = paths.num_layers;
  local_stats.num_paths = static_cast<std::uint32_t>(paths.paths.size());

  const PathSolveConfig config{separating, options.use_shortcuts,
                               options.release_interior};
  // One per-solve stats array indexed by path id (hoisted out of the old
  // per-layer loop); tasks write disjoint slots.
  std::vector<PathStats> per_path(paths.paths.size());
  run_paths_task_graph(td, pattern, paths, config, options.cancel, sol,
                       per_path);

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

  const SolvedNode& root = sol.nodes[td.root];
  for (std::uint32_t i = 0; i < root.states.size(); ++i) {
    const StateView view = view_of(sol.codec, root.states[i].code);
    const bool ok_sep =
        !separating || ((root.states[i].sep & kSepIx) != 0 &&
                        (root.states[i].sep & kSepOx) != 0);
    if (view.u_mask == 0 && ok_sep) sol.accepting.push_back(i);
  }
  sol.accepted = !sol.accepting.empty();
  if (stats != nullptr) *stats = local_stats;
  return sol;
}

}  // namespace ppsi::iso

// Microbenchmarks of the substrates: graph building, BFS, clustering,
// components, tree decomposition, planarity testing, mesh subdivision —
// plus the bit-parallel DP kernel (kernel_combo cases below): the reference
// vs bit-parallel support-combo enumeration. Both cases run the exact same
// instrumented work (pinned by the 0%-threshold work gate), so the
// wall-median ratio between them is the kernel speedup.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/est_clustering.hpp"
#include "cluster/parallel_bfs.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "harness/corpus.hpp"
#include "harness/harness.hpp"
#include "isomorphism/sequential_dp.hpp"
#include "planar/lr_planarity.hpp"
#include "support/rng.hpp"
#include "treedecomp/greedy_decomposition.hpp"

using namespace ppsi;
using bench::Corpus;
using bench::Registry;
using bench::Trial;

namespace {

// Guards against sub-tick measured regions (items / 0 -> inf, which JSON
// cannot represent).
double per_second(double items, const ppsi::bench::Trial& trial) {
  return items / std::max(trial.measured_seconds(), 1e-9);
}

// ---- Bit-parallel DP kernel cases ----

/// Shared fixture of the combo-kernel pair: one decomposed target, its
/// plan (bag contexts and child links), and the locally valid states per
/// node (capped deterministically in discovery order). Both cases
/// enumerate the exact same support combos, so their work counts are
/// identical and the wall ratio is the kernel speedup.
struct ComboFixture {
  iso::StateCodec codec;
  std::unique_ptr<const iso::DpPlan> plan;
  struct Node {
    iso::BagView ctx;
    iso::detail::ChildLink left, right;
    std::vector<iso::StateKey> states;
  };
  std::vector<Node> nodes;

  ComboFixture(const Graph& g, const iso::Pattern& pattern) {
    plan = std::make_unique<const iso::DpPlan>(
        g, treedecomp::binarize(treedecomp::greedy_decomposition(g)),
        iso::SeparatingSpec::disabled());
    codec = iso::StateCodec::make(pattern.size(), plan->max_bag());
    nodes.resize(plan->num_nodes());
    constexpr std::size_t kStatesPerNode = 4000;
    for (treedecomp::NodeId x = 0; x < plan->num_nodes(); ++x) {
      Node& node = nodes[x];
      node.ctx = plan->context(x);
      const auto kids = plan->children(x);
      if (!kids.empty())
        node.left = {true, plan->shared_with_parent(kids[0])};
      if (kids.size() == 2)
        node.right = {true, plan->shared_with_parent(kids[1])};
      iso::enumerate_local_states(
          pattern, node.ctx, codec, /*separating=*/false,
          [&](iso::StateKey key) {
            if (node.states.size() < kStatesPerNode)
              node.states.push_back(key);
          });
    }
  }

  /// Runs `combo_fn` (for_each_support_combo or the _ref formulation) over
  /// every collected state; returns the combo count and folds the visited
  /// signatures into *checksum.
  template <class ComboFn>
  std::uint64_t sweep(ComboFn&& combo_fn, std::uint64_t* checksum) const {
    std::uint64_t combos = 0;
    std::uint64_t sum = 0;
    for (const Node& node : nodes) {
      for (const iso::StateKey state : node.states) {
        combo_fn(codec, node.ctx, state, node.left, node.right,
                 [&](const iso::StateKey* sl, const iso::StateKey* sr) {
                   if (sl != nullptr) sum += sl->code + sl->sep;
                   if (sr != nullptr) sum += sr->code + sr->sep;
                   ++combos;
                   return false;  // full enumeration: visit every combo
                 });
      }
    }
    *checksum += sum;
    return combos;
  }
};

/// Connected k=8 pattern (tree plus chords) giving the combo enumeration
/// nontrivial C sets on width-3 bags.
iso::Pattern kernel_pattern() {
  support::Rng rng(17, /*stream=*/0xc0b0);
  EdgeList edges = gen::random_tree(8, rng.next_u64()).edge_list();
  edges.emplace_back(0, 3);
  edges.emplace_back(2, 5);
  edges.emplace_back(4, 7);
  return iso::Pattern::from_graph(Graph::from_edges(8, edges));
}

void register_kernel_benchmarks(Registry& reg, const Corpus& corpus) {
  // kernel_combo: the support-combo enumeration, reference per-field
  // signature rebuilds vs the bit-parallel base+spread kernel. Identical
  // visit sequences (pinned by the kernel differential suite), identical
  // work, wall ratio = kernel speedup.
  {
    auto fixture = std::make_shared<ComboFixture>(
        corpus.apollonian(150, 11).graph(), kernel_pattern());
    reg.add("kernel_combo/ref", [fixture](Trial& trial) {
      std::uint64_t checksum = 0;
      std::uint64_t combos = 0;
      trial.measure([&] {
        combos = fixture->sweep(
            [](const iso::StateCodec& codec, const iso::BagView& ctx,
               iso::StateKey state, const iso::detail::ChildLink& left,
               const iso::detail::ChildLink& right, auto&& visit) {
              iso::detail::for_each_support_combo_ref(
                  codec, ctx, state, left, right, /*separating=*/false,
                  visit);
            },
            &checksum);
      });
      trial.add_work(combos);
      trial.counter("checksum", static_cast<double>(checksum & 0xffffff));
    });
    reg.add("kernel_combo/bitparallel", [fixture](Trial& trial) {
      std::uint64_t checksum = 0;
      std::uint64_t combos = 0;
      trial.measure([&] {
        combos = fixture->sweep(
            [](const iso::StateCodec& codec, const iso::BagView& ctx,
               iso::StateKey state, const iso::detail::ChildLink& left,
               const iso::detail::ChildLink& right, auto&& visit) {
              iso::detail::for_each_support_combo(
                  codec, ctx, state, left, right, /*separating=*/false,
                  visit);
            },
            &checksum);
      });
      trial.add_work(combos);
      trial.counter("checksum", static_cast<double>(checksum & 0xffffff));
    });
  }
}

void register_benchmarks(Registry& reg, const Corpus& corpus) {
  for (const Vertex base : {50u, 200u}) {
    const Vertex side = corpus.side(base);
    reg.add("graph_build/grid/" + std::to_string(base), [side](Trial& trial) {
      const EdgeList edges = gen::grid_graph(side, side).edge_list();
      trial.measure([&] { Graph::from_edges(side * side, edges); });
      trial.counter("items_per_s",
                    per_second(static_cast<double>(edges.size()), trial));
    });
  }

  for (const Vertex base : {100u, 300u}) {
    reg.add("parallel_bfs/grid/" + std::to_string(base),
            [g = corpus.grid(base, base)](Trial& trial) {
              trial.measure([&] { cluster::parallel_bfs(g, Vertex{0}); });
              trial.counter(
                  "items_per_s",
                  per_second(static_cast<double>(g.num_vertices()), trial));
            });
  }

  for (const Vertex base : {100u, 300u}) {
    reg.add("est_clustering/grid/" + std::to_string(base),
            [g = corpus.grid(base, base)](Trial& trial) {
              support::Metrics metrics;
              trial.measure([&] {
                cluster::est_clustering(g, 8.0, trial.seed(), &metrics);
              });
              trial.record(metrics);
            });
  }

  for (const Vertex base : {10000u, 40000u}) {
    reg.add("components/apollonian/" + std::to_string(base),
            [g = corpus.apollonian(base, 3).graph()](Trial& trial) {
              trial.measure([&] { connected_components_parallel(g); });
              trial.counter(
                  "items_per_s",
                  per_second(static_cast<double>(g.num_vertices()), trial));
            });
  }

  for (const Vertex base : {1000u, 4000u}) {
    reg.add("greedy_decomposition/apollonian/" + std::to_string(base),
            [g = corpus.apollonian(base, 5).graph()](Trial& trial) {
              int width = 0;
              trial.measure([&] {
                width = treedecomp::greedy_decomposition(g).width();
              });
              trial.counter("width", width);
            });
  }

  for (const Vertex base : {1000u, 10000u}) {
    reg.add("lr_planarity/apollonian/" + std::to_string(base),
            [g = corpus.apollonian(base, 7).graph()](Trial& trial) {
              trial.measure([&] { planar::is_planar(g); });
              trial.counter(
                  "items_per_s",
                  per_second(static_cast<double>(g.num_vertices()), trial));
            });
  }

  for (const int rounds : {2, 4}) {
    reg.add("loop_subdivide/icosa/" + std::to_string(rounds),
            [rounds](Trial& trial) {
              trial.measure(
                  [&] { gen::loop_subdivide(gen::icosahedron(), rounds); });
            });
  }

  register_kernel_benchmarks(reg, corpus);
}

}  // namespace

int main(int argc, char** argv) {
  return ppsi::bench::run_main(argc, argv, "micro", register_benchmarks);
}

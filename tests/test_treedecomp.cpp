// Tree decomposition tests: axiom validation, widths, binarization,
// both constructions, across the generator families.

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "treedecomp/bfs_layer_decomposition.hpp"
#include "treedecomp/greedy_decomposition.hpp"
#include "treedecomp/tree_decomposition.hpp"

namespace ppsi::treedecomp {
namespace {

struct NamedGraph {
  std::string name;
  Graph g;
};

std::vector<NamedGraph> targets() {
  return {
      {"path10", gen::path_graph(10)},
      {"cycle12", gen::cycle_graph(12)},
      {"star9", gen::star_graph(9)},
      {"grid5x5", gen::grid_graph(5, 5)},
      {"grid3x9", gen::grid_graph(3, 9)},
      {"k5", gen::complete_graph(5)},
      {"tree30", gen::random_tree(30, 3)},
      {"apollonian25", gen::apollonian(25, 7).graph()},
      {"octahedron", gen::octahedron().graph()},
      {"icosahedron", gen::icosahedron().graph()},
      {"gnp20", gen::gnp(20, 0.2, 5)},
      {"disconnected",
       gen::disjoint_union({gen::cycle_graph(5), gen::path_graph(4)})},
  };
}

class Decompositions : public ::testing::TestWithParam<int> {};

TEST_P(Decompositions, GreedyMinDegreeIsValid) {
  const auto t = targets()[GetParam()];
  const TreeDecomposition td =
      greedy_decomposition(t.g, GreedyStrategy::kMinDegree);
  EXPECT_TRUE(td.validate(t.g)) << t.name;
  EXPECT_EQ(td.num_nodes(), t.g.num_vertices());
}

TEST_P(Decompositions, GreedyMinFillIsValid) {
  const auto t = targets()[GetParam()];
  const TreeDecomposition td =
      greedy_decomposition(t.g, GreedyStrategy::kMinFill);
  EXPECT_TRUE(td.validate(t.g)) << t.name;
}

TEST_P(Decompositions, BfsLayerIsValid) {
  const auto t = targets()[GetParam()];
  const TreeDecomposition td = bfs_layer_decomposition(t.g, 0);
  EXPECT_TRUE(td.validate(t.g)) << t.name;
}

TEST_P(Decompositions, BinarizePreservesValidityAndWidth) {
  const auto t = targets()[GetParam()];
  const TreeDecomposition td =
      greedy_decomposition(t.g, GreedyStrategy::kMinDegree);
  const TreeDecomposition bin = binarize(td);
  EXPECT_TRUE(bin.validate(t.g)) << t.name;
  EXPECT_TRUE(bin.is_binary()) << t.name;
  EXPECT_EQ(bin.width(), td.width()) << t.name;
}

INSTANTIATE_TEST_SUITE_P(Targets, Decompositions, ::testing::Range(0, 12));

TEST(Width, KnownValues) {
  // Trees have treewidth 1; greedy min-degree finds it.
  EXPECT_EQ(greedy_decomposition(gen::random_tree(40, 1)).width(), 1);
  EXPECT_EQ(greedy_decomposition(gen::path_graph(20)).width(), 1);
  // Cycles have treewidth 2.
  EXPECT_EQ(greedy_decomposition(gen::cycle_graph(20)).width(), 2);
  // Cliques have treewidth n-1.
  EXPECT_EQ(greedy_decomposition(gen::complete_graph(6)).width(), 5);
  // Grid r x c has treewidth min(r, c); greedy is a heuristic but finds the
  // optimum on small grids.
  EXPECT_LE(greedy_decomposition(gen::grid_graph(3, 8)).width(), 4);
}

TEST(Width, GreedyNearOptimalOnApollonian) {
  // Apollonian networks have treewidth 3.
  const Graph g = gen::apollonian(60, 5).graph();
  EXPECT_LE(greedy_decomposition(g, GreedyStrategy::kMinFill).width(), 4);
}

TEST(BottomUpOrder, ChildrenBeforeParents) {
  const Graph g = gen::grid_graph(4, 4);
  const TreeDecomposition td = binarize(greedy_decomposition(g));
  const auto order = bottom_up_order(td);
  std::vector<int> position(td.num_nodes());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = static_cast<int>(i);
  for (NodeId x = 0; x < td.num_nodes(); ++x)
    for (NodeId c : td.children[x]) EXPECT_LT(position[c], position[x]);
  EXPECT_EQ(order.size(), td.num_nodes());
}

TEST(Validation, CatchesBrokenDecompositions) {
  const Graph g = gen::path_graph(3);  // edges 0-1, 1-2
  TreeDecomposition td;
  td.bags = {{0, 1}, {2}};  // edge 1-2 uncovered
  td.parent = {kNoNode, 0};
  td.finalize();
  EXPECT_FALSE(td.validate(g));
  td.bags = {{0, 1}, {1, 2}};
  td.finalize();
  EXPECT_TRUE(td.validate(g));
  // Vertex subtree disconnected: 1 appears in two non-adjacent bags.
  td.bags = {{0, 1}, {2}, {1, 2}};
  td.parent = {kNoNode, 0, 1};
  td.finalize();
  EXPECT_FALSE(td.validate(g));
}

TEST(Binarize, HighDegreeNodeGetsChained) {
  // Star decomposition: one central bag with 5 children.
  TreeDecomposition td;
  td.bags = {{0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}};
  td.parent = {kNoNode, 0, 0, 0, 0, 0};
  td.finalize();
  const Graph g = gen::star_graph(6);
  ASSERT_TRUE(td.validate(g));
  const TreeDecomposition bin = binarize(td);
  EXPECT_TRUE(bin.validate(g));
  EXPECT_TRUE(bin.is_binary());
  EXPECT_GT(bin.num_nodes(), td.num_nodes());
}

// --- Golden outputs of the elimination kernel ----------------------------
//
// The Solver's results and instrumented work depend on the exact bags and
// parents the constructions emit, not only on their validity, so the kernel
// is pinned bit for bit: FNV-1a over (node count, then per node its parent,
// bag size and bag members) for each strategy on fixed inputs, plus one
// literal decomposition that shows what the digest covers.

std::uint64_t fingerprint(const TreeDecomposition& td) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(td.num_nodes());
  for (NodeId x = 0; x < td.num_nodes(); ++x) {
    mix(td.parent[x]);
    mix(td.bags[x].size());
    for (const Vertex v : td.bags[x]) mix(v);
  }
  return h;
}

struct GoldenCase {
  const char* name;
  Graph g;
  std::uint64_t min_degree;
  std::uint64_t min_fill;
  std::uint64_t bfs_layer;  ///< rooted at vertex 0
};

TEST(GoldenDecompositions, BagsAndParentsArePinned) {
  const std::vector<GoldenCase> cases = {
      {"grid6x6", gen::grid_graph(6, 6),
       16042008514243849827ull, 6288000274020932627ull,
       1958335306872464029ull},
      {"grid4x11", gen::grid_graph(4, 11),
       15709836618617426311ull, 15356795834241463087ull,
       15680719091812251447ull},
      {"apollonian40", gen::apollonian(40, 3).graph(),
       18170987023025280972ull, 18170987023025280972ull,
       12157641037746266483ull},
      {"apollonian120", gen::apollonian(120, 9).graph(),
       9497013386348361693ull, 9497013386348361693ull,
       15733841177151007789ull},
      {"loop_apollonian", gen::loop_subdivide(gen::apollonian(12, 5), 1).graph(),
       9466490727991365660ull, 9498855045820618194ull, 758220516413770895ull},
  };
  for (const GoldenCase& c : cases) {
    EXPECT_EQ(fingerprint(greedy_decomposition(c.g, GreedyStrategy::kMinDegree)),
              c.min_degree)
        << c.name << " min-degree";
    EXPECT_EQ(fingerprint(greedy_decomposition(c.g, GreedyStrategy::kMinFill)),
              c.min_fill)
        << c.name << " min-fill";
    EXPECT_EQ(fingerprint(bfs_layer_decomposition(c.g, 0)), c.bfs_layer)
        << c.name << " bfs-layer";
  }
}

TEST(GoldenDecompositions, LiteralGridMinDegree) {
  const TreeDecomposition td = greedy_decomposition(gen::grid_graph(3, 3));
  // 0 1 2
  // 3 4 5   corners first (degree 2), then the centre's neighbourhood.
  // 6 7 8
  const std::vector<std::vector<Vertex>> bags = {
      {0, 1, 3}, {1, 2, 5}, {3, 6, 7}, {5, 7, 8}, {1, 3, 4, 5},
      {3, 4, 5, 7}, {4, 5, 7}, {5, 7}, {7}};
  const std::vector<NodeId> parent = {4, 4, 5, 7, 5, 6, 7, 8, kNoNode};
  EXPECT_EQ(td.bags, bags);
  EXPECT_EQ(td.parent, parent);
}

}  // namespace
}  // namespace ppsi::treedecomp

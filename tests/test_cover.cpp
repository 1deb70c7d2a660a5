// k-d cover tests (Theorem 2.4, §5.2.1): structural guarantees of the
// slices, per-vertex multiplicity, coverage probability, and minor
// soundness of the separating cover.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "cover/kd_cover.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "treedecomp/greedy_decomposition.hpp"

namespace ppsi::cover {
namespace {

TEST(KdCover, SlicesAreInducedAndBounded) {
  const Graph g = gen::grid_graph(15, 15);
  const std::uint32_t d = 2;
  const Cover cover = build_kd_cover(g, d, 8.0, 3, 1);
  ASSERT_FALSE(cover.slices.empty());
  for (const Slice& slice : cover.slices) {
    ASSERT_EQ(slice.origin_of.size(), slice.graph.num_vertices());
    // Edges are real edges of g (induced subgraph).
    for (const auto& [u, v] : slice.graph.edge_list())
      EXPECT_TRUE(g.has_edge(slice.origin_of[u], slice.origin_of[v]));
    // Each slice spans at most d+1 BFS levels from its root, so its
    // eccentricity from the root is at most... the slice may be
    // disconnected, but every vertex lies within d+1 levels of the window;
    // check the window width via distances in the cluster: here we check
    // a weaker, structural property: slice size is positive.
    EXPECT_GE(slice.graph.num_vertices(), 1u);
    for (const std::uint8_t o : slice.is_original) EXPECT_EQ(o, 1);
  }
}

// Every slice is exactly the subgraph of g induced on its window, with
// sorted adjacency, whether g's own adjacency is sorted (grid) or in
// rotation order (Apollonian network).
TEST(KdCover, SlicesAreExactlyInducedOnTheirWindow) {
  const struct {
    const char* name;
    Graph g;
  } cases[] = {
      {"grid15x15", gen::grid_graph(15, 15)},
      {"apollonian300", gen::apollonian(300, 4).graph()},
  };
  for (const auto& c : cases) {
    for (const std::uint64_t seed : {3, 8}) {
      const Cover cover = build_kd_cover(c.g, 2, 6.0, seed, 1);
      ASSERT_FALSE(cover.slices.empty()) << c.name;
      for (const Slice& slice : cover.slices) {
        const DerivedGraph want = induced_subgraph(c.g, slice.origin_of);
        ASSERT_EQ(slice.graph.num_vertices(), want.graph.num_vertices());
        for (Vertex v = 0; v < slice.graph.num_vertices(); ++v) {
          const auto got = slice.graph.neighbors(v);
          const auto expect = want.graph.neighbors(v);
          EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin(),
                                 expect.end()))
              << c.name << " seed " << seed << " vertex " << v;
          EXPECT_TRUE(std::adjacent_find(got.begin(), got.end(),
                                         std::greater_equal<>()) == got.end())
              << c.name << " seed " << seed << " vertex " << v
              << ": adjacency not strictly ascending";
        }
      }
    }
  }
}

TEST(KdCover, VertexMultiplicityAtMostDPlusOne) {
  const Graph g = gen::apollonian(400, 5).graph();
  for (const std::uint32_t d : {1u, 2u, 3u}) {
    const Cover cover = build_kd_cover(g, d, 8.0, 7, 1);
    std::vector<std::uint32_t> multiplicity(g.num_vertices(), 0);
    for (const Slice& slice : cover.slices)
      for (const Vertex v : slice.origin_of) ++multiplicity[v];
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      EXPECT_LE(multiplicity[v], d + 1) << "d=" << d;
    // Total cover size O(dn).
    std::size_t total = 0;
    for (const Slice& slice : cover.slices)
      total += slice.graph.num_vertices();
    EXPECT_LE(total, static_cast<std::size_t>(d + 1) * g.num_vertices());
  }
}

TEST(KdCover, EveryVertexIsCovered) {
  const Graph g = gen::grid_graph(12, 12);
  const Cover cover = build_kd_cover(g, 2, 8.0, 11, 1);
  std::vector<char> covered(g.num_vertices(), 0);
  for (const Slice& slice : cover.slices)
    for (const Vertex v : slice.origin_of) covered[v] = 1;
  for (Vertex v = 0; v < g.num_vertices(); ++v) EXPECT_TRUE(covered[v]);
}

/// Theorem 2.4: a fixed occurrence survives into some slice with
/// probability >= 1/2.
TEST(KdCover, OccurrenceCoverageProbability) {
  const Graph g = gen::grid_graph(20, 20);
  // Fixed occurrence: C4 at the center; d = diameter(C4) = 2.
  const Vertex a = 10 * 20 + 10;
  const std::set<Vertex> occurrence = {a, a + 1, a + 20, a + 21};
  const std::uint32_t k = 4, d = 2;
  int covered = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    const Cover cover = build_kd_cover(g, d, 2.0 * k, 5000 + t, k);
    bool found = false;
    for (const Slice& slice : cover.slices) {
      std::set<Vertex> members(slice.origin_of.begin(),
                               slice.origin_of.end());
      bool all = true;
      for (const Vertex v : occurrence) all = all && members.contains(v);
      if (all) {
        found = true;
        break;
      }
    }
    covered += found ? 1 : 0;
  }
  EXPECT_GT(covered, trials / 2) << covered << "/" << trials;
}

/// Measured width of the greedy decomposition on the cover slices stays
/// within the paper's 3d bound on grids (Theorem 2.4's width claim; the
/// ablation bench reports this across families).
TEST(KdCover, SliceDecompositionWidthWithin3d) {
  const Graph g = gen::grid_graph(18, 18);
  for (const std::uint32_t d : {1u, 2u, 3u}) {
    const Cover cover = build_kd_cover(g, d, 8.0, 13, 2);
    for (const Slice& slice : cover.slices) {
      const auto td = treedecomp::greedy_decomposition(slice.graph);
      EXPECT_LE(td.width(), static_cast<int>(3 * d + 3)) << "d=" << d;
    }
  }
}

// ---- Separating cover (§5.2.1) ----

TEST(SeparatingCover, MinorStructureIsSound) {
  const auto eg = gen::apollonian(80, 9);
  const Graph& g = eg.graph();
  std::vector<std::uint8_t> in_s(g.num_vertices(), 1);
  const Cover cover = build_separating_cover(g, in_s, 2, 8.0, 3, 2);
  ASSERT_FALSE(cover.slices.empty());
  for (const Slice& slice : cover.slices) {
    ASSERT_TRUE(slice.spec.enabled);
    ASSERT_EQ(slice.spec.allowed.size(), slice.graph.num_vertices());
    ASSERT_EQ(slice.spec.in_s.size(), slice.graph.num_vertices());
    for (Vertex v = 0; v < slice.graph.num_vertices(); ++v) {
      // Only original slice vertices are allowed for the pattern.
      EXPECT_EQ(slice.spec.allowed[v] != 0, slice.is_original[v] != 0);
      if (slice.is_original[v]) {
        ASSERT_NE(slice.origin_of[v], kNoVertex);
        EXPECT_EQ(slice.spec.in_s[v], in_s[slice.origin_of[v]]);
      }
    }
    // Original-to-original edges are real edges of g.
    for (const auto& [u, v] : slice.graph.edge_list()) {
      if (slice.is_original[u] && slice.is_original[v]) {
        EXPECT_TRUE(g.has_edge(slice.origin_of[u], slice.origin_of[v]));
      }
    }
  }
}

TEST(SeparatingCover, MergedVerticesCoverAllSVertices) {
  // Every S vertex of the graph appears in each slice either as an original
  // vertex or swallowed by a merged blob marked in S: total S mass is
  // preserved, which the separation bookkeeping depends on.
  const auto eg = gen::embedded_grid(10, 10);
  const Graph& g = eg.graph();
  std::vector<std::uint8_t> in_s(g.num_vertices(), 0);
  for (Vertex v = 0; v < g.num_vertices(); v += 4) in_s[v] = 1;
  const Cover cover = build_separating_cover(g, in_s, 2, 8.0, 5, 2);
  for (const Slice& slice : cover.slices) {
    bool any_s = false;
    for (Vertex v = 0; v < slice.graph.num_vertices(); ++v)
      any_s = any_s || slice.spec.in_s[v] != 0;
    EXPECT_TRUE(any_s);
  }
}

TEST(SeparatingCover, SingleClusterKeepsWholeGraphReachable) {
  // With a huge beta the graph is a single cluster and the level-0 slice
  // plus its merged remainder must account for every vertex.
  const Graph g = gen::grid_graph(6, 6);
  std::vector<std::uint8_t> in_s(g.num_vertices(), 1);
  const Cover cover = build_separating_cover(g, in_s, 50, 1e6, 1, 1);
  ASSERT_EQ(cover.num_clusters, 1u);
  ASSERT_EQ(cover.slices.size(), 1u);
  // d exceeds the diameter: the single slice is the whole graph.
  EXPECT_EQ(cover.slices[0].graph.num_vertices(), g.num_vertices());
}

}  // namespace
}  // namespace ppsi::cover

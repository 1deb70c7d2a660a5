// Graph substrate tests: CSR invariants, builders, ops, components,
// union-find, generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/ops.hpp"
#include "support/rng.hpp"

namespace ppsi {
namespace {

TEST(GraphBuild, DedupesAndDropsSelfLoops) {
  const Graph g = Graph::from_edges(
      4, {{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}, {3, 0}});
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(2, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(GraphBuild, AdjacencySortedAndSymmetric) {
  const Graph g = gen::gnp(60, 0.1, 3);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nb = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    for (Vertex w : nb) EXPECT_TRUE(g.has_edge(w, v));
  }
}

TEST(GraphBuild, EdgeListRoundTrip) {
  const Graph g = gen::grid_graph(5, 7);
  const Graph h = Graph::from_edges(g.num_vertices(), g.edge_list());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (const auto& [u, v] : g.edge_list()) EXPECT_TRUE(h.has_edge(u, v));
}

TEST(GraphBuild, RejectsOutOfRange) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 5}}), std::invalid_argument);
}

TEST(InducedSubgraph, KeepsExactlyInternalEdges) {
  const Graph g = gen::grid_graph(4, 4);
  const std::vector<Vertex> vs = {0, 1, 2, 5, 10};
  const DerivedGraph sub = induced_subgraph(g, vs);
  EXPECT_EQ(sub.graph.num_vertices(), 5u);
  std::size_t expect = 0;
  for (std::size_t i = 0; i < vs.size(); ++i)
    for (std::size_t j = i + 1; j < vs.size(); ++j)
      expect += g.has_edge(vs[i], vs[j]) ? 1 : 0;
  EXPECT_EQ(sub.graph.num_edges(), expect);
  for (std::size_t i = 0; i < vs.size(); ++i)
    EXPECT_EQ(sub.origin_of[i], vs[i]);
}

// An unsorted (rotation-order) source and a non-ascending vertex order
// both take the sorting path; the result must match a from_edges build of
// the same induced edges, adjacency sorted.
TEST(InducedSubgraph, UnsortedSourceAndOrderMatchFromEdges) {
  const Graph g = gen::apollonian(60, 2).graph();
  ASSERT_FALSE(g.sorted_adjacency());
  const Graph sorted = Graph::from_edges(g.num_vertices(), g.edge_list());
  std::vector<Vertex> ascending;
  for (Vertex v = 0; v < g.num_vertices(); v += 2) ascending.push_back(v);
  std::vector<Vertex> shuffled = ascending;
  std::reverse(shuffled.begin(), shuffled.begin() + shuffled.size() / 2);
  std::rotate(shuffled.begin(), shuffled.begin() + 5, shuffled.end());
  const struct {
    const char* name;
    const Graph& source;
    const std::vector<Vertex>& vertices;
  } cases[] = {
      {"unsorted source, ascending", g, ascending},
      {"unsorted source, shuffled", g, shuffled},
      {"sorted source, shuffled", sorted, shuffled},
  };
  for (const auto& c : cases) {
    std::vector<Vertex> local(g.num_vertices(), kNoVertex);
    for (std::size_t i = 0; i < c.vertices.size(); ++i)
      local[c.vertices[i]] = static_cast<Vertex>(i);
    EdgeList edges;
    for (const auto& [u, v] : g.edge_list())
      if (local[u] != kNoVertex && local[v] != kNoVertex)
        edges.emplace_back(local[u], local[v]);
    const Graph want =
        Graph::from_edges(static_cast<Vertex>(c.vertices.size()), edges);
    const DerivedGraph got = induced_subgraph(c.source, c.vertices);
    ASSERT_EQ(got.graph.num_vertices(), want.num_vertices()) << c.name;
    EXPECT_EQ(got.graph.num_edges(), want.num_edges()) << c.name;
    EXPECT_TRUE(got.graph.sorted_adjacency()) << c.name;
    for (Vertex v = 0; v < want.num_vertices(); ++v) {
      const auto a = got.graph.neighbors(v);
      const auto b = want.neighbors(v);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << c.name << " vertex " << v;
    }
    EXPECT_EQ(got.origin_of, c.vertices) << c.name;
  }
}

// The caller-owned position map is clear again after every call, also
// after a rejected duplicate.
TEST(InducedSubgraph, PositionMapIsRestored) {
  const Graph g = gen::grid_graph(6, 6);
  std::vector<Vertex> pos(g.num_vertices(), kNoVertex);
  const std::vector<Vertex> window = {3, 4, 9, 10, 15};
  const Graph sub = induced_graph(g, window, pos);
  EXPECT_EQ(sub.num_edges(), 5u);
  EXPECT_TRUE(std::all_of(pos.begin(), pos.end(),
                          [](Vertex p) { return p == kNoVertex; }));
  const std::vector<Vertex> duplicate = {3, 4, 3};
  EXPECT_THROW(induced_graph(g, duplicate, pos), std::invalid_argument);
  EXPECT_TRUE(std::all_of(pos.begin(), pos.end(),
                          [](Vertex p) { return p == kNoVertex; }));
  const std::vector<Vertex> out_of_range = {3, 99};
  EXPECT_THROW(induced_graph(g, out_of_range, pos), std::invalid_argument);
}

TEST(InducedSubgraph, RejectsDuplicates) {
  const Graph g = gen::path_graph(4);
  EXPECT_THROW(induced_subgraph(g, {1, 1}), std::invalid_argument);
}

TEST(QuotientGraph, ContractsGroups) {
  // Path 0-1-2-3-4; merge {0,1} and {3,4}.
  const Graph g = gen::path_graph(5);
  const std::vector<Vertex> label = {0, 0, 1, 2, 2};
  const DerivedGraph q = quotient_graph(g, label, 3);
  EXPECT_EQ(q.graph.num_vertices(), 3u);
  EXPECT_EQ(q.graph.num_edges(), 2u);  // 0-1 and 1-2; no self loops
  EXPECT_TRUE(q.graph.has_edge(0, 1));
  EXPECT_TRUE(q.graph.has_edge(1, 2));
  EXPECT_FALSE(q.graph.has_edge(0, 2));
}

TEST(QuotientGraph, DropsUnlabeledVertices) {
  const Graph g = gen::cycle_graph(6);
  std::vector<Vertex> label(6, kNoVertex);
  label[0] = 0;
  label[1] = 1;
  const DerivedGraph q = quotient_graph(g, label, 2);
  EXPECT_EQ(q.graph.num_vertices(), 2u);
  EXPECT_EQ(q.graph.num_edges(), 1u);
}

TEST(Bfs, DistancesOnGrid) {
  const Graph g = gen::grid_graph(4, 5);
  const auto dist = bfs_distances(g, 0);
  for (Vertex r = 0; r < 4; ++r)
    for (Vertex c = 0; c < 5; ++c) EXPECT_EQ(dist[r * 5 + c], r + c);
}

TEST(Bfs, DiameterOfPathAndCycle) {
  EXPECT_EQ(diameter(gen::path_graph(10)), 9u);
  EXPECT_EQ(diameter(gen::cycle_graph(10)), 5u);
  EXPECT_EQ(diameter(gen::complete_graph(5)), 1u);
}

class ComponentsCase : public ::testing::TestWithParam<int> {};

TEST_P(ComponentsCase, ParallelMatchesSequential) {
  const int seed = GetParam();
  support::Rng rng(seed);
  // A few disjoint random pieces.
  std::vector<Graph> parts;
  const int pieces = 1 + static_cast<int>(rng.next_below(4));
  for (int p = 0; p < pieces; ++p) {
    const auto n = static_cast<Vertex>(2 + rng.next_below(30));
    parts.push_back(gen::gnp(n, 0.15, seed * 31 + p));
  }
  const Graph g = gen::disjoint_union(parts);
  const Components seq = connected_components(g);
  support::Metrics metrics;
  const Components par = connected_components_parallel(g, &metrics);
  EXPECT_EQ(seq.count, par.count);
  // Labels must induce the same partition.
  for (Vertex u = 0; u < g.num_vertices(); ++u)
    for (Vertex w : g.neighbors(u)) {
      EXPECT_EQ(par.label[u], par.label[w]);
    }
  std::set<std::pair<Vertex, Vertex>> pairing;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    pairing.insert({seq.label[v], par.label[v]});
  EXPECT_EQ(pairing.size(), seq.count);
  EXPECT_GT(metrics.rounds(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComponentsCase, ::testing::Range(0, 12));

TEST(Generators, SizesAndDegrees) {
  EXPECT_EQ(gen::path_graph(6).num_edges(), 5u);
  EXPECT_EQ(gen::cycle_graph(6).num_edges(), 6u);
  EXPECT_EQ(gen::star_graph(6).num_edges(), 5u);
  EXPECT_EQ(gen::complete_graph(6).num_edges(), 15u);
  EXPECT_EQ(gen::complete_bipartite(3, 4).num_edges(), 12u);
  EXPECT_EQ(gen::grid_graph(4, 6).num_edges(), 4u * 5 + 3u * 6);
  const Graph t = gen::random_tree(50, 9);
  EXPECT_EQ(t.num_edges(), 49u);
  EXPECT_EQ(connected_components(t).count, 1u);
}

TEST(Generators, DisjointUnionShiftsIds) {
  const Graph g =
      gen::disjoint_union({gen::path_graph(3), gen::cycle_graph(3)});
  EXPECT_EQ(g.num_vertices(), 6u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(connected_components(g).count, 2u);
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(Generators, ApollonianIsMaximalPlanar) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto eg = gen::apollonian(30, seed);
    EXPECT_EQ(eg.graph().num_vertices(), 30u);
    EXPECT_EQ(eg.graph().num_edges(), 3u * 30 - 6);  // maximal planar
    EXPECT_TRUE(eg.validate_planar());
  }
}

TEST(Generators, LoopSubdivisionCounts) {
  const auto base = gen::octahedron();
  const auto sub = gen::loop_subdivide(base);
  // V' = V + E, E' = 2E + 3F, F' = 4F.
  EXPECT_EQ(sub.graph().num_vertices(), 6u + 12u);
  EXPECT_EQ(sub.graph().num_edges(), 2u * 12 + 3u * 8);
  EXPECT_TRUE(sub.validate_planar());
}

}  // namespace
}  // namespace ppsi

// S-separating subgraph isomorphism tests (§5.2): the extended DP against a
// brute-force separating oracle, the allowed-vertex restriction, the
// sequential/parallel equivalence in separating mode, and the parity-pinned
// path on S-bipartite targets (all three engines).

#include <gtest/gtest.h>

#include <queue>
#include <set>

#include "baseline/ullmann.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "isomorphism/parallel_engine.hpp"
#include "isomorphism/sequential_dp.hpp"
#include "isomorphism/sparse_dp.hpp"
#include "planar/face_vertex_graph.hpp"
#include "treedecomp/greedy_decomposition.hpp"

namespace ppsi::iso {
namespace {

/// Oracle: does removing the images of `a` split the S vertices (outside
/// the occurrence) into at least two components?
bool separates(const Graph& g, const std::vector<std::uint8_t>& in_s,
               const Assignment& a) {
  std::vector<char> removed(g.num_vertices(), 0);
  for (Vertex image : a) removed[image] = 1;
  std::vector<int> comp(g.num_vertices(), -1);
  int count = 0;
  int with_s = 0;
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    if (removed[s] || comp[s] >= 0) continue;
    bool has_s = false;
    std::queue<Vertex> queue;
    comp[s] = count;
    queue.push(s);
    while (!queue.empty()) {
      const Vertex u = queue.front();
      queue.pop();
      if (in_s[u]) has_s = true;
      for (Vertex w : g.neighbors(u)) {
        if (!removed[w] && comp[w] < 0) {
          comp[w] = count;
          queue.push(w);
        }
      }
    }
    ++count;
    with_s += has_s ? 1 : 0;
  }
  return with_s >= 2;
}

bool oracle_separating_exists(const Graph& g,
                              const std::vector<std::uint8_t>& in_s,
                              const Pattern& pattern,
                              const std::vector<std::uint8_t>& allowed) {
  for (const Assignment& a :
       baseline::brute_force_list(g, pattern, 1 << 20)) {
    bool ok = true;
    for (Vertex image : a) ok = ok && allowed[image];
    if (ok && separates(g, in_s, a)) return true;
  }
  return false;
}

DpSolution solve_with_spec(const Graph& g, const Pattern& pattern,
                           const SeparatingSpec& spec, bool parallel) {
  const auto td = treedecomp::binarize(treedecomp::greedy_decomposition(g));
  if (parallel) {
    ParallelOptions options;
    options.spec = spec;
    return solve_parallel(g, td, pattern, options);
  }
  DpOptions options;
  options.spec = spec;
  return solve_sequential(g, td, pattern, options);
}

struct SepCase {
  std::string name;
  Graph g;
  Graph pattern;
};

std::vector<SepCase> sep_cases() {
  std::vector<SepCase> cases;
  cases.push_back({"path5_p1", gen::path_graph(5), gen::path_graph(1)});
  cases.push_back({"path7_p2", gen::path_graph(7), gen::path_graph(2)});
  cases.push_back({"cycle8_p2", gen::cycle_graph(8), gen::path_graph(2)});
  cases.push_back({"grid3x3_p3", gen::grid_graph(3, 3), gen::path_graph(3)});
  cases.push_back({"grid3x4_c4", gen::grid_graph(3, 4), gen::cycle_graph(4)});
  cases.push_back({"star6_p1", gen::star_graph(6), gen::path_graph(1)});
  cases.push_back({"wheel6_p2", gen::wheel(6).graph(), gen::path_graph(2)});
  cases.push_back({"tree10_p2", gen::random_tree(10, 3), gen::path_graph(2)});
  cases.push_back(
      {"apollonian9_c3", gen::apollonian(9, 4).graph(), gen::cycle_graph(3)});
  cases.push_back({"gnp10_p3", gen::gnp(10, 0.3, 8), gen::path_graph(3)});
  // An even cycle on a non-bipartite target: the parity pin must not fire.
  cases.push_back(
      {"apollonian9_c4", gen::apollonian(9, 4).graph(), gen::cycle_graph(4)});
  return cases;
}

class SeparatingOracle : public ::testing::TestWithParam<int> {};

TEST_P(SeparatingOracle, MatchesBruteForceWithAllS) {
  const SepCase c = sep_cases()[GetParam()];
  const Pattern pattern = Pattern::from_graph(c.pattern);
  SeparatingSpec spec;
  spec.enabled = true;
  spec.in_s.assign(c.g.num_vertices(), 1);
  spec.allowed.assign(c.g.num_vertices(), 1);
  const bool expect =
      oracle_separating_exists(c.g, spec.in_s, pattern, spec.allowed);
  const DpSolution sol = solve_with_spec(c.g, pattern, spec, false);
  EXPECT_EQ(sol.accepted, expect) << c.name;
}

TEST_P(SeparatingOracle, MatchesBruteForceWithSparseS) {
  const SepCase c = sep_cases()[GetParam()];
  const Pattern pattern = Pattern::from_graph(c.pattern);
  SeparatingSpec spec;
  spec.enabled = true;
  spec.in_s.assign(c.g.num_vertices(), 0);
  spec.allowed.assign(c.g.num_vertices(), 1);
  // Mark every third vertex.
  for (Vertex v = 0; v < c.g.num_vertices(); v += 3) spec.in_s[v] = 1;
  const bool expect =
      oracle_separating_exists(c.g, spec.in_s, pattern, spec.allowed);
  const DpSolution sol = solve_with_spec(c.g, pattern, spec, false);
  EXPECT_EQ(sol.accepted, expect) << c.name;
}

TEST_P(SeparatingOracle, AllowedMaskRestrictsImages) {
  const SepCase c = sep_cases()[GetParam()];
  const Pattern pattern = Pattern::from_graph(c.pattern);
  SeparatingSpec spec;
  spec.enabled = true;
  spec.in_s.assign(c.g.num_vertices(), 1);
  spec.allowed.assign(c.g.num_vertices(), 1);
  // Forbid the first half of the vertices.
  for (Vertex v = 0; v < c.g.num_vertices() / 2; ++v) spec.allowed[v] = 0;
  const bool expect =
      oracle_separating_exists(c.g, spec.in_s, pattern, spec.allowed);
  const DpSolution sol = solve_with_spec(c.g, pattern, spec, false);
  EXPECT_EQ(sol.accepted, expect) << c.name;
}

TEST_P(SeparatingOracle, ParallelMatchesSequential) {
  const SepCase c = sep_cases()[GetParam()];
  const Pattern pattern = Pattern::from_graph(c.pattern);
  SeparatingSpec spec;
  spec.enabled = true;
  spec.in_s.assign(c.g.num_vertices(), 0);
  for (Vertex v = 0; v < c.g.num_vertices(); v += 2) spec.in_s[v] = 1;
  spec.allowed.assign(c.g.num_vertices(), 1);
  const DpSolution seq = solve_with_spec(c.g, pattern, spec, false);
  const DpSolution par = solve_with_spec(c.g, pattern, spec, true);
  ASSERT_EQ(seq.accepted, par.accepted) << c.name;
  const auto td =
      treedecomp::binarize(treedecomp::greedy_decomposition(c.g));
  for (std::size_t x = 0; x < td.num_nodes(); ++x) {
    std::set<std::pair<std::uint64_t, std::uint64_t>> a, b;
    for (const StateKey s : seq.nodes[x].states) a.insert({s.code, s.sep});
    for (const StateKey s : par.nodes[x].states) b.insert({s.code, s.sep});
    EXPECT_EQ(a, b) << c.name << " node " << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, SeparatingOracle, ::testing::Range(0, 11));

// ---- Parity-pinned path: S-bipartite targets ----

/// Targets where every edge joins S to non-S: face-vertex graphs with S =
/// the originals (the connectivity probes' setting) and grids with S = one
/// colour class.
struct BipartiteCase {
  std::string name;
  Graph g;
  std::vector<std::uint8_t> in_s;
};

BipartiteCase face_vertex_case(std::string name,
                               const planar::EmbeddedGraph& eg) {
  const planar::FaceVertexGraph fvg = planar::build_face_vertex_graph(eg);
  std::vector<std::uint8_t> in_s(fvg.graph.num_vertices(), 0);
  for (Vertex v = 0; v < fvg.num_original; ++v) in_s[v] = 1;
  return {std::move(name), fvg.graph, std::move(in_s)};
}

BipartiteCase grid_case(Vertex rows, Vertex cols) {
  std::vector<std::uint8_t> in_s(rows * cols, 0);
  for (Vertex r = 0; r < rows; ++r)
    for (Vertex c = 0; c < cols; ++c) in_s[r * cols + c] = (r + c) % 2;
  return {"grid" + std::to_string(rows) + "x" + std::to_string(cols),
          gen::grid_graph(rows, cols), std::move(in_s)};
}

std::vector<BipartiteCase> bipartite_cases() {
  std::vector<BipartiteCase> cases;
  cases.push_back(face_vertex_case("fvg_wheel4", gen::wheel(4)));
  cases.push_back(face_vertex_case("fvg_wheel5", gen::wheel(5)));
  cases.push_back(face_vertex_case("fvg_antiprism3", gen::antiprism(3)));
  cases.push_back(face_vertex_case("fvg_antiprism4", gen::antiprism(4)));
  cases.push_back(face_vertex_case("fvg_apollonian5", gen::apollonian(5, 2)));
  cases.push_back(face_vertex_case("fvg_apollonian6", gen::apollonian(6, 9)));
  cases.push_back(grid_case(3, 4));
  cases.push_back(grid_case(4, 4));
  return cases;
}

class PinnedSeparatingOracle
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PinnedSeparatingOracle, EnginesMatchBruteForce) {
  const BipartiteCase c = bipartite_cases()[std::get<0>(GetParam())];
  const int p = std::get<1>(GetParam());
  // C4, C6 and C8 are pinned; C5, P4 and K1,3 are not.
  const std::vector<std::pair<std::string, Graph>> patterns = {
      {"C4", gen::cycle_graph(4)}, {"C6", gen::cycle_graph(6)},
      {"C8", gen::cycle_graph(8)}, {"C5", gen::cycle_graph(5)},
      {"P4", gen::path_graph(4)},  {"K13", gen::star_graph(4)}};
  const Pattern pattern = Pattern::from_graph(patterns[p].second);
  const std::string name = c.name + "/" + patterns[p].first;
  SeparatingSpec spec;
  spec.enabled = true;
  spec.in_s = c.in_s;
  spec.allowed.assign(c.g.num_vertices(), 1);
  EXPECT_EQ(parity_pin(c.g, spec, pattern) != ParityPin{}, p < 3) << name;
  const bool expect =
      oracle_separating_exists(c.g, spec.in_s, pattern, spec.allowed);
  const auto td = treedecomp::binarize(treedecomp::greedy_decomposition(c.g));
  DpOptions options;
  options.spec = spec;
  EXPECT_EQ(solve_sparse(c.g, td, pattern, options).accepted, expect)
      << name << " sparse";
  EXPECT_EQ(solve_with_spec(c.g, pattern, spec, false).accepted, expect)
      << name << " sequential";
  EXPECT_EQ(solve_with_spec(c.g, pattern, spec, true).accepted, expect)
      << name << " parallel";
}

INSTANTIATE_TEST_SUITE_P(Cases, PinnedSeparatingOracle,
                         ::testing::Combine(::testing::Range(0, 8),
                                            ::testing::Range(0, 6)));

TEST(Separating, MiddleVertexOfPathSeparates) {
  // Removing the middle vertex of a path separates the endpoints.
  const Graph g = gen::path_graph(3);
  SeparatingSpec spec;
  spec.enabled = true;
  spec.in_s = {1, 0, 1};
  spec.allowed = {0, 1, 0};  // only the middle vertex may be used
  const Pattern pattern = Pattern::from_graph(gen::path_graph(1));
  EXPECT_TRUE(solve_with_spec(g, pattern, spec, false).accepted);
  // If the S vertices are on the same side, nothing separates them.
  spec.in_s = {1, 0, 0};
  EXPECT_FALSE(solve_with_spec(g, pattern, spec, false).accepted);
}

TEST(Separating, TriangleCannotBeSeparated) {
  const Graph g = gen::complete_graph(3);
  SeparatingSpec spec;
  spec.enabled = true;
  spec.in_s = {1, 1, 1};
  spec.allowed = {1, 1, 1};
  const Pattern pattern = Pattern::from_graph(gen::path_graph(1));
  EXPECT_FALSE(solve_with_spec(g, pattern, spec, false).accepted);
}

}  // namespace
}  // namespace ppsi::iso

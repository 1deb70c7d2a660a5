// Golden work pin for the three DP engines.
//
// The engines' instrumented work is the repo's deterministic cost contract:
// it counts candidate states and support combos (paper §3, Lemma 3.1), not
// how a lookup is issued. This suite records, for fixed grid, Apollonian
// and random instances in base and separating mode, the exact figures of
// solve_sequential, solve_parallel and solve_sparse:
//   * metrics.work() and metrics.rounds() per engine,
//   * the per-node valid-state counts (pinned as their total plus an
//     FNV-1a digest of the node-ordered count sequence; all three engines
//     must produce the identical sequence),
//   * the number of accepting root states,
//   * an order-sensitive fingerprint of solve_sparse's states: witnesses
//     and recovery work depend on the state indices, so the discovery
//     order of every node is pinned, not just its size.
// Any change to how the engines probe, hash or schedule must leave every
// figure unchanged. A figure that moves is a change of the work contract
// and must be justified, not re-recorded.
//
// The second table pins the same contract one level up, per ppsi::Solver
// entry point (find, find_once, list, count, find_disconnected,
// find_separating, vertex_connectivity) on fixed grid, Apollonian and
// embedded instances: the answer, the cover runs / listing iterations /
// connectivity probe runs, work, rounds, slices solved, occurrence and
// subgraph counts, and the cover misses the query caused. Refactors of the
// query layer (entry checks, the cover-run loop, sub-query forwarding) must
// reproduce every figure.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "api/solver.hpp"
#include "graph/generators.hpp"
#include "isomorphism/parallel_engine.hpp"
#include "isomorphism/pattern.hpp"
#include "isomorphism/sequential_dp.hpp"
#include "isomorphism/sparse_dp.hpp"
#include "support/rng.hpp"
#include "testing/dp_checks.hpp"
#include "testing/golden_cases.hpp"
#include "treedecomp/greedy_decomposition.hpp"

namespace ppsi::iso {
namespace {

using testing::Case;
using testing::cases;
using testing::spec_for;

struct EngineFigures {
  std::uint64_t work = 0;
  std::uint64_t rounds = 0;
};

struct Golden {
  const char* name;
  EngineFigures sequential, parallel, sparse;
  std::uint64_t states_total;
  std::uint64_t states_digest;
  std::uint64_t accepting;
  std::uint64_t sparse_order;
};

std::vector<std::uint64_t> state_counts(const DpSolution& sol) {
  std::vector<std::uint64_t> counts;
  for (const SolvedNode& node : sol.nodes)
    counts.push_back(node.states.size());
  return counts;
}

/// hash_combine over every node's states in index order, nodes in id order.
std::uint64_t state_order(const DpSolution& sol) {
  std::uint64_t h = 0;
  for (const SolvedNode& node : sol.nodes)
    for (const StateKey& s : node.states)
      h = support::hash_combine(h, support::hash_combine(s.code, s.sep));
  return h;
}

std::uint64_t fnv1a(const std::vector<std::uint64_t>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t v : values) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

constexpr Golden kGolden[] = {
    // name, {seq work, rounds}, {par work, rounds}, {sparse work, rounds},
    // states total, states digest, accepting, sparse state order
    {"grid6x6/C4", {21454, 37}, {28266, 32}, {11980, 37},
     4567, 0x5baa8d2edb4be8f0ULL, 5,
     0x1d3bd8a527f6b151ULL},
    {"grid6x6/C5", {73592, 37}, {84120, 31}, {25494, 37},
     10197, 0x72c64b3a6bd151feULL, 0,
     0xa866912ba9ec23cbULL},
    {"grid5x5/P3/sep", {156838, 25}, {159006, 28}, {10481, 25},
     3960, 0x89543048533357caULL, 2,
     0xc4e0f73802655db3ULL},
    // S is a colour class of the grid, so the C4 is parity-pinned.
    {"grid4x5/C4/sep", {71086, 20}, {72324, 28}, {2926, 20},
     1838, 0x7501f2bd033796e3ULL, 0,
     0x34a851625489389eULL},
    {"apollonian30/C4", {24960, 30}, {37054, 30}, {18390, 30},
     8108, 0x498cdbcd2f13a429ULL, 5,
     0xd65e1aebf715bb91ULL},
    {"apollonian30/K4", {23012, 30}, {31367, 30}, {13006, 30},
     6768, 0x52a9633572cf6ee9ULL, 5,
     0x77b570dd2aa4754cULL},
    {"apollonian20/C3/sep", {47950, 21}, {52940, 28}, {9044, 21},
     3998, 0xd466930e41675c14ULL, 2,
     0x31744246f1824bffULL},
    {"random3", {2817, 12}, {3124, 14}, {419, 12},
     347, 0x02994288433f4a7cULL, 0,
     0xa91697de73be43f8ULL},
    {"random11", {917, 10}, {1032, 10}, {215, 10},
     185, 0x7b12441962ad5d7cULL, 0,
     0x7d6a4aa37db477deULL},
    {"random29", {1675, 14}, {2518, 16}, {1433, 14},
     614, 0xd0f77f9158afb39bULL, 4,
     0xd49de9d348cb20b8ULL},
    {"random42", {2329, 11}, {2618, 16}, {408, 11},
     345, 0x7a1a96b28ab5f53eULL, 0,
     0x10b8a35c0a8f78d4ULL},
    {"random5/sep", {95704, 30}, {96928, 32}, {8959, 30},
     3696, 0x81b056df29c0e2a2ULL, 4,
     0x3eb7060f450f9560ULL},
    {"random17/sep", {2086, 10}, {2526, 18}, {405, 10},
     240, 0x9f03593223903bc1ULL, 2,
     0x4c3132c2d3207591ULL},
};

TEST(GoldenWork, EnginesReproduceRecordedFigures) {
  const std::vector<Case> all = cases();
  ASSERT_EQ(all.size(), std::size(kGolden));
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Case& c = all[i];
    const Golden& want = kGolden[i];
    ASSERT_EQ(c.name, want.name);
    const auto td =
        treedecomp::binarize(treedecomp::greedy_decomposition(c.g));
    DpOptions dp;
    dp.spec = spec_for(c);
    ParallelOptions par_options;
    par_options.spec = dp.spec;
    const DpSolution seq = solve_sequential(c.g, td, c.pattern, dp);
    const DpSolution par = solve_parallel(c.g, td, c.pattern, par_options);
    const DpSolution sparse = solve_sparse(c.g, td, c.pattern, dp);

    EXPECT_EQ(seq.metrics.work(), want.sequential.work) << c.name;
    EXPECT_EQ(seq.metrics.rounds(), want.sequential.rounds) << c.name;
    EXPECT_EQ(par.metrics.work(), want.parallel.work) << c.name;
    EXPECT_EQ(par.metrics.rounds(), want.parallel.rounds) << c.name;
    EXPECT_EQ(sparse.metrics.work(), want.sparse.work) << c.name;
    EXPECT_EQ(sparse.metrics.rounds(), want.sparse.rounds) << c.name;

    const std::vector<std::uint64_t> counts = state_counts(seq);
    EXPECT_EQ(state_counts(par), counts) << c.name;
    EXPECT_EQ(state_counts(sparse), counts) << c.name;
    std::uint64_t total = 0;
    for (std::uint64_t n : counts) total += n;
    EXPECT_EQ(total, want.states_total) << c.name;
    EXPECT_EQ(fnv1a(counts), want.states_digest) << c.name;

    EXPECT_EQ(seq.accepting.size(), want.accepting) << c.name;
    EXPECT_EQ(par.accepting.size(), want.accepting) << c.name;
    EXPECT_EQ(sparse.accepting.size(), want.accepting) << c.name;
    EXPECT_EQ(state_order(sparse), want.sparse_order) << c.name;
    testing::expect_reference_sig_groups(sparse, c.pattern, c.name);
  }
}

}  // namespace
}  // namespace ppsi::iso

namespace ppsi {
namespace {

using iso::Pattern;

/// One Solver query's accounting. `answer` is the found flag, or the
/// connectivity value for vertex_connectivity; `runs` is DecisionResult::
/// runs, the listing iterations, or VertexConnectivityResult::cycle_runs.
struct QueryFigures {
  std::uint64_t answer = 0;
  std::uint64_t runs = 0;
  std::uint64_t work = 0;
  std::uint64_t rounds = 0;
  std::uint64_t slices_solved = 0;
  std::uint64_t occurrences = 0;  ///< listed occurrences / counted maps
  std::uint64_t subgraphs = 0;
  std::uint64_t cover_misses = 0;  ///< Solver::cache_stats() after the query

  bool operator==(const QueryFigures&) const = default;
};

std::ostream& operator<<(std::ostream& os, const QueryFigures& f) {
  return os << "{" << f.answer << ", " << f.runs << ", " << f.work << ", "
            << f.rounds << ", " << f.slices_solved << ", " << f.occurrences
            << ", " << f.subgraphs << ", " << f.cover_misses << "}";
}

Pattern pattern_of(const Graph& g) { return Pattern::from_graph(g); }

QueryFigures figures(const Result<cover::DecisionResult>& r,
                     const Solver& solver) {
  EXPECT_TRUE(r.ok()) << r.status().to_string();
  if (!r.has_value()) return {};
  return {r->found, r->runs, r->metrics.work(), r->metrics.rounds(),
          r->slices_solved, 0, 0, solver.cache_stats().cover_misses};
}

QueryFigures figures(const Result<cover::ListingResult>& r,
                     const Solver& solver) {
  EXPECT_TRUE(r.ok()) << r.status().to_string();
  if (!r.has_value()) return {};
  return {0, r->iterations, r->metrics.work(), r->metrics.rounds(), 0,
          r->occurrences.size(), 0, solver.cache_stats().cover_misses};
}

QueryFigures figures(const Result<cover::CountResult>& r,
                     const Solver& solver) {
  EXPECT_TRUE(r.ok()) << r.status().to_string();
  if (!r.has_value()) return {};
  return {0, r->iterations, r->metrics.work(), r->metrics.rounds(), 0,
          r->assignments, r->subgraphs, solver.cache_stats().cover_misses};
}

QueryFigures figures(
    const Result<connectivity::VertexConnectivityResult>& r,
    const Solver& solver) {
  EXPECT_TRUE(r.ok()) << r.status().to_string();
  if (!r.has_value()) return {};
  return {r->connectivity, r->cycle_runs, r->metrics.work(),
          r->metrics.rounds(), 0, 0, 0, solver.cache_stats().cover_misses};
}

/// Every third target vertex marked as S.
std::vector<std::uint8_t> every_third(const Graph& g) {
  std::vector<std::uint8_t> in_s(g.num_vertices(), 0);
  for (Vertex v = 0; v < g.num_vertices(); v += 3) in_s[v] = 1;
  return in_s;
}

struct SolverCase {
  const char* name;
  QueryFigures (*run)();
};

QueryOptions runs(std::uint32_t max_runs, std::uint64_t seed = 1) {
  QueryOptions opts;
  opts.max_runs = max_runs;
  opts.seed = seed;
  return opts;
}

const SolverCase kSolverCases[] = {
    {"find/grid8x8/C4",
     [] {
       Solver s(gen::grid_graph(8, 8));
       return figures(s.find(pattern_of(gen::cycle_graph(4))), s);
     }},
    {"find/grid8x8/C5",
     [] {
       Solver s(gen::grid_graph(8, 8));
       return figures(s.find(pattern_of(gen::cycle_graph(5)), runs(4)), s);
     }},
    {"find/apollonian40/K4",
     [] {
       Solver s(gen::apollonian(40, 7).graph());
       return figures(s.find(pattern_of(gen::complete_graph(4))), s);
     }},
    {"find/apollonian40/C6/warm",
     [] {
       // The second query hits every cover the first one built.
       Solver s(gen::apollonian(40, 7).graph());
       const Pattern c6 = pattern_of(gen::cycle_graph(6));
       (void)s.find(c6, runs(3, 5));
       return figures(s.find(c6, runs(3, 5)), s);
     }},
    {"find_once/grid8x8/C4",
     [] {
       Solver s(gen::grid_graph(8, 8));
       return figures(s.find_once(pattern_of(gen::cycle_graph(4)), 9), s);
     }},
    {"find_once/apollonian40/C5",
     [] {
       Solver s(gen::apollonian(40, 7).graph());
       return figures(s.find_once(pattern_of(gen::cycle_graph(5)), 9), s);
     }},
    {"list/grid6x6/C4",
     [] {
       Solver s(gen::grid_graph(6, 6));
       return figures(s.list(pattern_of(gen::cycle_graph(4)), runs(0, 11)),
                      s);
     }},
    {"list/apollonian20/C3",
     [] {
       Solver s(gen::apollonian(20, 3).graph());
       return figures(s.list(pattern_of(gen::cycle_graph(3)), runs(0, 4)),
                      s);
     }},
    {"count/grid6x6/P3",
     [] {
       Solver s(gen::grid_graph(6, 6));
       return figures(s.count(pattern_of(gen::path_graph(3)), runs(0, 5)), s);
     }},
    {"count/apollonian20/C4",
     [] {
       Solver s(gen::apollonian(20, 3).graph());
       return figures(s.count(pattern_of(gen::cycle_graph(4)), runs(0, 5)),
                      s);
     }},
    {"find_disconnected/grid6x6/2xP2",
     [] {
       Solver s(gen::grid_graph(6, 6));
       const Graph two_edges =
           gen::disjoint_union({gen::path_graph(2), gen::path_graph(2)});
       return figures(s.find_disconnected(pattern_of(two_edges), runs(6)), s);
     }},
    {"find_disconnected/grid6x6/2xC3",
     [] {
       Solver s(gen::grid_graph(6, 6));
       const Graph two_triangles =
           gen::disjoint_union({gen::cycle_graph(3), gen::cycle_graph(3)});
       return figures(
           s.find_disconnected(pattern_of(two_triangles), runs(3)), s);
     }},
    {"find_separating/grid6x6/C4",
     [] {
       const Graph g = gen::grid_graph(6, 6);
       Solver s(g);
       return figures(s.find_separating(every_third(g),
                                        pattern_of(gen::cycle_graph(4)),
                                        runs(4)),
                      s);
     }},
    {"find_separating/apollonian20/C3",
     [] {
       const Graph g = gen::apollonian(20, 3).graph();
       Solver s(g);
       return figures(s.find_separating(every_third(g),
                                        pattern_of(gen::cycle_graph(3)),
                                        runs(4)),
                      s);
     }},
    {"vertex_connectivity/embedded_grid5x5",
     [] {
       Solver s(gen::embedded_grid(5, 5));
       return figures(s.vertex_connectivity(runs(4)), s);
     }},
    {"vertex_connectivity/apollonian30",
     [] {
       Solver s(gen::apollonian(30, 7));
       return figures(s.vertex_connectivity(runs(4)), s);
     }},
    {"vertex_connectivity/icosahedron",
     [] {
       Solver s(gen::icosahedron());
       return figures(s.vertex_connectivity(runs(2)), s);
     }},
};

constexpr QueryFigures kSolverGolden[] = {
    // answer, runs, work, rounds, slices_solved, occurrences, subgraphs,
    // cover_misses
    {1, 1, 926, 15, 1, 0, 0, 1},          // find/grid8x8/C4
    {0, 4, 88628, 173, 36, 0, 0, 4},      // find/grid8x8/C5
    {1, 1, 2976, 15, 1, 0, 0, 1},         // find/apollonian40/K4
    {1, 1, 142204, 35, 1, 0, 0, 1},       // find/apollonian40/C6/warm
    {1, 1, 2123, 25, 1, 0, 0, 1},         // find_once/grid8x8/C4
    {1, 1, 16297, 18, 1, 0, 0, 1},        // find_once/apollonian40/C5
    {0, 15, 94966, 403, 0, 200, 0, 15},   // list/grid6x6/C4
    {0, 14, 51176, 271, 0, 312, 0, 14},   // list/apollonian20/C3
    {0, 15, 64062, 383, 0, 296, 148, 15},   // count/grid6x6/P3
    {0, 15, 227242, 333, 0, 1024, 128, 15},  // count/apollonian20/C4
    {1, 1, 188, 35, 2, 0, 0, 0},          // find_disconnected/grid6x6/2xP2
    {0, 3, 3116, 220, 47, 0, 0, 0},       // find_disconnected/grid6x6/2xC3
    {0, 4, 80895, 141, 26, 0, 0, 4},      // find_separating/grid6x6/C4
    {1, 1, 5121, 18, 1, 0, 0, 1},         // find_separating/apollonian20/C3
    // The face-vertex probes are parity-pinned.
    {2, 1, 1946, 42, 0, 0, 0, 1},         // vertex_connectivity/grid5x5
    {3, 5, 158039, 395, 0, 0, 0, 5},      // vertex_connectivity/apollonian30
    {5, 6, 1235298, 232, 0, 0, 0, 6},     // vertex_connectivity/icosahedron
};

TEST(GoldenWork, SolverEntryPointsReproduceRecordedFigures) {
  ASSERT_EQ(std::size(kSolverCases), std::size(kSolverGolden));
  for (std::size_t i = 0; i < std::size(kSolverCases); ++i) {
    const QueryFigures got = kSolverCases[i].run();
    EXPECT_EQ(got, kSolverGolden[i]) << kSolverCases[i].name;
  }
}

}  // namespace
}  // namespace ppsi

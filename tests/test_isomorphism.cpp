// Core DP tests: partial-match encoding, local enumeration, the sequential
// DP against the brute-force oracle (decision AND full listing), the
// parallel engine's exact equivalence, and witness recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>

#include "baseline/ullmann.hpp"
#include "graph/generators.hpp"
#include "isomorphism/dp_plan.hpp"
#include "isomorphism/parallel_engine.hpp"
#include "isomorphism/pattern.hpp"
#include "isomorphism/sequential_dp.hpp"
#include "isomorphism/sparse_dp.hpp"
#include "testing/dp_checks.hpp"
#include "testing/golden_cases.hpp"
#include "testing/witness_checks.hpp"
#include "treedecomp/greedy_decomposition.hpp"

namespace ppsi::iso {
namespace {

treedecomp::TreeDecomposition decomposition_of(const Graph& g) {
  return treedecomp::binarize(treedecomp::greedy_decomposition(g));
}

using Engine = DpSolution (*)(const Graph&,
                              const treedecomp::TreeDecomposition&,
                              const Pattern&, const DpOptions&);

// ---- Codec ----

TEST(StateCodec, RoundTripsFields) {
  const StateCodec codec = StateCodec::make(5, 10);
  std::uint64_t code = 0;
  code = codec.set(code, 0, kStateU);
  code = codec.set(code, 1, kStateC);
  code = codec.set(code, 2, kStateMapped + 7);
  code = codec.set(code, 3, kStateMapped + 0);
  code = codec.set(code, 4, kStateMapped + 9);
  EXPECT_EQ(codec.get(code, 0), kStateU);
  EXPECT_EQ(codec.get(code, 1), kStateC);
  EXPECT_EQ(codec.get(code, 2), kStateMapped + 7);
  EXPECT_EQ(codec.get(code, 3), kStateMapped + 0);
  EXPECT_EQ(codec.get(code, 4), kStateMapped + 9);
  const StateView view = view_of(codec, code);
  EXPECT_EQ(view.u_mask, 0b00001u);
  EXPECT_EQ(view.c_mask, 0b00010u);
  EXPECT_EQ(view.mapped_mask, 0b11100u);
  EXPECT_EQ(view.image_mask, (1ull << 7) | 1ull | (1ull << 9));
}

TEST(StateCodec, RejectsOversizedCombination) {
  EXPECT_THROW(StateCodec::make(16, 62), std::invalid_argument);
  EXPECT_NO_THROW(StateCodec::make(16, 14));
  EXPECT_NO_THROW(StateCodec::make(8, 62));
}

TEST(StateCodec, BoundaryAtExactlySixtyFourBits) {
  // bits = ceil(log2(max_bag + 2)); the codec must accept k * bits == 64
  // exactly and reject the first bag width that pushes past it.
  const StateCodec full = StateCodec::make(16, 14);  // bits 4 -> 64 bits
  EXPECT_EQ(full.bits * full.k, 64u);
  EXPECT_THROW(StateCodec::make(16, 15), std::invalid_argument);  // bits 5
  EXPECT_NO_THROW(StateCodec::make(8, 254));  // bits 8 -> 64 bits
  EXPECT_THROW(StateCodec::make(8, 255), std::invalid_argument);  // bits 9
  // The top field of a full-width codec round-trips without clobbering
  // its neighbors (a shift/mask bug at the 64-bit edge would).
  std::uint64_t code = 0;
  code = full.set(code, 15, kStateMapped + 13);
  code = full.set(code, 14, kStateC);
  code = full.set(code, 0, kStateMapped + 2);
  EXPECT_EQ(full.get(code, 15), kStateMapped + 13);
  EXPECT_EQ(full.get(code, 14), kStateC);
  EXPECT_EQ(full.get(code, 0), kStateMapped + 2);
}

TEST(Pattern, MasksAndDiameter) {
  const Pattern p = Pattern::from_graph(gen::cycle_graph(6));
  EXPECT_EQ(p.size(), 6u);
  EXPECT_TRUE(p.is_connected());
  EXPECT_EQ(p.diameter(), 3u);
  EXPECT_EQ(p.adj_mask(0), (1u << 1) | (1u << 5));
  const Pattern d = Pattern::from_graph(
      gen::disjoint_union({gen::path_graph(2), gen::cycle_graph(3)}));
  EXPECT_FALSE(d.is_connected());
  EXPECT_EQ(d.components().size(), 2u);
  EXPECT_EQ(d.diameter(), 1u);
}

// ---- Local enumeration ----

TEST(Enumeration, AllEmittedStatesAreLocallyValid) {
  const Graph g = gen::grid_graph(3, 3);
  const Pattern pattern = Pattern::from_graph(gen::path_graph(3));
  const StateCodec codec = StateCodec::make(3, 5);
  const BagContext ctx =
      make_bag_context(g, {0, 1, 3, 4}, SeparatingSpec::disabled());
  std::size_t count = 0;
  enumerate_local_states(pattern, ctx, codec, false, [&](StateKey key) {
    ++count;
    EXPECT_TRUE(locally_valid(pattern, ctx, codec, false, key));
  });
  EXPECT_GT(count, 0u);
  // Upper bound (|bag|+2)^k.
  EXPECT_LE(count, 6u * 6u * 6u);
}

TEST(Enumeration, MatchesDirectFilterCount) {
  // Enumerate by brute force over all (b+2)^k codes and compare counts.
  const Graph g = gen::cycle_graph(5);
  const Pattern pattern = Pattern::from_graph(gen::path_graph(3));
  const StateCodec codec = StateCodec::make(3, 5);
  const BagContext ctx =
      make_bag_context(g, {0, 1, 2, 4}, SeparatingSpec::disabled());
  std::set<std::uint64_t> enumerated;
  enumerate_local_states(pattern, ctx, codec, false, [&](StateKey key) {
    EXPECT_TRUE(enumerated.insert(key.code).second) << "duplicate state";
  });
  std::size_t direct = 0;
  const std::uint64_t values = 2 + ctx.size();
  for (std::uint64_t a = 0; a < values; ++a)
    for (std::uint64_t b = 0; b < values; ++b)
      for (std::uint64_t c = 0; c < values; ++c) {
        std::uint64_t code = 0;
        code = codec.set(code, 0, a);
        code = codec.set(code, 1, b);
        code = codec.set(code, 2, c);
        if (locally_valid(pattern, ctx, codec, false, {code, 0})) ++direct;
      }
  EXPECT_EQ(enumerated.size(), direct);
}

// ---- Parity pin ----

/// Separating spec over grid_graph(rows, cols) with S = one colour class
/// and every vertex allowed.
SeparatingSpec colour_class_spec(Vertex rows, Vertex cols) {
  SeparatingSpec spec;
  spec.enabled = true;
  spec.allowed.assign(rows * cols, 1);
  spec.in_s.assign(rows * cols, 0);
  for (Vertex r = 0; r < rows; ++r)
    for (Vertex c = 0; c < cols; ++c) spec.in_s[r * cols + c] = (r + c) % 2;
  return spec;
}

TEST(ParityPin, PinsRelabelledEvenCycles) {
  const Graph g = gen::grid_graph(3, 4);
  const SeparatingSpec spec = colour_class_spec(3, 4);
  support::Rng rng(17);
  for (const Vertex k : {4u, 6u, 8u}) {
    for (int trial = 0; trial < 5; ++trial) {
      // Cycle order[0] - order[1] - ... - order[k-1] - order[0].
      std::vector<Vertex> order(k);
      std::iota(order.begin(), order.end(), 0);
      for (Vertex i = k - 1; i > 0; --i)
        std::swap(order[i], order[rng.next_below(i + 1)]);
      EdgeList edges;
      for (Vertex i = 0; i < k; ++i)
        edges.emplace_back(order[i], order[(i + 1) % k]);
      const Pattern pattern = Pattern::from_graph(Graph::from_edges(k, edges));
      const auto at = std::find(order.begin(), order.end(), 0u) - order.begin();
      std::uint32_t even = 0;  // the cycle class of pattern vertex 0
      for (Vertex i = 0; i < k; ++i)
        if ((i + k - at) % 2 == 0) even |= 1u << order[i];
      const ParityPin pin = parity_pin(g, spec, pattern);
      EXPECT_EQ(pin.in_s, even) << "C" << k << " trial " << trial;
      EXPECT_EQ(pin.out_s, ((1u << k) - 1) & ~even);
    }
  }
}

TEST(ParityPin, FiresOnlyOnEvenCyclesOverBipartiteAllowedEdges) {
  const Graph g = gen::grid_graph(3, 4);
  const SeparatingSpec spec = colour_class_spec(3, 4);
  const auto pin_of = [&](const Graph& pattern, const SeparatingSpec& sp) {
    return parity_pin(g, sp, Pattern::from_graph(pattern));
  };
  const ParityPin none{};
  EXPECT_NE(pin_of(gen::cycle_graph(4), spec), none);
  EXPECT_EQ(pin_of(gen::cycle_graph(5), spec), none);
  EXPECT_EQ(pin_of(gen::path_graph(4), spec), none);
  EXPECT_EQ(pin_of(gen::star_graph(4), spec), none);  // K1,3
  EXPECT_EQ(pin_of(gen::disjoint_union(
                       {gen::cycle_graph(4), gen::cycle_graph(4)}),
                   spec),
            none);
  EXPECT_EQ(pin_of(gen::cycle_graph(4), SeparatingSpec::disabled()), none);
  // Moving grid corner 0 into S gives it S-S edges to both neighbours:
  // parity breaks while vertex 0 may be an image, and holds again once it
  // may not (it then acts like a contracted blob).
  SeparatingSpec ss = spec;
  ss.in_s[0] = 1;
  EXPECT_EQ(pin_of(gen::cycle_graph(4), ss), none);
  ss.allowed[0] = 0;
  EXPECT_NE(pin_of(gen::cycle_graph(4), ss), none);
}

TEST(ParityPin, EnumerationKeepsExactlyThePinnedStates) {
  const Graph g = gen::grid_graph(3, 4);
  const SeparatingSpec spec = colour_class_spec(3, 4);
  const Pattern pattern = Pattern::from_graph(gen::cycle_graph(4));
  const ParityPin pin = parity_pin(g, spec, pattern);
  ASSERT_NE(pin, ParityPin{});
  const BagContext ctx = make_bag_context(g, {0, 1, 4, 5, 6}, spec, pin);
  BagContext unpinned = ctx;
  unpinned.pin = {};
  const StateCodec codec = StateCodec::make(pattern.size(), ctx.size());
  const auto satisfies_pin = [&](StateKey key) {
    for (std::uint32_t v = 0; v < codec.k; ++v) {
      const std::uint64_t val = codec.get(key.code, v);
      if (val < kStateMapped) continue;
      const bool in_s = (ctx.s_mask >> (val - kStateMapped)) & 1ULL;
      if (((pin.in_s >> v) & 1u) != 0 && !in_s) return false;
      if (((pin.out_s >> v) & 1u) != 0 && in_s) return false;
    }
    return true;
  };
  std::set<std::pair<std::uint64_t, std::uint64_t>> pinned, expected;
  enumerate_local_states(pattern, ctx, codec, true, [&](StateKey key) {
    pinned.insert({key.code, key.sep});
  });
  std::size_t dropped = 0;
  enumerate_local_states(pattern, unpinned, codec, true, [&](StateKey key) {
    const bool keep = satisfies_pin(key);
    EXPECT_EQ(locally_valid(pattern, ctx, codec, true, key), keep);
    if (keep) {
      expected.insert({key.code, key.sep});
    } else {
      ++dropped;
    }
  });
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(pinned, expected);
}

// ---- DP vs brute force (the central property test) ----

struct DpCase {
  std::string target_name;
  std::string pattern_name;
};

std::vector<std::pair<std::string, Graph>> dp_targets() {
  return {
      {"grid3x3", gen::grid_graph(3, 3)},
      {"grid4x4", gen::grid_graph(4, 4)},
      {"path7", gen::path_graph(7)},
      {"cycle8", gen::cycle_graph(8)},
      {"k4", gen::complete_graph(4)},
      {"star7", gen::star_graph(7)},
      {"tree12", gen::random_tree(12, 5)},
      {"apollonian10", gen::apollonian(10, 7).graph()},
      {"octahedron", gen::octahedron().graph()},
      {"wheel6", gen::wheel(6).graph()},
      {"gnp10", gen::gnp(10, 0.3, 3)},
      {"gnp12", gen::gnp(12, 0.25, 9)},
  };
}

std::vector<std::pair<std::string, Graph>> dp_patterns() {
  return {
      {"p2", gen::path_graph(2)},    {"p3", gen::path_graph(3)},
      {"p4", gen::path_graph(4)},    {"c3", gen::cycle_graph(3)},
      {"c4", gen::cycle_graph(4)},   {"c5", gen::cycle_graph(5)},
      {"c6", gen::cycle_graph(6)},   {"k4", gen::complete_graph(4)},
      {"star4", gen::star_graph(4)}, {"tree5", gen::random_tree(5, 11)},
  };
}

class DpOracle
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DpOracle, SequentialMatchesBruteForceListing) {
  const auto& [ti, pi] = GetParam();
  const auto all_targets = dp_targets();
  const auto all_patterns = dp_patterns();
  const auto& [tname, g] = all_targets[ti];
  const auto& [pname, h] = all_patterns[pi];
  const Pattern pattern = Pattern::from_graph(h);
  const auto td = decomposition_of(g);
  ASSERT_TRUE(td.validate(g));
  const DpSolution sol = solve_sequential(g, td, pattern, {});
  const auto expect = baseline::brute_force_list(g, pattern, 1 << 20);
  EXPECT_EQ(sol.accepted, !expect.empty()) << tname << " " << pname;
  const auto got = recover_assignments(sol, td, 1 << 20);
  const std::set<Assignment> a(got.begin(), got.end());
  const std::set<Assignment> b(expect.begin(), expect.end());
  EXPECT_EQ(a, b) << tname << " " << pname;
}

TEST_P(DpOracle, ParallelEngineIsBitIdentical) {
  const auto& [ti, pi] = GetParam();
  const auto all_targets = dp_targets();
  const auto all_patterns = dp_patterns();
  const auto& [tname, g] = all_targets[ti];
  const auto& [pname, h] = all_patterns[pi];
  const Pattern pattern = Pattern::from_graph(h);
  const auto td = decomposition_of(g);
  const DpSolution seq = solve_sequential(g, td, pattern, {});
  ParallelStats stats;
  const DpSolution par = solve_parallel(g, td, pattern, {}, &stats);
  ASSERT_EQ(seq.accepted, par.accepted) << tname << " " << pname;
  for (std::size_t x = 0; x < td.num_nodes(); ++x) {
    std::set<std::pair<std::uint64_t, std::uint64_t>> a, b;
    for (const StateKey s : seq.nodes[x].states) a.insert({s.code, s.sep});
    for (const StateKey s : par.nodes[x].states) b.insert({s.code, s.sep});
    EXPECT_EQ(a, b) << tname << " " << pname << " node " << x;
  }
  EXPECT_GT(stats.num_layers, 0u);
}

TEST_P(DpOracle, SparseEngineIsBitIdentical) {
  const auto& [ti, pi] = GetParam();
  const auto all_targets = dp_targets();
  const auto all_patterns = dp_patterns();
  const auto& [tname, g] = all_targets[ti];
  const auto& [pname, h] = all_patterns[pi];
  const Pattern pattern = Pattern::from_graph(h);
  const auto td = decomposition_of(g);
  const DpSolution seq = solve_sequential(g, td, pattern, {});
  const DpSolution sparse = solve_sparse(g, td, pattern, {});
  ASSERT_EQ(seq.accepted, sparse.accepted) << tname << " " << pname;
  for (std::size_t x = 0; x < td.num_nodes(); ++x) {
    std::set<std::pair<std::uint64_t, std::uint64_t>> a, b;
    for (const StateKey s : seq.nodes[x].states) a.insert({s.code, s.sep});
    for (const StateKey s : sparse.nodes[x].states) b.insert({s.code, s.sep});
    EXPECT_EQ(a, b) << tname << " " << pname << " node " << x;
  }
  // Sparse must never do more work than the exhaustive engine.
  EXPECT_LE(sparse.metrics.work(), seq.metrics.work() * 2 + 1000)
      << tname << " " << pname;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DpOracle,
    ::testing::Combine(::testing::Range(0, 12), ::testing::Range(0, 10)));

// ---- Shortcut ablation: reachability identical with and without ----

TEST(Shortcuts, DoNotChangeValidStates) {
  const Graph g = gen::path_graph(60);  // long path => long decomposition
  const Pattern pattern = Pattern::from_graph(gen::path_graph(4));
  const auto td = decomposition_of(g);
  ParallelOptions with, without;
  without.use_shortcuts = false;
  ParallelStats s1, s2;
  const DpSolution a = solve_parallel(g, td, pattern, with, &s1);
  const DpSolution b = solve_parallel(g, td, pattern, without, &s2);
  ASSERT_EQ(a.accepted, b.accepted);
  for (std::size_t x = 0; x < td.num_nodes(); ++x)
    EXPECT_EQ(a.nodes[x].states.size(), b.nodes[x].states.size());
  EXPECT_GT(s1.shortcut_edges, 0u);
  EXPECT_EQ(s2.shortcut_edges, 0u);
  // Shortcuts must reduce rounds on a long path.
  EXPECT_LT(s1.bfs_rounds, s2.bfs_rounds);
}

// ---- DpPlan ----

// A plan holds what every solve over a slice reads besides the pattern.
// Each piece must equal what the reference helpers compute from the
// source decomposition, node by node.
TEST(DpPlan, MatchesTheReferenceHelpersOnTheGoldenFixtures) {
  for (const testing::Case& c : testing::cases()) {
    const auto td = decomposition_of(c.g);
    const SeparatingSpec spec = testing::spec_for(c);
    const DpPlan plan(c.g, td, spec);
    ASSERT_EQ(plan.num_nodes(), td.num_nodes()) << c.name;
    EXPECT_EQ(plan.root(), td.root) << c.name;
    EXPECT_TRUE(std::ranges::equal(plan.bottom_up(),
                                   treedecomp::bottom_up_order(td)))
        << c.name;
    EXPECT_EQ(plan.separating(), spec.enabled) << c.name;
    EXPECT_EQ(plan.alternating(), allowed_edges_alternate(c.g, spec))
        << c.name;
    std::vector<BagContext> ref;
    std::size_t widest = 1;
    for (const auto& bag : td.bags) {
      ref.push_back(make_bag_context(c.g, bag, spec));
      widest = std::max(widest, bag.size());
    }
    EXPECT_EQ(plan.max_bag(), widest) << c.name;
    for (treedecomp::NodeId x = 0; x < td.num_nodes(); ++x) {
      const std::string at = c.name + " node " + std::to_string(x);
      const BagView got = plan.context(x);
      const BagContext& want = ref[x];
      ASSERT_TRUE(std::ranges::equal(got.vertices, want.vertices)) << at;
      ASSERT_TRUE(std::equal(want.gadj.begin(), want.gadj.end(), got.gadj))
          << at;
      EXPECT_EQ(got.allowed_mask, want.allowed_mask) << at;
      EXPECT_EQ(got.s_mask, want.s_mask) << at;
      EXPECT_EQ(got.all_mask, want.all_mask) << at;
      EXPECT_EQ(got.pin, ParityPin{}) << at;
      EXPECT_EQ(plan.parent(x), td.parent[x]) << at;
      EXPECT_TRUE(std::ranges::equal(plan.children(x), td.children[x])) << at;
      const treedecomp::NodeId parent = td.parent[x];
      if (parent == treedecomp::kNoNode) {
        EXPECT_EQ(plan.shared_with_parent(x), 0u) << at;
        continue;
      }
      EXPECT_EQ(plan.shared_with_parent(x),
                shared_position_mask(ref[parent], want))
          << at;
      const PositionMap map = make_position_map(want, ref[parent]);
      EXPECT_TRUE(std::equal(plan.to_parent(x),
                             plan.to_parent(x) + want.size(),
                             map.to_parent.begin()))
          << at;
    }
  }
}

using PlanEngine = DpSolution (*)(const std::shared_ptr<const DpPlan>&,
                                  const Pattern&, const DpOptions&);

DpSolution parallel_over_td(const Graph& g,
                            const treedecomp::TreeDecomposition& td,
                            const Pattern& pattern, const DpOptions& options) {
  ParallelOptions par;
  static_cast<DpOptions&>(par) = options;
  return solve_parallel(g, td, pattern, par);
}

DpSolution parallel_over_plan(const std::shared_ptr<const DpPlan>& plan,
                              const Pattern& pattern,
                              const DpOptions& options) {
  ParallelOptions par;
  static_cast<DpOptions&>(par) = options;
  return solve_parallel(plan, pattern, par);
}

// The Solver caches one plan per slice and solves every pattern over it.
// One plan reused for two patterns must give each pattern what a solve
// over its own decomposition gives: the same states in the same order,
// signature groups, accepting states, work and rounds, on every engine.
TEST(DpPlan, OnePlanServesTwoPatternsOnEveryEngine) {
  const std::pair<PlanEngine, Engine> engines[] = {
      {&solve_sequential, &solve_sequential},
      {&solve_sparse, &solve_sparse},
      {&parallel_over_plan, &parallel_over_td},
  };
  const Pattern other = Pattern::from_graph(gen::path_graph(3));
  for (const testing::Case& c : testing::cases()) {
    const auto td = decomposition_of(c.g);
    DpOptions options;
    options.spec = testing::spec_for(c);
    const auto plan = std::make_shared<const DpPlan>(c.g, td, options.spec);
    for (const auto& [over_plan, over_td] : engines) {
      for (const Pattern* pattern : {&c.pattern, &other}) {
        const std::string at =
            c.name + " k " + std::to_string(pattern->size());
        const DpSolution got = over_plan(plan, *pattern, options);
        const DpSolution want = over_td(c.g, td, *pattern, options);
        EXPECT_EQ(got.plan, plan) << at;
        EXPECT_EQ(got.metrics.work(), want.metrics.work()) << at;
        EXPECT_EQ(got.metrics.rounds(), want.metrics.rounds()) << at;
        EXPECT_EQ(got.accepting, want.accepting) << at;
        ASSERT_EQ(got.nodes.size(), want.nodes.size()) << at;
        for (std::size_t x = 0; x < want.nodes.size(); ++x) {
          const std::string node = at + " node " + std::to_string(x);
          ASSERT_TRUE(std::ranges::equal(got.nodes[x].states,
                                         want.nodes[x].states))
              << node;
          testing::expect_same_sig_groups(got.nodes[x], want.nodes[x],
                                          node);
        }
      }
    }
  }
}

TEST(Recovery, WitnessesAreRealOccurrences) {
  const Graph g = gen::apollonian(30, 2).graph();
  const Pattern pattern = Pattern::from_graph(gen::cycle_graph(4));
  const auto td = decomposition_of(g);
  const DpSolution sol = solve_sequential(g, td, pattern, {});
  ASSERT_TRUE(sol.accepted);
  const auto assignments = recover_assignments(sol, td, 50);
  ASSERT_FALSE(assignments.empty());
  for (const Assignment& a : assignments)
    testing::expect_valid_embedding(g, pattern, a, "recovered witness");
}

TEST(Recovery, LimitIsRespected) {
  const Graph g = gen::grid_graph(5, 5);
  const Pattern pattern = Pattern::from_graph(gen::path_graph(2));
  const auto td = decomposition_of(g);
  const DpSolution sol = solve_sequential(g, td, pattern, {});
  EXPECT_LE(recover_assignments(sol, td, 7).size(), 7u);
}

TEST(Recovery, TinyLimitBoundsWork) {
  // High-multiplicity instance: a 2-path has one occurrence per directed
  // edge of the grid. The cap must be enforced during accumulation, so a
  // tiny limit performs a small fraction of the full expansion work.
  const Graph g = gen::grid_graph(6, 6);
  const Pattern pattern = Pattern::from_graph(gen::path_graph(2));
  const auto td = decomposition_of(g);
  const DpSolution sol = solve_sequential(g, td, pattern, {});
  ASSERT_TRUE(sol.accepted);
  std::uint64_t work_small = 0, work_full = 0;
  EXPECT_EQ(recover_assignments(sol, td, 2, &work_small).size(), 2u);
  const auto all = recover_assignments(sol, td, 1 << 20, &work_full);
  EXPECT_EQ(all.size(), 120u);  // 2 * 60 grid edges
  EXPECT_GT(work_small, 0u);
  EXPECT_LT(work_small * 4, work_full);
}

TEST(DpEdgeCases, SingleVertexPatternAndTarget) {
  const Graph g = Graph::from_edges(1, {});
  const Pattern pattern = Pattern::from_graph(Graph::from_edges(1, {}));
  const auto td = decomposition_of(g);
  const DpSolution sol = solve_sequential(g, td, pattern, {});
  EXPECT_TRUE(sol.accepted);
  EXPECT_EQ(recover_assignments(sol, td, 10).size(), 1u);
}

TEST(DpEdgeCases, PatternLargerThanTarget) {
  const Graph g = gen::path_graph(3);
  const Pattern pattern = Pattern::from_graph(gen::path_graph(5));
  const auto td = decomposition_of(g);
  EXPECT_FALSE(solve_sequential(g, td, pattern, {}).accepted);
}

// ---- Scratch reuse ----

// The engines stage every node's states through thread-local scratch. A
// solve on a thread that has just solved a larger instance must equal the
// same solve on a fresh thread: same states in the same order per node,
// same accepting root states, same work and rounds.
// A solve that throws mid-node: a one-bag decomposition of a 25-leaf
// star (centre at position 0) with a separating K1 pattern. The sparse
// engine emits the two all-unmapped states, then mapping the centre
// leaves 25 free components and trips its 24-component limit.
void throw_mid_node(const Engine engine) {
  const Graph star = gen::star_graph(26);
  treedecomp::TreeDecomposition td;
  td.bags.emplace_back(26);
  std::iota(td.bags[0].begin(), td.bags[0].end(), Vertex{0});
  td.parent = {treedecomp::kNoNode};
  td.root = 0;
  td.finalize();
  DpOptions options;
  options.spec.enabled = true;
  options.spec.allowed.assign(26, 1);
  options.spec.in_s.assign(26, 1);
  options.spec.in_s[0] = 0;
  const Pattern k1 = Pattern::from_graph(gen::complete_graph(1));
  EXPECT_THROW(engine(star, td, k1, options), std::invalid_argument);
}

TEST(ScratchReuse, SmallSolveAfterLargeMatchesAFreshThread) {
  const Graph large = gen::grid_graph(6, 6);
  const Graph small = gen::grid_graph(3, 4);
  const Pattern cycle6 = Pattern::from_graph(gen::cycle_graph(6));
  const Pattern path3 = Pattern::from_graph(gen::path_graph(3));
  const auto large_td = decomposition_of(large);
  const auto small_td = decomposition_of(small);
  // Base mode (spec off) runs the path solve's translation lookups into
  // its per-path-node candidate sets; separating mode runs the labelled
  // states through the same sets.
  for (const Engine engine : std::initializer_list<Engine>{
           &solve_sparse, &solve_sequential, &parallel_over_td}) {
    for (const bool separating : {false, true}) {
      SCOPED_TRACE(separating ? "separating" : "base");
      DpOptions large_options;
      DpOptions small_options;
      if (separating) {
        large_options.spec = colour_class_spec(6, 6);
        small_options.spec = colour_class_spec(3, 4);
      }
      engine(large, large_td, cycle6, large_options);
      // The sparse engine's scratch dedup set must not carry the thrown
      // node's states into the next solve.
      if (engine == static_cast<Engine>(&solve_sparse)) throw_mid_node(engine);
      const DpSolution reused = engine(small, small_td, path3, small_options);
      DpSolution fresh;
      std::thread([&] {
        fresh = engine(small, small_td, path3, small_options);
      }).join();
      ASSERT_EQ(reused.nodes.size(), fresh.nodes.size());
      for (std::size_t x = 0; x < fresh.nodes.size(); ++x) {
        const std::string context = "node " + std::to_string(x);
        EXPECT_TRUE(std::ranges::equal(reused.nodes[x].states,
                                       fresh.nodes[x].states))
            << context;
        testing::expect_same_sig_groups(reused.nodes[x], fresh.nodes[x],
                                        context);
      }
      EXPECT_TRUE(fresh.accepted);
      EXPECT_EQ(reused.accepting, fresh.accepting);
      EXPECT_EQ(reused.metrics.work(), fresh.metrics.work());
      EXPECT_EQ(reused.metrics.rounds(), fresh.metrics.rounds());
    }
  }
}

}  // namespace
}  // namespace ppsi::iso

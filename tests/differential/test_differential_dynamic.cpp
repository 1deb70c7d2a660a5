// Differential test: incremental maintenance against cold rebuilds.
//
// Per seeded instance, a *dynamic* Solver starts from a base target, warms
// its cover cache, then commits a randomized edit script. The oracle is a
// cold Solver constructed directly on the edited target: every query —
// find, list, count, and (on embedded instances) vertex_connectivity —
// must return bit-identical results *and* bit-identical instrumented work
// on both, because incremental maintenance rebuilds covers from the pinned
// version's graph and only shares the memoized per-slice tree
// decompositions (deterministic functions of the slices). CacheStats keeps
// the honesty check: for local edits the incremental rebuild redoes
// strictly fewer slice decompositions than the cold build, while a
// version pinned before the edit still answers exactly like a fresh
// Solver on the unedited base. ctest runs this suite under
// OMP_NUM_THREADS=1 and =4 (.omp1/.omp4); CI adds a 2-thread run and a
// TSan pass.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "api/dynamic.hpp"
#include "api/solver.hpp"
#include "graph/components.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"
#include "testing/random_inputs.hpp"

namespace ppsi {
namespace {

using cover::CountResult;
using cover::DecisionResult;
using cover::ListingResult;
using iso::Pattern;

/// Appends up to `want` random well-formed edits for `g` (insert_edge on a
/// non-edge, remove_edge on an edge, insert_vertex), tracking the evolving
/// vertex/edge state so later edits stay valid against earlier ones.
EditScript random_script(const Graph& g, std::uint64_t seed, int want) {
  support::Rng rng(seed, /*stream=*/0xd11a);
  EditScript script;
  GraphDelta scratch;
  Graph cur = g;
  for (int attempt = 0; attempt < 4 * want && script.size() < static_cast<std::size_t>(want);
       ++attempt) {
    const Vertex n = cur.num_vertices();
    EditScript one;
    switch (rng.next_below(4)) {
      case 0:
        one.insert_vertex();
        break;
      case 1: {  // remove a random present edge
        const EdgeList edges = cur.edge_list();
        if (edges.empty()) continue;
        const auto& [u, v] = edges[rng.next_below(edges.size())];
        one.remove_edge(u, v);
        break;
      }
      default: {  // insert a random absent edge
        const Vertex u = static_cast<Vertex>(rng.next_below(n));
        const Vertex v = static_cast<Vertex>(rng.next_below(n));
        if (u == v || cur.has_edge(u, v)) continue;
        one.insert_edge(u, v);
        break;
      }
    }
    if (!apply_edits(cur, one, &scratch).empty()) continue;
    cur = scratch.graph;
    script.edits.push_back(one.edits.front());
  }
  return script;
}

struct Instance {
  Graph base;
  Pattern pattern;
  EditScript script;
  std::string context;
};

Instance dynamic_instance(std::uint64_t seed) {
  Instance inst;
  std::string family;
  inst.base = ppsi::testing::random_target(seed, &family);
  inst.pattern = ppsi::testing::random_pattern(seed, 2, 4);
  inst.script = random_script(inst.base, seed * 31 + 7, 1 + seed % 4);
  inst.context = "seed " + std::to_string(seed) + " family " + family +
                 " n=" + std::to_string(inst.base.num_vertices()) +
                 " edits=" + std::to_string(inst.script.size());
  return inst;
}

class DynamicSelfConsistency : public ::testing::TestWithParam<int> {};

TEST_P(DynamicSelfConsistency, FindMatchesColdRebuildAfterEdits) {
  const Instance inst = dynamic_instance(9000 + GetParam());
  QueryOptions query;
  query.seed = 11 + GetParam();

  Solver dynamic(inst.base);
  const TargetVersion v1 = dynamic.current_version();
  const Result<DecisionResult> before = dynamic.find(inst.pattern, query);
  ASSERT_TRUE(before.ok()) << inst.context;
  const std::uint64_t warmup_rebuilt = dynamic.cache_stats().slices_rebuilt;

  const Result<TargetVersion> edited = dynamic.apply(inst.script);
  ASSERT_TRUE(edited.ok()) << inst.context << ": "
                           << edited.status().message();

  Solver cold(edited->graph());
  const Result<DecisionResult> oracle = cold.find(inst.pattern, query);
  ASSERT_TRUE(oracle.ok()) << inst.context;
  const Result<DecisionResult> incremental = dynamic.find(inst.pattern, query);
  ASSERT_TRUE(incremental.ok()) << inst.context;

  EXPECT_EQ(incremental->found, oracle->found) << inst.context;
  EXPECT_EQ(incremental->runs, oracle->runs) << inst.context;
  EXPECT_EQ(incremental->slices_solved, oracle->slices_solved) << inst.context;
  EXPECT_EQ(incremental->witness, oracle->witness) << inst.context;
  EXPECT_EQ(incremental->metrics.work(), oracle->metrics.work())
      << inst.context;

  // The incremental rebuild never redoes more decompositions than the
  // cold build (it shares every slice the edits left untouched), and the
  // split is exact: reused + rebuilt covers exactly what cold rebuilt.
  const CacheStats stats = dynamic.cache_stats();
  const CacheStats cold_stats = cold.cache_stats();
  const std::uint64_t incremental_rebuilt =
      stats.slices_rebuilt - warmup_rebuilt;
  EXPECT_LE(incremental_rebuilt, cold_stats.slices_rebuilt) << inst.context;
  EXPECT_EQ(incremental_rebuilt + stats.slices_reused,
            cold_stats.slices_rebuilt)
      << inst.context;

  // A version pinned before the edit still answers like a fresh Solver on
  // the unedited base: edits are invisible to pinned queries.
  Solver fresh_base(inst.base);
  const Result<DecisionResult> base_oracle =
      fresh_base.find(inst.pattern, query);
  ASSERT_TRUE(base_oracle.ok()) << inst.context;
  QueryOptions pinned = query;
  pinned.at = &v1;
  const Result<DecisionResult> old = dynamic.find(inst.pattern, pinned);
  ASSERT_TRUE(old.ok()) << inst.context;
  EXPECT_EQ(old->found, base_oracle->found) << inst.context;
  EXPECT_EQ(old->runs, base_oracle->runs) << inst.context;
  EXPECT_EQ(old->witness, base_oracle->witness) << inst.context;
}

TEST_P(DynamicSelfConsistency, ListAndCountMatchColdRebuildAfterEdits) {
  const Instance inst = dynamic_instance(9500 + GetParam());
  QueryOptions query;
  query.seed = 23 + GetParam();

  Solver dynamic(inst.base);
  ASSERT_TRUE(dynamic.list(inst.pattern, query).ok()) << inst.context;
  const Result<TargetVersion> edited = dynamic.apply(inst.script);
  ASSERT_TRUE(edited.ok()) << inst.context;

  Solver cold(edited->graph());
  const Result<ListingResult> list_oracle = cold.list(inst.pattern, query);
  ASSERT_TRUE(list_oracle.ok()) << inst.context;
  const Result<ListingResult> list_inc = dynamic.list(inst.pattern, query);
  ASSERT_TRUE(list_inc.ok()) << inst.context;
  EXPECT_EQ(list_inc->occurrences, list_oracle->occurrences) << inst.context;
  EXPECT_EQ(list_inc->iterations, list_oracle->iterations) << inst.context;
  EXPECT_EQ(list_inc->metrics.work(), list_oracle->metrics.work())
      << inst.context;

  const Result<CountResult> count_oracle = cold.count(inst.pattern, query);
  ASSERT_TRUE(count_oracle.ok()) << inst.context;
  const Result<CountResult> count_inc = dynamic.count(inst.pattern, query);
  ASSERT_TRUE(count_inc.ok()) << inst.context;
  EXPECT_EQ(count_inc->assignments, count_oracle->assignments)
      << inst.context;
  EXPECT_EQ(count_inc->subgraphs, count_oracle->subgraphs) << inst.context;
  EXPECT_EQ(count_inc->metrics.work(), count_oracle->metrics.work())
      << inst.context;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicSelfConsistency,
                         ::testing::Range(0, 25));

class DynamicConnectivityConsistency : public ::testing::TestWithParam<int> {
};

TEST_P(DynamicConnectivityConsistency, MatchesColdRebuildAfterEdits) {
  // Embedded instances: commit a run of single-edit scripts that keep the
  // target connected and embeddable (rejected candidates — non-planar or
  // re-embedding-required inserts — are skipped; rejection must leave the
  // version unchanged). vertex_connectivity on the final version must
  // match a cold Solver built on that version's embedding bit-for-bit.
  const std::uint64_t seed = 400 + GetParam();
  const planar::EmbeddedGraph base =
      ppsi::testing::random_embedded_planar(seed, 6, 18);
  ASSERT_TRUE(base.validate_planar());
  const std::string context = "seed " + std::to_string(seed);

  QueryOptions query;
  query.seed = seed * 7 + 3;
  query.max_runs = 6;

  Solver dynamic(base);
  ASSERT_TRUE(dynamic.vertex_connectivity(query).ok()) << context;

  support::Rng rng(seed, /*stream=*/0xe417);
  GraphDelta scratch;
  int committed = 0;
  for (int attempt = 0; attempt < 12 && committed < 3; ++attempt) {
    const Graph cur = dynamic.target();
    const std::uint64_t version_before = dynamic.current_version().id();
    EditScript one;
    if (rng.next_bool()) {
      const EdgeList edges = cur.edge_list();
      const auto& [u, v] = edges[rng.next_below(edges.size())];
      one.remove_edge(u, v);
      // Keep the instance connected (the connectivity family's domain).
      ASSERT_TRUE(apply_edits(cur, one, &scratch).empty()) << context;
      if (connected_components(scratch.graph).count != 1) continue;
    } else {
      const Vertex u = static_cast<Vertex>(rng.next_below(cur.num_vertices()));
      const Vertex v = static_cast<Vertex>(rng.next_below(cur.num_vertices()));
      if (u == v || cur.has_edge(u, v)) continue;
      one.insert_edge(u, v);
    }
    const Result<TargetVersion> next = dynamic.apply(one);
    if (!next.ok()) {
      // Only the embedding gate may refuse, and refusal is a clean no-op.
      EXPECT_EQ(dynamic.current_version().id(), version_before) << context;
      continue;
    }
    EXPECT_TRUE(next->has_embedding()) << context;
    ++committed;
  }
  ASSERT_GT(committed, 0) << context << ": no edit committed in 12 attempts";

  const TargetVersion final_version = dynamic.current_version();
  Solver cold(final_version.embedding());
  const auto oracle = cold.vertex_connectivity(query);
  ASSERT_TRUE(oracle.ok()) << context;
  const auto incremental = dynamic.vertex_connectivity(query);
  ASSERT_TRUE(incremental.ok()) << context;
  EXPECT_EQ(incremental->connectivity, oracle->connectivity) << context;
  EXPECT_EQ(incremental->witness_cut, oracle->witness_cut) << context;
  EXPECT_EQ(incremental->cycle_runs, oracle->cycle_runs) << context;
  EXPECT_EQ(incremental->metrics.work(), oracle->metrics.work()) << context;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicConnectivityConsistency,
                         ::testing::Range(0, 15));

TEST(DynamicLocality, LocalEditRebuildsStrictlyFewerSlicesThanCold) {
  // The work-saving claim, as a differential statement: after a one-edge
  // edit on a large grid, the incremental query's decomposition rebuilds
  // (beyond the warm-up's) are strictly fewer than what the cold oracle
  // rebuilt for the same query — and the difference is exactly what the
  // sharing counter reports as reused. Slices are decomposed on demand,
  // so the query is an absent C5 on the bipartite grid, which solves every
  // slice (a present C4 stops at the first accepting one).
  const Pattern c5 = Pattern::from_graph(gen::cycle_graph(5));
  QueryOptions query;
  query.seed = 5;

  Solver dynamic(gen::grid_graph(8, 8));
  ASSERT_TRUE(dynamic.find(c5, query).ok());
  const std::uint64_t warmup_rebuilt = dynamic.cache_stats().slices_rebuilt;
  ASSERT_TRUE(dynamic.remove_edge(0, 1).ok());
  const Result<DecisionResult> incremental = dynamic.find(c5, query);
  ASSERT_TRUE(incremental.ok());

  Solver cold(dynamic.target());
  const Result<DecisionResult> oracle = cold.find(c5, query);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(incremental->found, oracle->found);
  EXPECT_EQ(incremental->witness, oracle->witness);
  EXPECT_EQ(incremental->metrics.work(), oracle->metrics.work());

  const std::uint64_t incremental_rebuilt =
      dynamic.cache_stats().slices_rebuilt - warmup_rebuilt;
  const std::uint64_t cold_rebuilt = cold.cache_stats().slices_rebuilt;
  EXPECT_LT(incremental_rebuilt, cold_rebuilt);
  EXPECT_EQ(incremental_rebuilt + dynamic.cache_stats().slices_reused,
            cold_rebuilt);
}

}  // namespace
}  // namespace ppsi

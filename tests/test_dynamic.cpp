// Dynamic-target unit tests: EditScript validation and transactionality,
// versioned snapshot semantics (pinning, refcounted reclamation, the
// MutableTarget builder), copy-on-write decomposition sharing counters,
// and the incremental planarity gate on embedded targets. Equivalence of
// incremental results against cold rebuilds is covered by
// tests/differential/test_differential_dynamic.cpp.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "api/dynamic.hpp"
#include "api/solver.hpp"
#include "api/solver_pool.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "planar/rotation_system.hpp"

namespace ppsi {
namespace {

using cover::DecisionResult;
using iso::Pattern;

Pattern cycle_pattern(Vertex k) {
  return Pattern::from_graph(gen::cycle_graph(k));
}

// --- EditScript / apply validation ---------------------------------------

TEST(EditScript, BuilderAccumulatesInOrder) {
  EditScript script;
  script.insert_vertex().insert_edge(0, 5).remove_edge(1, 2);
  ASSERT_EQ(script.size(), 3u);
  EXPECT_EQ(script.edits[0].kind, EditKind::kInsertVertex);
  EXPECT_EQ(script.edits[1].kind, EditKind::kInsertEdge);
  EXPECT_EQ(script.edits[2].kind, EditKind::kRemoveEdge);
  EXPECT_EQ(script.edits[1].u, 0u);
  EXPECT_EQ(script.edits[1].v, 5u);
}

TEST(DynamicApply, RejectsMalformedEditsAndLeavesTargetUntouched) {
  Solver solver(gen::path_graph(5));
  const std::uint64_t before = solver.current_version().id();

  struct Case {
    EditScript script;
    const char* expect;  // substring of the diagnostic
  };
  std::vector<Case> cases;
  cases.push_back({EditScript{}.insert_edge(0, 9), "out of range"});
  cases.push_back({EditScript{}.insert_edge(2, 2), "self-loop"});
  cases.push_back({EditScript{}.insert_edge(0, 1), "already present"});
  cases.push_back({EditScript{}.remove_edge(0, 2), "not present"});
  // Transactionality: a valid prefix does not survive a bad suffix.
  cases.push_back(
      {EditScript{}.insert_edge(0, 2).remove_edge(1, 3), "not present"});

  for (const Case& c : cases) {
    const Result<TargetVersion> result = solver.apply(c.script);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidOptions);
    EXPECT_NE(result.status().message().find(c.expect), std::string::npos)
        << result.status().message();
    EXPECT_EQ(solver.current_version().id(), before);
  }
  // The failed prefix edit (0-2) really did roll back.
  EXPECT_FALSE(solver.target().has_edge(0, 2));
}

TEST(DynamicApply, EmptyScriptIsANoOpCommit) {
  Solver solver(gen::path_graph(4));
  const Result<TargetVersion> same = solver.apply(EditScript{});
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->id(), solver.current_version().id());
  EXPECT_EQ(solver.cache_stats().versions_committed, 0u);
}

// --- Snapshot semantics ---------------------------------------------------

TEST(DynamicVersions, CommitProducesNewVersionOldHandleStaysFrozen) {
  Solver solver(gen::path_graph(6));
  const TargetVersion v1 = solver.current_version();
  EXPECT_EQ(v1.id(), 1u);

  const Result<TargetVersion> v2 = solver.insert_edge(0, 5);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->id(), 2u);
  EXPECT_EQ(solver.current_version().id(), 2u);

  EXPECT_FALSE(v1.graph().has_edge(0, 5));
  EXPECT_TRUE(v2->graph().has_edge(0, 5));
  EXPECT_TRUE(solver.target().has_edge(0, 5));
}

TEST(DynamicVersions, QueriesPinTheVersionTheyWereGiven) {
  Solver solver(gen::path_graph(6));
  const TargetVersion v1 = solver.current_version();
  ASSERT_TRUE(solver.insert_edge(0, 5).ok());  // closes the 6-cycle

  const Pattern c6 = cycle_pattern(6);
  // Default: latest version (the cycle exists now).
  const Result<DecisionResult> fresh = solver.find(c6);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->found);
  // Pinned to v1: still a path, no 6-cycle.
  QueryOptions at_v1;
  at_v1.at = &v1;
  const Result<DecisionResult> old = solver.find(c6, at_v1);
  ASSERT_TRUE(old.ok());
  EXPECT_FALSE(old->found);
}

TEST(DynamicVersions, ForeignAndInvalidPinsAreRejected) {
  Solver a(gen::path_graph(4));
  Solver b(gen::path_graph(4));
  const TargetVersion from_b = b.current_version();
  QueryOptions opts;
  opts.at = &from_b;
  EXPECT_EQ(a.find(cycle_pattern(3), opts).status().code(),
            StatusCode::kInvalidOptions);

  const TargetVersion unset;
  EXPECT_FALSE(unset.valid());
  opts.at = &unset;
  EXPECT_EQ(a.find(cycle_pattern(3), opts).status().code(),
            StatusCode::kInvalidOptions);
}

TEST(DynamicVersions, ReclaimedWhenLastReferenceDrains) {
  Solver solver(gen::grid_graph(3, 3));
  {
    const TargetVersion v1 = solver.current_version();
    ASSERT_TRUE(solver.remove_edge(0, 1).ok());
    ASSERT_TRUE(solver.insert_edge(0, 1).ok());
    CacheStats stats = solver.cache_stats();
    EXPECT_EQ(stats.versions_committed, 2u);
    // v2 is unreferenced (no handle, no query) and may already be gone;
    // v1 is held alive by the handle, v3 is current.
    EXPECT_EQ(stats.versions_reclaimed, 1u);
    EXPECT_EQ(stats.live_versions, 2u);
  }
  const CacheStats stats = solver.cache_stats();
  EXPECT_EQ(stats.versions_reclaimed, 2u);
  EXPECT_EQ(stats.live_versions, 1u);
  // Lifecycle counters survive clear_cache (unlike the cache counters).
  solver.clear_cache();
  EXPECT_EQ(solver.cache_stats().versions_reclaimed, 2u);
  EXPECT_EQ(solver.cache_stats().versions_committed, 2u);
}

TEST(MutableTargetBuilder, ChainsPredictsVertexIdsAndResets) {
  Solver solver(gen::path_graph(4));
  MutableTarget edit = solver.mutate();
  const Vertex a = edit.insert_vertex();
  const Vertex b = edit.insert_vertex();
  EXPECT_EQ(a, 4u);
  EXPECT_EQ(b, 5u);
  edit.insert_edge(3, a).insert_edge(a, b);
  EXPECT_EQ(edit.script().size(), 4u);

  const Result<TargetVersion> committed = edit.commit();
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed->graph().num_vertices(), 6u);
  EXPECT_TRUE(committed->graph().has_edge(3, 4));
  EXPECT_TRUE(committed->graph().has_edge(4, 5));

  // The builder reset and is reusable against the new version.
  EXPECT_TRUE(edit.empty());
  EXPECT_EQ(edit.insert_vertex(), 6u);
  ASSERT_TRUE(edit.commit().ok());
  EXPECT_EQ(solver.target().num_vertices(), 7u);
}

// --- Copy-on-write decomposition sharing ---------------------------------

TEST(DynamicCache, LocalEditSharesUntouchedDecompositions) {
  // Slices are decomposed on demand, so the query must touch every slice
  // for the split to be visible: an absent C5 on the bipartite grid does
  // (a present C4 stops at the first accepting slice).
  Solver solver(gen::grid_graph(6, 6));
  const Pattern c5 = cycle_pattern(5);
  ASSERT_TRUE(solver.find(c5).ok());  // warm the version-1 cover
  const CacheStats cold = solver.cache_stats();
  EXPECT_GT(cold.slices_rebuilt, 0u);
  EXPECT_EQ(cold.slices_reused, 0u);

  // A one-edge edit in a corner: most slices are untouched and their
  // decompositions must be shared, not rebuilt.
  ASSERT_TRUE(solver.remove_edge(0, 1).ok());
  ASSERT_TRUE(solver.find(c5).ok());
  const CacheStats warm = solver.cache_stats();
  EXPECT_GT(warm.slices_reused, 0u);
  EXPECT_LT(warm.slices_rebuilt - cold.slices_rebuilt, cold.slices_rebuilt)
      << "an incremental rebuild must redo strictly fewer slices than cold";
}

// --- Embedded targets: incremental planarity -----------------------------

TEST(DynamicEmbedded, EditsPreserveTheEmbedding) {
  Solver solver(gen::embedded_grid(4, 4));
  ASSERT_TRUE(solver.current_version().has_embedding());

  // Chord of one grid face: the endpoints share that face.
  const Result<TargetVersion> with_chord = solver.insert_edge(0, 5);
  ASSERT_TRUE(with_chord.ok()) << with_chord.status().message();
  EXPECT_TRUE(with_chord->has_embedding());
  EXPECT_TRUE(with_chord->embedding().validate_planar());

  // Removals and vertex inserts are unconditionally embedding-safe; a new
  // vertex bridges in via a cross-component insert.
  Solver embedded(gen::octahedron());
  MutableTarget edit = embedded.mutate();
  edit.remove_edge(0, 1);
  const Vertex fresh = edit.insert_vertex();
  edit.insert_edge(0, fresh);
  const Result<TargetVersion> patched = edit.commit();
  ASSERT_TRUE(patched.ok()) << patched.status().message();
  EXPECT_TRUE(patched->has_embedding());
  EXPECT_TRUE(patched->embedding().validate_planar());
  EXPECT_TRUE(patched->graph().has_edge(0, fresh));
}

TEST(DynamicEmbedded, RejectsNonPlanarEdit) {
  // The octahedron is maximal planar (m = 3n - 6): adding any missing
  // edge forces a crossing.
  Solver solver(gen::octahedron());
  const Graph& g = solver.target();
  Vertex u = 0;
  Vertex v = 0;
  for (Vertex b = 1; b < g.num_vertices() && v == 0; ++b)
    if (!g.has_edge(0, b)) v = b;
  ASSERT_NE(u, v);
  const Result<TargetVersion> result = solver.insert_edge(u, v);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidOptions);
  EXPECT_NE(result.status().message().find("non-planar"), std::string::npos)
      << result.status().message();
  EXPECT_EQ(solver.current_version().id(), 1u);
}

TEST(DynamicEmbedded, RefusesPlanarEditThatNeedsReembedding) {
  // K2,4 embedded with the four paths in rotation order 2,3,4,5: faces
  // pair consecutive paths, so 2 and 4 lie on no common face — yet
  // K2,4 + {2-4} is planar (reorder the paths). The incremental patcher
  // must refuse with kUnsupported rather than silently re-embed.
  std::vector<std::vector<Vertex>> rot(6);
  rot[0] = {5, 4, 3, 2};
  rot[1] = {2, 3, 4, 5};
  for (Vertex leaf = 2; leaf < 6; ++leaf) rot[leaf] = {0, 1};
  Solver solver(planar::EmbeddedGraph::from_rotations(rot));
  const Result<TargetVersion> result = solver.insert_edge(2, 4);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported)
      << result.status().message();
  EXPECT_NE(result.status().message().find("re-embedding"),
            std::string::npos);
  // The same edit on the plain graph succeeds (no embedding to preserve).
  Solver plain(solver.target());
  EXPECT_TRUE(plain.insert_edge(2, 4).ok());
}

// --- SolverPool edit surface ---------------------------------------------

TEST(PoolDynamic, EditsRouteToTheRightShard) {
  SolverPool pool;
  const TargetId a = pool.add_target(gen::path_graph(6));
  const TargetId b = pool.add_target(gen::grid_graph(3, 3));

  ASSERT_TRUE(pool.insert_edge(a, 0, 5).ok());
  EXPECT_EQ(pool.current_version(a).id(), 2u);
  EXPECT_EQ(pool.current_version(b).id(), 1u);
  EXPECT_TRUE(pool.solver(a).target().has_edge(0, 5));
  EXPECT_FALSE(pool.solver(b).target().has_edge(0, 5));

  MutableTarget edit = pool.mutate(b);
  edit.remove_edge(0, 1);
  ASSERT_TRUE(edit.commit().ok());
  EXPECT_EQ(pool.current_version(b).id(), 2u);

  const TargetId unknown = 99;
  EXPECT_EQ(pool.apply(unknown, EditScript{}.insert_vertex()).status().code(),
            StatusCode::kInvalidOptions);
  EXPECT_EQ(pool.insert_vertex(unknown).status().code(),
            StatusCode::kInvalidOptions);
}

}  // namespace
}  // namespace ppsi

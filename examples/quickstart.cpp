// Quickstart: build a planar graph, construct one ppsi::Solver session for
// it, then ask that session for patterns, occurrence listings, and the
// vertex connectivity. The Solver is the supported API: it memoizes the
// per-target state (k-d covers, tree decompositions, the face-vertex
// graph), so every query after the first amortizes.
//
//   $ ./quickstart

#include <cstdio>

#include "api/solver.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace ppsi;

  // A 12x12 grid: a planar target graph with a known structure. The Solver
  // is constructed from the *embedded* grid so vertex connectivity (which
  // needs the combinatorial embedding) is available alongside the pattern
  // queries; `Solver{Graph}` works too when no embedding exists.
  Solver solver(gen::embedded_grid(12, 12));
  const Graph& g = solver.target();
  std::printf("target: 12x12 grid, n=%u, m=%zu\n", g.num_vertices(),
              g.num_edges());

  // 1. Decide whether a 6-cycle occurs (Theorem 2.1). The answer is
  //    Monte Carlo: "found" is always correct, "not found" holds w.h.p.
  //    Queries return Result<T>: check ok()/status() instead of catching.
  const iso::Pattern c6 = iso::Pattern::from_graph(gen::cycle_graph(6));
  const Result<cover::DecisionResult> found = solver.find(c6);
  if (!found.ok()) {
    std::printf("query failed: %s\n", found.status().to_string().c_str());
    return 1;
  }
  std::printf("C6 found: %s (after %u cover runs)\n",
              found->found ? "yes" : "no", found->runs);
  if (found->witness.has_value()) {
    std::printf("  witness:");
    for (const Vertex v : *found->witness) std::printf(" %u", v);
    std::printf("\n");
  }

  // 2. An odd cycle cannot occur in a bipartite graph. Covers are cached
  //    per (diameter, size, seed), so C5 builds its own; repeating any
  //    query — or batching patterns of one shape — hits the cache.
  const iso::Pattern c5 = iso::Pattern::from_graph(gen::cycle_graph(5));
  std::printf("C5 found: %s (grids are bipartite)\n",
              solver.find(c5)->found ? "yes" : "no");

  // 3. List all 4-cycles (Theorem 4.2): 11*11 unit squares, 8 automorphic
  //    maps each.
  const iso::Pattern c4 = iso::Pattern::from_graph(gen::cycle_graph(4));
  const Result<cover::ListingResult> all = solver.list(c4);
  std::printf("C4 occurrences: %zu maps (expected %d), %u iterations\n",
              all->occurrences.size(), 11 * 11 * 8, all->iterations);

  // 4. Vertex connectivity via separating cycles (Section 5). Grids are
  //    exactly 2-connected (corner vertices have degree 2).
  const auto conn = solver.vertex_connectivity();
  std::printf("vertex connectivity: %u, witness cut:", conn->connectivity);
  for (const Vertex v : conn->witness_cut) std::printf(" %u", v);
  std::printf("\n");

  // The session cache after four queries: repeated or same-shape queries
  // would now skip cover construction entirely.
  const CacheStats stats = solver.cache_stats();
  std::printf("cache: %llu covers resident, %llu hits / %llu misses\n",
              static_cast<unsigned long long>(stats.cover_entries),
              static_cast<unsigned long long>(stats.cover_hits),
              static_cast<unsigned long long>(stats.cover_misses));
  return 0;
}

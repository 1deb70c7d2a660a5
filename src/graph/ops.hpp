#pragma once

// Structural graph operations: induced subgraphs and quotients (minors).

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "support/types.hpp"

namespace ppsi {

/// A materialized subgraph or minor together with the vertex correspondence.
struct DerivedGraph {
  Graph graph;
  /// For subgraphs: original vertex of each new vertex.
  /// For quotients: one representative original vertex per group.
  std::vector<Vertex> origin_of;
};

/// Subgraph induced by `vertices` (must be distinct). Vertex i of the result
/// corresponds to vertices[i].
DerivedGraph induced_subgraph(const Graph& g, const std::vector<Vertex>& vertices);

/// The graph of induced_subgraph, written straight into CSR: one count pass,
/// then exactly-sized arrays, O(|vertices| + their degrees) work. `pos` is a
/// caller-owned map with at least g.num_vertices() entries, all kNoVertex on
/// entry and again on return, so one map serves many calls. Adjacency comes
/// out sorted; a list is sorted only when g's adjacency is unsorted (rotation
/// systems) or `vertices` is not ascending. Like induced_subgraph, it
/// rejects duplicate and out-of-range vertices.
Graph induced_graph(const Graph& g, std::span<const Vertex> vertices,
                    std::span<Vertex> pos);

/// Quotient graph: vertices with the same non-negative label are merged;
/// label kNoVertex drops the vertex. Self-loops and parallel edges of the
/// quotient are removed. `num_groups` is one past the largest used label.
DerivedGraph quotient_graph(const Graph& g, const std::vector<Vertex>& label,
                            Vertex num_groups);

/// BFS distances from `source` (kNoDistance where unreachable). Sequential
/// reference used by tests; the parallel version lives in cluster/.
inline constexpr std::uint32_t kNoDistance = 0xffffffffu;
std::vector<std::uint32_t> bfs_distances(const Graph& g, Vertex source);

/// Eccentricity of `source` within its component (max BFS distance).
std::uint32_t eccentricity(const Graph& g, Vertex source);

/// Exact diameter of the (connected) graph via all-source BFS; O(nm), tests
/// and benches only.
std::uint32_t diameter(const Graph& g);

}  // namespace ppsi

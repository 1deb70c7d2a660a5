#pragma once

// Compact CSR representation of an undirected graph.
//
// Adjacency is stored twice (once per direction); positions in the adjacency
// array double as half-edge identifiers for the planar embedding layer
// (see planar/rotation_system.hpp).

#include <cstdint>
#include <span>
#include <vector>

#include "support/types.hpp"

namespace ppsi {

/// Immutable undirected graph in CSR form.
///
/// Invariants: no self-loops, no parallel edges (unless built with
/// `keep_multi`), adjacency of each vertex sorted ascending unless the graph
/// was built with an explicit (rotation) order.
class Graph {
 public:
  Graph() = default;

  /// Builds from an edge list. Self-loops are dropped; parallel edges are
  /// deduplicated. Adjacency lists come out sorted.
  static Graph from_edges(Vertex n, const EdgeList& edges);

  /// Builds from explicit per-vertex neighbor lists *preserving their order*
  /// (used for rotation systems). The caller must supply each edge in both
  /// directions. Adjacency is NOT sorted; has_edge falls back to linear scan.
  static Graph from_adjacency(const std::vector<std::vector<Vertex>>& adj);

  Vertex num_vertices() const { return n_; }
  /// Number of undirected edges.
  std::size_t num_edges() const { return adj_.size() / 2; }
  /// Number of directed half-edges (= 2 * num_edges()).
  std::size_t num_half_edges() const { return adj_.size(); }

  std::uint32_t degree(Vertex v) const {
    return offsets_[v + 1] - offsets_[v];
  }
  std::span<const Vertex> neighbors(Vertex v) const {
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }
  /// First adjacency-array index of v's neighbor block (half-edge id base).
  std::uint32_t adjacency_offset(Vertex v) const { return offsets_[v]; }
  /// Target vertex of half-edge h (an adjacency-array index).
  Vertex half_edge_target(std::uint32_t h) const { return adj_[h]; }

  bool sorted_adjacency() const { return sorted_; }
  /// Edge test: O(log deg) when sorted, O(deg) otherwise.
  bool has_edge(Vertex u, Vertex v) const;

  /// All undirected edges, each reported once with u < v... (smaller first).
  EdgeList edge_list() const;

  /// Maximum degree.
  std::uint32_t max_degree() const;

 private:
  // Writes its CSR arrays directly (graph/ops.hpp).
  friend Graph induced_graph(const Graph& g, std::span<const Vertex> vertices,
                             std::span<Vertex> pos);

  Vertex n_ = 0;
  bool sorted_ = true;
  std::vector<std::uint32_t> offsets_;  // size n_ + 1
  std::vector<Vertex> adj_;             // size 2m
};

}  // namespace ppsi

#pragma once

// Parallel treewidth k-d cover (paper §2.1, Theorem 2.4, Figure 3) and the
// separating variant (§5.2.1, Figure 7).
//
// One cover run: exponential start time 2k-clustering, a parallel BFS per
// cluster, and one slice per BFS level window [i, i+d]. Every fixed
// occurrence of a connected k-vertex pattern with diameter d survives into
// some slice with probability >= 1/2 (Observation 1 + first-BFS-vertex
// argument). Vertices appear in at most d+1 slices, so the total size of a
// cover is O(dn).
//
// The separating variant returns *minors*: connected components of the
// world outside the slice are contracted to single vertices (one per
// outside-the-cluster component, one per within-cluster remainder
// component), marked not-allowed for the pattern and marked in S when they
// swallow an S vertex. This keeps "the occurrence separates S" equivalent
// between the slice minor and the full graph.

#include <cstdint>
#include <vector>

#include "cluster/est_clustering.hpp"
#include "graph/graph.hpp"
#include "isomorphism/state_enumeration.hpp"
#include "support/metrics.hpp"
#include "support/types.hpp"

namespace ppsi::cover {

struct Slice {
  Graph graph;
  /// Local vertex -> original vertex. A merged remainder blob (inside the
  /// cluster) maps to one representative original vertex; a merged outside
  /// blob (build_separating_cover) maps to kNoVertex.
  std::vector<Vertex> origin_of;
  /// 1 for real (non-merged) vertices.
  std::vector<std::uint8_t> is_original;
  /// Local id of the BFS root's slice copy (a vertex of the lowest level in
  /// the window), used to seed layer-aware tree decompositions.
  Vertex bfs_root = 0;
  /// Separating metadata (enabled iff built by build_separating_cover).
  iso::SeparatingSpec spec;
};

struct Cover {
  std::vector<Slice> slices;
  Vertex num_clusters = 0;
  std::uint32_t num_bfs_levels = 0;  ///< max BFS rounds over clusters
  support::Metrics metrics;
};

/// Plain cover: induced subgraphs, one per (cluster, level window).
/// `beta` is the clustering parameter (use 2k); slices with fewer than
/// `min_size` vertices are dropped (occurrences need k vertices).
Cover build_kd_cover(const Graph& g, std::uint32_t d, double beta,
                     std::uint64_t seed, std::size_t min_size);

/// Separating cover: minors with contracted outside components; `in_s`
/// marks the separation set S per original vertex.
Cover build_separating_cover(const Graph& g,
                             const std::vector<std::uint8_t>& in_s,
                             std::uint32_t d, double beta, std::uint64_t seed,
                             std::size_t min_size);

}  // namespace ppsi::cover

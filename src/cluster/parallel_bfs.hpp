#pragma once

// Level-synchronous parallel BFS ("naive parallel BFS" of paper §2.1: linear
// work, one round per level; the cover only ever runs it on low-diameter
// clusters, which is the paper's trick for avoiding deep BFS).

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "support/metrics.hpp"
#include "support/types.hpp"

namespace ppsi::cluster {

inline constexpr std::uint32_t kUnreached = 0xffffffffu;

struct BfsResult {
  std::vector<std::uint32_t> dist;  ///< kUnreached where not reached
  std::uint32_t num_levels = 0;     ///< number of BFS rounds executed
};

/// Multi-source BFS from `sources`. Work O(n + m) over the reached part,
/// one synchronous round per level (recorded in num_levels and metrics).
/// Distances, levels and work do not depend on the thread count.
BfsResult parallel_bfs(const Graph& g, std::span<const Vertex> sources,
                       support::Metrics* metrics = nullptr);

inline BfsResult parallel_bfs(const Graph& g, Vertex source,
                              support::Metrics* metrics = nullptr) {
  const Vertex sources[1] = {source};
  return parallel_bfs(g, std::span<const Vertex>(sources, 1), metrics);
}

}  // namespace ppsi::cluster

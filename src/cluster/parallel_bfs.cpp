#include "cluster/parallel_bfs.hpp"

#include <algorithm>
#include <atomic>

#include "support/parallel.hpp"

namespace ppsi::cluster {

BfsResult parallel_bfs(const Graph& g, std::span<const Vertex> sources,
                       support::Metrics* metrics) {
  const Vertex n = g.num_vertices();
  BfsResult out;
  out.dist.assign(n, kUnreached);
  std::vector<Vertex> frontier;
  frontier.reserve(sources.size());
  for (Vertex s : sources) {
    support::require(s < n, "parallel_bfs: source out of range");
    if (out.dist[s] == kUnreached) {
      out.dist[s] = 0;
      frontier.push_back(s);
    }
  }
  std::uint64_t work = frontier.size();
  std::uint32_t level = 0;
  // `next` persists across levels (cleared, capacity kept): the old
  // per-level vector reallocated its way up to the widest frontier on
  // every level of every BFS. The same grain constant the fork-join
  // primitives use decides when a frontier is worth a parallel expansion.
  std::vector<Vertex> next;
  // A wide frontier expands in one contiguous block per thread (the static
  // partition of parallel_reduce); each block claims its vertices by CAS
  // into its own next frontier, and the blocks are concatenated in block
  // order. The per-block buffers persist across levels like `next`.
  std::vector<std::vector<Vertex>> block_next;
  std::vector<support::PaddedAccumulator<std::uint64_t>> block_work;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    if (frontier.size() < support::kDefaultGrain) {
      // Serial expansion of small frontiers.
      for (Vertex u : frontier) {
        for (Vertex w : g.neighbors(u)) {
          ++work;
          if (out.dist[w] == kUnreached) {
            out.dist[w] = level;
            next.push_back(w);
          }
        }
      }
    } else {
      const std::size_t blocks =
          static_cast<std::size_t>(support::num_threads());
      const std::size_t base = frontier.size() / blocks;
      const std::size_t extra = frontier.size() % blocks;
      block_next.resize(blocks);
      block_work.assign(blocks, {0});
      support::parallel_for(
          0, blocks,
          [&](std::size_t b) {
            const std::size_t lo = b * base + std::min(b, extra);
            const std::size_t hi = lo + base + (b < extra ? 1 : 0);
            std::vector<Vertex>& local = block_next[b];
            local.clear();
            for (std::size_t i = lo; i < hi; ++i) {
              for (Vertex w : g.neighbors(frontier[i])) {
                ++block_work[b].value;
                std::uint32_t expected = kUnreached;
                std::atomic_ref<std::uint32_t> slot(out.dist[w]);
                if (slot.load(std::memory_order_relaxed) == kUnreached &&
                    slot.compare_exchange_strong(expected, level,
                                                 std::memory_order_relaxed))
                  local.push_back(w);
              }
            }
          },
          /*grain=*/1);
      for (std::size_t b = 0; b < blocks; ++b) {
        next.insert(next.end(), block_next[b].begin(), block_next[b].end());
        work += block_work[b].value;
      }
    }
    frontier.swap(next);
  }
  out.num_levels = level;
  if (metrics != nullptr) {
    metrics->add_work(work);
    metrics->add_rounds(level);
  }
  return out;
}

}  // namespace ppsi::cluster

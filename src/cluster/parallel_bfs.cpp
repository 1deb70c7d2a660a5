#include "cluster/parallel_bfs.hpp"

#include <atomic>
#include <omp.h>

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
#pragma omp parallel
      {
        std::vector<Vertex> local;
        std::uint64_t local_work = 0;
#pragma omp for schedule(dynamic, 64) nowait
        for (std::size_t i = 0; i < frontier.size(); ++i) {
          const Vertex u = frontier[i];
          for (Vertex w : g.neighbors(u)) {
            ++local_work;
            std::uint32_t expected = kUnreached;
            std::atomic_ref<std::uint32_t> slot(out.dist[w]);
            if (slot.load(std::memory_order_relaxed) == kUnreached &&
                slot.compare_exchange_strong(expected, level,
                                             std::memory_order_relaxed)) {
              local.push_back(w);
            }
          }
        }
#pragma omp critical(ppsi_bfs_merge)
        {
          next.insert(next.end(), local.begin(), local.end());
          work += local_work;
        }
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

#include "cover/kd_cover.hpp"

#include "graph/ops.hpp"

#include <algorithm>
#include <omp.h>
#include <queue>
#include <span>

#include "cluster/parallel_bfs.hpp"
#include "support/parallel.hpp"

namespace ppsi::cover {
namespace {

/// Per-cluster data shared by both cover variants.
struct ClusterWork {
  std::span<const Vertex> members;    // original ids, ascending
  std::vector<std::uint32_t> level;   // BFS level per member (local index)
  std::uint32_t max_level = 0;
  Graph subgraph;                     // induced on members (local ids)
};

/// `pos` is a position map over g (all kNoVertex on entry and return).
ClusterWork build_cluster_work(const Graph& g,
                               const cluster::Clustering& clustering,
                               Vertex c, std::vector<Vertex>& pos) {
  ClusterWork work;
  // Members are grouped in vertex order, so the subgraph's adjacency needs
  // no sort when g's is sorted.
  work.members = std::span<const Vertex>(clustering.members)
                     .subspan(clustering.offsets[c],
                              clustering.offsets[c + 1] - clustering.offsets[c]);
  work.subgraph = induced_graph(g, work.members, pos);
  // BFS from the cluster center (clusters are connected by construction).
  const auto root = static_cast<Vertex>(
      std::lower_bound(work.members.begin(), work.members.end(),
                       clustering.center_of[c]) -
      work.members.begin());
  work.level = cluster::parallel_bfs(work.subgraph, root).dist;
  for (std::uint32_t lv : work.level)
    if (lv != cluster::kUnreached) work.max_level = std::max(work.max_level, lv);
  return work;
}

/// Level windows to emit: [0, last_start] where last_start keeps every
/// occurrence covered (min-level argument; see header).
std::uint32_t last_window_start(std::uint32_t max_level, std::uint32_t d) {
  return max_level > d ? max_level - d : 0;
}

}  // namespace

Cover build_kd_cover(const Graph& g, std::uint32_t d, double beta,
                     std::uint64_t seed, std::size_t min_size) {
  Cover cover;
  const cluster::Clustering clustering =
      cluster::est_clustering(g, beta, seed, &cover.metrics);
  cover.num_clusters = clustering.count;
  // One position map over g serves the cluster subgraphs and, since a
  // cluster has at most n vertices, their window slices too.
  std::vector<Vertex> scratch(g.num_vertices(), kNoVertex);
  std::vector<Vertex> local_ids;
  for (Vertex c = 0; c < clustering.count; ++c) {
    const ClusterWork work = build_cluster_work(g, clustering, c, scratch);
    cover.num_bfs_levels = std::max(cover.num_bfs_levels, work.max_level + 1);
    const std::uint32_t last = last_window_start(work.max_level, d);
    for (std::uint32_t i = 0; i <= last; ++i) {
      // Slice: members with level in [i, i+d], ascending, so reading the
      // sorted cluster subgraph needs no sort.
      local_ids.clear();
      for (Vertex v = 0; v < work.members.size(); ++v) {
        if (work.level[v] >= i && work.level[v] <= i + d)
          local_ids.push_back(v);
      }
      if (local_ids.size() < min_size) continue;
      Slice slice;
      slice.graph = induced_graph(work.subgraph, local_ids, scratch);
      slice.origin_of.resize(local_ids.size());
      slice.is_original.assign(local_ids.size(), 1);
      std::uint32_t best_level = 0xffffffffu;
      for (std::size_t j = 0; j < local_ids.size(); ++j) {
        slice.origin_of[j] = work.members[local_ids[j]];
        if (work.level[local_ids[j]] < best_level) {
          best_level = work.level[local_ids[j]];
          slice.bfs_root = static_cast<Vertex>(j);
        }
      }
      cover.slices.push_back(std::move(slice));
    }
    cover.metrics.add_work(
        static_cast<std::uint64_t>(work.members.size()) * (d + 1));
  }
  return cover;
}

Cover build_separating_cover(const Graph& g,
                             const std::vector<std::uint8_t>& in_s,
                             std::uint32_t d, double beta, std::uint64_t seed,
                             std::size_t min_size) {
  support::require(in_s.size() == g.num_vertices(),
                   "build_separating_cover: in_s size mismatch");
  Cover cover;
  const cluster::Clustering clustering =
      cluster::est_clustering(g, beta, seed, &cover.metrics);
  cover.num_clusters = clustering.count;
  std::vector<Vertex> scratch(g.num_vertices(), kNoVertex);

  // Connected components of the graph minus each cluster are computed per
  // cluster below; scratch_comp holds component ids of outside vertices.
  std::vector<Vertex> outside_comp(g.num_vertices(), kNoVertex);

  for (Vertex c = 0; c < clustering.count; ++c) {
    const ClusterWork work = build_cluster_work(g, clustering, c, scratch);
    cover.num_bfs_levels = std::max(cover.num_bfs_levels, work.max_level + 1);
    if (work.members.size() < min_size) continue;

    // ---- Components of G minus this cluster (outside blobs). ----
    std::vector<char> in_cluster(g.num_vertices(), 0);
    for (Vertex v : work.members) in_cluster[v] = 1;
    std::fill(outside_comp.begin(), outside_comp.end(), kNoVertex);
    Vertex num_outside = 0;
    std::vector<std::uint8_t> outside_has_s;
    {
      std::queue<Vertex> queue;
      for (Vertex s = 0; s < g.num_vertices(); ++s) {
        if (in_cluster[s] || outside_comp[s] != kNoVertex) continue;
        const Vertex id = num_outside++;
        outside_has_s.push_back(0);
        outside_comp[s] = id;
        queue.push(s);
        while (!queue.empty()) {
          const Vertex u = queue.front();
          queue.pop();
          if (in_s[u]) outside_has_s[id] = 1;
          for (Vertex w : g.neighbors(u)) {
            if (!in_cluster[w] && outside_comp[w] == kNoVertex) {
              outside_comp[w] = id;
              queue.push(w);
            }
          }
        }
      }
    }

    // Local index of members (build_cluster_work leaves the map clear).
    for (std::size_t i = 0; i < work.members.size(); ++i)
      scratch[work.members[i]] = static_cast<Vertex>(i);

    const std::uint32_t last = last_window_start(work.max_level, d);
    for (std::uint32_t i = 0; i <= last; ++i) {
      // ---- Slice members (levels [i, i+d]) and remainder components. ----
      std::vector<char> in_slice(work.members.size(), 0);
      std::vector<Vertex> slice_locals;
      for (Vertex v = 0; v < work.members.size(); ++v) {
        if (work.level[v] >= i && work.level[v] <= i + d) {
          in_slice[v] = 1;
          slice_locals.push_back(v);
        }
      }
      if (slice_locals.size() < min_size) continue;
      // Remainder components within the cluster.
      std::vector<Vertex> rem_comp(work.members.size(), kNoVertex);
      Vertex num_rem = 0;
      std::vector<std::uint8_t> rem_has_s;
      std::vector<Vertex> rem_repr;
      {
        std::queue<Vertex> queue;
        for (Vertex s = 0; s < work.members.size(); ++s) {
          if (in_slice[s] || rem_comp[s] != kNoVertex) continue;
          const Vertex id = num_rem++;
          rem_has_s.push_back(0);
          rem_repr.push_back(work.members[s]);
          rem_comp[s] = id;
          queue.push(s);
          while (!queue.empty()) {
            const Vertex u = queue.front();
            queue.pop();
            if (in_s[work.members[u]]) rem_has_s[id] = 1;
            for (Vertex w : work.subgraph.neighbors(u)) {
              if (!in_slice[w] && rem_comp[w] == kNoVertex) {
                rem_comp[w] = id;
                queue.push(w);
              }
            }
          }
        }
      }

      // ---- Assemble the minor. ----
      // Local ids: [0, S) slice vertices, then remainder blobs, then the
      // outside blobs that actually touch this cluster (on demand).
      const Vertex s_count = static_cast<Vertex>(slice_locals.size());
      std::vector<Vertex> slice_pos(work.members.size(), kNoVertex);
      for (Vertex j = 0; j < s_count; ++j) slice_pos[slice_locals[j]] = j;
      std::vector<Vertex> outside_local(num_outside, kNoVertex);
      std::vector<Vertex> outside_used;  // outside comp ids in use
      const Vertex rem_base = s_count;
      Vertex next_id = rem_base + num_rem;
      EdgeList edges;
      const auto outside_id = [&](Vertex comp) {
        if (outside_local[comp] == kNoVertex) {
          outside_local[comp] = next_id++;
          outside_used.push_back(comp);
        }
        return outside_local[comp];
      };
      // Edges incident to the cluster (slice or remainder side).
      for (Vertex v = 0; v < work.members.size(); ++v) {
        const Vertex lv =
            in_slice[v] ? slice_pos[v] : rem_base + rem_comp[v];
        const Vertex orig_v = work.members[v];
        for (Vertex w : g.neighbors(orig_v)) {
          Vertex lw;
          if (in_cluster[w]) {
            const Vertex lw_member = scratch[w];
            lw = in_slice[lw_member] ? slice_pos[lw_member]
                                     : rem_base + rem_comp[lw_member];
            if (orig_v > w) continue;  // dedupe intra-cluster edges
          } else {
            lw = outside_id(outside_comp[w]);
          }
          if (lv != lw) edges.emplace_back(lv, lw);
        }
      }
      Slice slice;
      slice.graph = Graph::from_edges(next_id, edges);
      slice.origin_of.assign(next_id, kNoVertex);
      slice.is_original.assign(next_id, 0);
      slice.spec.enabled = true;
      slice.spec.allowed.assign(next_id, 0);
      slice.spec.in_s.assign(next_id, 0);
      std::uint32_t best_level = 0xffffffffu;
      for (Vertex j = 0; j < s_count; ++j) {
        const Vertex member = slice_locals[j];
        slice.origin_of[j] = work.members[member];
        slice.is_original[j] = 1;
        slice.spec.allowed[j] = 1;
        slice.spec.in_s[j] = in_s[work.members[member]];
        if (work.level[member] < best_level) {
          best_level = work.level[member];
          slice.bfs_root = j;
        }
      }
      for (Vertex r = 0; r < num_rem; ++r) {
        slice.origin_of[rem_base + r] = rem_repr[r];
        slice.spec.in_s[rem_base + r] = rem_has_s[r];
      }
      for (const Vertex comp : outside_used)
        slice.spec.in_s[outside_local[comp]] = outside_has_s[comp];
      cover.slices.push_back(std::move(slice));
    }
    for (Vertex v : work.members) scratch[v] = kNoVertex;
    cover.metrics.add_work(static_cast<std::uint64_t>(g.num_vertices()));
  }
  return cover;
}

}  // namespace ppsi::cover

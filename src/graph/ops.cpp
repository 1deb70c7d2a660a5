#include "graph/ops.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "support/parallel.hpp"

namespace ppsi {

DerivedGraph induced_subgraph(const Graph& g,
                              const std::vector<Vertex>& vertices) {
  std::vector<Vertex> pos(g.num_vertices(), kNoVertex);
  DerivedGraph out;
  out.graph = induced_graph(g, vertices, pos);
  out.origin_of = vertices;
  return out;
}

Graph induced_graph(const Graph& g, std::span<const Vertex> vertices,
                    std::span<Vertex> pos) {
  support::require(pos.size() >= g.num_vertices(),
                   "induced_graph: position map too small");
  const auto n = static_cast<Vertex>(vertices.size());
  bool ascending = true;
  for (Vertex i = 0; i < n; ++i) {
    const Vertex v = vertices[i];
    const bool in_range = v < g.num_vertices();
    if (!in_range || pos[v] != kNoVertex) {
      for (Vertex j = 0; j < i; ++j) pos[vertices[j]] = kNoVertex;
      throw std::invalid_argument(in_range
                                      ? "induced_subgraph: duplicate vertex"
                                      : "induced_subgraph: vertex out of range");
    }
    pos[v] = i;
    ascending = ascending && (i == 0 || vertices[i - 1] < v);
  }
  Graph out;
  out.n_ = n;
  out.offsets_.resize(static_cast<std::size_t>(n) + 1);
  std::uint32_t total = 0;
  for (Vertex i = 0; i < n; ++i) {
    out.offsets_[i] = total;
    for (Vertex w : g.neighbors(vertices[i])) total += pos[w] != kNoVertex;
  }
  out.offsets_[n] = total;
  out.adj_.resize(total);
  for (Vertex i = 0; i < n; ++i) {
    Vertex* dst = out.adj_.data() + out.offsets_[i];
    for (Vertex w : g.neighbors(vertices[i]))
      if (pos[w] != kNoVertex) *dst++ = pos[w];
  }
  // Positions rise with the vertex ids, so sorted source lists stay sorted.
  if (!g.sorted_adjacency() || !ascending)
    for (Vertex i = 0; i < n; ++i)
      std::sort(out.adj_.data() + out.offsets_[i],
                out.adj_.data() + out.offsets_[i + 1]);
  for (Vertex v : vertices) pos[v] = kNoVertex;
  return out;
}

DerivedGraph quotient_graph(const Graph& g, const std::vector<Vertex>& label,
                            Vertex num_groups) {
  support::require(label.size() == g.num_vertices(),
                   "quotient_graph: label size mismatch");
  DerivedGraph out;
  out.origin_of.assign(num_groups, kNoVertex);
  EdgeList edges;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const Vertex lu = label[u];
    if (lu == kNoVertex) continue;
    support::require(lu < num_groups, "quotient_graph: label out of range");
    if (out.origin_of[lu] == kNoVertex) out.origin_of[lu] = u;
    for (Vertex w : g.neighbors(u)) {
      const Vertex lw = label[w];
      if (lw == kNoVertex || lw == lu) continue;
      if (lu < lw) edges.emplace_back(lu, lw);
    }
  }
  out.graph = Graph::from_edges(num_groups, edges);
  return out;
}

std::vector<std::uint32_t> bfs_distances(const Graph& g, Vertex source) {
  std::vector<std::uint32_t> dist(g.num_vertices(), kNoDistance);
  std::queue<Vertex> queue;
  dist[source] = 0;
  queue.push(source);
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop();
    for (Vertex w : g.neighbors(u)) {
      if (dist[w] == kNoDistance) {
        dist[w] = dist[u] + 1;
        queue.push(w);
      }
    }
  }
  return dist;
}

std::uint32_t eccentricity(const Graph& g, Vertex source) {
  const auto dist = bfs_distances(g, source);
  std::uint32_t ecc = 0;
  for (std::uint32_t d : dist)
    if (d != kNoDistance) ecc = std::max(ecc, d);
  return ecc;
}

std::uint32_t diameter(const Graph& g) {
  std::uint32_t best = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    best = std::max(best, eccentricity(g, v));
  return best;
}

}  // namespace ppsi

#include "treedecomp/greedy_decomposition.hpp"

#include <algorithm>
#include <functional>
#include <queue>

#include "support/types.hpp"

namespace ppsi::treedecomp {
namespace {

/// Dynamic adjacency for elimination: unsorted neighbour vectors plus a
/// stamped membership array, so a set query is one compare. Only set
/// semantics are observable (bags are sorted, keys count sizes and missing
/// edges), so neighbour order never reaches the output.
class EliminationState {
 public:
  explicit EliminationState(const Graph& g)
      : adj_(g.num_vertices()),
        stamp_(g.num_vertices(), 0),
        gone_(g.num_vertices(), 0) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const auto nb = g.neighbors(v);  // simple graph: no loops, no repeats
      adj_[v].assign(nb.begin(), nb.end());
    }
  }

  std::uint32_t degree(Vertex v) const {
    return static_cast<std::uint32_t>(adj_[v].size());
  }
  bool gone(Vertex v) const { return gone_[v] != 0; }

  /// Number of missing edges among v's current neighbors.
  std::uint64_t fill_in(Vertex v) {
    const std::uint32_t mark = mark_neighbors(v);
    std::uint64_t twice_present = 0;
    for (const Vertex a : adj_[v]) {
      for (const Vertex b : adj_[a]) twice_present += stamp_[b] == mark;
    }
    const std::uint64_t d = adj_[v].size();
    return d * (d - 1) / 2 - twice_present / 2;
  }

  /// Eliminates v: clique-ifies its neighborhood, removes v. Returns the
  /// bag (v's neighbors, then v).
  std::vector<Vertex> eliminate(Vertex v) {
    std::vector<Vertex> bag = std::move(adj_[v]);
    adj_[v].clear();
    for (const Vertex a : bag) {
      auto& nb = adj_[a];
      *std::find(nb.begin(), nb.end(), v) = nb.back();
      nb.pop_back();
    }
    for (const Vertex a : bag) {
      const std::uint32_t mark = mark_neighbors(a);
      stamp_[a] = mark;
      for (const Vertex b : bag) {
        if (stamp_[b] != mark) adj_[a].push_back(b);
      }
    }
    gone_[v] = 1;
    bag.push_back(v);
    return bag;
  }

 private:
  /// Stamps v's neighbors with a fresh mark and returns it.
  std::uint32_t mark_neighbors(Vertex v) {
    if (++epoch_ == 0) {  // wrapped: clear so no stale stamp can match
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    for (const Vertex w : adj_[v]) stamp_[w] = epoch_;
    return epoch_;
  }

  std::vector<std::vector<Vertex>> adj_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<char> gone_;
};

/// The elimination core of every construction: repeatedly eliminates the
/// vertex of minimum (key, id) off a lazy heap. A popped entry whose key
/// went stale is re-pushed with its fresh key; the members of each bag are
/// re-pushed after their elimination step (a lazy heap alone mishandles key
/// *decreases*). The bag of an eliminated vertex is its closed neighborhood
/// at elimination time.
template <class KeyOf>
TreeDecomposition eliminate_by_key(const Graph& g, KeyOf key_of) {
  const Vertex n = g.num_vertices();
  support::require(n > 0, "decomposition: empty graph");
  EliminationState state(g);
  using Entry = std::pair<std::uint64_t, Vertex>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (Vertex v = 0; v < n; ++v) heap.emplace(key_of(state, v), v);

  TreeDecomposition td;
  td.bags.resize(n);
  td.parent.assign(n, kNoNode);
  std::vector<std::uint32_t> elim_pos(n, 0);
  const auto pick = [&]() -> Vertex {
    while (true) {
      const auto [key, v] = heap.top();
      heap.pop();
      if (state.gone(v)) continue;
      const std::uint64_t fresh = key_of(state, v);
      if (fresh == key) return v;
      heap.emplace(fresh, v);
    }
  };
  for (Vertex step = 0; step < n; ++step) {
    const Vertex v = pick();
    std::vector<Vertex> bag = state.eliminate(v);
    std::sort(bag.begin(), bag.end());
    for (const Vertex w : bag)
      if (!state.gone(w)) heap.emplace(key_of(state, w), w);
    td.bags[step] = std::move(bag);
    elim_pos[v] = step;
  }
  // Parent of bag(v): the bag of the member of bag(v) \ {v} eliminated
  // first after v; singleton bags chain to the next node.
  for (NodeId x = 0; x < n; ++x) {
    std::uint32_t best = 0xffffffffu;
    for (const Vertex u : td.bags[x]) {
      if (elim_pos[u] > x) best = std::min(best, elim_pos[u]);
    }
    if (best != 0xffffffffu) {
      td.parent[x] = best;
    } else if (x + 1 < n) {
      td.parent[x] = x + 1;
    }
  }
  td.finalize();
  return td;
}

}  // namespace

TreeDecomposition greedy_decomposition(const Graph& g,
                                       GreedyStrategy strategy) {
  return eliminate_by_key(g, [&](EliminationState& st, Vertex v) {
    const std::uint64_t deg = st.degree(v);
    if (strategy == GreedyStrategy::kMinFill)
      return (st.fill_in(v) << 20) | std::min<std::uint64_t>(deg, 0xfffff);
    return deg;
  });
}

TreeDecomposition decompose_by_priority(
    const Graph& g,
    const std::function<std::uint64_t(Vertex, std::uint32_t)>& priority) {
  return eliminate_by_key(g, [&](EliminationState& st, Vertex v) {
    return priority(v, st.degree(v));
  });
}

}  // namespace ppsi::treedecomp

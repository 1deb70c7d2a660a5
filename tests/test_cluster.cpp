// Clustering tests: parallel BFS, exponential start time clustering
// (Lemma 2.3 properties, Observation 1).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <omp.h>
#include <string>
#include <vector>

#include "cluster/est_clustering.hpp"
#include "cluster/parallel_bfs.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace ppsi::cluster {
namespace {

TEST(ParallelBfs, MatchesSequentialDistances) {
  for (int seed = 0; seed < 5; ++seed) {
    const Graph g = gen::gnp(200, 0.02, seed);
    const auto expect = bfs_distances(g, 0);
    support::Metrics metrics;
    const BfsResult got = parallel_bfs(g, Vertex{0}, &metrics);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (expect[v] == kNoDistance) {
        EXPECT_EQ(got.dist[v], kUnreached);
      } else {
        EXPECT_EQ(got.dist[v], expect[v]);
      }
    }
    EXPECT_EQ(metrics.rounds(), got.num_levels);
  }
}

TEST(ParallelBfs, MultiSourceTakesMinimum) {
  const Graph g = gen::path_graph(20);
  const Vertex sources[2] = {0, 19};
  const BfsResult r = parallel_bfs(g, std::span<const Vertex>(sources, 2));
  for (Vertex v = 0; v < 20; ++v)
    EXPECT_EQ(r.dist[v], std::min(v, 19 - v));
}

// Frontiers of at least support::kDefaultGrain vertices expand in
// parallel, claiming vertices by CAS. Distances, levels and work must still
// be those of a serial BFS at every thread count. The reference is
// bfs_distances from a super-source joined to every source; work is one
// unit per source plus the degree of every reached vertex.
TEST(ParallelBfs, WideFrontierMatchesSerialAtEveryThreadCount) {
  struct Input {
    const char* name;
    Graph g;
    std::vector<Vertex> sources;
  };
  std::vector<Input> inputs;
  inputs.push_back({"star5000 hub", gen::star_graph(5000), {0}});
  inputs.push_back({"star5000 leaf", gen::star_graph(5000), {4321}});
  {
    Input grid{"grid90x90 sources", gen::grid_graph(90, 90), {}};
    for (Vertex v = 0; v < grid.g.num_vertices(); v += 3)
      grid.sources.push_back(v);
    inputs.push_back(std::move(grid));
  }
  for (const Input& in : inputs) {
    const Vertex n = in.g.num_vertices();
    EdgeList edges = in.g.edge_list();
    for (const Vertex s : in.sources) edges.emplace_back(n, s);
    const auto via_root = bfs_distances(Graph::from_edges(n + 1, edges), n);
    std::uint64_t want_work = in.sources.size();
    std::uint32_t want_levels = 0;
    for (Vertex v = 0; v < n; ++v) {
      if (via_root[v] == kNoDistance) continue;
      want_work += in.g.degree(v);
      want_levels = std::max(want_levels, via_root[v]);  // max dist + 1
    }
    const int saved = omp_get_max_threads();
    for (const int threads : {1, 4}) {
      omp_set_num_threads(threads);
      support::Metrics metrics;
      const BfsResult got = parallel_bfs(in.g, in.sources, &metrics);
      const std::string at =
          std::string(in.name) + " threads " + std::to_string(threads);
      for (Vertex v = 0; v < n; ++v) {
        const std::uint32_t want =
            via_root[v] == kNoDistance ? kUnreached : via_root[v] - 1;
        ASSERT_EQ(got.dist[v], want) << at << " vertex " << v;
      }
      EXPECT_EQ(got.num_levels, want_levels) << at;
      EXPECT_EQ(metrics.rounds(), want_levels) << at;
      EXPECT_EQ(metrics.work(), want_work) << at;
    }
    omp_set_num_threads(saved);
  }
}

TEST(ParallelBfs, LevelCountEqualsEccentricityPlusOne) {
  const Graph g = gen::path_graph(37);
  const BfsResult r = parallel_bfs(g, Vertex{0});
  EXPECT_EQ(r.num_levels, 37u);  // levels 1..36 emitted frontiers, +1 final
}

TEST(EstClustering, PartitionIsValid) {
  const Graph g = gen::grid_graph(20, 20);
  const Clustering c = est_clustering(g, 4.0, 7);
  ASSERT_EQ(c.cluster_of.size(), g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    EXPECT_LT(c.cluster_of[v], c.count);
  // Members grouping is consistent.
  ASSERT_EQ(c.offsets.size(), static_cast<std::size_t>(c.count) + 1);
  EXPECT_EQ(c.members.size(), g.num_vertices());
  for (Vertex cl = 0; cl < c.count; ++cl)
    for (std::uint32_t i = c.offsets[cl]; i < c.offsets[cl + 1]; ++i)
      EXPECT_EQ(c.cluster_of[c.members[i]], cl);
  // Every center is in its own cluster.
  for (Vertex cl = 0; cl < c.count; ++cl)
    EXPECT_EQ(c.cluster_of[c.center_of[cl]], cl);
}

TEST(EstClustering, ClustersAreConnected) {
  const Graph g = gen::apollonian(300, 9).graph();
  const Clustering c = est_clustering(g, 6.0, 3);
  for (Vertex cl = 0; cl < c.count; ++cl) {
    std::vector<Vertex> members(c.members.begin() + c.offsets[cl],
                                c.members.begin() + c.offsets[cl + 1]);
    const DerivedGraph sub = induced_subgraph(g, members);
    const auto dist = bfs_distances(sub.graph, 0);
    for (std::uint32_t d : dist) EXPECT_NE(d, kNoDistance);
  }
}

TEST(EstClustering, DeterministicForSeed) {
  const Graph g = gen::grid_graph(15, 15);
  const Clustering a = est_clustering(g, 5.0, 42);
  const Clustering b = est_clustering(g, 5.0, 42);
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  const Clustering c = est_clustering(g, 5.0, 43);
  EXPECT_TRUE(a.cluster_of != c.cluster_of || a.count == 1);
}

/// Lemma 2.3: every edge crosses clusters with probability <= 1/beta.
/// Empirical check with generous slack over many seeds.
TEST(EstClustering, EdgeCutProbabilityBound) {
  const Graph g = gen::grid_graph(30, 30);
  const double beta = 8.0;
  std::uint64_t cut = 0;
  std::uint64_t total = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const Clustering c = est_clustering(g, beta, seed);
    for (const auto& [u, v] : g.edge_list()) {
      ++total;
      cut += c.cluster_of[u] != c.cluster_of[v] ? 1 : 0;
    }
  }
  const double rate = static_cast<double>(cut) / static_cast<double>(total);
  EXPECT_LT(rate, 1.25 / beta) << "measured cut rate " << rate;
}

/// Lemma 2.3: cluster (weak) diameter O(beta log n). Check the radius from
/// the center within the cluster subgraph.
TEST(EstClustering, ClusterRadiusBound) {
  const Graph g = gen::grid_graph(40, 40);
  const double beta = 4.0;
  const double bound =
      4.0 * beta * std::log2(static_cast<double>(g.num_vertices()));
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Clustering c = est_clustering(g, beta, seed);
    for (Vertex cl = 0; cl < c.count; ++cl) {
      std::vector<Vertex> members(c.members.begin() + c.offsets[cl],
                                  c.members.begin() + c.offsets[cl + 1]);
      const DerivedGraph sub = induced_subgraph(g, members);
      std::uint32_t center_local = 0;
      for (std::size_t i = 0; i < members.size(); ++i)
        if (members[i] == c.center_of[cl]) center_local = static_cast<Vertex>(i);
      EXPECT_LT(eccentricity(sub.graph, center_local), bound);
    }
  }
}

/// Observation 1: under 2k-clustering a fixed connected k-subgraph stays
/// inside one cluster with probability >= 1/2.
TEST(EstClustering, Observation1RetentionRate) {
  const Graph g = gen::grid_graph(25, 25);
  // Fixed occurrence: a C4 in the middle (vertices of a unit square).
  const Vertex a = 12 * 25 + 12, b = a + 1, c = a + 25, d = a + 26;
  const std::uint32_t k = 4;
  int kept = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    const Clustering cl = est_clustering(g, 2.0 * k, 1000 + t);
    const Vertex cluster = cl.cluster_of[a];
    if (cl.cluster_of[b] == cluster && cl.cluster_of[c] == cluster &&
        cl.cluster_of[d] == cluster) {
      ++kept;
    }
  }
  EXPECT_GT(kept, trials / 2) << "retention " << kept << "/" << trials;
}

/// The round loop as it stood when Phase 3 sorted and deduplicated every
/// round's candidates: the oracle for the stamp-based gather. Records the
/// largest frontier Phase 2 walked in `max_frontier`.
std::uint64_t reference_key(double frac, Vertex center) {
  const auto q = static_cast<std::uint64_t>(frac * 4294967296.0);
  return (std::min<std::uint64_t>(q, 0xffffffffULL) << 32) | center;
}

void reference_atomic_min(std::uint64_t& slot, std::uint64_t value) {
  std::atomic_ref<std::uint64_t> ref(slot);
  std::uint64_t current = ref.load(std::memory_order_relaxed);
  while (value < current && !ref.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

Clustering sorted_round_reference(const Graph& g, double beta,
                                  std::uint64_t seed,
                                  support::Metrics* metrics,
                                  std::size_t* max_frontier) {
  constexpr std::uint32_t kUnclaimedRound = 0xffffffffu;
  constexpr std::uint64_t kUnclaimedKey = 0xffffffffffffffffULL;
  const Vertex n = g.num_vertices();
  Clustering out;
  out.cluster_of.assign(n, kNoVertex);
  *max_frontier = 0;
  if (n == 0) return out;

  std::vector<double> start(n);
  {
    std::vector<double> shift(n);
    support::parallel_for(0, n, [&](std::size_t v) {
      support::Rng rng(seed, v);
      shift[v] = rng.next_exponential(beta);
    });
    const double max_shift = support::parallel_reduce<double>(
        0, n, 0.0, [&](std::size_t v) { return shift[v]; },
        [](double a, double b) { return std::max(a, b); });
    support::parallel_for(0, n, [&](std::size_t v) {
      start[v] = max_shift - shift[v];
    });
  }

  std::uint32_t max_round = 0;
  for (Vertex v = 0; v < n; ++v)
    max_round = std::max(max_round,
                         static_cast<std::uint32_t>(std::floor(start[v])));
  std::vector<std::vector<Vertex>> starters(max_round + 1);
  for (Vertex v = 0; v < n; ++v)
    starters[static_cast<std::uint32_t>(std::floor(start[v]))].push_back(v);

  std::vector<std::uint64_t> key(n, kUnclaimedKey);
  std::vector<std::uint32_t> claimed_round(n, kUnclaimedRound);
  std::vector<Vertex> frontier;
  std::uint64_t work = 0;
  std::uint64_t claimed_total = 0;
  std::uint32_t round = 0;
  for (; claimed_total < n; ++round) {
    // Phase 1: self-starts of this round claim themselves.
    if (round <= max_round) {
      for (Vertex v : starters[round]) {
        ++work;
        if (claimed_round[v] != kUnclaimedRound) continue;
        reference_atomic_min(
            key[v], reference_key(start[v] - std::floor(start[v]), v));
        claimed_round[v] = round;
      }
    }
    // Phase 2: the previous round's winners propose to their neighbors.
    *max_frontier = std::max(*max_frontier, frontier.size());
    support::parallel_for(0, frontier.size(), [&](std::size_t i) {
      const Vertex u = frontier[i];
      const std::uint64_t ku = key[u];
      for (Vertex w : g.neighbors(u)) {
        std::atomic_ref<std::uint64_t> wslot(work);
        wslot.fetch_add(1, std::memory_order_relaxed);
        std::atomic_ref<std::uint32_t> cr(claimed_round[w]);
        const std::uint32_t rw = cr.load(std::memory_order_relaxed);
        if (rw < round) continue;  // claimed in an earlier round
        reference_atomic_min(key[w], ku);
        cr.store(round, std::memory_order_relaxed);
      }
    });
    // Phase 3: gather this round's winners as the next frontier.
    std::vector<Vertex> candidates;
    if (round <= max_round)
      candidates.insert(candidates.end(), starters[round].begin(),
                        starters[round].end());
    for (Vertex u : frontier)
      for (Vertex w : g.neighbors(u)) candidates.push_back(w);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    std::vector<Vertex> next;
    next.reserve(candidates.size());
    for (Vertex v : candidates) {
      if (claimed_round[v] == round) next.push_back(v);
    }
    claimed_total += next.size();
    frontier.swap(next);
  }

  std::vector<Vertex> center(n);
  support::parallel_for(0, n, [&](std::size_t v) {
    center[v] = static_cast<Vertex>(key[v] & 0xffffffffULL);
  });
  std::vector<Vertex> compact(n, kNoVertex);
  for (Vertex v = 0; v < n; ++v) {
    if (center[v] == v && compact[v] == kNoVertex) {
      compact[v] = out.count++;
      out.center_of.push_back(v);
    }
  }
  for (Vertex v = 0; v < n; ++v) {
    support::require(compact[center[v]] != kNoVertex,
                     "est_clustering: dangling center");
    out.cluster_of[v] = compact[center[v]];
  }
  out.offsets.assign(out.count + 1, 0);
  for (Vertex v = 0; v < n; ++v) ++out.offsets[out.cluster_of[v]];
  support::exclusive_scan_inplace(out.offsets);
  out.members.resize(n);
  {
    std::vector<std::uint32_t> cursor(out.offsets.begin(),
                                      out.offsets.end() - 1);
    for (Vertex v = 0; v < n; ++v) out.members[cursor[out.cluster_of[v]]++] = v;
  }
  out.num_rounds = round;
  if (metrics != nullptr) {
    metrics->add_work(work);
    metrics->add_rounds(round);
  }
  return out;
}

// The stamp-based frontier gather lists each round's winners in discovery
// order instead of sorted order; keys settle by an atomic min, so the
// clustering, its rounds and its work must not move. The large grid's
// frontier exceeds the parallel_for grain, so at several threads Phase 2
// really runs in parallel.
TEST(EstClustering, MatchesSortedRoundReference) {
  const struct {
    const char* name;
    Graph g;
    double beta;
    std::uint64_t seed;
    bool wide_frontier;
  } cases[] = {
      {"grid20x20", gen::grid_graph(20, 20), 4.0, 7, false},
      {"apollonian300", gen::apollonian(300, 9).graph(), 6.0, 3, false},
      {"gnp200", gen::gnp(200, 0.02, 1), 2.0, 11, false},
      {"path1", gen::path_graph(1), 4.0, 1, false},
      {"grid120x120", gen::grid_graph(120, 120), 1.0, 5, true},
  };
  for (const auto& c : cases) {
    support::Metrics got_metrics;
    support::Metrics want_metrics;
    std::size_t max_frontier = 0;
    const Clustering got = est_clustering(c.g, c.beta, c.seed, &got_metrics);
    const Clustering want = sorted_round_reference(c.g, c.beta, c.seed,
                                                   &want_metrics, &max_frontier);
    EXPECT_EQ(got.cluster_of, want.cluster_of) << c.name;
    EXPECT_EQ(got.center_of, want.center_of) << c.name;
    EXPECT_EQ(got.count, want.count) << c.name;
    EXPECT_EQ(got.offsets, want.offsets) << c.name;
    EXPECT_EQ(got.members, want.members) << c.name;
    EXPECT_EQ(got.num_rounds, want.num_rounds) << c.name;
    EXPECT_EQ(got_metrics.work(), want_metrics.work()) << c.name;
    EXPECT_EQ(got_metrics.rounds(), want_metrics.rounds()) << c.name;
    if (c.wide_frontier) {
      EXPECT_GT(max_frontier, support::kDefaultGrain) << c.name;
    }
  }
}

TEST(EstClustering, RoundsBound) {
  const Graph g = gen::grid_graph(30, 30);
  support::Metrics metrics;
  est_clustering(g, 4.0, 5, &metrics);
  const double bound =
      8.0 * 4.0 * std::log2(static_cast<double>(g.num_vertices())) + 16;
  EXPECT_LT(static_cast<double>(metrics.rounds()), bound);
}

}  // namespace
}  // namespace ppsi::cluster

#include "cluster/est_clustering.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <omp.h>

#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace ppsi::cluster {
namespace {

constexpr std::uint32_t kUnclaimedRound = 0xffffffffu;
constexpr std::uint64_t kUnclaimedKey = 0xffffffffffffffffULL;

/// Same-round competition key: fractional priority (quantized) above the
/// center id, so an atomic min picks the smallest fractional start and
/// breaks remaining ties by center id — deterministic for any schedule.
std::uint64_t make_key(double frac, Vertex center) {
  const auto q = static_cast<std::uint64_t>(frac * 4294967296.0);
  return (std::min<std::uint64_t>(q, 0xffffffffULL) << 32) | center;
}

void atomic_min_u64(std::uint64_t& slot, std::uint64_t value) {
  std::atomic_ref<std::uint64_t> ref(slot);
  std::uint64_t current = ref.load(std::memory_order_relaxed);
  while (value < current && !ref.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

Clustering est_clustering(const Graph& g, double beta, std::uint64_t seed,
                          support::Metrics* metrics) {
  support::require(beta > 0, "est_clustering: beta must be positive");
  const Vertex n = g.num_vertices();
  Clustering out;
  out.cluster_of.assign(n, kNoVertex);
  if (n == 0) return out;

  // Exponential shifts; start(v) = max_shift - shift(v), so the largest
  // shift starts first (argmin over dist(u, .) - shift(u) + const).
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

  // Bucket vertices by the round in which they may self-start.
  std::uint32_t max_round = 0;
  for (Vertex v = 0; v < n; ++v)
    max_round = std::max(max_round,
                         static_cast<std::uint32_t>(std::floor(start[v])));
  std::vector<std::vector<Vertex>> starters(max_round + 1);
  for (Vertex v = 0; v < n; ++v)
    starters[static_cast<std::uint32_t>(std::floor(start[v]))].push_back(v);

  std::vector<std::uint64_t> key(n, kUnclaimedKey);
  std::vector<std::uint32_t> claimed_round(n, kUnclaimedRound);
  // listed_round[v] == r once v joined round r's next frontier, so the
  // gather below lists each winner once without sorting its candidates.
  std::vector<std::uint32_t> listed_round(n, kUnclaimedRound);
  std::vector<Vertex> frontier;
  std::vector<Vertex> next;
  std::uint64_t work = 0;
  std::uint64_t claimed_total = 0;
  std::uint32_t round = 0;
  for (; claimed_total < n; ++round) {
    // Phase 1: self-starts of this round claim themselves.
    if (round <= max_round) {
      for (Vertex v : starters[round]) {
        ++work;
        if (claimed_round[v] != kUnclaimedRound) continue;
        atomic_min_u64(key[v], make_key(start[v] - std::floor(start[v]), v));
        claimed_round[v] = round;
      }
    }
    // Phase 2: the previous round's winners propose to their neighbors.
    // (A proposal has priority exactly one more than its proposer, so its
    // fractional part — and hence the key — is unchanged.) Keys settle by
    // an atomic min, so the outcome does not depend on frontier order.
    support::parallel_for(0, frontier.size(), [&](std::size_t i) {
      const Vertex u = frontier[i];
      const std::uint64_t ku = key[u];
      for (Vertex w : g.neighbors(u)) {
        std::atomic_ref<std::uint32_t> cr(claimed_round[w]);
        const std::uint32_t rw = cr.load(std::memory_order_relaxed);
        if (rw < round) continue;  // claimed in an earlier round
        atomic_min_u64(key[w], ku);
        cr.store(round, std::memory_order_relaxed);
      }
    });
    // Phase 3: gather this round's winners as the next frontier, and count
    // Phase 2's work (one unit per proposal) in the same serial pass.
    next.clear();
    const auto list = [&](Vertex v) {
      if (claimed_round[v] != round || listed_round[v] == round) return;
      listed_round[v] = round;
      next.push_back(v);
    };
    if (round <= max_round)
      for (Vertex v : starters[round]) list(v);
    for (Vertex u : frontier) {
      work += g.degree(u);
      for (Vertex w : g.neighbors(u)) list(w);
    }
    claimed_total += next.size();
    frontier.swap(next);
  }

  // Extract cluster assignment (center = low 32 bits of the key) and
  // compact center ids.
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
  // Defensive: a center must have claimed itself (it always does: its own
  // self-start key is minimal for it in its round).
  for (Vertex v = 0; v < n; ++v) {
    support::require(compact[center[v]] != kNoVertex,
                     "est_clustering: dangling center");
    out.cluster_of[v] = compact[center[v]];
  }
  // Group members by cluster.
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

}  // namespace ppsi::cluster

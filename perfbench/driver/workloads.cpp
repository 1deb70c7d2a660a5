#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "api/solver.hpp"
#include "connectivity/flow_connectivity.hpp"
#include "graph/generators.hpp"

namespace perfbench {

using namespace ppsi;

double Params::number(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end())
    throw std::invalid_argument("missing workload parameter '" + key + "'");
  read_.insert(key);
  return std::stod(it->second);
}

void Params::check_all_read() const {
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0)
      throw std::invalid_argument("workload does not take parameter '" + key +
                                  "'");
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes times;
  if (cpu != "cpu") return times;
  // user nice system idle iowait irq softirq steal (guest is inside user).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) break;
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double steal_share(const CpuTimes& from, const CpuTimes& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

void add_layer_metrics(Report& report, const ReplayStats& total, double n,
                       const LayerExtras& extras) {
  const auto frac = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  const auto busy = [&](Layer layer) {
    return total.ms[static_cast<int>(layer)] / n;
  };
  const auto per_query = [&](std::uint64_t count) {
    return static_cast<double>(count) / n;
  };
  report.add("cluster.busy_ms", busy(Layer::kCluster), "ms");
  // Self time: the cover build re-runs the clustering the cluster span
  // timed on its own.
  report.add("cover.busy_ms", busy(Layer::kCover) - busy(Layer::kCluster), "ms");
  report.add("cover.builds", per_query(total.cover_builds), "count");
  report.add("cover.blowup",
             frac(static_cast<double>(total.cover_slice_vertices),
                  static_cast<double>(total.cover_target_vertices)),
             "ratio");
  report.add("treedecomp.busy_ms", busy(Layer::kTreedecomp), "ms");
  report.add("treedecomp.width_max", std::max(0, total.width_max), "count");
  report.add("isomorphism.dp_busy_ms", busy(Layer::kDp), "ms");
  report.add("isomorphism.dp_work", per_query(total.dp_work), "count");
  report.add("isomorphism.slices_solved", per_query(total.slices_solved), "count");
  report.add("isomorphism.accept_frac",
             frac(static_cast<double>(total.slices_accepted),
                  static_cast<double>(total.slices_solved)),
             "frac");
  report.add("isomorphism.scratch_peak_mb",
             static_cast<double>(total.scratch_peak_bytes) / (1 << 20), "MB");
  report.add("isomorphism.recover_busy_ms", busy(Layer::kRecover), "ms");
  report.add("isomorphism.recover_work", per_query(total.recover_work), "count");
  report.add("isomorphism.distinct_frac",
             frac(static_cast<double>(total.distinct),
                  static_cast<double>(total.recovered)),
             "frac");
  report.add("planar.busy_ms", busy(Layer::kPlanar), "ms");
  report.add("connectivity.busy_ms", busy(Layer::kConnectivity), "ms");
  report.add("connectivity.probes", per_query(total.probes), "count");
  report.add("connectivity.probe_runs", per_query(total.probe_runs), "count");
  report.add("api.self_ms", extras.self_ms, "ms");
  report.add("api.cover_hit_frac", extras.cover_hit_frac, "frac");
  report.add("support.speedup", extras.speedup, "ratio");
  report.add("host.steal_frac", extras.steal, "frac");
  report.add("trace.overhead_frac", extras.overhead, "frac");
}

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

iso::Pattern pattern_of(const Graph& g) { return iso::Pattern::from_graph(g); }

template <typename T>
std::uint64_t work_of(const Result<T>& result) {
  return result.has_value() ? result->metrics.work() : 0;
}

QueryOptions options_with_seed(std::uint64_t seed) {
  QueryOptions options;
  options.seed = seed;
  return options;
}

/// A decision answered correctly: ok status, the expected verdict, and a
/// witness that checks edge by edge.
bool decision_ok(const Result<cover::DecisionResult>& result,
                 const Graph& target, const iso::Pattern& pattern,
                 bool expect) {
  if (!result.ok() || result->found != expect) return false;
  if (!expect) return true;
  return result->witness.has_value() &&
         verify_assignment(target, pattern, *result->witness);
}

/// `replay_faithful` starts from the work check; workloads add their own
/// answer checks.
TracedOutcome finish_traced(Outcome out, const ReplayStats& replay,
                            const CacheStats& before, const CacheStats& after) {
  TracedOutcome traced;
  traced.out = out;
  traced.replay = replay;
  traced.replay_faithful = replay.work == out.work;
  traced.cover_hits = after.cover_hits - before.cover_hits;
  traced.cover_misses = after.cover_misses - before.cover_misses;
  return traced;
}

/// The replay reached the query's verdict after as many cover runs.
bool same_decision(const Result<cover::DecisionResult>& result,
                   const ReplayStats& replay) {
  return result.has_value() && result->found == replay.found &&
         result->runs == replay.runs;
}

// ---- warm-screen -------------------------------------------------------
//
// Two long-lived Solvers whose caches set-up primes with every
// (pattern, seed) pair of the stream, so each measured decision is pure
// isomorphism DP over cached covers and decompositions.

class WarmScreen final : public ClosedLoop {
 public:
  explicit WarmScreen(std::uint64_t seed) {
    SeedRng rng(mix(seed, 1));
    // Sizes are fixed, so the seed changes structure and run seeds but not
    // how much work a pass holds; many distinct queries per pass keep the
    // latency quantiles from hanging on a few seed-dependent ones.
    targets_[0] = gen::grid_graph(14, 14);
    targets_[1] = gen::apollonian(400, rng.next()).graph();
    if (targets_[1].max_degree() < 4)
      throw std::runtime_error("warm-screen: triangulation without K1,4");
    patterns_ = {pattern_of(gen::cycle_graph(4)), pattern_of(gen::cycle_graph(6)),
                 pattern_of(gen::path_graph(5)), pattern_of(gen::star_graph(5)),
                 pattern_of(gen::cycle_graph(3)), pattern_of(gen::cycle_graph(5)),
                 pattern_of(gen::complete_graph(4))};
    enum { kC4, kC6, kP5, kK14, kK3, kC5, kK4 };
    // (target, pattern, seeds, expected). The grid is bipartite, so odd
    // cycles and K4 are absent by construction and run every cover; their
    // cost barely depends on the seed. Present decisions stop at the first
    // accepting slice and swing with the seed, so they are a quarter of the
    // mix: ranked by cost, K3 then spans the middle half (the median falls
    // inside it, not at its edge) and C5 the top 7% (the tail). Long-
    // diameter patterns stay off the triangulation: there they cost
    // 10-100x the rest.
    const struct {
      int target, pattern, seeds;
      bool expect;
    } mix_table[] = {
        {0, kK3, 27, false}, {0, kK4, 14, false}, {0, kC5, 4, false},
        {0, kC4, 2, true},   {0, kC6, 2, true},   {0, kP5, 2, true},
        {0, kK14, 2, true},  {1, kC4, 3, true},   {1, kK14, 2, true},
        {1, kK3, 3, true},
    };
    for (const auto& row : mix_table) {
      for (int s = 0; s < row.seeds; ++s) {
        items_.push_back({row.target, static_cast<std::size_t>(row.pattern),
                          mix(seed, 100 * row.pattern + 10 * row.target + s),
                          row.expect});
      }
    }
    for (std::size_t i = items_.size(); i > 1; --i)
      std::swap(items_[i - 1], items_[rng.next() % i]);
  }

  std::size_t pass_len() const override { return items_.size(); }
  double nominal_pass_s() const override { return 1.8; }
  bool passes_repeat() const override { return true; }

  SetupCost setup() override {
    SetupCost cost;
    for (int t = 0; t < 2; ++t) {
      solvers_[t].reset();
      Graph copy = targets_[t];
      const auto t0 = Clock::now();
      solvers_[t] = std::make_unique<Solver>(std::move(copy));
      solvers_[t]->set_cache_capacity(0);  // every primed cover stays
      cost.seconds += seconds_since(t0);
    }
    for (const Item& item : items_) {
      const auto t0 = Clock::now();
      const auto result = solvers_[item.target]->find(
          patterns_[item.pattern], options_with_seed(item.seed));
      cost.seconds += seconds_since(t0);
      cost.work += work_of(result);
    }
    return cost;
  }

  Outcome run(std::size_t i) override {
    const Item& item = items_[i];
    const auto t0 = Clock::now();
    const auto result = solvers_[item.target]->find(
        patterns_[item.pattern], options_with_seed(item.seed));
    Outcome out;
    out.latency_ms = ms_between(t0, Clock::now());
    out.work = work_of(result);
    out.ok = decision_ok(result, targets_[item.target], patterns_[item.pattern],
                         item.expect);
    return out;
  }

  TracedOutcome run_traced(std::size_t i, Tracer& tracer,
                           Replayer& replayer) override {
    const Item& item = items_[i];
    Solver& solver = *solvers_[item.target];
    const CacheStats before = solver.cache_stats();
    Outcome out;
    Result<cover::DecisionResult> result;
    {
      const Tracer::Scope span(tracer, Layer::kQuery, &out.latency_ms);
      result = solver.find(patterns_[item.pattern], options_with_seed(item.seed));
    }
    const CacheStats after = solver.cache_stats();
    out.work = work_of(result);
    out.ok = decision_ok(result, targets_[item.target], patterns_[item.pattern],
                         item.expect);
    const ReplayStats replay = replayer.find(
        item.target, targets_[item.target], patterns_[item.pattern], item.seed,
        after.cover_misses > before.cover_misses, true);
    TracedOutcome traced = finish_traced(out, replay, before, after);
    traced.replay_faithful = traced.replay_faithful && same_decision(result, replay);
    return traced;
  }

  void prime_replay(Replayer& replayer) override {
    for (const Item& item : items_) {
      (void)replayer.find(item.target, targets_[item.target],
                          patterns_[item.pattern], item.seed, false, true);
    }
  }

 private:
  struct Item {
    int target;
    std::size_t pattern;
    std::uint64_t seed;
    bool expect;
  };
  Graph targets_[2];
  std::unique_ptr<Solver> solvers_[2];
  std::vector<iso::Pattern> patterns_;
  std::vector<Item> items_;
};

// ---- cold-find ---------------------------------------------------------
//
// A stream of distinct 1.5k-4k vertex planar targets, each answered by a
// fresh Solver: every query pays clustering, cover and decomposition.

/// Grid with ~3% of its edges deleted; keeps at least one intact unit
/// square, so a C4 is present by construction.
Graph holed_grid(std::uint32_t rows, std::uint32_t cols, SeedRng& rng) {
  const auto id = [&](std::uint32_t r, std::uint32_t c) { return r * cols + c; };
  EdgeList edges;
  const auto keep = [&](Vertex a, Vertex b, bool protect) {
    if (protect || rng.uniform() >= 0.03) edges.emplace_back(a, b);
  };
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      const bool square = r < 2 && c < 2;  // the protected unit square
      if (c + 1 < cols) keep(id(r, c), id(r, c + 1), square && c == 0);
      if (r + 1 < rows) keep(id(r, c), id(r + 1, c), square && r == 0);
    }
  }
  return Graph::from_edges(rows * cols, edges);
}

class ColdFind final : public ClosedLoop {
 public:
  explicit ColdFind(std::uint64_t seed)
      : seed_(seed),
        c4_(pattern_of(gen::cycle_graph(4))),
        p4_(pattern_of(gen::path_graph(4))) {
    // Warm-up targets do not depend on the workload seed and are twice the
    // largest measured size, so one-time costs (OMP team start, arena
    // growth) land in set-up, and set-up costs the same in every run. A P4
    // decision on each grows the thread-lifetime DP arenas past what any C4
    // query needs; otherwise the peak RSS hangs on which of a seed's 1260
    // targets needs the largest arena (19.5-31 MB across ten seeds).
    SeedRng rng(0x3a7e);
    for (int i = 0; i < kWarmup; ++i) warmup_.push_back(make_target(i, 8000, rng));
  }

  std::size_t pass_len() const override { return kTargets; }
  double nominal_pass_s() const override { return 1.4; }

  /// Every pass answers a fresh stream of distinct targets: a fixed ladder
  /// of sizes across 1.5k-4k vertices, the seed and the pass picking the
  /// structure and the run seeds.
  void begin_pass(std::size_t pass) override {
    SeedRng rng(mix(mix(seed_, 2), pass));
    targets_.clear();
    seeds_.clear();
    for (int i = 0; i < kTargets; ++i) {
      const auto n = static_cast<std::uint32_t>(1500 + 2500 * i / (kTargets - 1));
      targets_.push_back(make_target(i, n, rng));
      seeds_.push_back(rng.next());
    }
  }

  SetupCost setup() override {
    SetupCost cost;
    for (std::size_t i = 0; i < warmup_.size(); ++i) {
      Graph copy = warmup_[i];
      const auto t0 = Clock::now();
      Solver solver(std::move(copy));
      const auto c4 = solver.find(c4_, options_with_seed(i + 1));
      const auto p4 = solver.find(p4_, options_with_seed(i + 1));
      cost.seconds += seconds_since(t0);
      cost.work += work_of(c4) + work_of(p4);
    }
    return cost;
  }

  Outcome run(std::size_t i) override {
    Graph copy = targets_[i];
    Outcome out;
    Result<cover::DecisionResult> result;
    const auto t0 = Clock::now();
    {
      Solver solver(std::move(copy));
      result = solver.find(c4_, options_with_seed(seeds_[i]));
    }
    out.latency_ms = ms_between(t0, Clock::now());
    out.work = work_of(result);
    out.ok = decision_ok(result, targets_[i], c4_, true);
    return out;
  }

  TracedOutcome run_traced(std::size_t i, Tracer& tracer,
                           Replayer& replayer) override {
    Graph copy = targets_[i];
    Outcome out;
    Result<cover::DecisionResult> result;
    CacheStats after;
    {
      const Tracer::Scope span(tracer, Layer::kQuery, &out.latency_ms);
      Solver solver(std::move(copy));
      result = solver.find(c4_, options_with_seed(seeds_[i]));
      after = solver.cache_stats();
    }
    out.work = work_of(result);
    out.ok = decision_ok(result, targets_[i], c4_, true);
    const ReplayStats replay =
        replayer.find(i, targets_[i], c4_, seeds_[i], true, false);
    TracedOutcome traced = finish_traced(out, replay, CacheStats{}, after);
    traced.replay_faithful = traced.replay_faithful && same_decision(result, replay);
    return traced;
  }

 private:
  static constexpr int kTargets = 90;
  static constexpr int kWarmup = 6;

  /// Family i % 2 at about n vertices: a holed grid, or a triangulation
  /// made by one round of Loop subdivision (which quadruples the vertex
  /// count) of an Apollonian network. Raw Apollonian networks are left
  /// out here: their hubs give a few targets 3-5x the median cost, and
  /// which ones varies so much with the seed that the p99 latency swung
  /// by 20% between seeds.
  static Graph make_target(int i, std::uint32_t n, SeedRng& rng) {
    if (i % 2 == 0) return holed_grid(40, n / 40, rng);
    return gen::loop_subdivide(gen::apollonian(n / 4, rng.next()), 1).graph();
  }

  std::uint64_t seed_;
  iso::Pattern c4_;
  iso::Pattern p4_;  ///< warm-up only: grows the DP arenas past any C4 query
  std::vector<Graph> warmup_;
  std::vector<Graph> targets_;
  std::vector<std::uint64_t> seeds_;
};

// ---- connectivity ------------------------------------------------------
//
// Fresh embedded Solvers on families whose vertex connectivity is known by
// construction (cross-checked with the flow baseline in set-up).

class Connectivity final : public ClosedLoop {
 public:
  Connectivity(std::uint64_t seed, const Params& params)
      : seed_(seed),
        max_runs_(static_cast<std::uint32_t>(params.number("max_runs"))) {
    // Costs per pass: the icosahedron's probes are all negative, so it
    // pays every run (about 60% of the pass); the 4-connected ones stop at
    // a random run of the C8 probe; the rest stop at their first cycle.
    // Ranked by cost, the median falls among the wheels and the p75 tail
    // among the Apollonian networks. Their structure is fixed, and the
    // workload seed draws only the run seeds: drawn from the seed, the
    // networks moved the p75 by 10% between seeds. Below
    // QueryOptions::small_cutoff (8 vertices) the flow baseline answers;
    // the octahedron takes that path.
    for (Vertex i = 0; i < 4; ++i) add(gen::embedded_grid(4 + i, 8 - i), 2);
    for (Vertex i = 0; i < 5; ++i) add(gen::wheel(10 + i), 3);
    for (Vertex i = 0; i < 4; ++i) add(gen::apollonian(45 + 8 * i, mix(0xa90, i)), 3);
    add(gen::bipyramid(8), 4);
    add(gen::antiprism(5), 4);
    add(gen::octahedron(), 4);
    add(gen::icosahedron(), 5);
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      const auto flow =
          connectivity::vertex_connectivity_flow(targets_[i].graph());
      if (flow.connectivity != expect_[i])
        throw std::runtime_error("connectivity: target " + std::to_string(i) +
                                 " is not " + std::to_string(expect_[i]) +
                                 "-connected by flow");
    }
    // Warm-up targets and seeds do not depend on the workload seed, so
    // set-up costs the same in every run.
    warmup_.push_back(gen::embedded_grid(5, 5));
    warmup_.push_back(gen::wheel(10));
    warmup_.push_back(gen::apollonian(40, 0x3a7e));
    warmup_.push_back(gen::bipyramid(7));
    seeds_.resize(targets_.size());
  }

  std::size_t pass_len() const override { return targets_.size(); }
  double nominal_pass_s() const override { return 4.0; }

  /// New run seeds every pass, so a run averages over how early each
  /// positive probe succeeds.
  void begin_pass(std::size_t pass) override {
    for (std::size_t i = 0; i < seeds_.size(); ++i)
      seeds_[i] = mix(mix(seed_, 2000 + i), pass);
  }

  SetupCost setup() override {
    SetupCost cost;
    for (std::size_t i = 0; i < warmup_.size(); ++i) {
      planar::EmbeddedGraph copy = warmup_[i];
      const auto t0 = Clock::now();
      Solver solver(std::move(copy));
      const auto result = solver.vertex_connectivity(options(i + 1));
      cost.seconds += seconds_since(t0);
      cost.work += work_of(result);
    }
    return cost;
  }

  Outcome run(std::size_t i) override {
    planar::EmbeddedGraph copy = targets_[i];
    Outcome out;
    Result<connectivity::VertexConnectivityResult> result;
    const auto t0 = Clock::now();
    {
      Solver solver(std::move(copy));
      result = solver.vertex_connectivity(options(seeds_[i]));
    }
    out.latency_ms = ms_between(t0, Clock::now());
    finish(i, result, out);
    return out;
  }

  TracedOutcome run_traced(std::size_t i, Tracer& tracer,
                           Replayer& replayer) override {
    planar::EmbeddedGraph copy = targets_[i];
    Outcome out;
    Result<connectivity::VertexConnectivityResult> result;
    CacheStats after;
    {
      const Tracer::Scope span(tracer, Layer::kQuery, &out.latency_ms);
      Solver solver(std::move(copy));
      result = solver.vertex_connectivity(options(seeds_[i]));
      after = solver.cache_stats();
    }
    finish(i, result, out);
    ReplayStats replay =
        replayer.vertex_connectivity(targets_[i], seeds_[i], max_runs_);
    TracedOutcome traced = finish_traced(out, replay, CacheStats{}, after);
    traced.replay_faithful =
        traced.replay_faithful && replay.connectivity == expect_[i] &&
        (!result.has_value() || replay.probe_runs == result->cycle_runs);
    return traced;
  }

 private:
  void add(planar::EmbeddedGraph eg, std::uint32_t c) {
    targets_.push_back(std::move(eg));
    expect_.push_back(c);
  }
  QueryOptions options(std::uint64_t seed) const {
    QueryOptions options = options_with_seed(seed);
    options.max_runs = max_runs_;
    return options;
  }
  void finish(std::size_t i,
              const Result<connectivity::VertexConnectivityResult>& result,
              Outcome& out) const {
    out.work = work_of(result);
    out.ok = result.ok() && result->connectivity == expect_[i] &&
             cut_ok(targets_[i].graph(), result->witness_cut,
                    result->connectivity);
  }
  /// A reported cut must have the reported size and disconnect the graph.
  static bool cut_ok(const Graph& g, const std::vector<Vertex>& cut,
                     std::uint32_t c) {
    if (cut.empty()) return true;
    if (cut.size() != c) return false;
    std::vector<std::uint8_t> removed(g.num_vertices(), 0);
    for (const Vertex v : cut) removed[v] = 1;
    Vertex start = 0;
    while (start < g.num_vertices() && removed[start] != 0) ++start;
    std::vector<Vertex> stack{start};
    std::vector<std::uint8_t> seen = removed;
    seen[start] = 1;
    std::size_t reached = 1;
    while (!stack.empty()) {
      const Vertex v = stack.back();
      stack.pop_back();
      for (const Vertex w : g.neighbors(v)) {
        if (seen[w] == 0) {
          seen[w] = 1;
          ++reached;
          stack.push_back(w);
        }
      }
    }
    return reached + cut.size() < g.num_vertices();
  }

  std::uint64_t seed_;
  std::uint32_t max_runs_;
  std::vector<planar::EmbeddedGraph> targets_;
  std::vector<std::uint32_t> expect_;
  std::vector<planar::EmbeddedGraph> warmup_;
  std::vector<std::uint64_t> seeds_;
};

}  // namespace

std::unique_ptr<ClosedLoop> make_warm_screen(std::uint64_t seed,
                                             const Params& /*params*/) {
  return std::make_unique<WarmScreen>(seed);
}
std::unique_ptr<ClosedLoop> make_cold_find(std::uint64_t seed,
                                           const Params& /*params*/) {
  return std::make_unique<ColdFind>(seed);
}
std::unique_ptr<ClosedLoop> make_connectivity(std::uint64_t seed,
                                              const Params& params) {
  return std::make_unique<Connectivity>(seed, params);
}

}  // namespace perfbench

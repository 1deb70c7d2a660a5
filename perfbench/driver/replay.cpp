#include "replay.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "cluster/est_clustering.hpp"
#include "connectivity/articulation.hpp"
#include "connectivity/flow_connectivity.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "isomorphism/sparse_dp.hpp"
#include "planar/face_vertex_graph.hpp"
#include "support/rng.hpp"
#include "treedecomp/greedy_decomposition.hpp"

namespace perfbench {

using namespace ppsi;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kQuery: return "api.query";
    case Layer::kCluster: return "cluster";
    case Layer::kCover: return "cover";
    case Layer::kTreedecomp: return "treedecomp";
    case Layer::kDp: return "isomorphism.dp";
    case Layer::kRecover: return "isomorphism.recover";
    case Layer::kPlanar: return "planar";
    case Layer::kConnectivity: return "connectivity";
  }
  return "?";
}

Tracer::Scope::Scope(Tracer& tracer, Layer layer, double* sink_ms)
    : tracer_(tracer),
      index_(tracer.spans_.size()),
      saved_parent_(tracer.parent_),
      sink_ms_(sink_ms) {
  Span span;
  span.query = tracer.query_;
  span.parent = tracer.parent_;
  span.layer = layer;
  span.start_ms = ms_between(tracer.origin_, Clock::now());
  tracer.spans_.push_back(span);
  tracer.parent_ = static_cast<std::int32_t>(index_);
}

Tracer::Scope::~Scope() {
  Span& span = tracer_.spans_[index_];
  span.end_ms = ms_between(tracer_.origin_, Clock::now());
  if (sink_ms_ != nullptr) *sink_ms_ += span.end_ms - span.start_ms;
  // A query span stays the parent of the replay spans that follow it.
  if (span.layer != Layer::kQuery) tracer_.parent_ = saved_parent_;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"query\":%u,\"parent\":%d,\"name\":\"%s\","
                 "\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                 s.query, s.parent, layer_name(s.layer), s.start_ms, s.end_ms);
  }
  return std::fclose(out) == 0;
}

void ReplayStats::add(const ReplayStats& o) {
  work += o.work;
  for (int i = 0; i < kNumLayers; ++i) ms[i] += o.ms[i];
  cover_builds += o.cover_builds;
  cover_slice_vertices += o.cover_slice_vertices;
  cover_target_vertices += o.cover_target_vertices;
  width_max = std::max(width_max, o.width_max);
  dp_work += o.dp_work;
  slices_solved += o.slices_solved;
  slices_accepted += o.slices_accepted;
  scratch_peak_bytes = std::max(scratch_peak_bytes, o.scratch_peak_bytes);
  recover_work += o.recover_work;
  recovered += o.recovered;
  distinct += o.distinct;
  probes += o.probes;
  probe_runs += o.probe_runs;
}

double ReplayStats::total_layer_ms() const {
  double sum = 0;
  for (int i = 1; i < kNumLayers; ++i) sum += ms[i];
  // The cover span re-runs clustering inside it; the standalone cluster
  // span only splits that time out, so count it once.
  return sum - ms[static_cast<int>(Layer::kCluster)];
}

namespace {

/// The replay runs single-threaded, so its layer times add up to serial
/// time (support.speedup compares them with the threaded query).
class SerialOmp {
 public:
  SerialOmp() : saved_(omp_get_max_threads()) { omp_set_num_threads(1); }
  ~SerialOmp() { omp_set_num_threads(saved_); }
  SerialOmp(const SerialOmp&) = delete;
  SerialOmp& operator=(const SerialOmp&) = delete;

 private:
  int saved_;
};

double* sink(ReplayStats& st, Layer layer) {
  return &st.ms[static_cast<int>(layer)];
}

std::uint32_t default_runs(Vertex n) {
  const double lg = std::log2(static_cast<double>(n) + 2.0);
  return static_cast<std::uint32_t>(2.0 * lg) + 4;
}

}  // namespace

std::shared_ptr<const Replayer::Built> Replayer::acquire(
    std::uint64_t target, const Graph& graph, std::uint32_t d,
    std::uint32_t k, std::uint64_t seed, const std::vector<std::uint8_t>* in_s,
    bool solver_built, bool keep, ReplayStats& st) {
  const Key key{target, in_s != nullptr, d, k, seed};
  const bool charge = solver_built;
  if (const auto it = cache_.find(key); !charge && it != cache_.end())
    return it->second;

  auto built = std::make_shared<Built>();
  const double beta = 2.0 * k;
  const auto build = [&] {
    built->cover = in_s != nullptr
                       ? cover::build_separating_cover(graph, *in_s, d, beta,
                                                       seed, k)
                       : cover::build_kd_cover(graph, d, beta, seed, k);
  };
  const auto decompose = [&](const cover::Slice& slice) {
    return treedecomp::binarize(treedecomp::greedy_decomposition(
        slice.graph, treedecomp::GreedyStrategy::kMinDegree));
  };
  if (charge) {
    {
      const Tracer::Scope span(tracer_, Layer::kCluster,
                               sink(st, Layer::kCluster));
      (void)cluster::est_clustering(graph, beta, seed);
    }
    {
      const Tracer::Scope span(tracer_, Layer::kCover, sink(st, Layer::kCover));
      build();
    }
    {
      const Tracer::Scope span(tracer_, Layer::kTreedecomp,
                               sink(st, Layer::kTreedecomp));
      for (const cover::Slice& slice : built->cover.slices)
        built->tds.push_back(decompose(slice));
    }
    st.work += built->cover.metrics.work();
    ++st.cover_builds;
    st.cover_target_vertices += graph.num_vertices();
    for (const cover::Slice& slice : built->cover.slices)
      st.cover_slice_vertices += slice.graph.num_vertices();
    for (const auto& td : built->tds) st.width_max = std::max(st.width_max, td.width());
  } else {
    // The Solver had this cover cached (built during set-up): rebuild the
    // replay's copy off the clock.
    build();
    for (const cover::Slice& slice : built->cover.slices)
      built->tds.push_back(decompose(slice));
  }
  if (keep) cache_[key] = built;
  return built;
}

bool Replayer::solve_decision(const Built& built, const iso::Pattern& pattern,
                              ReplayStats& st) {
  for (std::size_t i = 0; i < built.cover.slices.size(); ++i) {
    const cover::Slice& slice = built.cover.slices[i];
    if (slice.graph.num_vertices() < pattern.size()) continue;
    iso::DpOptions options;
    options.spec = slice.spec;
    iso::DpSolution sol;
    {
      const Tracer::Scope span(tracer_, Layer::kDp, sink(st, Layer::kDp));
      sol = iso::solve_sparse(slice.graph, built.tds[i], pattern, options);
    }
    st.work += sol.metrics.work();
    st.dp_work += sol.metrics.work();
    ++st.slices_solved;
    st.scratch_peak_bytes =
        std::max(st.scratch_peak_bytes, sol.metrics.scratch_peak_bytes());
    if (!sol.accepted) continue;
    ++st.slices_accepted;
    std::uint64_t recover_work = 0;
    std::vector<iso::Assignment> found;
    {
      const Tracer::Scope span(tracer_, Layer::kRecover,
                               sink(st, Layer::kRecover));
      found = iso::recover_assignments(sol, built.tds[i], 1, &recover_work);
    }
    st.recover_work += recover_work;
    st.recovered += found.size();
    st.distinct += found.size();
    return true;
  }
  return false;
}

ReplayStats Replayer::find(std::uint64_t target, const Graph& graph,
                           const iso::Pattern& pattern, std::uint64_t seed,
                           bool solver_built, bool keep) {
  const SerialOmp serial;
  ReplayStats st;
  if (graph.num_vertices() < pattern.size()) return st;
  const std::uint32_t runs = default_runs(graph.num_vertices());
  const std::uint32_t d = std::max(1u, pattern.diameter());
  for (std::uint32_t r = 0; r < runs; ++r) {
    const auto built =
        acquire(target, graph, d, pattern.size(),
                support::hash_combine(seed, r), nullptr, solver_built, keep, st);
    ++st.runs;
    if (solve_decision(*built, pattern, st)) {
      st.found = true;
      break;
    }
  }
  return st;
}

ReplayStats Replayer::vertex_connectivity(const planar::EmbeddedGraph& eg,
                                          std::uint64_t seed,
                                          std::uint32_t max_runs) {
  const SerialOmp serial;
  constexpr Vertex kSmallCutoff = 8;  // QueryOptions::small_cutoff default
  ReplayStats st;
  const Graph& g = eg.graph();
  {
    const Tracer::Scope span(tracer_, Layer::kConnectivity,
                             sink(st, Layer::kConnectivity));
    if (g.num_vertices() <= kSmallCutoff) {
      st.connectivity = connectivity::vertex_connectivity_flow(g).connectivity;
      return st;
    }
    if (connected_components(g).count != 1) return st;
    if (!connectivity::articulation_points(g).empty()) {
      st.connectivity = 1;
      return st;
    }
  }
  planar::FaceVertexGraph fvg;
  {
    const Tracer::Scope span(tracer_, Layer::kPlanar, sink(st, Layer::kPlanar));
    fvg = planar::build_face_vertex_graph(eg);
  }
  std::vector<std::uint8_t> in_s(fvg.graph.num_vertices(), 0);
  for (Vertex v = 0; v < fvg.num_original; ++v) in_s[v] = 1;
  // Each embedded Solver is fresh, so every separating cover is a miss;
  // the face-vertex graph gets its own cache tag per query.
  const std::uint64_t tag = mix(seed, 0xf4ce);
  for (std::uint32_t c = 2; c <= 4; ++c) {
    const iso::Pattern cycle = iso::Pattern::from_graph(gen::cycle_graph(2 * c));
    const std::uint64_t probe_seed = support::hash_combine(seed, c);
    const std::uint32_t d = std::max(1u, cycle.diameter());
    ++st.probes;
    for (std::uint32_t r = 0; r < max_runs; ++r) {
      const auto built = acquire(tag, fvg.graph, d, cycle.size(),
                                 support::hash_combine(probe_seed, 0x5e9 + r),
                                 &in_s, true, false, st);
      ++st.probe_runs;
      if (solve_decision(*built, cycle, st)) {
        st.connectivity = c;
        return st;
      }
    }
  }
  st.connectivity = 5;
  return st;
}

bool verify_assignment(const Graph& target, const iso::Pattern& pattern,
                       const iso::Assignment& images) {
  if (images.size() != pattern.size()) return false;
  std::vector<Vertex> sorted = images;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    return false;
  for (const Vertex v : images) {
    if (v >= target.num_vertices()) return false;
  }
  for (Vertex u = 0; u < pattern.size(); ++u) {
    for (const Vertex w : pattern.graph().neighbors(u)) {
      if (!target.has_edge(images[u], images[w])) return false;
    }
  }
  return true;
}

}  // namespace perfbench

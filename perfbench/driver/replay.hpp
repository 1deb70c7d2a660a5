#pragma once

// Layer-by-layer replay of Solver queries for the traced run.
//
// After a traced query returns, the benchmark re-executes it through the
// public functions of each layer, with the run seeds the Solver derives
// (support::hash_combine of the query seed): cluster::est_clustering,
// cover::build_kd_cover / build_separating_cover, treedecomp::
// greedy_decomposition + binarize, iso::solve_sparse, iso::
// recover_assignments, planar::build_face_vertex_graph and the
// connectivity gates. Every call is wrapped in a span, so the replay says
// where the query's time went without instrumenting the library.
//
// The replay is faithful when its summed instrumented work equals the
// query's metrics.work(). Cover work counts only when the Solver built the
// cover (a cache hit did not do that work), so the replay mirrors the
// Solver's cache: `solver_built` says whether the query missed, and covers
// the Solver had cached come from the replay's own cache, untimed.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cover/kd_cover.hpp"
#include "graph/graph.hpp"
#include "isomorphism/pattern.hpp"
#include "isomorphism/sequential_dp.hpp"
#include "planar/rotation_system.hpp"
#include "stats.hpp"
#include "treedecomp/tree_decomposition.hpp"

namespace perfbench {

enum class Layer : int {
  kQuery,         ///< the Solver call itself (api)
  kCluster,       ///< cluster::est_clustering
  kCover,         ///< cover build, including its internal clustering
  kTreedecomp,    ///< greedy_decomposition + binarize per slice
  kDp,            ///< iso::solve_sparse per slice
  kRecover,       ///< iso::recover_assignments
  kPlanar,        ///< planar::build_face_vertex_graph
  kConnectivity,  ///< components / articulation / flow gates
};
inline constexpr int kNumLayers = 8;
const char* layer_name(Layer layer);

/// Spans of one benchmark process, kept in memory and written out at the
/// end. Spans of one query share its id; `parent` is the index of the span
/// that caused this one (-1 for a root).
class Tracer {
 public:
  struct Span {
    std::uint32_t query = 0;
    std::int32_t parent = -1;
    Layer layer = Layer::kQuery;
    double start_ms = 0;
    double end_ms = 0;
  };

  /// RAII span; also adds its duration to `*sink_ms` when given.
  class Scope {
   public:
    Scope(Tracer& tracer, Layer layer, double* sink_ms = nullptr);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
    std::int32_t saved_parent_;
    double* sink_ms_;
  };

  void begin_query(std::uint32_t id) {
    query_ = id;
    parent_ = -1;
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one JSON object per span.
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::uint32_t query_ = 0;
  std::int32_t parent_ = -1;
};

/// What one replayed query did, layer by layer.
struct ReplayStats {
  std::uint64_t work = 0;  ///< comparable to the query's metrics.work()
  double ms[kNumLayers] = {};
  std::uint64_t cover_builds = 0;
  std::uint64_t cover_slice_vertices = 0;  ///< summed over built covers
  std::uint64_t cover_target_vertices = 0;
  int width_max = -1;
  std::uint64_t dp_work = 0;
  std::uint64_t slices_solved = 0;
  std::uint64_t slices_accepted = 0;
  std::uint64_t scratch_peak_bytes = 0;
  std::uint64_t recover_work = 0;
  std::uint64_t recovered = 0;  ///< assignments returned by recovery
  std::uint64_t distinct = 0;   ///< distinct occurrences among them
  std::uint64_t probes = 0;     ///< separating-cycle probes
  std::uint64_t probe_runs = 0; ///< cover runs spent on probes
  // Answers, for cross-checking against the query.
  bool found = false;
  std::uint32_t runs = 0;
  std::uint32_t connectivity = 0;

  void add(const ReplayStats& other);
  double total_layer_ms() const;  ///< every layer but kQuery
};

class Replayer {
 public:
  explicit Replayer(Tracer& tracer) : tracer_(tracer) {}

  /// Solver::find with default options but `seed`. `target` tags the
  /// graph in the replay cache. `solver_built` = the Solver missed its
  /// cover cache on this query; `keep` = cache the replayed covers.
  ReplayStats find(std::uint64_t target, const ppsi::Graph& graph,
                   const ppsi::iso::Pattern& pattern, std::uint64_t seed,
                   bool solver_built, bool keep);
  /// Solver::vertex_connectivity on a fresh embedded Solver.
  ReplayStats vertex_connectivity(const ppsi::planar::EmbeddedGraph& eg,
                                  std::uint64_t seed, std::uint32_t max_runs);

 private:
  struct Built {
    ppsi::cover::Cover cover;
    std::vector<ppsi::treedecomp::TreeDecomposition> tds;
  };
  using Key = std::tuple<std::uint64_t, bool, std::uint32_t, std::uint32_t,
                         std::uint64_t>;

  std::shared_ptr<const Built> acquire(
      std::uint64_t target, const ppsi::Graph& graph, std::uint32_t d,
      std::uint32_t k, std::uint64_t seed,
      const std::vector<std::uint8_t>* in_s, bool solver_built,
      bool keep, ReplayStats& st);
  /// Decision-mode solve of one cover: slices in index order up to the
  /// first accepting one, whose witness is recovered.
  bool solve_decision(const Built& built, const ppsi::iso::Pattern& pattern,
                      ReplayStats& st);

  Tracer& tracer_;
  std::map<Key, std::shared_ptr<const Built>> cache_;
};

/// Witness check: an injective map of the pattern's vertices whose every
/// pattern edge lands on a target edge.
bool verify_assignment(const ppsi::Graph& target,
                       const ppsi::iso::Pattern& pattern,
                       const ppsi::iso::Assignment& images);

}  // namespace perfbench

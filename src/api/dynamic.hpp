#pragma once

// Dynamic targets: versioned copy-on-write snapshots.
//
// A Solver's target is no longer frozen at construction: Solver::apply
// (and the MutableTarget builder below) commits an EditScript
// (graph/delta.hpp) as a new immutable *version* of the target. Queries
// pin the version current when they start — async and pool queries pin at
// submit — so an edit never changes what an in-flight query sees; new
// queries see the latest commit. Versions are refcounted through the
// TargetVersion handles and the pins of in-flight queries, and a version
// is reclaimed when its last reference drains.
//
// Cached covers and per-slice DP plans are keyed by version, and a commit
// invalidates only what it touches: when a new version's cover is built,
// every slice that is structurally identical to a slice of the previous
// version *shares* that version's plan slot (a slice's decomposition and
// plan are deterministic functions of the slice and its separating spec,
// so sharing is exact, and whichever version solves the slice first builds
// it for both);
// only the slices the edit actually changed get fresh slots. Every slot is
// filled lazily, by the first query that solves its slice.
// CacheStats::slices_reused / slices_rebuilt expose the split; per-version
// cover residency is charged against the one set_cache_capacity bound.
//
// Embedded targets stay embedded: a commit re-validates planarity
// incrementally on the touched region by patching the rotation system
// (removals and vertex inserts always preserve the embedding; an edge
// insert is placed into a face shared by its endpoints), falling back to a
// full planarity check only when no shared face exists. An edit that would
// make the target non-planar — or planar but not embeddable without
// re-embedding from scratch — is rejected and the target is unchanged.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "api/solver.hpp"
#include "api/status.hpp"
#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "planar/rotation_system.hpp"
#include "support/types.hpp"

namespace ppsi {

namespace detail {

/// Monotone dynamic-subsystem counters shared by every version of one
/// Solver. Held by shared_ptr from the Solver and from each version, so a
/// version dying after its Solver still has somewhere to report.
struct VersionLedger {
  std::mutex mutex;
  std::uint64_t reclaimed = 0;  ///< versions whose last reference drained
  /// Cache counters harvested from dead versions' face-vertex sub-solvers
  /// (so cache_stats() stays cumulative across reclamation).
  CacheStats harvested;
};

/// Adds a face-vertex sub-solver's cumulative cache counters into `into`.
/// The resident-state fields (cover_entries, the version counters) are left
/// out: a dead version's die with it, and a live sub-solver's cover_entries
/// are added by Solver::cache_stats itself.
void add_cumulative_stats(CacheStats* into, const CacheStats& sub);

/// One immutable committed snapshot of a Solver's target. Everything a
/// query reads about the target lives here; the Solver's cover cache is
/// keyed by `id`. The face-vertex connectivity state is per-version (a
/// pinned vertex_connectivity query probes the graph it pinned), built
/// lazily behind fvg_mutex — hence mutable, reached through const handles.
struct VersionState {
  std::uint64_t id = 0;
  Graph graph;
  std::optional<planar::EmbeddedGraph> embedding;
  std::shared_ptr<VersionLedger> ledger;

  mutable std::mutex fvg_mutex;
  mutable std::unique_ptr<Solver> fvg_solver;
  mutable Vertex fvg_num_original = 0;
  mutable std::vector<std::uint8_t> fvg_in_s;

  VersionState();
  /// Reports reclamation and harvests the sub-solver's counters into the
  /// ledger.
  ~VersionState();
  VersionState(const VersionState&) = delete;
  VersionState& operator=(const VersionState&) = delete;
};

/// Applies `script` to an embedded target by patching its rotation system
/// (see the header comment for the placement rules). Fills `*out` on
/// success; returns kInvalidOptions for malformed edits or edits that make
/// the target non-planar, kUnsupported when the edited graph is planar but
/// not embeddable without re-embedding from scratch.
Status apply_edits_embedded(const planar::EmbeddedGraph& base,
                            const EditScript& script,
                            planar::EmbeddedGraph* out);

}  // namespace detail

/// Refcounted handle to one committed snapshot. Copyable; every copy (and
/// every in-flight query pinned to it) keeps the version — its graph,
/// embedding, and connectivity state — alive. Point QueryOptions::at here
/// to query a historical version explicitly.
class TargetVersion {
 public:
  TargetVersion() = default;

  /// False only for a default-constructed handle.
  bool valid() const { return state_ != nullptr; }
  /// Monotone per-Solver commit number (the initial target is version 1).
  std::uint64_t id() const;
  const Graph& graph() const;
  bool has_embedding() const;
  const planar::EmbeddedGraph& embedding() const;

 private:
  friend class Solver;
  friend class SolverPool;
  explicit TargetVersion(std::shared_ptr<const detail::VersionState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const detail::VersionState> state_;
};

/// Edit builder bound to one Solver (from Solver::mutate or
/// SolverPool::mutate; borrows the Solver, which must outlive it).
/// Accumulates an EditScript and commits it as one transaction.
class MutableTarget {
 public:
  MutableTarget& insert_edge(Vertex u, Vertex v) {
    script_.insert_edge(u, v);
    return *this;
  }
  MutableTarget& remove_edge(Vertex u, Vertex v) {
    script_.remove_edge(u, v);
    return *this;
  }
  /// Returns the id the new vertex gets at commit. The prediction assumes
  /// no other commit lands first; commit() validates against the version
  /// current *then*, like any concurrent edit batch.
  Vertex insert_vertex() {
    script_.insert_vertex();
    return next_vertex_++;
  }

  const EditScript& script() const { return script_; }
  bool empty() const { return script_.empty(); }

  /// Commits the accumulated script (Solver::apply). On success the
  /// builder resets and may be reused against the new version.
  Result<TargetVersion> commit();

 private:
  friend class Solver;
  friend class SolverPool;
  MutableTarget(Solver* solver, Vertex next_vertex)
      : solver_(solver), next_vertex_(next_vertex) {}

  Solver* solver_ = nullptr;
  Vertex next_vertex_ = 0;
  EditScript script_;
};

}  // namespace ppsi

#pragma once

// ppsi::Solver — the query-session API.
//
// The paper's pipeline repeats {sample k-d cover -> solve each slice} per
// query; everything per-target in that loop (the covers themselves, the
// per-slice tree decompositions, the face-vertex graph of the connectivity
// algorithm) depends only on the target graph and a handful of query
// parameters, not on the pattern's edges. A Solver is constructed once per
// target and memoizes that state keyed by (pattern diameter, pattern size,
// run seed), so
//   * repeating a query with the same seed skips every cover build, and
//   * a batch of patterns with equal (diameter, size) shares covers.
// Caching only changes what gets recomputed, never what is computed:
// repeated and batched queries are differentially tested bit-identical to
// cold single-shot runs.
//
// Error model: every query returns Result<T> (api/status.hpp). Options are
// validated eagerly; limit/budget/deadline interruptions return a non-ok
// status carrying the partial result. Concurrent queries on one Solver are
// safe — find_batch fans out over OMP tasks against the shared cache.
// Queries block; asynchronous callers submit through a SolverPool
// (api/solver_pool.hpp), one target or many.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "api/status.hpp"
#include "connectivity/vertex_connectivity.hpp"
#include "cover/pipeline.hpp"
#include "graph/graph.hpp"
#include "isomorphism/pattern.hpp"
#include "planar/rotation_system.hpp"
#include "support/cancel.hpp"

namespace ppsi {

// Dynamic-target vocabulary (api/dynamic.hpp): versioned copy-on-write
// snapshots of the target graph. Declared here so QueryOptions and the
// Solver edit methods can name them without a header cycle.
class TargetVersion;
class MutableTarget;
struct EditScript;

/// One validated option set for every Solver query.
struct QueryOptions {
  std::uint64_t seed = 1;
  /// Cover repetitions for a w.h.p. negative answer; 0 = 2 log2(n) + 4.
  std::uint32_t max_runs = 0;
  cover::EngineKind engine = cover::EngineKind::kSparse;
  /// Listing cap; reaching it returns StatusCode::kListLimitReached with
  /// the truncated occurrence set. Must be positive.
  std::size_t list_limit = 1u << 22;
  /// vertex_connectivity: below this size the exact flow baseline answers
  /// directly.
  Vertex small_cutoff = 8;
  /// Instrumented-work budget (0 = unlimited), checked between cover runs;
  /// exceeding it returns kWorkBudgetExceeded with the partial result.
  /// Composite queries (find_disconnected, vertex_connectivity) forward
  /// whatever budget remains to each sub-query.
  std::uint64_t max_work = 0;
  /// Soft scratch-memory budget in bytes (0 = unlimited), checked between
  /// cover runs / listing iterations against the process-wide tracked
  /// scratch residency (support::scratch_residency_bytes()); exceeding it
  /// returns kResourceExhausted with the partial result. Soft in two ways:
  /// residency is thread-lifetime (arenas sized by earlier queries count),
  /// and the check is coarse (a single cover run may overshoot before the
  /// next checkpoint).
  std::uint64_t max_memory_bytes = 0;
  /// Wall-clock budget in seconds (0 = none), forwarded to sub-queries
  /// like max_work. Enforced cooperatively *inside* cover runs (slice
  /// tasks, path tasks, and the per-node DP loops all check it), so an
  /// exceeded deadline preempts mid-cover and returns kDeadlineExceeded
  /// with the partial result accounted up to the preemption point. A
  /// deadline beyond the steady clock's range (e.g. +inf) never expires.
  double deadline_seconds = 0.0;
  /// Optional cooperative cancellation token (borrowed; must outlive the
  /// query). Once token->cancel() is called the query stops at the same
  /// checkpoints the deadline uses and returns kCancelled carrying the
  /// partial result. SolverPool installs its PendingResult's own token
  /// here, overriding any caller-supplied one.
  const support::CancelToken* cancel = nullptr;
  /// Serving-layer suspend/resume gate (borrowed; must outlive the query).
  /// Set by SolverPool on the queries it dispatches, not by callers: when
  /// the pool requests a park, the cover slice loop suspends the query at
  /// its next slice boundary (state retained, budget clock paused) and
  /// continues after resume. Results are unchanged by parking.
  support::ParkGate* park = nullptr;
  /// Pins the query to this committed snapshot (api/dynamic.hpp) instead of
  /// the Solver's current version. Borrowed; must outlive the query and
  /// must come from the same Solver. Null = the version current when the
  /// query starts. SolverPool captures the pinned version at *submit*
  /// time, so a later apply() never changes what an already-submitted
  /// query sees.
  const TargetVersion* at = nullptr;
};

/// Default Solver cache bound: at most this many covers stay resident
/// (each is O(dn) memory); least-recently-used entries are evicted beyond
/// it. See Solver::set_cache_capacity.
inline constexpr std::size_t kDefaultCacheCapacity = 256;

/// Eager validation; every Solver query calls this first. Rejects a zero
/// list_limit, an unknown engine kind, and a negative or NaN deadline.
Status validate(const QueryOptions& options);

/// Cache observability (cumulative since construction / clear_cache()).
/// A "cover" entry is one {cover + per-slice DP-plan slots} unit, built
/// together on a cover miss. The slots fill on demand, one slice at a
/// time, as queries solve the slices: every slice is decomposed by
/// binarized min-degree elimination (any width-O(kd) decomposition serves
/// the paper's bounds), and the slot keeps the decomposition's DP plan
/// (isomorphism/dp_plan.hpp), not the decomposition itself.
struct CacheStats {
  std::uint64_t cover_hits = 0;
  std::uint64_t cover_misses = 0;
  std::uint64_t cover_evictions = 0;  ///< LRU evictions at the capacity cap
  std::uint64_t cover_entries = 0;    ///< currently resident (all versions)

  // Dynamic-target counters (api/dynamic.hpp). The version lifecycle
  // counters below are cumulative since construction and are NOT reset by
  // clear_cache(); the slice and purge counters reset with the rest.
  std::uint64_t versions_committed = 0;  ///< successful apply() commits
  std::uint64_t versions_reclaimed = 0;  ///< versions whose last pin drained
  std::uint64_t live_versions = 0;       ///< currently reachable snapshots
  /// Cover slices whose plan is this version's own (a cold target counts
  /// here too — compare deltas across an edit). Both slice counters count
  /// a slice of a cover entry once, when a query's slice-order replay
  /// first accounts it. Plans that speculative slice tasks build but no
  /// replay reads do not count, so the counters are identical for every
  /// thread count.
  std::uint64_t slices_rebuilt = 0;
  /// Cover slices whose plan slot is shared with the previous version
  /// because the edit left the slice untouched.
  std::uint64_t slices_reused = 0;
  /// Cover entries of dead (fully drained) versions dropped by the sweep.
  std::uint64_t stale_covers_purged = 0;
};

class Solver {
 public:
  /// Target-only construction: every query but vertex_connectivity.
  explicit Solver(Graph target);
  /// Embedded construction: additionally enables vertex_connectivity.
  explicit Solver(planar::EmbeddedGraph target);
  ~Solver();
  Solver(Solver&&) noexcept;
  Solver& operator=(Solver&&) noexcept;
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// The *current* version's graph; the reference stays valid until the
  /// next apply() commit (hold a TargetVersion to keep a snapshot alive).
  const Graph& target() const;
  bool has_embedding() const;

  // ---- Dynamic target API (api/dynamic.hpp) ----
  //
  // apply() validates and commits an EditScript as one transaction,
  // producing a new immutable TargetVersion; on any invalid edit (or an
  // edit that would break a planar embedding) nothing changes. Queries
  // already in flight keep the version they pinned; queries starting after
  // the commit see the new one. Covers and per-slice DP plans are
  // maintained incrementally: only the slices an edit touches get fresh
  // plan slots, the rest share the previous version's (see
  // CacheStats::slices_rebuilt / slices_reused).

  /// Refcounted handle to the latest committed snapshot.
  TargetVersion current_version() const;
  /// Commits `script`; an empty script is a no-op returning the current
  /// version. Thread-safe against queries and other commits.
  Result<TargetVersion> apply(const EditScript& script);
  /// Edit builder bound to this Solver (MutableTarget::commit == apply).
  MutableTarget mutate();
  /// Single-edit conveniences (one-element scripts).
  Result<TargetVersion> insert_edge(Vertex u, Vertex v);
  Result<TargetVersion> remove_edge(Vertex u, Vertex v);
  /// The new vertex's id is the committed version's num_vertices() - 1.
  Result<TargetVersion> insert_vertex();

  /// Decides occurrence of a *connected* pattern (Theorem 2.1).
  Result<cover::DecisionResult> find(const iso::Pattern& pattern,
                                     const QueryOptions& options = {});

  /// One cover run of the decision pipeline (success-probability studies).
  Result<cover::DecisionResult> find_once(const iso::Pattern& pattern,
                                          std::uint64_t run_seed,
                                          const QueryOptions& options = {});

  /// Lists w.h.p. all occurrences of a connected pattern (Theorem 4.2).
  Result<cover::ListingResult> list(const iso::Pattern& pattern,
                                    const QueryOptions& options = {});

  /// Counts occurrences by listing them.
  Result<cover::CountResult> count(const iso::Pattern& pattern,
                                   const QueryOptions& options = {});

  /// Decides occurrence of an arbitrary (possibly disconnected) pattern by
  /// random color splitting (§4.1, Lemma 4.1).
  Result<cover::DecisionResult> find_disconnected(
      const iso::Pattern& pattern, const QueryOptions& options = {});

  /// Decides whether some occurrence of the connected pattern separates the
  /// vertices marked by in_s (§5.2); uses the cached separating covers.
  /// On an S-bipartite target (every edge joins in_s to the rest, as in a
  /// face-vertex graph with S = the originals) an even-cycle pattern is
  /// parity-pinned: the witness maps pattern vertex 0, and every vertex at
  /// even distance from it along the cycle, into S.
  Result<cover::DecisionResult> find_separating(
      const std::vector<std::uint8_t>& in_s, const iso::Pattern& pattern,
      const QueryOptions& options = {});

  /// Monte Carlo planar vertex connectivity (§5); requires an embedding.
  /// The face-vertex graph and its separating covers are cached, so
  /// repeated calls with one seed amortize.
  Result<connectivity::VertexConnectivityResult> vertex_connectivity(
      const QueryOptions& options = {});

  /// Decides every pattern against the shared cache, fanning out across
  /// OMP tasks. Patterns with equal (diameter, size) share cover builds.
  /// out[i] corresponds to patterns[i]. options.cancel (if set) is shared
  /// by every query of the batch.
  std::vector<Result<cover::DecisionResult>> find_batch(
      std::span<const iso::Pattern> patterns,
      const QueryOptions& options = {});

  /// Aggregated over this solver and the face-vertex sub-solvers of every
  /// version, including (via the version ledger) already-reclaimed ones.
  CacheStats cache_stats() const;
  /// Drops every cached cover/decomposition (the target stays).
  void clear_cache();
  /// Bounds the resident covers (kDefaultCacheCapacity initially;
  /// 0 = unlimited). Beyond the bound the least-recently-used entry is
  /// evicted; shrinks immediately when lowered. Applies to the
  /// face-vertex sub-solver too.
  void set_cache_capacity(std::size_t max_covers);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ppsi

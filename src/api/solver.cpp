#include "api/solver.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include <omp.h>

#include "api/budget.hpp"
#include "api/dynamic.hpp"
#include "connectivity/articulation.hpp"
#include "connectivity/flow_connectivity.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "isomorphism/sparse_dp.hpp"
#include "planar/face_vertex_graph.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "support/scheduler.hpp"
#include "treedecomp/greedy_decomposition.hpp"

namespace ppsi {

const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidOptions: return "invalid options";
    case StatusCode::kInvalidPattern: return "invalid pattern";
    case StatusCode::kUnsupported: return "unsupported";
    case StatusCode::kListLimitReached: return "list limit reached";
    case StatusCode::kWorkBudgetExceeded: return "work budget exceeded";
    case StatusCode::kDeadlineExceeded: return "deadline exceeded";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kShed: return "shed";
    case StatusCode::kInternal: return "internal error";
    case StatusCode::kResourceExhausted: return "resource exhausted";
    case StatusCode::kMalformedInput: return "malformed input";
    case StatusCode::kEmpty: return "empty";
  }
  return "unknown";
}

Status contained_status() {
  try {
    throw;
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(
        "allocation failed during query execution");
  } catch (const std::exception& e) {
    return Status::Internal(std::string("contained exception: ") + e.what());
  } catch (...) {
    return Status::Internal("contained unknown exception");
  }
}

std::string Status::to_string() const {
  std::string out = ppsi::to_string(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

Status validate(const QueryOptions& options) {
  if (options.list_limit == 0)
    return Status::InvalidOptions("list_limit must be positive");
  switch (options.engine) {
    case cover::EngineKind::kSparse:
    case cover::EngineKind::kParallel:
    case cover::EngineKind::kSequential:
      break;
    default:
      return Status::InvalidOptions("unknown engine kind");
  }
  if (std::isnan(options.deadline_seconds) || options.deadline_seconds < 0)
    return Status::InvalidOptions(
        "deadline_seconds must be non-negative (0 disables the deadline)");
  return Status::Ok();
}

namespace {

using cover::Cover;
using cover::CountResult;
using cover::DecisionResult;
using cover::ListingResult;
using cover::Slice;
using iso::Assignment;
using iso::Pattern;

std::uint32_t default_runs(Vertex n) {
  const double lg = std::log2(static_cast<double>(n) + 2.0);
  return static_cast<std::uint32_t>(2.0 * lg) + 4;
}

/// Additive constant of the listing stopping rule's streak (Theorem 4.2's
/// Theta(log n) term is lg n plus this).
constexpr std::uint32_t kStoppingSlack = 4;

treedecomp::TreeDecomposition decompose_slice(const Slice& slice) {
  PPSI_FAULT_POINT("solver.decompose");
  return treedecomp::binarize(treedecomp::greedy_decomposition(slice.graph));
}

/// One slice's DP plan (isomorphism/dp_plan.hpp), built the first time a
/// query needs it (its slice task, witness recovery, or the collect-mode
/// replay): the slice is decomposed, the decomposition turned into the
/// plan, and the decomposition dropped. Publish is lock-free and
/// first-writer-wins: decompose_slice is deterministic, so a racing
/// duplicate build is identical and simply dropped, and no task ever
/// blocks on another's build (see the locking discipline in
/// support/scheduler.hpp). A build that throws leaves the slot empty for
/// the next query to fill.
struct PlanSlot {
  using Plan = std::shared_ptr<const iso::DpPlan>;
  std::atomic<const Plan*> plan{nullptr};

  PlanSlot() = default;
  PlanSlot(const PlanSlot&) = delete;
  PlanSlot& operator=(const PlanSlot&) = delete;
  ~PlanSlot() { delete plan.load(std::memory_order_relaxed); }
};

/// Per-slice plan counters of one Solver (CacheStats).
struct SliceCounters {
  std::atomic<std::uint64_t> rebuilt{0};
  std::atomic<std::uint64_t> reused{0};
};

/// The plans of one cover entry: a slot per slice.
/// Structurally identical slices of consecutive target versions hold the
/// *same* slot (api/dynamic.hpp), so whichever version needs the slice
/// first builds it for both. The slot vector is fixed at creation; only
/// the slots' contents and the accounted flags change afterwards.
struct PlanList {
  std::vector<std::shared_ptr<PlanSlot>> slots;
  std::vector<std::uint8_t> shared;  ///< slot came from the donor version
  /// Set when a replay first accounts the slice (see note_accounted).
  std::unique_ptr<std::atomic<std::uint8_t>[]> accounted;
  SliceCounters* counters = nullptr;  ///< the owning Solver's

  /// Slice i's plan, building it on first use. A warm read is one
  /// acquire load.
  const PlanSlot::Plan& get(std::size_t i, const Slice& slice) const {
    std::atomic<const PlanSlot::Plan*>& plan = slots[i]->plan;
    if (const auto* built = plan.load(std::memory_order_acquire))
      return *built;
    auto fresh = std::make_unique<const PlanSlot::Plan>(
        std::make_shared<const iso::DpPlan>(slice.graph,
                                            decompose_slice(slice),
                                            slice.spec));
    const PlanSlot::Plan* winner = nullptr;
    if (plan.compare_exchange_strong(winner, fresh.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire))
      return *fresh.release();
    return *winner;  // a concurrent build published an identical one first
  }

  /// Counts slice i as rebuilt or reused the first time any query's
  /// slice-order replay accounts it. The replay is deterministic, so the
  /// counters are too: speculative builds the replay discards, and which
  /// thread or version happened to build a shared slot, never show.
  void note_accounted(std::size_t i) const {
    if (accounted[i].exchange(1, std::memory_order_relaxed) != 0) return;
    (shared[i] != 0 ? counters->reused : counters->rebuilt)
        .fetch_add(1, std::memory_order_relaxed);
  }
};

iso::DpSolution solve_slice(const PlanSlot::Plan& plan,
                            const Pattern& pattern,
                            const QueryOptions& options,
                            const support::CancelScope& cancel) {
  PPSI_FAULT_POINT("solver.slice");
  iso::ParallelOptions dp;
  // Polled per node (sequential, sparse) or per path task (parallel), so
  // an obsolete slice stops mid-solve.
  dp.cancel = cancel;
  if (options.engine == cover::EngineKind::kParallel)
    return iso::solve_parallel(plan, pattern, dp);
  return options.engine == cover::EngineKind::kSequential
             ? iso::solve_sequential(plan, pattern, dp)
             : iso::solve_sparse(plan, pattern, dp);
}

/// One slice's task result. `solved` means the task ran to completion;
/// cancelled slices leave it false and their (partial) solution is never
/// read: watermark cancellation requires a strictly smaller accepting (or
/// limit-reaching) index, at which the replay stops first, and token/
/// deadline preemption stops the replay at the first unsolved slice.
struct SliceOutcome {
  iso::DpSolution sol;
  bool solved = false;
};

/// Maps a mid-cover preemption to its interruption status. Both sources
/// are monotone, so whichever is observed here is the one the slices saw;
/// cancellation outranks the deadline (mirrors Budget::check).
Status interruption_cause(const support::CancelToken* token,
                          const support::DeadlineClock* deadline) {
  if (token != nullptr && token->cancelled())
    return {StatusCode::kCancelled, "query cancelled through its CancelToken"};
  if (deadline != nullptr && deadline->expired())
    return {StatusCode::kDeadlineExceeded,
            "wall clock exceeded QueryOptions::deadline_seconds"};
  support::require(false, "solve_all_slices: unsolved slice without a cause");
  return {};
}

/// Solves every slice of one cover against its memoized plans and
/// accounts the run into `run`: work and allocations add, scratch peaks
/// max-merge, and the run's rounds are the maximum over its slices (they
/// are independent, i.e. parallel, in the PRAM reading). Returns whether
/// some slice accepts, with a witness (slice-local images translated
/// through origin_of) in `run`. When `collect` is non-null, all occurrences
/// of accepting slices are accumulated instead.
///
/// One task per slice goes into the shared scheduler (whose path tasks, for
/// the parallel engine, join the same pool — slices and paths interleave
/// freely), and the results are replayed in slice-index order with exactly
/// the old sequential loop's arithmetic, so outputs, metric sums, and the
/// early-exit accounting cut are bit-identical to the pre-scheduler engine
/// for every thread count: cancellation can only discard work the replay
/// would never have accounted.
///
/// Cooperative cancellation has three sources, all carried by each slice's
/// CancelScope (and threaded into the engines' path tasks / per-node DP
/// loops):
///   * the watermark: in decision mode the first accepting slice lowers
///     it; in collect mode the replay task that satisfies `limit` does —
///     either way the speculative tail of strictly larger indices skips
///     itself;
///   * the query's CancelToken and armed DeadlineClock (from `budget`):
///     these preempt *mid-cover* (even mid-slice); the replay then stops
///     at the first unsolved slice, reports the cause through `*interrupt`,
///     and everything accounted before it is the documented partial
///     result. Absent token/deadline the old completion invariant holds
///     unchanged.
///
/// Decision mode replays after the graph completes. Collect mode replays
/// *inside* the graph — a chain of per-slice replay tasks (R_i needs S_i
/// and R_{i-1}) serializes the std::set insertion in slice-index order
/// while later slices are still solving, which is what lets a mid-cover
/// limit hit cancel the tail at all.
///
/// Cooperative suspend/resume (the serving pool's ParkGate, from `budget`)
/// is the fourth signal, and the only resumable one: a requested park makes
/// the remaining slice tasks skip themselves *without* being cancelled, the
/// drained graph parks the whole query (the admission slot goes back to the
/// pool; the budget clock is credited for the suspension), and on resume a
/// fresh graph round re-runs exactly the slices still pending. Solved
/// outcomes, the watermark, and the replay cursor all persist across
/// rounds, so the replayed sequence — and with it every output and every
/// accounted counter — is bit-identical to an unparked run.
bool solve_all_slices(const Cover& cover, const PlanList& plans,
                      const Pattern& pattern, const QueryOptions& options,
                      const Budget& budget, DecisionResult& run,
                      std::set<Assignment>* collect, std::size_t limit,
                      Status* interrupt) {
  const bool decision_mode = collect == nullptr;
  const std::size_t num_slices = cover.slices.size();
  const support::CancelToken* token = budget.token();
  const support::DeadlineClock* deadline = budget.deadline();
  support::ParkGate* park = budget.park();
  const auto preempted = [&] {
    return (token != nullptr && token->cancelled()) ||
           (deadline != nullptr && deadline->expired());
  };

  // Slice indices large enough to host the pattern, in index order.
  std::vector<std::size_t> eligible;
  eligible.reserve(num_slices);
  for (std::size_t i = 0; i < num_slices; ++i) {
    if (cover.slices[i].graph.num_vertices() >= pattern.size())
      eligible.push_back(i);
  }

  // Solve state, persistent across park/resume rounds.
  std::vector<SliceOutcome> outcomes(num_slices);
  support::CancelWatermark watermark;

  // Replay accounting, shared by both modes. Slices are independent
  // (solved in parallel in the PRAM reading): their work adds, their
  // rounds compose as a maximum. Allocation events add and scratch peaks
  // max-merge, mirroring the work/rounds split.
  support::Metrics slices;
  const auto account = [&](std::size_t i, const iso::DpSolution& sol) {
    plans.note_accounted(i);
    slices.absorb_parallel(sol.metrics);
    ++run.slices_solved;
  };

  // Bounded speculation: both modes stop accounting early (decision: first
  // accepting slice; collect: the slice whose occurrences satisfy the
  // limit), so slices solved beyond that point are wasted wall time.
  // Window edges (progress at index j gates slice task j+W) keep at most
  // W slice tasks in flight with a low-index completion bias: the
  // scheduler stays fully occupied, the watermark drops as early as the
  // old sequential loop stopped, and the cancelled tail skips itself.
  // Without them a work-stealing schedule may stack every speculative
  // slice before the stopping one completes (observed: 20x wall
  // regression on warm single-thread decisions). W tracks the team size;
  // the edge structure never affects results — the replay decides those.
  const std::uint32_t window =
      2 * static_cast<std::uint32_t>(std::max(1, omp_get_max_threads()));

  // Collect mode: in-graph replay chain. replay_slice(i) runs with every
  // smaller replay done (chain edges), so the limit cut it computes is the
  // same one the old sequential loop computed; limit_reached/stopped/
  // paused are written and read only under that serialization (rounds are
  // serialized by Scheduler::run returning between them).
  struct ReplayState {
    bool found = false;
    bool limit_reached = false;
    bool stopped = false;  ///< token/deadline preemption observed
    bool paused = false;   ///< park-skipped slice reached; resumes next round
  } replay;
  std::vector<std::uint8_t> replayed(num_slices, 0);  // collect-mode cursor
  const auto replay_slice = [&](std::size_t i) {
    if (replay.limit_reached || replay.stopped || replay.paused) return;
    SliceOutcome& outcome = outcomes[i];
    if (!outcome.solved) {
      if (preempted()) {
        replay.stopped = true;
        return;
      }
      // Not preempted, and watermark cancellation needs a strictly smaller
      // limit-reaching index (at which the replay stopped first) — the only
      // remaining cause is a park-skip. Pause: the next round re-solves
      // this slice and the replay resumes here, so the consumed sequence
      // is the same one an unparked run produces.
      support::require(park != nullptr && park->park_requested(),
                       "solve_all_slices: replay reached a cancelled slice");
      replay.paused = true;
      return;
    }
    const Slice& slice = cover.slices[i];
    const iso::DpSolution& sol = outcome.sol;
    account(i, sol);
    replayed[i] = 1;
    if (!sol.accepted) {
      outcome.sol = {};  // accounted; free before replaying the rest
      return;
    }
    replay.found = true;
    for (Assignment a : iso::recover_assignments(sol, limit)) {
      for (Vertex& image : a) image = slice.origin_of[image];
      collect->insert(std::move(a));
    }
    outcome.sol = {};
    if (collect->size() >= limit) {
      replay.limit_reached = true;
      // Drop the speculative tail: queued/in-flight slice tasks of
      // strictly larger index skip themselves. Outputs and accounted work
      // of every completed (replayed) slice are untouched.
      watermark.accept(static_cast<std::uint32_t>(i));
    }
  };

  // A slice is pending until replayed (collect) / solved or made obsolete
  // by an accepting smaller index (decision). Rounds start with the
  // collect-mode flags clear; they only end the park loop below.
  const auto pending = [&](std::size_t i) {
    if (decision_mode)
      return !outcomes[i].solved &&
             !watermark.obsolete(static_cast<std::uint32_t>(i));
    return replayed[i] == 0 && !replay.limit_reached && !replay.stopped;
  };

  // ---- Solve all (needed) slices on the shared task pool, in rounds. ----
  // Without a ParkGate the loop body runs exactly once (the pre-park
  // structure). With one, a round that drained while a park was requested
  // suspends here — between slice graphs, with all per-slice state intact —
  // and the next round covers exactly the slices still pending.
  for (;;) {
    support::TaskGraph graph;
    std::vector<std::uint32_t> task_of_slice;  // this round's solve tasks
    std::vector<std::uint32_t> replay_tasks;   // collect mode, this round
    for (const std::size_t i : eligible) {
      if (!pending(i)) continue;
      std::uint32_t solve_task = support::CancelWatermark::kNone;
      if (!outcomes[i].solved) {
        solve_task = graph.add([&, i] {
          const support::CancelScope scope{&watermark,
                                           static_cast<std::uint32_t>(i),
                                           token, deadline};
          if (scope.cancelled()) return;  // obsolete index, or preempted
          // A requested park skips the slice *before* any work: the slice
          // is not cancelled, just deferred to the post-resume round.
          if (park != nullptr && park->park_requested()) return;
          // Planned on demand: a cold cover builds only the slices its
          // queries actually solve.
          SliceOutcome& out = outcomes[i];
          out.sol = solve_slice(plans.get(i, cover.slices[i]), pattern,
                                options, scope);
          if (scope.cancelled()) {
            out.sol = {};  // partial (paths/nodes skipped): free, never read
            return;
          }
          out.solved = true;
          if (!out.sol.accepted) {
            // The replay reads only the metrics and the verdict of a
            // rejecting slice: free its nodes now, not at the replay.
            iso::DpSolution verdict;
            verdict.metrics = out.sol.metrics;
            out.sol = std::move(verdict);
          } else if (decision_mode) {
            watermark.accept(static_cast<std::uint32_t>(i));
          }
        });
        task_of_slice.push_back(solve_task);
      }
      if (!decision_mode) {
        const std::uint32_t r = graph.add([&, i] { replay_slice(i); });
        if (solve_task != support::CancelWatermark::kNone)
          graph.add_edge(solve_task, r);
        if (!replay_tasks.empty()) graph.add_edge(replay_tasks.back(), r);
        replay_tasks.push_back(r);
      }
    }
    if (decision_mode) {
      for (std::size_t j = 0; j + window < task_of_slice.size(); ++j)
        graph.add_edge(task_of_slice[j], task_of_slice[j + window]);
    } else {
      // The window gates on replay progress, so the limit verdict (not
      // just slice completion) bounds how far ahead the solves speculate.
      for (std::size_t j = 0; j + window < replay_tasks.size(); ++j) {
        if (j + window < task_of_slice.size())
          graph.add_edge(replay_tasks[j], task_of_slice[j + window]);
      }
    }
    support::Scheduler::run(graph);

    // Go around only for a park: preemption wins (the replay below reports
    // it), and with nothing pending the request rides to the query's next
    // slice-boundary checkpoint (or its completion) instead.
    if (park == nullptr || !park->park_requested() || preempted()) break;
    if (std::none_of(eligible.begin(), eligible.end(), pending)) break;
    replay.paused = false;
    // Park: hand the admission slot back (ParkGate's on_parked), block
    // until the pool resumes us, and credit the suspension to the budget
    // clock — parked time must not count against the execution deadline.
    budget.credit_parked(park->park());
  }

  bool found = replay.found;  // collect mode's verdict
  if (!decision_mode && replay.stopped)
    *interrupt = interruption_cause(token, deadline);

  // ---- Decision mode: deterministic replay in slice-index order. ----
  for (std::size_t i = 0; decision_mode && i < num_slices; ++i) {
    const Slice& slice = cover.slices[i];
    if (slice.graph.num_vertices() < pattern.size()) continue;
    SliceOutcome& outcome = outcomes[i];
    if (!outcome.solved) {
      // As in replay_slice: an unsolved slice here means the query itself
      // was preempted (the watermark alone stops the replay at its
      // accepting index before reaching any cancelled slice).
      support::require(token != nullptr || deadline != nullptr,
                       "solve_all_slices: replay reached a cancelled slice");
      *interrupt = interruption_cause(token, deadline);
      break;
    }
    const iso::DpSolution& sol = outcome.sol;
    account(i, sol);
    if (!sol.accepted) {
      outcome.sol = {};  // accounted; free before replaying the rest
      continue;
    }
    if (!run.witness.has_value()) {
      auto assignments = iso::recover_assignments(sol, 1);
      if (!assignments.empty()) {
        Assignment witness = assignments.front();
        for (Vertex& image : witness) image = slice.origin_of[image];
        run.witness = witness;
      }
    }
    found = true;
    break;
  }
  run.metrics.absorb(slices);
  return found;
}

/// Cache key of one cover: everything the cover build reads besides the
/// target graph. `k` doubles as the clustering parameter (beta = 2k) and
/// the minimum slice size, so two patterns with equal (diameter, size)
/// resolve to the same cover. `version` — the target snapshot the cover
/// was built from — orders LAST, so all versions of one parameter set are
/// adjacent in the cache map and the newest older version (the structural-
/// sharing donor) is the entry's immediate same-base predecessor.
struct CoverKey {
  std::uint32_t d = 0;
  std::uint32_t k = 0;
  std::uint64_t seed = 0;
  bool separating = false;
  std::vector<std::uint8_t> in_s;  ///< empty unless separating
  std::uint64_t version = 0;

  bool operator<(const CoverKey& other) const {
    return std::tie(d, k, seed, separating, in_s, version) <
           std::tie(other.d, other.k, other.seed, other.separating,
                    other.in_s, other.version);
  }
  bool same_base(const CoverKey& other) const {
    return d == other.d && k == other.k && seed == other.seed &&
           separating == other.separating && in_s == other.in_s;
  }
};

/// One memoized cover plus its slice plan slots. The cover and
/// the slot vector are built together under `mutex` and never change
/// afterwards; the slots fill in lock-free as queries plan their
/// slices. That is what lets a newer version's build read a donor entry's
/// slices and share its slots after only a flag check under the donor's
/// mutex.
struct CoverEntry {
  std::mutex mutex;
  bool cover_ready = false;
  Cover cover;
  PlanList plans;
  /// LRU tick, guarded by the owning Solver's cache_mutex (not `mutex`).
  std::uint64_t last_used = 0;
};

/// Borrowed view of a cached cover; `entry` keeps the data alive across a
/// concurrent clear_cache().
struct CoverAccess {
  std::shared_ptr<CoverEntry> entry;
  const Cover* cover = nullptr;
  const PlanList* plans = nullptr;
  bool built_cover = false;  ///< this call built it (owns its metrics)
};

/// Order-sensitive structural signature of one slice (graph in adjacency
/// order, origin map, separating spec) for the cross-version match.
std::uint64_t slice_signature(const Slice& slice) {
  std::uint64_t h = support::hash_combine(0x51c3, slice.graph.num_vertices());
  for (Vertex v = 0; v < slice.graph.num_vertices(); ++v) {
    h = support::hash_combine(h, slice.graph.degree(v));
    for (const Vertex w : slice.graph.neighbors(v))
      h = support::hash_combine(h, w);
    h = support::hash_combine(h, slice.origin_of[v]);
    h = support::hash_combine(h, slice.is_original[v]);
  }
  h = support::hash_combine(h, slice.bfs_root);
  h = support::hash_combine(h, slice.spec.enabled ? 1 : 0);
  for (const std::uint8_t b : slice.spec.in_s) h = support::hash_combine(h, b);
  for (const std::uint8_t b : slice.spec.allowed)
    h = support::hash_combine(h, b);
  return h;
}

/// Exact structural equality backing the signature above. Everything the
/// slice solve and witness translation read must match: the graph with its
/// adjacency order, the origin/original maps, the decomposition root, and
/// the separating spec.
bool slice_equal(const Slice& a, const Slice& b) {
  if (a.graph.num_vertices() != b.graph.num_vertices()) return false;
  if (a.graph.num_half_edges() != b.graph.num_half_edges()) return false;
  for (Vertex v = 0; v < a.graph.num_vertices(); ++v) {
    const auto na = a.graph.neighbors(v);
    const auto nb = b.graph.neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return a.origin_of == b.origin_of && a.is_original == b.is_original &&
         a.bfs_root == b.bfs_root && a.spec.enabled == b.spec.enabled &&
         a.spec.in_s == b.spec.in_s && a.spec.allowed == b.spec.allowed;
}

/// run_query's default version-dependent input check: none.
struct AdmitAll {
  Status operator()(const detail::VersionState&) const { return {}; }
};

Status require_connected(const Pattern& pattern, const char* query) {
  if (pattern.is_connected()) return Status::Ok();
  return Status::InvalidPattern(std::string(query) +
                                ": connected pattern required "
                                "(use find_disconnected)");
}

/// find_disconnected's search (§4.1, Lemma 4.1): random l-colorings of the
/// target, each component searched in its color class by a sub-query.
Status find_components(
    const detail::VersionState& ver, const Pattern& pattern,
    const std::vector<std::vector<std::uint32_t>>& components,
    const QueryOptions& options, const Budget& budget,
    DecisionResult& total) {
  const Graph& g = ver.graph;
  if (g.num_vertices() < pattern.size()) return {};
  const auto l = static_cast<std::uint32_t>(components.size());
  // l^k attempts find a fixed occurrence with constant probability
  // (Lemma 4.1); multiply by log n for w.h.p. (capped by max_runs).
  double attempts_d = std::pow(static_cast<double>(l), pattern.size()) *
                      (std::log2(static_cast<double>(g.num_vertices()) + 2.0));
  if (options.max_runs > 0)
    attempts_d = std::min(attempts_d, static_cast<double>(options.max_runs));
  const auto attempts = static_cast<std::uint32_t>(std::min(attempts_d, 1e7));
  // Component patterns and their back maps into the full pattern.
  std::vector<Pattern> parts;
  std::vector<std::vector<std::uint32_t>> back_maps;
  for (const auto& comp : components) {
    std::vector<std::uint32_t> back;
    parts.push_back(pattern.component_pattern(comp, &back));
    back_maps.push_back(std::move(back));
  }
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    ++total.runs;
    support::Rng rng(support::hash_combine(options.seed, 0xd15c + attempt));
    std::vector<Vertex> color(g.num_vertices());
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      color[v] = static_cast<Vertex>(rng.next_below(l));
    Assignment witness(pattern.size(), kNoVertex);
    bool all_found = true;
    for (std::uint32_t i = 0; i < parts.size(); ++i) {
      std::vector<Vertex> members;
      for (Vertex v = 0; v < g.num_vertices(); ++v)
        if (color[v] == i) members.push_back(v);
      if (members.size() < parts[i].size()) {
        all_found = false;
        break;
      }
      // Each coloring induces a fresh subgraph, so there is nothing to
      // cache across attempts: an ephemeral sub-Solver matches the legacy
      // behavior exactly.
      DerivedGraph sub = induced_subgraph(g, members);
      const std::vector<Vertex> origin_of = std::move(sub.origin_of);
      // Sub-queries inherit whatever budget is left, so one component
      // search cannot overshoot the caller's work/deadline bound.
      QueryOptions inner = budget.forward(options, total.metrics);
      inner.max_runs = 3;  // constant success probability per correct coloring
      inner.seed = support::hash_combine(options.seed, attempt * l + i);
      Solver sub_solver(std::move(sub.graph));
      const Result<DecisionResult> part = sub_solver.find(parts[i], inner);
      total.metrics.absorb(part->metrics);
      total.slices_solved += part->slices_solved;
      if (!part.ok()) return part.status();
      if (!part->found) {
        all_found = false;
        break;
      }
      if (part->witness.has_value()) {
        for (std::uint32_t v = 0; v < parts[i].size(); ++v)
          witness[back_maps[i][v]] = origin_of[(*part->witness)[v]];
      }
    }
    if (all_found) {
      total.found = true;
      total.witness = witness;
      return {};
    }
    if (Status status = budget.check(total.metrics); !status.ok())
      return status;
  }
  return {};
}

/// vertex_connectivity (§5): the small / disconnected / articulation cases
/// directly, then separating-cycle probes of the face-vertex graph, whose
/// sub-solver is created with `cache_capacity`.
Status probe_connectivity(const detail::VersionState& ver,
                          std::size_t cache_capacity,
                          const QueryOptions& options, const Budget& budget,
                          connectivity::VertexConnectivityResult& result) {
  const Graph& g = ver.graph;
  const Vertex n = g.num_vertices();
  if (n <= options.small_cutoff) {
    const connectivity::FlowConnectivityResult flow =
        connectivity::vertex_connectivity_flow(g);
    result.connectivity = flow.connectivity;
    result.witness_cut = flow.min_cut;
    return {};
  }
  if (connected_components(g).count != 1) {
    result.connectivity = 0;
    return {};
  }
  const std::vector<Vertex> cuts = connectivity::articulation_points(g);
  if (!cuts.empty()) {
    result.connectivity = 1;
    result.witness_cut = {cuts.front()};
    return {};
  }
  // 2-connected: probe S-separating cycles in the face-vertex graph, which
  // is built once per *version* and probed through a cached sub-Solver
  // (its cover cache persists across vertex_connectivity calls, and a
  // pinned query probes exactly the snapshot it pinned).
  {
    const std::lock_guard<std::mutex> lock(ver.fvg_mutex);
    if (!ver.fvg_solver) {
      const planar::FaceVertexGraph fvg =
          planar::build_face_vertex_graph(*ver.embedding);
      ver.fvg_num_original = fvg.num_original;
      ver.fvg_in_s.assign(fvg.graph.num_vertices(), 0);
      for (Vertex v = 0; v < fvg.num_original; ++v) ver.fvg_in_s[v] = 1;
      ver.fvg_solver = std::make_unique<Solver>(fvg.graph);
      ver.fvg_solver->set_cache_capacity(cache_capacity);
    }
  }
  for (std::uint32_t c = 2; c <= 4; ++c) {
    const iso::Pattern cycle =
        iso::Pattern::from_graph(gen::cycle_graph(2 * c));
    // Each probe inherits whatever budget is left, so a single cycle probe
    // (itself a full find_separating run loop) cannot overshoot it.
    QueryOptions probe = budget.forward(options, result.metrics);
    probe.seed = support::hash_combine(options.seed, c);
    const Result<DecisionResult> probed =
        ver.fvg_solver->find_separating(ver.fvg_in_s, cycle, probe);
    // A probe that failed before its cover runs (run_query's validate,
    // version-pin or admission exit) has no value to absorb.
    if (probed.has_value()) {
      result.metrics.absorb(probed->metrics);
      result.cycle_runs += probed->runs;
    }
    if (!probed.ok()) return probed.status();
    if (probed->found) {
      result.connectivity = c;
      if (probed->witness.has_value()) {
        for (const Vertex image : *probed->witness) {
          if (image < ver.fvg_num_original)
            result.witness_cut.push_back(image);
        }
        std::sort(result.witness_cut.begin(), result.witness_cut.end());
        // Degenerate separating cycles (e.g. both faces of one edge on a
        // 2-face graph) separate G' by exhausting the faces without the
        // originals being a cut of G; verify and drop such witnesses.
        // The connectivity *value* is unaffected (Lemma 5.1).
        std::vector<Vertex> keep;
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          if (!std::binary_search(result.witness_cut.begin(),
                                  result.witness_cut.end(), v)) {
            keep.push_back(v);
          }
        }
        if (keep.size() < 2 ||
            connected_components(induced_subgraph(g, keep).graph).count < 2) {
          result.witness_cut.clear();
        }
      }
      return {};
    }
    if (Status status = budget.check(result.metrics); !status.ok())
      return status;
  }
  // No separating C4/C6/C8: Euler's formula caps planar connectivity at 5.
  result.connectivity = 5;
  return {};
}

}  // namespace

struct Solver::Impl {
  using Snapshot = std::shared_ptr<const detail::VersionState>;

  // ---- Version state (guarded by version_mutex) ----
  // `current` is the snapshot new queries pin; `registry` tracks every
  // version still reachable (weakly, so the last pin draining reclaims the
  // VersionState without the Solver's involvement); the ledger survives
  // reclaimed versions and collects their counters.
  std::shared_ptr<detail::VersionLedger> ledger =
      std::make_shared<detail::VersionLedger>();
  mutable std::mutex version_mutex;
  Snapshot current;
  std::map<std::uint64_t, std::weak_ptr<const detail::VersionState>> registry;
  std::uint64_t next_version_id = 1;
  std::uint64_t versions_committed = 0;
  /// Serializes apply() commits (never held together with cache_mutex).
  std::mutex edit_mutex;

  std::mutex cache_mutex;
  std::map<CoverKey, std::shared_ptr<CoverEntry>> covers;
  std::size_t cache_capacity = kDefaultCacheCapacity;  // guarded by ^
  std::uint64_t use_tick = 0;                          // guarded by ^
  std::atomic<std::uint64_t> cover_hits{0};
  std::atomic<std::uint64_t> cover_misses{0};
  std::atomic<std::uint64_t> evictions{0};
  SliceCounters slice_counters;
  std::atomic<std::uint64_t> stale_purged{0};

  /// Installs the initial version (id 1); constructor-only, no locking.
  void install_initial(Graph graph,
                       std::optional<planar::EmbeddedGraph> embedding) {
    auto state = std::make_shared<detail::VersionState>();
    state->id = 1;
    state->graph = std::move(graph);
    state->embedding = std::move(embedding);
    state->ledger = ledger;
    registry.emplace(state->id, state);
    current = std::move(state);
    next_version_id = 2;
  }

  Snapshot pin_current() const {
    const std::lock_guard<std::mutex> lock(version_mutex);
    return current;
  }

  /// Every still-reachable snapshot (sweeps expired registry entries).
  std::vector<Snapshot> live_snapshots() const {
    std::vector<Snapshot> out;
    const std::lock_guard<std::mutex> lock(version_mutex);
    for (const auto& [id, weak] : registry) {
      if (Snapshot snap = weak.lock()) out.push_back(std::move(snap));
    }
    return out;
  }

  /// Capacity bound (0 = unlimited): evicts least-recently-used entries
  /// other than `keep` down to cache_capacity. In-flight readers keep
  /// theirs alive via shared_ptr. Entries of every version count against
  /// the one bound. Caller holds cache_mutex.
  void evict_lru_locked(const CoverEntry* keep) {
    while (cache_capacity > 0 && covers.size() > cache_capacity) {
      auto victim = covers.end();
      for (auto it = covers.begin(); it != covers.end(); ++it) {
        if (it->second.get() == keep) continue;
        if (victim == covers.end() ||
            it->second->last_used < victim->second->last_used) {
          victim = it;
        }
      }
      if (victim == covers.end()) break;
      covers.erase(victim);
      evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  CoverAccess acquire_cover(const detail::VersionState& ver,
                            const CoverKey& key) {
    CoverAccess access;
    std::shared_ptr<CoverEntry> donor;
    {
      const std::lock_guard<std::mutex> lock(cache_mutex);
      // Structural-sharing donor: the newest older-version entry with the
      // same cover parameters. `version` orders last in the key, so that
      // entry — if any — is exactly the immediate map predecessor.
      auto pos = covers.lower_bound(key);
      if (pos != covers.begin()) {
        auto prev = std::prev(pos);
        if (prev->first.same_base(key)) donor = prev->second;
      }
      std::shared_ptr<CoverEntry>& slot = covers[key];
      if (!slot) slot = std::make_shared<CoverEntry>();
      slot->last_used = ++use_tick;
      access.entry = slot;
      evict_lru_locked(access.entry.get());
    }
    CoverEntry& entry = *access.entry;
    bool donated = false;
    {
      const std::lock_guard<std::mutex> lock(entry.mutex);
      if (!entry.cover_ready) {
        // Containment note: a throw from here (including the injected
        // point) unwinds the lock_guards with cover_ready still false and
        // no miss counted — the entry stays an empty shell a later query
        // (or a pool retry) builds, cover and slots, from scratch.
        // Plans are not built here at all: a throw from decompose_slice
        // (the "solver.decompose" point) happens inside a slice task,
        // reaches the query's containment through Scheduler::run, and
        // leaves that slot empty, so a retry plans it afresh.
        PPSI_FAULT_POINT("solver.cover_build");
        // The cover skeleton (clustering, BFS levels, slice graphs) is
        // always rebuilt from the pinned version's graph — it is cheap
        // next to the decompositions and keeping it bit-identical to a
        // cold build is what makes incremental results provably equal.
        const double beta = 2.0 * key.k;
        entry.cover =
            key.separating
                ? cover::build_separating_cover(ver.graph, key.in_s, key.d,
                                                beta, key.seed, key.k)
                : cover::build_kd_cover(ver.graph, key.d, beta, key.seed,
                                        key.k);
        // Delta invalidation: match this cover's slices against the donor
        // version's; structurally identical slices share the donor's slot
        // (a slice's plan is deterministic, so whichever version plans the
        // slice first builds it for both), the rest get fresh slots.
        // Nothing is planned here: slice tasks fill the slots on demand.
        // Locking order entry -> donor is acyclic: a thread only ever waits
        // on strictly older versions.
        const Cover* donor_cover = nullptr;
        std::vector<std::shared_ptr<PlanSlot>> donor_slots;
        if (donor && donor != access.entry) {
          const std::lock_guard<std::mutex> donor_lock(donor->mutex);
          if (donor->cover_ready) {
            donor_cover = &donor->cover;  // immutable once ready
            donor_slots = donor->plans.slots;
          }
        }
        const std::size_t num_slices = entry.cover.slices.size();
        PlanList plans;
        plans.slots.resize(num_slices);
        plans.shared.assign(num_slices, 0);
        plans.accounted =
            std::make_unique<std::atomic<std::uint8_t>[]>(num_slices);
        plans.counters = &slice_counters;
        std::unordered_multimap<std::uint64_t, std::size_t> by_signature;
        if (donor_cover != nullptr) {
          for (std::size_t i = 0; i < donor_cover->slices.size(); ++i)
            by_signature.emplace(slice_signature(donor_cover->slices[i]), i);
        }
        for (std::size_t i = 0; i < num_slices; ++i) {
          const Slice& slice = entry.cover.slices[i];
          if (!by_signature.empty()) {
            const auto [lo, hi] =
                by_signature.equal_range(slice_signature(slice));
            for (auto match = lo; match != hi; ++match) {
              if (slice_equal(slice, donor_cover->slices[match->second])) {
                plans.slots[i] = donor_slots[match->second];
                plans.shared[i] = 1;
                donated = true;
                break;
              }
            }
          }
          if (!plans.slots[i]) plans.slots[i] = std::make_shared<PlanSlot>();
        }
        entry.plans = std::move(plans);
        entry.cover_ready = true;  // published only with its slots
        access.built_cover = true;
        cover_misses.fetch_add(1, std::memory_order_relaxed);
      } else {
        cover_hits.fetch_add(1, std::memory_order_relaxed);
      }
      access.cover = &entry.cover;
      access.plans = &entry.plans;
    }
    if (donor || donated) purge_stale(key);
    return access;
  }

  /// Drops same-parameter cover entries of strictly older versions that
  /// are dead (no reachable snapshot can ever query them again). Runs
  /// after the newer entry is complete, so the donation above already
  /// happened; entries of still-live versions stay for their pinned
  /// queries (and age out through the LRU like any other entry).
  void purge_stale(const CoverKey& key) {
    std::set<std::uint64_t> live;
    {
      const std::lock_guard<std::mutex> lock(version_mutex);
      for (const auto& [id, weak] : registry) {
        if (!weak.expired()) live.insert(id);
      }
    }
    const std::lock_guard<std::mutex> lock(cache_mutex);
    CoverKey first = key;
    first.version = 0;
    std::vector<CoverKey> dead;
    for (auto it = covers.lower_bound(first);
         it != covers.end() && it->first.same_base(key) &&
         it->first.version < key.version;
         ++it) {
      if (live.count(it->first.version) == 0) dead.push_back(it->first);
    }
    for (const CoverKey& victim : dead) covers.erase(victim);
    stale_purged.fetch_add(dead.size(), std::memory_order_relaxed);
  }

  /// The skeleton every blocking query runs through. In order: option
  /// validation, the query's own input check (`input`), the version pin,
  /// the checks against the pinned version (`admit`), the Budget and its
  /// entry check (a pre-cancelled token or due deadline returns before any
  /// cover is built), and `body(version, budget, result)` under the one
  /// containment boundary. An exception escaping the body (internal
  /// invariant, allocation failure, injected fault — surfaced by
  /// Scheduler::run on this thread) resolves to kInternal /
  /// kResourceExhausted; like any non-ok status the body returns, it
  /// carries `result` as accounted so far. The Solver, its cache and the
  /// version ledger stay consistent: every mutation is lock-guarded and
  /// ordered build-then-publish. Tracing spans belong here.
  template <typename T, typename Body, typename Admit = AdmitAll>
  Result<T> run_query(const QueryOptions& options, const Status& input,
                      Body body, Admit admit = {}) {
    if (Status status = validate(options); !status.ok()) return status;
    if (!input.ok()) return input;
    // Pin QueryOptions::at (a foreign version would poison the
    // version-keyed cache) or else the current version.
    const TargetVersion* at = options.at;
    if (at != nullptr && !at->valid())
      return Status::InvalidOptions(
          "QueryOptions::at: default-constructed TargetVersion");
    if (at != nullptr && at->state_->ledger != ledger)
      return Status::InvalidOptions(
          "QueryOptions::at: TargetVersion belongs to a different Solver");
    const Snapshot snap = at != nullptr ? at->state_ : pin_current();
    if (Status status = admit(*snap); !status.ok()) return status;
    const Budget budget(options);
    T result;
    Status status = budget.check(result.metrics);
    try {
      if (status.ok()) status = body(*snap, budget, result);
    } catch (...) {
      status = contained_status();
    }
    if (!status.ok()) return {std::move(status), std::move(result)};
    return result;
  }

  /// find, find_once and find_separating: run_query over the cover-run
  /// loop of Theorem 2.1 (and its §5.2 separating variant). Per run,
  /// acquire the cover for `key` with the run's seed, solve its slices, and
  /// absorb the run — cover-build metrics only when this run built the
  /// cover (a cache hit did not perform that work). Stops on found, on a
  /// mid-cover preemption (its precise cause), or on a failed between-runs
  /// budget check. `max_runs` = 0 means 2 log2(n) + 4 runs, enough for a
  /// w.h.p. negative.
  template <typename SeedOf, typename Admit = AdmitAll>
  Result<DecisionResult> run_covers(const char* query, const Pattern& pattern,
                                    const QueryOptions& options, CoverKey key,
                                    std::uint32_t max_runs, SeedOf seed_of,
                                    Admit admit = {}) {
    const auto loop = [&](const detail::VersionState& ver,
                          const Budget& budget, DecisionResult& total) {
      const Vertex n = ver.graph.num_vertices();
      if (n < pattern.size()) return Status();
      const std::uint32_t runs = max_runs > 0 ? max_runs : default_runs(n);
      key.d = std::max(1u, pattern.diameter());
      key.k = pattern.size();
      key.version = ver.id;
      for (std::uint32_t r = 0; r < runs; ++r) {
        key.seed = seed_of(r);
        const CoverAccess access = acquire_cover(ver, key);
        DecisionResult run;
        Status interrupt;
        const bool found =
            solve_all_slices(*access.cover, *access.plans, pattern, options,
                             budget, run, nullptr, 1, &interrupt);
        if (access.built_cover) total.metrics.absorb(access.cover->metrics);
        total.metrics.absorb(run.metrics);
        total.slices_solved += run.slices_solved;
        ++total.runs;
        if (found) {
          total.found = true;
          total.witness = std::move(run.witness);
          return Status();
        }
        if (!interrupt.ok()) return interrupt;
        if (Status status = budget.check(total.metrics); !status.ok())
          return status;
      }
      return Status();
    };
    return run_query<DecisionResult>(
        options, require_connected(pattern, query), loop, admit);
  }

  /// list and count: run_query over the listing loop of Theorem 4.2, which
  /// collects occurrences into `all` over fresh covers until the stopping
  /// rule, the list limit, or an interruption ends it. `result` (a
  /// ListingResult or CountResult) receives the iterations and metrics as
  /// they accrue, so a contained failure still reports what was accounted;
  /// `summarize(all, result)` then fills in the occurrences of every result
  /// that has a value, partial ones included.
  template <typename T, typename Summarize>
  Result<T> run_listing(const char* query, const Pattern& pattern,
                        const QueryOptions& options, Summarize summarize) {
    std::set<Assignment> all;
    const auto loop = [&](const detail::VersionState& ver,
                          const Budget& budget, T& result) -> Status {
      const double lgn =
          std::log2(static_cast<double>(ver.graph.num_vertices()) + 2.0);
      std::uint32_t streak = 0;
      CoverKey key;
      key.d = std::max(1u, pattern.diameter());
      key.k = pattern.size();
      key.version = ver.id;
      while (all.size() < options.list_limit) {
        const std::uint32_t j = ++result.iterations;
        key.seed = support::hash_combine(options.seed, 0x11570 + j);
        const CoverAccess access = acquire_cover(ver, key);
        if (access.built_cover) result.metrics.absorb(access.cover->metrics);
        const std::size_t before = all.size();
        // The iteration stats meter the DP solve work (the dominant cost)
        // into the listing's metrics so bench accounting and the max_work
        // budget see it, not just the cover builds.
        DecisionResult iteration;
        Status interrupt;
        solve_all_slices(*access.cover, *access.plans, pattern, options,
                         budget, iteration, &all, options.list_limit,
                         &interrupt);
        result.metrics.absorb(iteration.metrics);
        if (!interrupt.ok()) return interrupt;  // mid-cover preemption
        streak = all.size() == before ? streak + 1 : 0;
        // Observation 2 / Theorem 4.2: stop once no new occurrence appeared
        // for log2(j) + Theta(log n) iterations in a row.
        const auto threshold = static_cast<std::uint32_t>(
            std::ceil(std::log2(static_cast<double>(j) + 1.0) + lgn)) +
            kStoppingSlack;
        if (streak >= threshold) return {};
        if (Status status = budget.check(result.metrics); !status.ok())
          return status;
      }
      return {StatusCode::kListLimitReached,
              "listing stopped at QueryOptions::list_limit; the occurrence "
              "set may be incomplete"};
    };
    Result<T> out =
        run_query<T>(options, require_connected(pattern, query), loop);
    if (out.has_value()) summarize(all, *out);
    return out;
  }
};

Solver::Solver(Graph target) : impl_(std::make_unique<Impl>()) {
  impl_->install_initial(std::move(target), std::nullopt);
}

Solver::Solver(planar::EmbeddedGraph target) : impl_(std::make_unique<Impl>()) {
  Graph graph = target.graph();
  impl_->install_initial(std::move(graph), std::move(target));
}

Solver::~Solver() = default;
Solver::Solver(Solver&&) noexcept = default;
Solver& Solver::operator=(Solver&&) noexcept = default;

const Graph& Solver::target() const { return impl_->pin_current()->graph; }
bool Solver::has_embedding() const {
  return impl_->pin_current()->embedding.has_value();
}

TargetVersion Solver::current_version() const {
  return TargetVersion(impl_->pin_current());
}

Result<TargetVersion> Solver::apply(const EditScript& script) {
  // One commit at a time: each script validates against (and builds on)
  // the version current when its turn comes.
  const std::lock_guard<std::mutex> edit(impl_->edit_mutex);
  const Impl::Snapshot base = impl_->pin_current();
  if (script.empty()) return TargetVersion(base);
  auto next = std::make_shared<detail::VersionState>();
  next->ledger = impl_->ledger;
  if (base->embedding.has_value()) {
    // Embedded targets stay embedded: the rotation system is patched
    // incrementally (planarity-breaking edits are rejected here).
    planar::EmbeddedGraph patched;
    if (Status status =
            detail::apply_edits_embedded(*base->embedding, script, &patched);
        !status.ok())
      return status;
    next->graph = patched.graph();
    next->embedding = std::move(patched);
  } else {
    GraphDelta delta;
    if (std::string error = apply_edits(base->graph, script, &delta);
        !error.empty())
      return Status::InvalidOptions("apply: " + error);
    next->graph = std::move(delta.graph);
  }
  {
    const std::lock_guard<std::mutex> lock(impl_->version_mutex);
    next->id = impl_->next_version_id++;
    impl_->registry.emplace(next->id, next);
    impl_->current = next;
    ++impl_->versions_committed;
    // Sweep registry entries whose versions have fully drained.
    for (auto it = impl_->registry.begin(); it != impl_->registry.end();) {
      it = it->second.expired() ? impl_->registry.erase(it) : std::next(it);
    }
  }
  return TargetVersion(std::move(next));
}

MutableTarget Solver::mutate() {
  return MutableTarget(this, impl_->pin_current()->graph.num_vertices());
}

Result<TargetVersion> Solver::insert_edge(Vertex u, Vertex v) {
  EditScript script;
  script.insert_edge(u, v);
  return apply(script);
}

Result<TargetVersion> Solver::remove_edge(Vertex u, Vertex v) {
  EditScript script;
  script.remove_edge(u, v);
  return apply(script);
}

Result<TargetVersion> Solver::insert_vertex() {
  EditScript script;
  script.insert_vertex();
  return apply(script);
}

Result<DecisionResult> Solver::find(const iso::Pattern& pattern,
                                    const QueryOptions& options) {
  return impl_->run_covers(
      "find", pattern, options, CoverKey{}, options.max_runs,
      [&](std::uint32_t r) { return support::hash_combine(options.seed, r); });
}

Result<DecisionResult> Solver::find_once(const iso::Pattern& pattern,
                                         std::uint64_t run_seed,
                                         const QueryOptions& options) {
  return impl_->run_covers("find_once", pattern, options, CoverKey{}, 1,
                           [&](std::uint32_t) { return run_seed; });
}

Result<ListingResult> Solver::list(const iso::Pattern& pattern,
                                   const QueryOptions& options) {
  return impl_->run_listing<ListingResult>(
      "list", pattern, options,
      [](const std::set<Assignment>& all, ListingResult& result) {
        result.occurrences.assign(all.begin(), all.end());
      });
}

Result<CountResult> Solver::count(const iso::Pattern& pattern,
                                  const QueryOptions& options) {
  return impl_->run_listing<CountResult>(
      "count", pattern, options,
      [&](const std::set<Assignment>& all, CountResult& result) {
        result.assignments = all.size();
        // Distinct subgraphs: dedupe by the sorted list of edge images.
        std::set<std::vector<std::uint64_t>> images;
        for (const Assignment& a : all) {
          std::vector<std::uint64_t> edges;
          for (Vertex u = 0; u < pattern.size(); ++u) {
            for (Vertex v : pattern.graph().neighbors(u)) {
              if (v < u) continue;
              const Vertex x = std::min(a[u], a[v]);
              const Vertex y = std::max(a[u], a[v]);
              edges.push_back((static_cast<std::uint64_t>(x) << 32) | y);
            }
          }
          std::sort(edges.begin(), edges.end());
          images.insert(std::move(edges));
        }
        result.subgraphs = images.size();
      });
}

Result<DecisionResult> Solver::find_disconnected(const iso::Pattern& pattern,
                                                 const QueryOptions& options) {
  const auto components = pattern.components();
  if (components.size() <= 1) return find(pattern, options);
  return impl_->run_query<DecisionResult>(
      options, Status(),
      [&](const detail::VersionState& ver, const Budget& budget,
          DecisionResult& total) {
        return find_components(ver, pattern, components, options, budget,
                               total);
      });
}

Result<DecisionResult> Solver::find_separating(
    const std::vector<std::uint8_t>& in_s, const iso::Pattern& pattern,
    const QueryOptions& options) {
  return impl_->run_covers(
      "find_separating", pattern, options,
      CoverKey{.separating = true, .in_s = in_s}, options.max_runs,
      [&](std::uint32_t r) {
        return support::hash_combine(options.seed, 0x5e9 + r);
      },
      [&](const detail::VersionState& ver) {
        if (in_s.size() == ver.graph.num_vertices()) return Status();
        return Status::InvalidOptions(
            "find_separating: in_s must mark every target vertex");
      });
}

Result<connectivity::VertexConnectivityResult> Solver::vertex_connectivity(
    const QueryOptions& options) {
  return impl_->run_query<connectivity::VertexConnectivityResult>(
      options, Status(),
      [&](const detail::VersionState& ver, const Budget& budget,
          connectivity::VertexConnectivityResult& result) {
        // Read the capacity before any fvg_mutex work (never nested under
        // it).
        std::size_t capacity;
        {
          const std::lock_guard<std::mutex> lock(impl_->cache_mutex);
          capacity = impl_->cache_capacity;
        }
        return probe_connectivity(ver, capacity, options, budget, result);
      },
      [](const detail::VersionState& ver) {
        if (ver.embedding.has_value()) return Status();
        return Status::Unsupported(
            "vertex_connectivity: this Solver was built without an "
            "embedding; construct it from a planar::EmbeddedGraph");
      });
}

std::vector<Result<DecisionResult>> Solver::find_batch(
    std::span<const iso::Pattern> patterns, const QueryOptions& options) {
  std::vector<Result<DecisionResult>> out(patterns.size());
  // Pin once for the whole batch: every query runs against the same
  // snapshot even if an edit commits mid-batch (option and pin validation
  // happen inside each find()).
  const TargetVersion pinned =
      options.at != nullptr ? *options.at : current_version();
  QueryOptions inner = options;
  inner.at = &pinned;
  // Queries share the cover cache: patterns with equal (diameter, size)
  // and the common per-run seeds resolve to the same memoized covers, so
  // whichever task gets there first builds and the rest reuse.
  //
  // One query task per pattern on the shared scheduler pool: the nested
  // slice and path tasks each query spawns join the same team instead of
  // collapsing into serial nested OMP regions, so a lone large query in
  // the batch still uses every idle thread. Scheduler::run carries the
  // TSan-visible fork/join edges the old manual `completed` counter
  // provided (libgomp's own barriers are uninstrumented).
  support::TaskGraph graph;
  for (std::size_t i = 0; i < patterns.size(); ++i)
    graph.add([&, i] { out[i] = find(patterns[i], inner); });
  // find() contains its own failures per slot; what Scheduler::run can
  // still rethrow is a failure *outside* any find (an injected
  // scheduler.task fault, a result-move allocation failure). Slots whose
  // task never completed are still kEmpty — resolve them to the contained
  // status so every slot of the batch carries a definitive answer.
  try {
    support::Scheduler::run(graph);
  } catch (...) {
    const Status status = contained_status();
    for (auto& slot : out) {
      if (slot.status().code() == StatusCode::kEmpty)
        slot = Result<DecisionResult>(status, DecisionResult{});
    }
  }
  return out;
}

CacheStats Solver::cache_stats() const {
  CacheStats stats;
  stats.cover_hits = impl_->cover_hits.load(std::memory_order_relaxed);
  stats.cover_misses = impl_->cover_misses.load(std::memory_order_relaxed);
  stats.cover_evictions = impl_->evictions.load(std::memory_order_relaxed);
  stats.slices_rebuilt =
      impl_->slice_counters.rebuilt.load(std::memory_order_relaxed);
  stats.slices_reused =
      impl_->slice_counters.reused.load(std::memory_order_relaxed);
  stats.stale_covers_purged =
      impl_->stale_purged.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(impl_->cache_mutex);
    stats.cover_entries = impl_->covers.size();
  }
  std::vector<Impl::Snapshot> live = impl_->live_snapshots();
  {
    const std::lock_guard<std::mutex> lock(impl_->version_mutex);
    stats.versions_committed = impl_->versions_committed;
  }
  stats.live_versions = live.size();
  {
    const std::lock_guard<std::mutex> lock(impl_->ledger->mutex);
    stats.versions_reclaimed = impl_->ledger->reclaimed;
    detail::add_cumulative_stats(&stats, impl_->ledger->harvested);
  }
  for (const Impl::Snapshot& snap : live) {
    const std::lock_guard<std::mutex> lock(snap->fvg_mutex);
    if (!snap->fvg_solver) continue;
    const CacheStats sub = snap->fvg_solver->cache_stats();
    detail::add_cumulative_stats(&stats, sub);
    stats.cover_entries += sub.cover_entries;
  }
  return stats;
}

void Solver::set_cache_capacity(std::size_t max_covers) {
  {
    const std::lock_guard<std::mutex> lock(impl_->cache_mutex);
    impl_->cache_capacity = max_covers;
    // Shrink immediately if the cache already exceeds the new bound.
    impl_->evict_lru_locked(nullptr);
  }
  for (const Impl::Snapshot& snap : impl_->live_snapshots()) {
    const std::lock_guard<std::mutex> lock(snap->fvg_mutex);
    if (snap->fvg_solver) snap->fvg_solver->set_cache_capacity(max_covers);
  }
}

void Solver::clear_cache() {
  {
    const std::lock_guard<std::mutex> lock(impl_->cache_mutex);
    impl_->covers.clear();
  }
  impl_->cover_hits.store(0, std::memory_order_relaxed);
  impl_->cover_misses.store(0, std::memory_order_relaxed);
  impl_->evictions.store(0, std::memory_order_relaxed);
  impl_->slice_counters.rebuilt.store(0, std::memory_order_relaxed);
  impl_->slice_counters.reused.store(0, std::memory_order_relaxed);
  impl_->stale_purged.store(0, std::memory_order_relaxed);
  {
    // The harvested sub-solver counters are cache counters; the version
    // lifecycle counts (committed/reclaimed) deliberately survive.
    const std::lock_guard<std::mutex> lock(impl_->ledger->mutex);
    impl_->ledger->harvested = CacheStats{};
  }
  for (const Impl::Snapshot& snap : impl_->live_snapshots()) {
    const std::lock_guard<std::mutex> lock(snap->fvg_mutex);
    if (snap->fvg_solver) snap->fvg_solver->clear_cache();
  }
}

}  // namespace ppsi

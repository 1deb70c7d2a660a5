#pragma once

// Bottom-up DP over a binary tree decomposition — Eppstein's sequential
// algorithm (paper §3.2), shared infrastructure for the parallel engine
// (§3.3), and witness recovery (§4.2.1).
//
// Every node is solved into its set of *valid* partial matches plus the
// signature index toward its parent (projection of each valid state into
// the parent's coordinate space). A state of a node with children is valid
// iff for some attribution of its C vertices to the children and some
// subtree-bit combination, both required child signatures are present in
// the children's signature indexes; leaves accept exactly the C = empty
// states whose separating bits match the local contributions.
//
// ---- Layout ----
//
// Everything a solve reads that does not depend on the pattern — bags,
// bag adjacency, separating masks, parent/child links, shared-position
// masks, child->parent position tables and the bottom-up order — is one
// flat DpPlan per slice (isomorphism/dp_plan.hpp), which the Solver
// caches and every solve over the slice shares read-only. A DpSolution
// holds the plan, its codec and parity pin, and one SolvedNode per
// decomposition node:
//   * states      — the valid StateKeys, in discovery order (the engines'
//                   canonical order; every index below refers into it),
//   * sig_groups  — CSR signature groups toward the parent
//                   (isomorphism/sig_index.hpp): sorted signature array +
//                   offsets + flat state-index array.
// Both are exactly-sized arrays from the solution's NodeStore
// (isomorphism/node_store.hpp), which carves small arrays from a few
// chunks per solve instead of two heap blocks per node. Every engine stages a node's states in
// the per-thread scratch (isomorphism/dp_scratch.hpp) and copies them
// once. The scratch arena supplies every intermediate buffer, the sparse
// engine's state-dedup set included, so the engines do no steady-state
// scratch allocation after warmup.
//
// All three engines start from detail::prepare_solution (codec, pin, node
// array) and end with detail::collect_accepting. solve_sequential and
// solve_sparse also share the bottom-up pass (detail::solve_bottom_up);
// only their kernels differ. Each engine takes a plan; the overloads that
// take (graph, decomposition) build a temporary plan from options.spec.
//
// Instrumented work counts are *layout-invariant*: the counters tick per
// candidate state, per support combination, and per DAG edge scanned —
// quantities fixed by the algorithm, not by how states are stored or
// looked up. The flat rewrite therefore reports bit-identical work to the
// hash-map engine it replaced (pinned by the differential suites), while
// the wall clock drops.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "isomorphism/dp_plan.hpp"
#include "isomorphism/dp_scratch.hpp"
#include "isomorphism/node_store.hpp"
#include "isomorphism/pattern.hpp"
#include "isomorphism/sig_index.hpp"
#include "isomorphism/state_enumeration.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/scheduler.hpp"
#include "treedecomp/tree_decomposition.hpp"

namespace ppsi::iso {

/// A complete or partial occurrence: image per pattern vertex
/// (kNoVertex where unmatched).
using Assignment = std::vector<Vertex>;

struct SolvedNode {
  std::span<const StateKey> states;  ///< valid states, in discovery order
  /// CSR groups: projection toward the parent -> valid-state indices.
  SigIndex sig_groups;
};

struct DpSolution {
  std::shared_ptr<const DpPlan> plan;  ///< the slice's pattern-free half
  StateCodec codec;
  ParityPin pin;  ///< the solve's parity pin (parity_pin of plan, pattern)
  std::vector<SolvedNode> nodes;             ///< per decomposition node
  std::vector<std::uint32_t> accepting;      ///< root state indices
  bool accepted = false;
  support::Metrics metrics;
  std::unique_ptr<NodeStore> store;  ///< backs every node's arrays

  /// Node x's bag context under this solve's pin.
  BagView ctx(treedecomp::NodeId x) const { return plan->context(x, pin); }
};

struct DpOptions {
  /// Separating configuration (disabled by default). Only the overloads
  /// taking (graph, decomposition) read it, to build their plan; a plan
  /// carries the spec it was built with.
  SeparatingSpec spec;
  /// Cooperative cancellation, checked once per decomposition node: a
  /// cancelled engine stops mid-tree and returns its partial solution with
  /// accepted == false. Callers must treat such a solution as garbage
  /// (the caller's own scope check distinguishes "not accepted" from
  /// "cancelled"). Default scope: never cancels.
  support::CancelScope cancel;
};

/// Eppstein's sequential bottom-up DP over a slice's plan.
DpSolution solve_sequential(const std::shared_ptr<const DpPlan>& plan,
                            const Pattern& pattern, const DpOptions& options);
/// The same over a temporary plan of (g, td, options.spec); `td` must be
/// binary.
DpSolution solve_sequential(const Graph& g,
                            const treedecomp::TreeDecomposition& td,
                            const Pattern& pattern, const DpOptions& options);

/// Recovers up to `limit` complete assignments realizing the accepting root
/// states (top-down over valid children, paper §4.2.1). Each assignment is
/// a full injective pattern -> target map; duplicates are removed and the
/// cap is enforced *during* accumulation, so a small limit bounds the
/// expansion work. `work`, when non-null, receives the instrumented
/// recovery operation count (kept separate from DpSolution::metrics so
/// solve-side work stays comparable across engines).
std::vector<Assignment> recover_assignments(const DpSolution& solution,
                                            std::size_t limit,
                                            std::uint64_t* work = nullptr);
/// The same; `td` must be the decomposition the solution was solved over
/// (the solution's plan already carries it).
std::vector<Assignment> recover_assignments(
    const DpSolution& solution, const treedecomp::TreeDecomposition& td,
    std::size_t limit, std::uint64_t* work = nullptr);

// ---- Shared internals (used by the parallel engine as well) ----

namespace detail {

/// Enumerates the child-signature pairs that would support `state` at a
/// node with the given children links, calling
/// visit(sig_left, sig_right) for each candidate combination; children that
/// do not exist receive an engaged check against "no contribution"
/// (handled by the caller passing kNoChild masks). Returns via visit's
/// bool: stop early when visit returns true.
struct ChildLink {
  bool present = false;
  std::uint64_t shared_mask = 0;
};

/// Invokes visit(sigL, sigR) for every (C-attribution, subtree-bit) combo
/// consistent with `state`; visit returns true to stop the enumeration.
/// For absent children the respective signature must be the empty
/// contribution (all-U, zero bits); combos violating that are skipped.
/// `visit` is a templated visitor (header-defined so the support check of
/// the innermost DP loop inlines); a std::function still binds when type
/// erasure is wanted.
///
/// Bit-parallel kernel: the combo-independent part of each child signature
/// is computed once per state (combo_base_signature), and every combo's
/// signatures are derived by OR-ing the packed kStateC bits of its
/// C-attribution onto the base code (spread_c_fields) plus the subtree
/// bits onto the base sep — two ORs per combo instead of two full k-field
/// signature rebuilds. The visit sequence (order and values) is
/// bit-identical to for_each_support_combo_ref below, which keeps the
/// original per-field formulation as the differential reference.
template <class Visit>
bool for_each_support_combo(const StateCodec& codec, const BagView& ctx,
                            StateKey state, const ChildLink& left,
                            const ChildLink& right, bool separating,
                            Visit&& visit) {
  const StateView view = view_of(codec, state.code);
  const std::uint32_t c_mask = view.c_mask;
  bool li = false, lo = false;
  if (separating) local_sep_bits(ctx, codec, state, &li, &lo);
  const bool ix = (state.sep & kSepIx) != 0;
  const bool ox = (state.sep & kSepOx) != 0;

  if (!left.present && !right.present) {
    // Leaf: nothing below; C must be empty and the subtree bits are exactly
    // the local contributions.
    if (c_mask != 0) return false;
    if (separating && (ix != li || ox != lo)) return false;
    return visit(nullptr, nullptr);
  }

  StateKey base_left, base_right;
  if (left.present)
    base_left = combo_base_signature(state, codec, ctx, left.shared_mask);
  if (right.present)
    base_right = combo_base_signature(state, codec, ctx, right.shared_mask);
  const std::uint64_t spread_c = spread_c_fields(codec, c_mask);

  const int iy_max = separating ? 1 : 0;
  // Attribute every C vertex to exactly one present child: enumerate all
  // subsets `a` of the C set for the left child (submask walk). Since
  // a and b_mask partition c_mask, spread(b_mask) = spread_c ^ spread(a).
  std::uint32_t a = left.present ? c_mask : 0;  // subset for the left child
  bool done = false;
  while (!done) {
    if (a == 0) done = true;  // process the empty subset, then stop
    const std::uint32_t b_mask = c_mask & ~a;  // right child's share
    const bool split_ok =
        (left.present || a == 0) && (right.present || b_mask == 0);
    if (split_ok) {
      const std::uint64_t spread_a = spread_c_fields(codec, a);
      const std::uint64_t code_left = base_left.code | spread_a;
      const std::uint64_t code_right = base_right.code | (spread_c ^ spread_a);
      for (int iyl = 0; iyl <= (left.present ? iy_max : 0); ++iyl) {
        for (int iyr = 0; iyr <= (right.present ? iy_max : 0); ++iyr) {
          if (separating && ((li || iyl || iyr) != ix)) continue;
          for (int oyl = 0; oyl <= (left.present ? iy_max : 0); ++oyl) {
            for (int oyr = 0; oyr <= (right.present ? iy_max : 0); ++oyr) {
              if (separating && ((lo || oyl || oyr) != ox)) continue;
              StateKey sig_left, sig_right;
              if (left.present) {
                sig_left.code = code_left;
                sig_left.sep = base_left.sep | (iyl != 0 ? kSepIx : 0) |
                               (oyl != 0 ? kSepOx : 0);
              }
              if (right.present) {
                sig_right.code = code_right;
                sig_right.sep = base_right.sep | (iyr != 0 ? kSepIx : 0) |
                                (oyr != 0 ? kSepOx : 0);
              }
              if (visit(left.present ? &sig_left : nullptr,
                        right.present ? &sig_right : nullptr)) {
                return true;
              }
            }
          }
        }
      }
    }
    if (!done) a = (a - 1) & c_mask;
  }
  return false;
}

/// The original per-field formulation of for_each_support_combo, kept as
/// the differential reference: the kernel suite asserts the bit-parallel
/// version visits the identical (sigL, sigR) sequence.
template <class Visit>
bool for_each_support_combo_ref(const StateCodec& codec, const BagView& ctx,
                                StateKey state, const ChildLink& left,
                                const ChildLink& right, bool separating,
                                Visit&& visit) {
  const StateView view = view_of(codec, state.code);
  const std::uint32_t c_mask = view.c_mask;
  bool li = false, lo = false;
  if (separating) local_sep_bits(ctx, codec, state, &li, &lo);
  const bool ix = (state.sep & kSepIx) != 0;
  const bool ox = (state.sep & kSepOx) != 0;

  if (!left.present && !right.present) {
    if (c_mask != 0) return false;
    if (separating && (ix != li || ox != lo)) return false;
    return visit(nullptr, nullptr);
  }

  const int iy_max = separating ? 1 : 0;
  std::uint32_t a = left.present ? c_mask : 0;
  bool done = false;
  while (!done) {
    if (a == 0) done = true;
    const std::uint32_t b_mask = c_mask & ~a;
    const bool split_ok =
        (left.present || a == 0) && (right.present || b_mask == 0);
    if (split_ok) {
      for (int iyl = 0; iyl <= (left.present ? iy_max : 0); ++iyl) {
        for (int iyr = 0; iyr <= (right.present ? iy_max : 0); ++iyr) {
          if (separating && ((li || iyl || iyr) != ix)) continue;
          for (int oyl = 0; oyl <= (left.present ? iy_max : 0); ++oyl) {
            for (int oyr = 0; oyr <= (right.present ? iy_max : 0); ++oyr) {
              if (separating && ((lo || oyl || oyr) != ox)) continue;
              StateKey sig_left, sig_right;
              if (left.present) {
                sig_left = required_signature(state, codec, ctx,
                                              left.shared_mask, a,
                                              iyl != 0, oyl != 0);
              }
              if (right.present) {
                sig_right = required_signature(state, codec, ctx,
                                               right.shared_mask, b_mask,
                                               iyr != 0, oyr != 0);
              }
              if (visit(left.present ? &sig_left : nullptr,
                        right.present ? &sig_right : nullptr)) {
                return true;
              }
            }
          }
        }
      }
    }
    if (!done) a = (a - 1) & c_mask;
  }
  return false;
}

/// The setup every engine starts from: the codec sized by the plan's
/// widest bag, the parity pin, and one empty SolvedNode per plan node
/// backed by a fresh NodeStore.
DpSolution prepare_solution(const std::shared_ptr<const DpPlan>& plan,
                            const Pattern& pattern);

/// Copies `states` into a block of `store` (none when empty).
std::span<const StateKey> store_states(NodeStore& store,
                                       std::span<const StateKey> states);

/// Fills solution.accepting and accepted from the root's states: no
/// pattern vertex left U and, when separating, both ix and ox set.
void collect_accepting(DpSolution& solution);

/// Solves one node exactly against its (already solved) children:
/// enumerates the locally valid states and keeps the supported ones.
/// Fills solution.nodes[x].states exactly sized, staging through the
/// thread's scratch; sig_groups are built separately. Every child must
/// already have its sig_groups built.
void solve_node_exact(const Pattern& pattern, treedecomp::NodeId x,
                      DpSolution& solution, std::uint64_t* work);

/// Builds solution.nodes[x].sig_groups (projections toward the parent)
/// from the node's states and the plan's position table of x.
void build_sig_groups(const Pattern& pattern, treedecomp::NodeId x,
                      DpSolution& solution);

/// The bottom-up pass of solve_sequential and solve_sparse: prepares the
/// solution, then calls solve_node(solution, x, work) per node in the
/// plan's bottom-up order, `work` being the pass's work counter. Each node
/// is one round. A cancelled pass stops at the next node and returns its
/// partial solution with accepted == false.
template <class SolveNode>
DpSolution solve_bottom_up(const std::shared_ptr<const DpPlan>& plan,
                           const Pattern& pattern, const DpOptions& options,
                           SolveNode&& solve_node) {
  DpSolution sol = prepare_solution(plan, pattern);
  std::uint64_t work = 0;
  DpScratch& scratch = DpScratch::local();
  const std::uint64_t allocs_before = scratch.arena.alloc_events();
  bool preempted = false;
  for (const treedecomp::NodeId x : plan->bottom_up()) {
    // One poll per node bounds the overshoot to a single node; the caller
    // discards the partial solution (its scope sees the same sources).
    if (options.cancel.cancelled()) {
      preempted = true;
      break;
    }
    PPSI_FAULT_POINT("dp.node");
    solve_node(sol, x, work);
    sol.metrics.add_rounds(1);
  }
  sol.metrics.add_work(work);
  sol.metrics.add_allocs(scratch.arena.alloc_events() - allocs_before);
  sol.metrics.note_scratch_peak(scratch.arena.peak_bytes());
  if (!preempted) collect_accepting(sol);
  return sol;
}

}  // namespace detail

}  // namespace ppsi::iso

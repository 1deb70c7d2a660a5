#include "isomorphism/sparse_dp.hpp"

#include <algorithm>
#include <bit>

#include "isomorphism/dp_scratch.hpp"

namespace ppsi::iso {
namespace {

/// Per-vertex merge of two child signatures (both in the parent's
/// coordinate space). Returns false on conflict; otherwise fills the base
/// code (new-match candidates stay U).
bool merge_signatures(const StateCodec& codec, std::uint64_t shared_l,
                      std::uint64_t shared_r, StateKey sig_l, StateKey sig_r,
                      std::uint64_t* base_code) {
  // Bit-parallel walk: a field that is U (0) in both children contributes
  // nothing to the merged code and is exactly a new-match candidate, so
  // only fields with a set bit in either code are visited (ascending, like
  // the k-loop this replaces — first-conflict behavior is unchanged).
  std::uint64_t code = 0;
  for (std::uint64_t rest = sig_l.code | sig_r.code; rest != 0;) {
    const auto v =
        static_cast<std::uint32_t>(std::countr_zero(rest)) / codec.bits;
    rest &= ~(codec.field_mask << (v * codec.bits));
    const std::uint64_t a = codec.get(sig_l.code, v);
    const std::uint64_t b = codec.get(sig_r.code, v);
    std::uint64_t out;
    if ((a == kStateC && b == kStateU) || (a == kStateU && b == kStateC)) {
      out = kStateC;
    } else if (a == kStateC || b == kStateC) {
      return false;  // matched in both children, or C vs mapped
    } else if (a >= kStateMapped && b >= kStateMapped) {
      if (a != b) return false;
      out = a;
    } else {
      // Exactly one side mapped; the other is U. Legal only when the bag
      // vertex is invisible to the U side (otherwise that child would have
      // had to map it).
      const std::uint64_t val = a >= kStateMapped ? a : b;
      const std::uint64_t p = val - kStateMapped;
      const std::uint64_t other_shared = a >= kStateMapped ? shared_r : shared_l;
      if ((other_shared >> p) & 1ULL) return false;
      out = val;
    }
    code = codec.set(code, v, out);
  }
  *base_code = code;
  return true;
}

/// Per-node generation state. States, their dedup set and their
/// projections toward the parent all stage in the thread's scratch; a
/// solved node keeps only its exact-sized state array and signature index.
struct NodeGen {
  const StateCodec& codec;
  const Pattern& pattern;
  const BagView& ctx;
  bool separating;
  const std::int8_t* to_parent;  ///< the plan's table; null at the root
  detail::DpScratch& scratch;

  /// Stages state {code, sep} (whose code decodes to `view`) unless
  /// already present, and appends its projection toward the parent, so
  /// the pairs come out in state-index order as build_sig_groups would
  /// produce them. The halves arrive as scalars, as in StagedStates::stage.
  void emit(std::uint64_t code, std::uint64_t sep, const StateView& view) {
    const auto index =
        static_cast<std::uint32_t>(scratch.staged.states.size());
    if (scratch.staged.stage(code, sep, scratch.arena) != index) return;
    if (to_parent == nullptr) return;
    const auto sig = project_to_parent(StateKey{code, sep}, view, codec,
                                       pattern, ctx, to_parent);
    if (sig.has_value()) scratch.sig_pairs.emplace_back(*sig, index);
  }

  /// Expands one base: enumerates new-match extensions over `free_mask`
  /// (initially the base's U set), then labels/bits, emitting every
  /// resulting state. `view` is the decoded view of `code`; mapping a
  /// field derives the next view from it, so each base is decoded once.
  /// `known_labels`/`known_mask` carry the child-determined inside bits
  /// over bag positions (parent coordinates); `child_bits` is the OR of the
  /// children's (iy, oy) contributions packed as kSepIx/kSepOx.
  void expand_matches(std::uint64_t code, const StateView& view,
                      std::uint32_t free_mask, std::uint64_t blocked,
                      std::uint64_t known_labels, std::uint64_t known_mask,
                      std::uint64_t child_bits) {
    if (free_mask == 0) {
      finish(code, view, known_labels, known_mask, child_bits);
      return;
    }
    const auto v = static_cast<std::uint32_t>(std::countr_zero(free_mask));
    const std::uint32_t rest = free_mask & (free_mask - 1);
    // Option 1: v stays unmatched.
    expand_matches(code, view, rest, blocked, known_labels, known_mask,
                   child_bits);
    // Option 2: map v to a fresh allowed position invisible to both
    // children, adjacent to all mapped pattern neighbors of v.
    if ((pattern.adj_mask(v) & view.c_mask) != 0) return;  // C-U rule later
    std::uint64_t positions =
        ctx.allowed_for(v) & ~view.image_mask & ~blocked;
    for (std::uint32_t nb = pattern.adj_mask(v) & view.mapped_mask; nb != 0;
         nb &= nb - 1) {
      const auto w = static_cast<std::uint32_t>(std::countr_zero(nb));
      positions &= ctx.gadj[codec.get(code, w) - kStateMapped];
    }
    StateView next_view = view;
    next_view.mapped_mask |= 1u << v;
    next_view.u_mask &= ~(1u << v);
    while (positions != 0) {
      const int p = std::countr_zero(positions);
      positions &= positions - 1;
      const std::uint64_t next =
          codec.set(code, v, kStateMapped + static_cast<std::uint64_t>(p));
      next_view.image_mask = view.image_mask | (1ULL << p);
      expand_matches(next, next_view, rest, blocked, known_labels,
                     known_mask, child_bits);
    }
  }

 private:
  void finish(std::uint64_t code, const StateView& view,
              std::uint64_t known_labels, std::uint64_t known_mask,
              std::uint64_t child_bits) {
    // Enforce the C-U rule (a C vertex whose pattern neighbor stayed U).
    for (std::uint32_t cm = view.c_mask; cm != 0; cm &= cm - 1) {
      const auto v = static_cast<std::uint32_t>(std::countr_zero(cm));
      if ((pattern.adj_mask(v) & view.u_mask) != 0) return;
    }
    // Realization check for freshly co-resident mapped pairs (pairs coming
    // from different children were never co-checked).
    for (std::uint32_t mm = view.mapped_mask; mm != 0; mm &= mm - 1) {
      const auto v = static_cast<std::uint32_t>(std::countr_zero(mm));
      const std::uint64_t pv = codec.get(code, v) - kStateMapped;
      for (std::uint32_t nb =
               pattern.adj_mask(v) & view.mapped_mask & ((1u << v) - 1);
           nb != 0; nb &= nb - 1) {
        const auto w = static_cast<std::uint32_t>(std::countr_zero(nb));
        const std::uint64_t pw = codec.get(code, w) - kStateMapped;
        if (((ctx.gadj[pv] >> pw) & 1ULL) == 0) return;
      }
    }
    if (!separating) {
      emit(code, 0, view);
      return;
    }
    // Labels: components of the bag minus the image; a component touching a
    // child-labelled position inherits (and must be consistent); the rest
    // are free and are compacted to the front of `scan.comps`.
    const std::uint64_t unmapped = ctx.all_mask & ~view.image_mask;
    const std::uint64_t eff_known = known_mask & unmapped;
    std::uint64_t fixed_inside = 0;
    ComponentScan scan = unmapped_components(ctx, unmapped);
    std::uint32_t num_free = 0;
    for (std::uint32_t i = 0; i < scan.count; ++i) {
      const std::uint64_t comp = scan.comps[i];
      const std::uint64_t known_here = comp & eff_known;
      if (known_here == 0) {
        scan.comps[num_free++] = comp;
      } else {
        const std::uint64_t inside_here = known_here & known_labels;
        if (inside_here != 0 && inside_here != known_here) return;  // mixed
        if (inside_here != 0) fixed_inside |= comp;
      }
    }
    support::require(num_free <= 24,
                     "sparse separating: too many free components");
    const std::uint32_t combos = 1u << num_free;
    for (std::uint32_t lab = 0; lab < combos; ++lab) {
      std::uint64_t inside = fixed_inside;
      for (std::uint32_t i = 0; i < num_free; ++i)
        if ((lab >> i) & 1u) inside |= scan.comps[i];
      // Exact subtree bits: local contribution OR the children's.
      const bool li = (inside & ctx.s_mask) != 0;
      const bool lo = ((unmapped & ~inside) & ctx.s_mask) != 0;
      std::uint64_t sep = inside | child_bits;
      if (li) sep |= kSepIx;
      if (lo) sep |= kSepOx;
      emit(code, sep, view);
    }
  }
};

/// The sparse node kernel: generates node x's states from its children's
/// signature sets and builds its signature index toward the parent.
void solve_sparse_node(const Pattern& pattern, treedecomp::NodeId x,
                       DpSolution& sol, std::uint64_t& work) {
  const StateCodec& codec = sol.codec;
  const DpPlan& plan = *sol.plan;
  detail::DpScratch& scratch = detail::DpScratch::local();
  SolvedNode& node = sol.nodes[x];
  const bool has_parent = plan.parent(x) != treedecomp::kNoNode;
  const BagView ctx = sol.ctx(x);
  // States stage through the thread's scratch and are copied once into the
  // node's exact-sized array (as in solve_node_exact). The dedup set is
  // swept here, before the node, so a node that threw leaves nothing
  // behind for the next one.
  std::vector<StateKey>& staged = scratch.staged.states;
  auto& pairs = scratch.sig_pairs;
  const std::size_t staged_bytes = support::ScratchArena::bytes_of(staged);
  const std::size_t pairs_bytes = support::ScratchArena::bytes_of(pairs);
  scratch.staged.clear();
  pairs.clear();
  NodeGen gen{codec, pattern, ctx, plan.separating(),
              has_parent ? plan.to_parent(x) : nullptr, scratch};
  const std::span<const treedecomp::NodeId> kids = plan.children(x);
  if (kids.empty()) {
    // Leaf: C = empty, everything else free.
    ++work;
    const StateView view = view_of(codec, 0);
    gen.expand_matches(0, view, view.u_mask, 0, 0, 0, 0);
  } else if (kids.size() == 1) {
    const SolvedNode& child = sol.nodes[kids[0]];
    const std::uint64_t shared = plan.shared_with_parent(kids[0]);
    for (const StateKey& sig : child.sig_groups.sigs()) {
      ++work;
      // The signature itself is the forced base (U/C/mapped fields).
      const StateView view = view_of(codec, sig.code);
      gen.expand_matches(sig.code, view, view.u_mask, shared,
                         sig.sep & kSepLabelMask, shared,
                         sig.sep & (kSepIx | kSepOx));
    }
  } else {
    const SolvedNode& left = sol.nodes[kids[0]];
    const SolvedNode& right = sol.nodes[kids[1]];
    const std::uint64_t shared_l = plan.shared_with_parent(kids[0]);
    const std::uint64_t shared_r = plan.shared_with_parent(kids[1]);
    const std::uint64_t shared_lr = shared_l & shared_r;
    // Join the signature sets on their shared-position restriction.
    const auto join_key = [&](StateKey sig) {
      // Only mapped fields can contribute; walk them via the view's
      // mapped mask instead of scanning all k fields.
      std::uint64_t key_code = 0;
      const StateView view = view_of(codec, sig.code);
      for (std::uint32_t mm = view.mapped_mask; mm != 0; mm &= mm - 1) {
        const auto v = static_cast<std::uint32_t>(std::countr_zero(mm));
        const std::uint64_t val = codec.get(sig.code, v);
        if ((shared_lr >> (val - kStateMapped)) & 1ULL)
          key_code = codec.set(key_code, v, val);
      }
      return support::hash_combine(
          key_code, sig.sep & kSepLabelMask & shared_lr);
    };
    // Flat hash join: right signatures sorted by (join key, signature);
    // signatures are unique and fed in ascending order, so each key
    // group keeps the sorted-signature order a hash bucket would have
    // been filled in (in-place std::sort — stable_sort would heap-
    // allocate a merge buffer per join node). Grouping is by the exact
    // 64-bit key, so the enumerated (l, r) pairs — and the work count —
    // match the bucket map this replaces.
    auto& join_pairs = scratch.join_pairs;
    scratch.arena.acquire(join_pairs, right.sig_groups.size());
    for (const StateKey& sig : right.sig_groups.sigs())
      join_pairs.emplace_back(join_key(sig), sig);
    std::sort(join_pairs.begin(), join_pairs.end());
    const auto key_less = [](const auto& entry, std::uint64_t key) {
      return entry.first < key;
    };
    const auto key_greater = [](std::uint64_t key, const auto& entry) {
      return key < entry.first;
    };
    for (const StateKey& sig_l : left.sig_groups.sigs()) {
      const std::uint64_t key = join_key(sig_l);
      const auto lo = std::lower_bound(join_pairs.begin(),
                                       join_pairs.end(), key, key_less);
      const auto hi = std::upper_bound(lo, join_pairs.end(), key,
                                       key_greater);
      if (lo == hi) continue;
      for (auto it = lo; it != hi; ++it) {
        const StateKey sig_r = it->second;
        ++work;
        // Labels must agree wherever both children see the vertex.
        const std::uint64_t both = shared_lr & kSepLabelMask;
        if ((sig_l.sep & both) != (sig_r.sep & both)) continue;
        std::uint64_t base = 0;
        if (!merge_signatures(codec, shared_l, shared_r, sig_l, sig_r,
                              &base)) {
          continue;
        }
        const StateView view = view_of(codec, base);
        gen.expand_matches(base, view, view.u_mask, shared_l | shared_r,
                           (sig_l.sep | sig_r.sep) & kSepLabelMask,
                           shared_l | shared_r,
                           (sig_l.sep | sig_r.sep) & (kSepIx | kSepOx));
      }
    }
  }
  scratch.arena.settle(staged_bytes, support::ScratchArena::bytes_of(staged));
  scratch.arena.settle(pairs_bytes, support::ScratchArena::bytes_of(pairs));
  node.states = detail::store_states(*sol.store, staged);
  work += node.states.size();
  if (has_parent) node.sig_groups.build(pairs, *sol.store);
}

}  // namespace

DpSolution solve_sparse(const std::shared_ptr<const DpPlan>& plan,
                        const Pattern& pattern, const DpOptions& options) {
  return detail::solve_bottom_up(
      plan, pattern, options,
      [&](DpSolution& sol, treedecomp::NodeId x, std::uint64_t& work) {
        solve_sparse_node(pattern, x, sol, work);
      });
}

DpSolution solve_sparse(const Graph& g,
                        const treedecomp::TreeDecomposition& td,
                        const Pattern& pattern, const DpOptions& options) {
  return solve_sparse(std::make_shared<const DpPlan>(g, td, options.spec),
                      pattern, options);
}

}  // namespace ppsi::iso

#pragma once

// Partial matches (paper §3.1) and their local enumeration.
//
// A partial match of a decomposition node X assigns every pattern vertex one
// of: U ("unmatched": its image lies outside the subtree graph G_X),
// C ("matched in a child": its image lies in G_X but not in the bag X), or
// an explicit image in the bag. We encode a match as `k` fields of
// ceil(log2(|bag|+2)) bits packed in one 64-bit word.
//
// The S-separating extension (§5.2.2) adds: an inside/outside label for
// every bag vertex that is not a pattern image (bit p of `sep`), and two
// booleans recording whether some vertex of S inside the subtree ended up
// inside (ix, bit 62) / outside (ox, bit 63) of the separator.
//
// Local validity (the per-state part of the consistency rules; see
// DESIGN.md §3 for the soundness argument):
//   * the image assignment is injective and maps only allowed vertices,
//     each on its parity-pin side (BagView::allowed_for);
//   * every pattern edge with both endpoints mapped joins adjacent bag
//     vertices (realization);
//   * no pattern edge joins a C vertex with a U vertex (a forgotten image
//     is separated from everything outside G_X by the bag, so a still-
//     unmatched neighbor could never be attached);
//   * separating: bag vertices that are adjacent in G[bag] and both
//     unmapped carry the same label (components of the bag minus the image
//     are labeled uniformly), and ix/ox are at least the local S
//     contributions.

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"
#include "isomorphism/pattern.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace ppsi::iso {

// ---- State encoding ----

/// Field values of the per-pattern-vertex state.
inline constexpr std::uint64_t kStateU = 0;       ///< unmatched
inline constexpr std::uint64_t kStateC = 1;       ///< matched in a child
inline constexpr std::uint64_t kStateMapped = 2;  ///< mapped to position v-2

struct StateKey {
  std::uint64_t code = 0;  ///< k packed fields
  std::uint64_t sep = 0;   ///< separating extension (0 in base mode)

  bool operator==(const StateKey&) const = default;
  /// Lexicographic (code, sep) order — the sort key of the CSR signature
  /// layout (see SolvedNode in sequential_dp.hpp).
  friend bool operator<(const StateKey& a, const StateKey& b) {
    return a.code != b.code ? a.code < b.code : a.sep < b.sep;
  }
};

struct StateKeyHash {
  std::size_t operator()(const StateKey& s) const {
    return support::hash_combine(s.code, s.sep);
  }
};

inline constexpr std::uint64_t kSepInsideBits = 56;  ///< label bits [0, 56)
inline constexpr std::uint64_t kSepIx = 1ULL << 62;
inline constexpr std::uint64_t kSepOx = 1ULL << 63;
inline constexpr std::uint64_t kSepLabelMask = (1ULL << kSepInsideBits) - 1;

/// Packs/unpacks per-vertex fields of a state code.
struct StateCodec {
  std::uint32_t k = 0;
  std::uint32_t bits = 0;
  std::uint64_t field_mask = 0;
  /// OR of 1 << (v * bits) over all k fields. kStateU = 0 and kStateC = 1,
  /// so `code & ~field_lsbs` is nonzero exactly on the mapped fields and
  /// `code & field_lsbs` isolates the candidate C bits — the pivot of the
  /// bit-parallel decode in view_of and the combo kernels.
  std::uint64_t field_lsbs = 0;

  /// Codec for patterns of size k and bags of at most `max_bag` vertices.
  /// Throws when k * ceil(log2(max_bag + 2)) exceeds 64 bits.
  static StateCodec make(std::uint32_t k, std::uint32_t max_bag);

  std::uint64_t get(std::uint64_t code, std::uint32_t v) const {
    return (code >> (v * bits)) & field_mask;
  }
  std::uint64_t set(std::uint64_t code, std::uint32_t v,
                    std::uint64_t value) const {
    const std::uint32_t shift = v * bits;
    return (code & ~(field_mask << shift)) | (value << shift);
  }
};

/// Derived per-state bitmasks (recomputed on demand; k <= 16).
struct StateView {
  std::uint32_t mapped_mask = 0;  ///< pattern vertices with an image
  std::uint32_t c_mask = 0;       ///< pattern vertices matched in a child
  std::uint32_t u_mask = 0;       ///< unmatched pattern vertices
  std::uint64_t image_mask = 0;   ///< bag positions used as images
};

/// Decodes the masks of a packed state code (inline: the DP kernels call
/// it once per base or candidate state).
inline StateView view_of(const StateCodec& codec, std::uint64_t code) {
  // Bit-parallel decode: a mapped field holds kStateMapped + p >= 2, so it
  // is exactly a field with a bit above its LSB; C fields are LSB-only.
  // Walking the set bits costs popcount steps instead of k branchy
  // iterations, and U fields never cost anything.
  StateView view;
  const std::uint32_t all =
      codec.k >= 32 ? ~0u : ((1u << codec.k) - 1);
  std::uint64_t non_lsb = code & ~codec.field_lsbs;
  while (non_lsb != 0) {
    const auto v =
        static_cast<std::uint32_t>(std::countr_zero(non_lsb)) / codec.bits;
    view.mapped_mask |= 1u << v;
    view.image_mask |= 1ULL << (codec.get(code, v) - kStateMapped);
    non_lsb &= ~(codec.field_mask << (v * codec.bits));
  }
  std::uint64_t lsbs = code & codec.field_lsbs;
  std::uint32_t lsb_fields = 0;
  while (lsbs != 0) {
    const auto bit = static_cast<std::uint32_t>(std::countr_zero(lsbs));
    lsbs &= lsbs - 1;
    lsb_fields |= 1u << (bit / codec.bits);
  }
  view.c_mask = lsb_fields & ~view.mapped_mask;
  view.u_mask = all & ~view.mapped_mask & ~view.c_mask;
  return view;
}

// ---- Bag context ----

/// Pattern-vertex domain restriction of a separating run (see parity_pin):
/// the images of `in_s` vertices must lie in S, those of `out_s` outside.
/// Empty masks restrict nothing.
struct ParityPin {
  std::uint32_t in_s = 0;
  std::uint32_t out_s = 0;

  bool operator==(const ParityPin&) const = default;
};

/// What the DP kernels read of one decomposition node: its sorted bag,
/// the bag's induced adjacency as bitmasks, and the separating metadata
/// (allowed vertices, S membership, and the run's parity pin, which every
/// engine applies wherever it reads `allowed_mask`). A view: the arrays
/// live in a DpPlan (isomorphism/dp_plan.hpp) or in a BagContext, and the
/// pin is the solve's.
struct BagView {
  std::span<const Vertex> vertices;  ///< sorted bag vertices (positions)
  const std::uint64_t* gadj = nullptr;  ///< gadj[p] = positions adjacent to p
  std::uint64_t allowed_mask = 0;   ///< positions usable as images
  std::uint64_t s_mask = 0;         ///< positions whose vertex is in S
  std::uint64_t all_mask = 0;       ///< (1 << size) - 1
  ParityPin pin;                    ///< per-pattern-vertex S/non-S domains

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(vertices.size());
  }
  /// Position of g in the bag, or -1.
  int position_of(Vertex g) const;
  /// Positions usable as the image of pattern vertex v: `allowed_mask`
  /// intersected with v's parity-pin side.
  std::uint64_t allowed_for(std::uint32_t v) const {
    if ((pin.in_s >> v) & 1u) return allowed_mask & s_mask;
    if ((pin.out_s >> v) & 1u) return allowed_mask & ~s_mask;
    return allowed_mask;
  }
};

/// A bag context that owns its arrays: one node's data built on its own
/// (make_bag_context) rather than as part of a DpPlan. Tests, benches and
/// the plan's reference checks use it; it converts to the BagView the
/// kernels read.
struct BagContext {
  std::vector<Vertex> vertices;     ///< sorted bag vertices (positions)
  std::vector<std::uint64_t> gadj;  ///< gadj[p] = positions adjacent to p
  std::uint64_t allowed_mask = 0;
  std::uint64_t s_mask = 0;
  std::uint64_t all_mask = 0;
  ParityPin pin;

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(vertices.size());
  }
  operator BagView() const {
    return {vertices, gadj.data(), allowed_mask, s_mask, all_mask, pin};
  }
};

/// Separating-run configuration for one target graph (slice). Only the
/// `allowed` vertices may be images; the contracted outside components of
/// a separating cover slice are not allowed but may carry S. The spec
/// carries no pin: the engines derive it with parity_pin.
struct SeparatingSpec {
  bool enabled = false;
  std::vector<std::uint8_t> in_s;     ///< per target vertex
  std::vector<std::uint8_t> allowed;  ///< per target vertex

  static SeparatingSpec disabled() { return {}; }
};

/// Parity pin of a separating run. Non-empty only when the spec is
/// enabled, the pattern is one even cycle, and every edge of `g` between
/// two allowed vertices joins an S vertex to a non-S vertex. Then every
/// occurrence alternates S and non-S, and rotating it by one step along
/// the cycle swaps the two sides while keeping the image set, hence its
/// S-separation. So pinning the even vertices of a walk from pattern
/// vertex 0 to S and the odd ones outside S is exact: every dropped
/// labelling has a kept rotation with the same image set.
ParityPin parity_pin(const Graph& g, const SeparatingSpec& spec,
                     const Pattern& pattern);

/// The target half of parity_pin: the spec is enabled and every edge of
/// `g` between two allowed vertices joins S to non-S. O(|E|); a DpPlan
/// records it once per slice.
bool allowed_edges_alternate(const Graph& g, const SeparatingSpec& spec);

/// The pattern half of parity_pin, O(k): the pin of an even-cycle pattern
/// when `alternating` (allowed_edges_alternate of the target), else empty.
ParityPin parity_pin(const Pattern& pattern, bool alternating);

/// Bag context of `bag` in `g`; `pin` is stored as is (engines pass
/// parity_pin of the run, which is empty outside separating mode).
BagContext make_bag_context(const Graph& g, std::vector<Vertex> bag,
                            const SeparatingSpec& spec, ParityPin pin = {});

namespace detail {

/// The core of make_bag_context and of DpPlan: writes G[bag]'s adjacency
/// over the positions of the sorted `bag` into gadj[0, bag.size()) and
/// returns the view of it (empty pin). Throws for bags over 56 vertices.
BagView fill_bag(const Graph& g, std::span<const Vertex> bag,
                 const SeparatingSpec& spec, std::uint64_t* gadj);

}  // namespace detail

// ---- Local enumeration and checks ----

/// Component masks of the unmapped bag positions in G[bag], without heap
/// allocation (a bag has at most kSepInsideBits positions, so at most that
/// many components).
struct ComponentScan {
  std::array<std::uint64_t, kSepInsideBits> comps;
  std::uint32_t count = 0;
};

/// Connected components of `unmapped` in G[bag].
inline ComponentScan unmapped_components(const BagView& ctx,
                                         std::uint64_t unmapped) {
  ComponentScan scan;
  std::uint64_t todo = unmapped;
  while (todo != 0) {
    const int seed = std::countr_zero(todo);
    std::uint64_t comp = 1ULL << seed;
    std::uint64_t frontier = comp;
    while (frontier != 0) {
      std::uint64_t next = 0;
      std::uint64_t f = frontier;
      while (f != 0) {
        const int p = std::countr_zero(f);
        f &= f - 1;
        next |= ctx.gadj[p] & unmapped & ~comp;
      }
      comp |= next;
      frontier = next;
    }
    scan.comps[scan.count++] = comp;
    todo &= ~comp;
  }
  return scan;
}

namespace detail {

/// Depth-first enumeration of the locally valid states (see the header
/// comment). Defined in the header so `emit` devirtualizes: the innermost
/// DP loop calls it once per candidate state, and a type-erased callback
/// (the previous std::function design) cost an indirect call plus spilled
/// registers per state.
template <class Emit>
struct Enumerator {
  const Pattern& pattern;
  const BagView& ctx;
  const StateCodec& codec;
  bool separating;
  Emit& emit;

  std::uint64_t code = 0;
  std::uint64_t used = 0;  // positions already used as images

  void emit_base() const {
    if (!separating) {
      emit(StateKey{code, 0});
      return;
    }
    const StateView view = view_of(codec, code);
    const std::uint64_t unmapped = ctx.all_mask & ~view.image_mask;
    const ComponentScan scan = unmapped_components(ctx, unmapped);
    support::require(scan.count <= 24,
                     "separating enumeration: too many bag components");
    const std::uint32_t combos = 1u << scan.count;
    for (std::uint32_t lab = 0; lab < combos; ++lab) {
      std::uint64_t inside = 0;
      for (std::uint32_t i = 0; i < scan.count; ++i)
        if ((lab >> i) & 1u) inside |= scan.comps[i];
      const bool li = (inside & ctx.s_mask) != 0;
      const bool lo = ((unmapped & ~inside) & ctx.s_mask) != 0;
      for (int ix = li ? 1 : 0; ix <= 1; ++ix) {
        for (int ox = lo ? 1 : 0; ox <= 1; ++ox) {
          std::uint64_t sep = inside;
          if (ix) sep |= kSepIx;
          if (ox) sep |= kSepOx;
          emit(StateKey{code, sep});
        }
      }
    }
  }

  void recurse(std::uint32_t v) {
    if (v == codec.k) {
      emit_base();
      return;
    }
    const std::uint32_t earlier = pattern.adj_mask(v) & ((1u << v) - 1);
    bool earlier_has_c = false;
    bool earlier_has_u = false;
    std::uint64_t must_be_adjacent = ctx.all_mask;
    for (std::uint32_t rest = earlier; rest != 0; rest &= rest - 1) {
      const auto w = static_cast<std::uint32_t>(std::countr_zero(rest));
      const std::uint64_t val = codec.get(code, w);
      if (val == kStateC) {
        earlier_has_c = true;
      } else if (val == kStateU) {
        earlier_has_u = true;
      } else {
        must_be_adjacent &= ctx.gadj[val - kStateMapped];
      }
    }
    // Choice U: forbidden when an earlier pattern neighbor is already C.
    if (!earlier_has_c) {
      code = codec.set(code, v, kStateU);
      recurse(v + 1);
    }
    // Choice C: forbidden when an earlier pattern neighbor is U.
    if (!earlier_has_u) {
      code = codec.set(code, v, kStateC);
      recurse(v + 1);
    }
    // Choice mapped: free allowed positions adjacent to all mapped earlier
    // pattern neighbors.
    std::uint64_t positions = ctx.allowed_for(v) & ~used & must_be_adjacent;
    while (positions != 0) {
      const int p = std::countr_zero(positions);
      positions &= positions - 1;
      code = codec.set(code, v, kStateMapped + static_cast<std::uint64_t>(p));
      used |= 1ULL << p;
      recurse(v + 1);
      used &= ~(1ULL << p);
    }
    code = codec.set(code, v, kStateU);  // restore a clean field
  }
};

}  // namespace detail

/// Calls emit(key) for every locally valid state of the bag. In separating
/// mode each base state is expanded into its component labelings and the
/// consistent (ix, ox) variants. `emit` is a templated visitor (any
/// callable taking StateKey) so the per-state dispatch inlines; passing a
/// std::function still works where type erasure is wanted.
template <class Emit>
void enumerate_local_states(const Pattern& pattern, const BagView& ctx,
                            const StateCodec& codec, bool separating,
                            Emit&& emit) {
  detail::Enumerator<std::remove_reference_t<Emit>> e{pattern, ctx, codec,
                                                      separating, emit};
  e.recurse(0);
}

/// Full local-validity check of an arbitrary key (used by tests and as a
/// defensive cross-check; enumeration only produces valid keys).
bool locally_valid(const Pattern& pattern, const BagView& ctx,
                   const StateCodec& codec, bool separating, StateKey key);

/// Local S contributions of a state: li = some S vertex of the bag is
/// unmapped and labeled inside; lo = ... outside.
void local_sep_bits(const BagView& ctx, const StateCodec& codec,
                    StateKey key, bool* li, bool* lo);

// ---- Projections ----

/// Signature values use the same encoding as states, read in the *parent's*
/// coordinate space: U stays U, C and forgotten images become kStateC
/// ("matched below"), images shared with the parent bag keep their mapped
/// position. The separating part carries the labels of shared unmapped
/// positions (parent coordinates) plus the subtree bits (ix -> bit 62,
/// ox -> bit 63).
///
/// Returns nullopt when the child state cannot be extended to *any* parent
/// state: a pattern vertex whose image leaves the parent bag is forgotten
/// by every compatible parent, which is only sound once all its pattern
/// neighbors are matched in the child state (the bag separates the
/// forgotten image from the rest of the target, so a still-unmatched
/// neighbor could never be attached afterwards).
std::optional<StateKey> project_to_parent(StateKey child_state,
                                          const StateCodec& codec,
                                          const Pattern& pattern,
                                          const BagView& child_ctx,
                                          const BagView& parent_ctx);

/// Child-bag position -> parent-bag position table (-1 when the child
/// vertex is not in the parent bag). Built once per (child, parent) node
/// pair so batch projections replace the per-vertex binary search of
/// BagView::position_of with one table load. A DpPlan stores the same
/// table per node (DpPlan::to_parent).
struct PositionMap {
  std::array<std::int8_t, kSepInsideBits> to_parent;
};

PositionMap make_position_map(const BagView& child_ctx,
                              const BagView& parent_ctx);

/// project_to_parent with a precomputed position table (`to_parent[q]` is
/// the parent position of child position q, or -1) and the decoded view
/// of `child_state.code` (`child_view` must equal view_of of it).
/// Bit-identical to the BagView overload; only mapped fields and set
/// label bits are walked.
std::optional<StateKey> project_to_parent(StateKey child_state,
                                          const StateView& child_view,
                                          const StateCodec& codec,
                                          const Pattern& pattern,
                                          const BagView& child_ctx,
                                          const std::int8_t* to_parent);

/// The signature a child must have for `parent_state` to be supported,
/// given that the pattern vertices in `child_c_mask` (a subset of the
/// parent's C set) are matched inside this child's subtree and the child's
/// subtree bits are (iy, oy). `shared_mask` marks the parent bag positions
/// whose vertex also lies in the child's bag.
StateKey required_signature(StateKey parent_state, const StateCodec& codec,
                            const BagView& parent_ctx,
                            std::uint64_t shared_mask,
                            std::uint32_t child_c_mask, bool iy, bool oy);

/// OR of 1 << (v * bits) over the set bits of `vmask` — the packed-code
/// image of assigning kStateC to exactly those fields (kStateC == 1).
inline std::uint64_t spread_c_fields(const StateCodec& codec,
                                     std::uint32_t vmask) {
  std::uint64_t out = 0;
  while (vmask != 0) {
    const auto v = static_cast<std::uint32_t>(std::countr_zero(vmask));
    vmask &= vmask - 1;
    out |= 1ULL << (v * codec.bits);
  }
  return out;
}

/// The combo-independent part of required_signature: mapped fields kept
/// when shared with the child, C and U fields zeroed (kStateU), and the
/// label part of sep fixed. The concrete signature for a support combo
/// assigning `child_c_mask` to this child with subtree bits (iy, oy) is
///   { base.code | spread_c_fields(codec, child_c_mask),
///     base.sep | (iy ? kSepIx : 0) | (oy ? kSepOx : 0) }
/// which lets for_each_support_combo derive both child signatures per
/// combo with a popcount walk instead of two full k-field rebuilds.
StateKey combo_base_signature(StateKey parent_state, const StateCodec& codec,
                              const BagView& parent_ctx,
                              std::uint64_t shared_mask);

/// Parent-bag position mask of vertices shared with the child bag.
std::uint64_t shared_position_mask(const BagView& parent_ctx,
                                   const BagView& child_ctx);

}  // namespace ppsi::iso

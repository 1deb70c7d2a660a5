#include "isomorphism/state_enumeration.hpp"

#include <algorithm>
#include <bit>

namespace ppsi::iso {

StateCodec StateCodec::make(std::uint32_t k, std::uint32_t max_bag) {
  StateCodec codec;
  codec.k = k;
  std::uint32_t bits = 2;
  while ((1ULL << bits) < static_cast<std::uint64_t>(max_bag) + 2) ++bits;
  codec.bits = bits;
  codec.field_mask = (1ULL << bits) - 1;
  support::require(static_cast<std::uint64_t>(k) * bits <= 64,
                   "StateCodec: pattern too large for this bag width "
                   "(k * ceil(log2(width+3)) must fit in 64 bits)");
  for (std::uint32_t v = 0; v < k; ++v)
    codec.field_lsbs |= 1ULL << (v * bits);
  return codec;
}

int BagView::position_of(Vertex g) const {
  const auto it = std::lower_bound(vertices.begin(), vertices.end(), g);
  if (it == vertices.end() || *it != g) return -1;
  return static_cast<int>(it - vertices.begin());
}

bool allowed_edges_alternate(const Graph& g, const SeparatingSpec& spec) {
  if (!spec.enabled) return false;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (!spec.allowed[u]) continue;
    for (Vertex w : g.neighbors(u)) {
      if (spec.allowed[w] && spec.in_s[u] == spec.in_s[w]) return false;
    }
  }
  return true;
}

ParityPin parity_pin(const Pattern& pattern, bool alternating) {
  const std::uint32_t k = pattern.size();
  if (!alternating || k < 4 || k % 2 != 0) return {};
  // Walk the cycle from vertex 0; it must visit all k vertices, each of
  // degree 2, before closing.
  std::uint32_t even = 0;
  std::uint32_t seen = 0;
  std::uint32_t prev = 0;
  std::uint32_t cur = 0;
  for (std::uint32_t step = 0; step < k; ++step) {
    const std::uint32_t adj = pattern.adj_mask(cur);
    if (std::popcount(adj) != 2 || ((seen >> cur) & 1u) != 0) return {};
    seen |= 1u << cur;
    if (step % 2 == 0) even |= 1u << cur;
    const std::uint32_t next = static_cast<std::uint32_t>(
        std::countr_zero(step == 0 ? adj : adj & ~(1u << prev)));
    prev = cur;
    cur = next;
  }
  if (cur != 0) return {};
  return {even, seen & ~even};
}

ParityPin parity_pin(const Graph& g, const SeparatingSpec& spec,
                     const Pattern& pattern) {
  return parity_pin(pattern, allowed_edges_alternate(g, spec));
}

namespace detail {

BagView fill_bag(const Graph& g, std::span<const Vertex> bag,
                 const SeparatingSpec& spec, std::uint64_t* gadj) {
  support::require(bag.size() <= kSepInsideBits,
                   "make_bag_context: bag too large (max 56 vertices)");
  BagView ctx;
  ctx.vertices = bag;
  ctx.gadj = gadj;
  const std::uint32_t b = ctx.size();
  ctx.all_mask = b == 0 ? 0 : (1ULL << b) - 1;
  for (std::uint32_t p = 0; p < b; ++p) {
    gadj[p] = 0;
    for (Vertex w : g.neighbors(bag[p])) {
      const int q = ctx.position_of(w);
      if (q >= 0) gadj[p] |= 1ULL << q;
    }
    gadj[p] &= ~(1ULL << p);
  }
  if (spec.enabled) {
    for (std::uint32_t p = 0; p < b; ++p) {
      if (spec.allowed[bag[p]]) ctx.allowed_mask |= 1ULL << p;
      if (spec.in_s[bag[p]]) ctx.s_mask |= 1ULL << p;
    }
  } else {
    ctx.allowed_mask = ctx.all_mask;
  }
  return ctx;
}

}  // namespace detail

BagContext make_bag_context(const Graph& g, std::vector<Vertex> bag,
                            const SeparatingSpec& spec, ParityPin pin) {
  std::sort(bag.begin(), bag.end());
  BagContext ctx;
  ctx.vertices = std::move(bag);
  ctx.gadj.resize(ctx.vertices.size());
  const BagView view =
      detail::fill_bag(g, ctx.vertices, spec, ctx.gadj.data());
  ctx.allowed_mask = view.allowed_mask;
  ctx.s_mask = view.s_mask;
  ctx.all_mask = view.all_mask;
  ctx.pin = pin;
  return ctx;
}

bool locally_valid(const Pattern& pattern, const BagView& ctx,
                   const StateCodec& codec, bool separating, StateKey key) {
  const StateView view = view_of(codec, key.code);
  std::uint64_t seen = 0;
  for (std::uint32_t v = 0; v < codec.k; ++v) {
    const std::uint64_t val = codec.get(key.code, v);
    if (val == kStateU || val == kStateC) continue;
    const std::uint64_t p = val - kStateMapped;
    if (p >= ctx.size()) return false;
    if ((ctx.allowed_for(v) >> p & 1ULL) == 0) return false;
    if ((seen >> p) & 1ULL) return false;  // not injective
    seen |= 1ULL << p;
  }
  for (std::uint32_t v = 0; v < codec.k; ++v) {
    const std::uint64_t val = codec.get(key.code, v);
    for (std::uint32_t rest = pattern.adj_mask(v) & ((1u << v) - 1); rest;
         rest &= rest - 1) {
      const auto w = static_cast<std::uint32_t>(std::countr_zero(rest));
      const std::uint64_t wal = codec.get(key.code, w);
      const bool v_mapped = val >= kStateMapped;
      const bool w_mapped = wal >= kStateMapped;
      if (v_mapped && w_mapped) {
        if ((ctx.gadj[val - kStateMapped] >> (wal - kStateMapped) & 1ULL) == 0)
          return false;  // unrealized pattern edge
      }
      if ((val == kStateC && wal == kStateU) ||
          (val == kStateU && wal == kStateC)) {
        return false;  // C-U pattern edge can never be realized
      }
    }
  }
  if (!separating) return key.sep == 0;
  const std::uint64_t unmapped = ctx.all_mask & ~view.image_mask;
  const std::uint64_t inside = key.sep & kSepLabelMask;
  if ((inside & ~unmapped) != 0) return false;  // labels only on unmapped
  // Uniform labels per component of G[bag - image].
  const ComponentScan scan = unmapped_components(ctx, unmapped);
  for (std::uint32_t i = 0; i < scan.count; ++i) {
    const std::uint64_t in = scan.comps[i] & inside;
    if (in != 0 && in != scan.comps[i]) return false;
  }
  bool li = false, lo = false;
  local_sep_bits(ctx, codec, key, &li, &lo);
  if (li && (key.sep & kSepIx) == 0) return false;
  if (lo && (key.sep & kSepOx) == 0) return false;
  return true;
}

void local_sep_bits(const BagView& ctx, const StateCodec& codec,
                    StateKey key, bool* li, bool* lo) {
  const StateView view = view_of(codec, key.code);
  const std::uint64_t unmapped = ctx.all_mask & ~view.image_mask;
  const std::uint64_t inside = key.sep & kSepLabelMask & unmapped;
  *li = (inside & ctx.s_mask) != 0;
  *lo = ((unmapped & ~inside) & ctx.s_mask) != 0;
}

std::optional<StateKey> project_to_parent(StateKey child_state,
                                          const StateCodec& codec,
                                          const Pattern& pattern,
                                          const BagView& child_ctx,
                                          const BagView& parent_ctx) {
  StateKey sig;
  const StateView child_view = view_of(codec, child_state.code);
  for (std::uint32_t v = 0; v < codec.k; ++v) {
    const std::uint64_t val = codec.get(child_state.code, v);
    std::uint64_t out;
    if (val == kStateU) {
      out = kStateU;
    } else if (val == kStateC) {
      out = kStateC;
    } else {
      const Vertex g = child_ctx.vertices[val - kStateMapped];
      const int p = parent_ctx.position_of(g);
      if (p >= 0) {
        out = kStateMapped + static_cast<std::uint64_t>(p);
      } else {
        // v is forgotten at the parent: every pattern neighbor must already
        // be matched here, or no parent state is compatible.
        if ((pattern.adj_mask(v) & child_view.u_mask) != 0)
          return std::nullopt;
        out = kStateC;
      }
    }
    sig.code = codec.set(sig.code, v, out);
  }
  // Labels of shared unmapped vertices, re-addressed to parent positions;
  // subtree bits carried through.
  const std::uint64_t unmapped = child_ctx.all_mask & ~child_view.image_mask;
  std::uint64_t labels = child_state.sep & kSepLabelMask & unmapped;
  while (labels != 0) {
    const int q = std::countr_zero(labels);
    labels &= labels - 1;
    const int p = parent_ctx.position_of(child_ctx.vertices[q]);
    if (p >= 0) sig.sep |= 1ULL << p;
  }
  sig.sep |= child_state.sep & (kSepIx | kSepOx);
  return sig;
}

PositionMap make_position_map(const BagView& child_ctx,
                              const BagView& parent_ctx) {
  PositionMap map;
  map.to_parent.fill(-1);
  // Both vertex arrays are sorted, so a single merge suffices.
  std::uint32_t p = 0;
  for (std::uint32_t q = 0; q < child_ctx.size(); ++q) {
    const Vertex g = child_ctx.vertices[q];
    while (p < parent_ctx.size() && parent_ctx.vertices[p] < g) ++p;
    if (p < parent_ctx.size() && parent_ctx.vertices[p] == g)
      map.to_parent[q] = static_cast<std::int8_t>(p);
  }
  return map;
}

std::optional<StateKey> project_to_parent(StateKey child_state,
                                          const StateView& child_view,
                                          const StateCodec& codec,
                                          const Pattern& pattern,
                                          const BagView& child_ctx,
                                          const std::int8_t* to_parent) {
  // U and C fields project to themselves, so only the mapped fields need
  // rewriting: keep the shared ones (re-addressed via the table), turn
  // forgotten ones into C after the forgotten-vertex soundness check.
  StateKey sig;
  sig.code = child_state.code;
  std::uint32_t mm = child_view.mapped_mask;
  while (mm != 0) {
    const auto v = static_cast<std::uint32_t>(std::countr_zero(mm));
    mm &= mm - 1;
    const std::uint64_t q = codec.get(child_state.code, v) - kStateMapped;
    const int p = to_parent[q];
    if (p >= 0) {
      sig.code =
          codec.set(sig.code, v, kStateMapped + static_cast<std::uint64_t>(p));
    } else {
      if ((pattern.adj_mask(v) & child_view.u_mask) != 0) return std::nullopt;
      sig.code = codec.set(sig.code, v, kStateC);
    }
  }
  const std::uint64_t unmapped = child_ctx.all_mask & ~child_view.image_mask;
  std::uint64_t labels = child_state.sep & kSepLabelMask & unmapped;
  while (labels != 0) {
    const int q = std::countr_zero(labels);
    labels &= labels - 1;
    const int p = to_parent[q];
    if (p >= 0) sig.sep |= 1ULL << p;
  }
  sig.sep |= child_state.sep & (kSepIx | kSepOx);
  return sig;
}

StateKey required_signature(StateKey parent_state, const StateCodec& codec,
                            const BagView& parent_ctx,
                            std::uint64_t shared_mask,
                            std::uint32_t child_c_mask, bool iy, bool oy) {
  StateKey sig;
  for (std::uint32_t v = 0; v < codec.k; ++v) {
    const std::uint64_t val = codec.get(parent_state.code, v);
    std::uint64_t out;
    if (val == kStateU) {
      out = kStateU;
    } else if (val == kStateC) {
      out = (child_c_mask >> v & 1u) ? kStateC : kStateU;
    } else {
      const std::uint64_t p = val - kStateMapped;
      out = (shared_mask >> p & 1ULL) ? val : kStateU;
    }
    sig.code = codec.set(sig.code, v, out);
  }
  const StateView view = view_of(codec, parent_state.code);
  const std::uint64_t unmapped = parent_ctx.all_mask & ~view.image_mask;
  sig.sep = parent_state.sep & kSepLabelMask & unmapped & shared_mask;
  if (iy) sig.sep |= kSepIx;
  if (oy) sig.sep |= kSepOx;
  return sig;
}

StateKey combo_base_signature(StateKey parent_state, const StateCodec& codec,
                              const BagView& parent_ctx,
                              std::uint64_t shared_mask) {
  // Equivalent to required_signature(parent_state, ..., child_c_mask = 0,
  // iy = oy = false): C fields become U (0), mapped fields survive only
  // when shared. Walked bit-parallel over the mapped fields.
  const StateView view = view_of(codec, parent_state.code);
  StateKey sig;
  sig.code = parent_state.code & ~(parent_state.code & codec.field_lsbs &
                                   ~spread_c_fields(codec, view.mapped_mask));
  // The line above clears the C bits (LSB-only fields); mapped fields are
  // handled below, so clearing must not touch their LSBs.
  std::uint32_t mm = view.mapped_mask;
  while (mm != 0) {
    const auto v = static_cast<std::uint32_t>(std::countr_zero(mm));
    mm &= mm - 1;
    const std::uint64_t p = codec.get(parent_state.code, v) - kStateMapped;
    if ((shared_mask >> p & 1ULL) == 0) sig.code = codec.set(sig.code, v, kStateU);
  }
  const std::uint64_t unmapped = parent_ctx.all_mask & ~view.image_mask;
  sig.sep = parent_state.sep & kSepLabelMask & unmapped & shared_mask;
  return sig;
}

std::uint64_t shared_position_mask(const BagView& parent_ctx,
                                   const BagView& child_ctx) {
  std::uint64_t mask = 0;
  for (std::uint32_t p = 0; p < parent_ctx.size(); ++p) {
    if (child_ctx.position_of(parent_ctx.vertices[p]) >= 0)
      mask |= 1ULL << p;
  }
  return mask;
}

}  // namespace ppsi::iso

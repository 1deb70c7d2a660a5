// Differential test of the bit-parallel DP kernels: the bit-parallel state
// decode, the PositionMap projections and the base+spread support-combo
// enumeration must be bit-identical to their per-field references. The
// engines' instrumented work is pinned by tests/test_golden_work.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "isomorphism/pattern.hpp"
#include "isomorphism/sequential_dp.hpp"
#include "isomorphism/state_enumeration.hpp"
#include "support/rng.hpp"
#include "testing/random_inputs.hpp"
#include "treedecomp/greedy_decomposition.hpp"

namespace ppsi::iso {
namespace {

// ---- Bit-parallel state decode ----

// view_of per-field reference.
StateView view_of_ref(const StateCodec& codec, std::uint64_t code) {
  StateView view;
  for (std::uint32_t v = 0; v < codec.k; ++v) {
    const std::uint64_t val = codec.get(code, v);
    if (val == kStateU) {
      view.u_mask |= 1u << v;
    } else if (val == kStateC) {
      view.c_mask |= 1u << v;
    } else {
      view.mapped_mask |= 1u << v;
      view.image_mask |= 1ULL << (val - kStateMapped);
    }
  }
  return view;
}

TEST(KernelDecode, ViewOfMatchesPerFieldReference) {
  support::Rng rng(7, /*stream=*/0x76696577);
  for (const std::uint32_t k : {1u, 2u, 3u, 5u, 8u, 12u, 16u}) {
    for (const std::uint32_t max_bag : {1u, 2u, 4u, 6u, 14u}) {
      StateCodec codec;
      try {
        codec = StateCodec::make(k, max_bag);
      } catch (const std::invalid_argument&) {
        continue;  // k * bits > 64: not a representable configuration
      }
      for (int trial = 0; trial < 200; ++trial) {
        std::uint64_t code = 0;
        for (std::uint32_t v = 0; v < k; ++v)
          code = codec.set(code, v, rng.next_below(max_bag + 2));
        const StateView a = view_of(codec, code);
        const StateView b = view_of_ref(codec, code);
        ASSERT_EQ(a.mapped_mask, b.mapped_mask) << "k=" << k << " code=" << code;
        ASSERT_EQ(a.c_mask, b.c_mask) << "k=" << k << " code=" << code;
        ASSERT_EQ(a.u_mask, b.u_mask) << "k=" << k << " code=" << code;
        ASSERT_EQ(a.image_mask, b.image_mask) << "k=" << k << " code=" << code;
      }
    }
  }
}

// ---- Instance-driven kernels: projections and support combos ----

/// One decomposed random instance with per-node contexts and states.
struct Instance {
  Graph g;
  Pattern pattern;
  treedecomp::TreeDecomposition td;
  StateCodec codec;
  SeparatingSpec spec;
  bool separating = false;
  std::vector<BagContext> ctxs;
  std::vector<std::vector<StateKey>> states;  // per node, discovery order

  Instance(std::uint64_t seed, bool with_separating) {
    g = testing::random_target(seed);
    pattern = testing::random_pattern(seed);
    td = treedecomp::binarize(treedecomp::greedy_decomposition(g));
    std::size_t max_bag = 1;
    for (const auto& bag : td.bags) max_bag = std::max(max_bag, bag.size());
    codec = StateCodec::make(pattern.size(),
                             static_cast<std::uint32_t>(max_bag));
    separating = with_separating;
    if (with_separating) {
      support::Rng rng(seed, /*stream=*/0x5e9a);
      spec.enabled = true;
      spec.in_s.assign(g.num_vertices(), 0);
      spec.allowed.assign(g.num_vertices(), 1);
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        spec.in_s[v] = rng.next_below(3) == 0 ? 1 : 0;
        spec.allowed[v] = rng.next_below(4) != 0 ? 1 : 0;
      }
    }
    ctxs.resize(td.num_nodes());
    states.resize(td.num_nodes());
    for (treedecomp::NodeId x = 0; x < td.num_nodes(); ++x) {
      ctxs[x] = make_bag_context(g, td.bags[x], spec);
      enumerate_local_states(pattern, ctxs[x], codec, separating,
                             [&](StateKey key) { states[x].push_back(key); });
    }
  }
};

TEST(KernelProjection, PositionMapMatchesBinarySearchOverload) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    for (const bool separating : {false, true}) {
      const Instance inst(seed, separating);
      for (treedecomp::NodeId x = 0; x < inst.td.num_nodes(); ++x) {
        const treedecomp::NodeId parent = inst.td.parent[x];
        if (parent == treedecomp::kNoNode) continue;
        const PositionMap pos_map =
            make_position_map(inst.ctxs[x], inst.ctxs[parent]);
        for (const StateKey s : inst.states[x]) {
          const auto plain = project_to_parent(s, inst.codec, inst.pattern,
                                               inst.ctxs[x], inst.ctxs[parent]);
          const auto mapped =
              project_to_parent(s, view_of(inst.codec, s.code), inst.codec,
                                inst.pattern, inst.ctxs[x],
                                pos_map.to_parent.data());
          ASSERT_EQ(plain.has_value(), mapped.has_value())
              << "seed " << seed << " sep " << separating << " node " << x;
          if (plain.has_value()) {
            ASSERT_EQ(plain->code, mapped->code) << "seed " << seed;
            ASSERT_EQ(plain->sep, mapped->sep) << "seed " << seed;
          }
        }
      }
    }
  }
}

/// Signature-pair sequence of one combo enumeration; nullopt marks an
/// absent child (so nullness differences also fail the comparison).
using ComboSeq =
    std::vector<std::pair<std::optional<StateKey>, std::optional<StateKey>>>;

template <class ComboFn>
ComboSeq combo_sequence(const Instance& inst, treedecomp::NodeId x,
                        StateKey state, ComboFn&& fn) {
  detail::ChildLink left, right;
  const auto& kids = inst.td.children[x];
  if (!kids.empty())
    left = {true, shared_position_mask(inst.ctxs[x], inst.ctxs[kids[0]])};
  if (kids.size() == 2)
    right = {true, shared_position_mask(inst.ctxs[x], inst.ctxs[kids[1]])};
  ComboSeq seq;
  fn(inst.codec, inst.ctxs[x], state, left, right, inst.separating,
     [&](const StateKey* sl, const StateKey* sr) {
       seq.emplace_back(sl != nullptr ? std::optional<StateKey>(*sl)
                                      : std::nullopt,
                        sr != nullptr ? std::optional<StateKey>(*sr)
                                      : std::nullopt);
       return false;  // visit the whole enumeration
     });
  return seq;
}

// The bit-parallel combo kernel must visit the exact (sigL, sigR) sequence
// of the per-field reference — same order, same values — in both base and
// separating modes.
TEST(KernelCombos, BitParallelVisitsIdenticalSequence) {
  const auto bitparallel = [](const auto&... args) {
    return detail::for_each_support_combo(args...);
  };
  const auto reference = [](const auto&... args) {
    return detail::for_each_support_combo_ref(args...);
  };
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    for (const bool separating : {false, true}) {
      const Instance inst(seed, separating);
      for (treedecomp::NodeId x = 0; x < inst.td.num_nodes(); ++x) {
        for (const StateKey s : inst.states[x]) {
          const ComboSeq got = combo_sequence(inst, x, s, bitparallel);
          const ComboSeq want = combo_sequence(inst, x, s, reference);
          ASSERT_EQ(got.size(), want.size())
              << "seed " << seed << " sep " << separating << " node " << x;
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].first.has_value(), want[i].first.has_value());
            ASSERT_EQ(got[i].second.has_value(), want[i].second.has_value());
            if (got[i].first.has_value()) {
              ASSERT_EQ(got[i].first->code, want[i].first->code)
                  << "seed " << seed << " node " << x << " combo " << i;
              ASSERT_EQ(got[i].first->sep, want[i].first->sep)
                  << "seed " << seed << " node " << x << " combo " << i;
            }
            if (got[i].second.has_value()) {
              ASSERT_EQ(got[i].second->code, want[i].second->code)
                  << "seed " << seed << " node " << x << " combo " << i;
              ASSERT_EQ(got[i].second->sep, want[i].second->sep)
                  << "seed " << seed << " node " << x << " combo " << i;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ppsi::iso

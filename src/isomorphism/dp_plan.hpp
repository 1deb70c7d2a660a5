#pragma once

// The pattern-independent half of the DP over one slice (paper §3).
//
// Eppstein's bottom-up pass over a binary decomposition reads, per node,
// the sorted bag, the bag's induced adjacency, the separating masks, the
// parent positions the node shares with its parent and the child->parent
// position table, and it visits the nodes children first. None of that
// depends on the pattern, so a DpPlan computes it once from (slice graph,
// binary decomposition, separating spec) and every solve over the slice —
// any pattern, any engine, witness recovery included — reads it. The
// Solver caches one plan per slice in place of the decomposition itself.
//
// Layout: flat arrays carved from one allocation.
//   per node   parent, two child slots (kNoNode when absent), the bag's
//              offset, shared_with_parent, and in separating plans the
//              allowed and S masks,
//   per bag position (CSR by node)  the vertex, its adjacency mask, and
//              its parent position (int8, -1 when forgotten),
//   order      the bottom-up order (treedecomp::bottom_up_order).
// A solve adds only its codec, its parity pin and its node array.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "graph/graph.hpp"
#include "isomorphism/pattern.hpp"
#include "isomorphism/state_enumeration.hpp"
#include "treedecomp/tree_decomposition.hpp"

namespace ppsi::iso {

class DpPlan {
 public:
  using NodeId = treedecomp::NodeId;

  /// Plans `td` over `g` (bags at most 56 vertices). Throws unless `td`
  /// is binary.
  DpPlan(const Graph& g, const treedecomp::TreeDecomposition& td,
         const SeparatingSpec& spec);
  DpPlan(const DpPlan&) = delete;
  DpPlan& operator=(const DpPlan&) = delete;

  std::size_t num_nodes() const { return num_nodes_; }
  NodeId root() const { return root_; }
  /// Every node after all of its children.
  std::span<const NodeId> bottom_up() const { return {order_, num_nodes_}; }
  /// Parent per node (kNoNode at the root).
  std::span<const NodeId> parents() const { return {parent_, num_nodes_}; }
  NodeId parent(NodeId x) const { return parent_[x]; }
  /// The node's children (at most two), in the decomposition's order.
  std::span<const NodeId> children(NodeId x) const {
    const NodeId* kids = kids_ + 2 * std::size_t{x};
    return {kids, static_cast<std::size_t>(kids[0] != treedecomp::kNoNode) +
                      (kids[1] != treedecomp::kNoNode)};
  }
  /// Sorted bag vertices; position p is bag(x)[p].
  std::span<const Vertex> bag(NodeId x) const {
    return {vertices_ + offsets_[x], offsets_[x + 1] - offsets_[x]};
  }
  /// Widest bag, at least 1 (sizes the codec).
  std::uint32_t max_bag() const { return max_bag_; }
  bool separating() const { return separating_; }
  /// allowed_edges_alternate of the slice: parity pins may apply.
  bool alternating() const { return alternating_; }
  /// Parent-bag positions whose vertex is also in x's bag (0 at the root).
  std::uint64_t shared_with_parent(NodeId x) const { return shared_[x]; }
  /// x's bag position -> parent-bag position, -1 where the parent forgets
  /// the vertex (make_position_map of x and its parent).
  const std::int8_t* to_parent(NodeId x) const {
    return to_parent_ + offsets_[x];
  }
  /// The view the kernels read for x, with `pin` as the solve's pin.
  BagView context(NodeId x, ParityPin pin = {}) const {
    BagView ctx;
    ctx.vertices = bag(x);
    ctx.gadj = gadj_ + offsets_[x];
    ctx.all_mask = (1ULL << ctx.size()) - 1;
    ctx.allowed_mask = separating_ ? allowed_[x] : ctx.all_mask;
    ctx.s_mask = separating_ ? s_[x] : 0;
    ctx.pin = pin;
    return ctx;
  }

 private:
  std::unique_ptr<std::byte[]> storage_;
  std::size_t num_nodes_ = 0;
  NodeId root_ = treedecomp::kNoNode;
  std::uint32_t max_bag_ = 1;
  bool separating_ = false;
  bool alternating_ = false;
  // 8-byte arrays first, then 4-byte, then 1-byte (one carve, aligned).
  std::uint64_t* shared_ = nullptr;
  std::uint64_t* allowed_ = nullptr;  ///< separating plans only
  std::uint64_t* s_ = nullptr;        ///< separating plans only
  std::uint64_t* gadj_ = nullptr;
  std::uint32_t* offsets_ = nullptr;  ///< num_nodes + 1 bag offsets
  NodeId* parent_ = nullptr;
  NodeId* kids_ = nullptr;            ///< two slots per node
  NodeId* order_ = nullptr;
  Vertex* vertices_ = nullptr;
  std::int8_t* to_parent_ = nullptr;
};

/// parity_pin of a solve over the plan's slice, O(k).
inline ParityPin parity_pin(const DpPlan& plan, const Pattern& pattern) {
  return parity_pin(pattern, plan.alternating());
}

}  // namespace ppsi::iso

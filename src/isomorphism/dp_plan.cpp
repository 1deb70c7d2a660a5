#include "isomorphism/dp_plan.hpp"

#include <algorithm>
#include <new>

#include "support/types.hpp"

namespace ppsi::iso {

namespace {

/// Carves `n` objects of T from `cursor` and advances it.
template <class T>
T* carve(std::byte*& cursor, std::size_t n) {
  T* out = std::launder(reinterpret_cast<T*>(cursor));
  cursor += n * sizeof(T);
  return out;
}

}  // namespace

DpPlan::DpPlan(const Graph& g, const treedecomp::TreeDecomposition& td,
               const SeparatingSpec& spec) {
  support::require(td.is_binary(), "solve: binary decomposition required");
  num_nodes_ = td.num_nodes();
  root_ = td.root;
  separating_ = spec.enabled;
  alternating_ = allowed_edges_alternate(g, spec);
  const std::size_t n = num_nodes_;
  std::size_t positions = 0;
  for (const auto& bag : td.bags) {
    positions += bag.size();
    max_bag_ = std::max(max_bag_, static_cast<std::uint32_t>(bag.size()));
  }
  const std::size_t mask_arrays = separating_ ? 2 : 0;
  const std::size_t bytes =
      (n * (1 + mask_arrays) + positions) * sizeof(std::uint64_t) +
      (5 * n + 1 + positions) * sizeof(std::uint32_t) + positions;
  storage_ = std::make_unique_for_overwrite<std::byte[]>(bytes);
  std::byte* cursor = storage_.get();
  shared_ = carve<std::uint64_t>(cursor, n);
  if (separating_) {
    allowed_ = carve<std::uint64_t>(cursor, n);
    s_ = carve<std::uint64_t>(cursor, n);
  }
  gadj_ = carve<std::uint64_t>(cursor, positions);
  offsets_ = carve<std::uint32_t>(cursor, n + 1);
  parent_ = carve<NodeId>(cursor, n);
  kids_ = carve<NodeId>(cursor, 2 * n);
  order_ = carve<NodeId>(cursor, n);
  vertices_ = carve<Vertex>(cursor, positions);
  to_parent_ = carve<std::int8_t>(cursor, positions);

  offsets_[0] = 0;
  for (NodeId x = 0; x < n; ++x) {
    const std::vector<Vertex>& src = td.bags[x];
    offsets_[x + 1] = offsets_[x] + static_cast<std::uint32_t>(src.size());
    Vertex* bag = vertices_ + offsets_[x];
    std::copy(src.begin(), src.end(), bag);
    std::sort(bag, bag + src.size());
    const BagView ctx = detail::fill_bag(
        g, {bag, src.size()}, spec, gadj_ + offsets_[x]);
    if (separating_) {
      allowed_[x] = ctx.allowed_mask;
      s_[x] = ctx.s_mask;
    }
    parent_[x] = td.parent[x];
    const auto& kids = td.children[x];
    for (std::size_t i = 0; i < 2; ++i)
      kids_[2 * x + i] = i < kids.size() ? kids[i] : treedecomp::kNoNode;
  }
  const std::vector<NodeId> order = treedecomp::bottom_up_order(td);
  std::copy(order.begin(), order.end(), order_);
  // Children read their parent's coordinates, so every bag comes first.
  for (NodeId x = 0; x < n; ++x) {
    std::int8_t* to_parent = to_parent_ + offsets_[x];
    const BagView child = context(x);
    if (parent_[x] == treedecomp::kNoNode) {
      shared_[x] = 0;
      std::fill_n(to_parent, child.size(), std::int8_t{-1});
      continue;
    }
    const BagView up = context(parent_[x]);
    shared_[x] = shared_position_mask(up, child);
    const PositionMap map = make_position_map(child, up);
    std::copy_n(map.to_parent.begin(), child.size(), to_parent);
  }
}

}  // namespace ppsi::iso

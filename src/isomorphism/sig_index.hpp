#pragma once

// CSR layout of a solved node's signature groups.
//
// A solved node projects each of its valid states into the parent's
// coordinate space; states sharing a projection form a *signature group*
// (sequential_dp.hpp). The previous representation was
// unordered_map<StateKey, vector<uint32>> — one heap node per signature
// plus one heap vector per group, probed on the engine's hottest lookup
// (`is this child signature present?`). This layout packs the same data
// into three flat arrays carved from one block of the solution's
// NodeStore (isomorphism/node_store.hpp) per node:
//
//   sigs     – the distinct signatures, sorted by (code, sep)
//   offsets  – offsets[i]..offsets[i+1] delimit group i in `indices`
//   indices  – state indices, ascending within each group
//
// Lookup (contains, group) is a binary search over `sigs`; iteration is
// deterministic (sorted), which removes the hash-map-order dependence the
// sparse engine previously inherited. Group contents are identical to the
// map version: `build` sorts (sig, state) pairs by (sig, state), so each
// group lists its states in ascending order exactly as the map's
// push_back order did.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "isomorphism/node_store.hpp"
#include "isomorphism/state_enumeration.hpp"

namespace ppsi::iso {

/// A view: the arrays live in the NodeStore the index was built from, and
/// copies share them.
class SigIndex {
 public:
  /// Builds from (signature, state index) pairs; sorts `pairs` in place.
  /// Storage is exact: one block of `store` holds all three arrays.
  void build(std::vector<std::pair<StateKey, std::uint32_t>>& pairs,
             NodeStore& store) {
    std::sort(pairs.begin(), pairs.end());
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i)
      if (i == 0 || !(pairs[i].first == pairs[i - 1].first)) ++distinct;
    allocate(distinct, pairs.size(), store);
    std::size_t slot = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (i == 0 || !(pairs[i].first == pairs[i - 1].first)) {
        sigs_[slot] = pairs[i].first;
        offsets_[slot++] = static_cast<std::uint32_t>(i);
      }
      indices_[i] = pairs[i].second;
    }
    if (distinct != 0)
      offsets_[distinct] = static_cast<std::uint32_t>(pairs.size());
  }

  bool contains(const StateKey& sig) const { return slot_of(sig) >= 0; }

  /// State indices projecting to `sig` (empty when absent; groups of
  /// present signatures are never empty).
  std::span<const std::uint32_t> group(const StateKey& sig) const {
    const std::ptrdiff_t slot = slot_of(sig);
    if (slot < 0) return {};
    return group_at(static_cast<std::size_t>(slot));
  }

  /// Distinct signatures, sorted by (code, sep).
  std::span<const StateKey> sigs() const { return {sigs_, num_sigs_}; }
  std::span<const std::uint32_t> group_at(std::size_t slot) const {
    return {indices_ + offsets_[slot], offsets_[slot + 1] - offsets_[slot]};
  }
  std::size_t size() const { return num_sigs_; }
  bool empty() const { return num_sigs_ == 0; }

 private:
  static std::size_t bytes_for(std::size_t distinct, std::size_t n) {
    return distinct * sizeof(StateKey) +
           (distinct + 1 + n) * sizeof(std::uint32_t);
  }

  /// Carves room for `distinct` signatures and `n` state indices (none
  /// when both are zero) from one block: signatures first, so every array
  /// is aligned.
  void allocate(std::size_t distinct, std::size_t n, NodeStore& store) {
    *this = SigIndex();
    num_sigs_ = distinct;
    if (distinct == 0 && n == 0) return;
    std::byte* raw = store.allocate(bytes_for(distinct, n));
    sigs_ = std::launder(reinterpret_cast<StateKey*>(raw));
    offsets_ = std::launder(
        reinterpret_cast<std::uint32_t*>(raw + distinct * sizeof(StateKey)));
    indices_ = offsets_ + distinct + 1;
  }

  std::ptrdiff_t slot_of(const StateKey& sig) const {
    const std::span<const StateKey> all = sigs();
    const auto it = std::lower_bound(all.begin(), all.end(), sig);
    if (it == all.end() || !(*it == sig)) return -1;
    return it - all.begin();
  }

  StateKey* sigs_ = nullptr;
  std::uint32_t* offsets_ = nullptr;
  std::uint32_t* indices_ = nullptr;
  std::size_t num_sigs_ = 0;
};

}  // namespace ppsi::iso

#pragma once

// CSR layout of a solved node's signature groups.
//
// A solved node projects each of its valid states into the parent's
// coordinate space; states sharing a projection form a *signature group*
// (sequential_dp.hpp). The previous representation was
// unordered_map<StateKey, vector<uint32>> — one heap node per signature
// plus one heap vector per group, probed on the engine's hottest lookup
// (`is this child signature present?`). This layout packs the same data
// into three flat arrays built once per node with exact reserves:
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
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "isomorphism/state_enumeration.hpp"

namespace ppsi::iso {

class SigIndex {
 public:
  /// Builds from (signature, state index) pairs; sorts `pairs` in place.
  /// Storage is exact: one allocation per array, no growth.
  void build(std::vector<std::pair<StateKey, std::uint32_t>>& pairs) {
    clear();
    std::sort(pairs.begin(), pairs.end());
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i)
      if (i == 0 || !(pairs[i].first == pairs[i - 1].first)) ++distinct;
    sigs_.reserve(distinct);
    offsets_.reserve(distinct + 1);
    indices_.reserve(pairs.size());
    for (const auto& [sig, idx] : pairs) {
      if (sigs_.empty() || !(sigs_.back() == sig)) {
        sigs_.push_back(sig);
        offsets_.push_back(static_cast<std::uint32_t>(indices_.size()));
      }
      indices_.push_back(idx);
    }
    offsets_.push_back(static_cast<std::uint32_t>(indices_.size()));
  }

  void clear() {
    sigs_.clear();
    offsets_.clear();
    indices_.clear();
  }

  /// Drops the storage entirely (decision-only queries release solved
  /// interior nodes once their parent has consumed them).
  void release() {
    std::vector<StateKey>().swap(sigs_);
    std::vector<std::uint32_t>().swap(offsets_);
    std::vector<std::uint32_t>().swap(indices_);
  }

  bool contains(const StateKey& sig) const { return slot_of(sig) >= 0; }

  /// State indices projecting to `sig` (empty when absent; groups of
  /// present signatures are never empty).
  std::span<const std::uint32_t> group(const StateKey& sig) const {
    const std::ptrdiff_t slot = slot_of(sig);
    if (slot < 0) return {};
    return std::span<const std::uint32_t>(indices_)
        .subspan(offsets_[slot], offsets_[slot + 1] - offsets_[slot]);
  }

  /// Distinct signatures, sorted by (code, sep).
  const std::vector<StateKey>& sigs() const { return sigs_; }
  std::span<const std::uint32_t> group_at(std::size_t slot) const {
    return std::span<const std::uint32_t>(indices_)
        .subspan(offsets_[slot], offsets_[slot + 1] - offsets_[slot]);
  }
  std::size_t size() const { return sigs_.size(); }
  bool empty() const { return sigs_.empty(); }

 private:
  std::ptrdiff_t slot_of(const StateKey& sig) const {
    const auto it = std::lower_bound(sigs_.begin(), sigs_.end(), sig);
    if (it == sigs_.end() || !(*it == sig)) return -1;
    return it - sigs_.begin();
  }

  std::vector<StateKey> sigs_;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> indices_;
};

}  // namespace ppsi::iso

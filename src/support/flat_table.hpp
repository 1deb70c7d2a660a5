#pragma once

// Open-addressing flat hash map with 32-bit mapped values.
//
// The match-DAG path solve (isomorphism/match_dag.cpp) maps a packed
// partial-match key to its index in a per-path-node candidate array, and
// its projections to their DAG vertex ids. The tables sit on a hot lookup
// path, so the layout is a single contiguous bucket array (key + value
// side by side), probed linearly from a power-of-two hash slot:
//   * no per-node heap graph (std::unordered_map allocates one node per
//     entry and chases a pointer per probe),
//   * `reserve(n)` performs the single exact allocation for n entries
//     (callers that know the final size never rehash),
//   * emplace-only mutation: values are never overwritten, which is all
//     the engine needs and keeps the probe loop branch-light.
//
// The mapped value doubles as the bucket-empty sentinel, so kFlatNotFound
// (0xffffffff) is not a storable value — state indices are bounded far
// below it. Growth (when a caller inserts past the load cap without an
// exact reserve) doubles the bucket array. There is no iteration: the
// bucket order is a layout detail nothing may depend on.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/types.hpp"

namespace ppsi::support {

/// Returned by FlatMap::find for absent keys; not a storable value.
inline constexpr std::uint32_t kFlatNotFound = 0xffffffffu;

template <class Key, class Hasher>
class FlatMap {
 public:
  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t bucket_count() const { return buckets_.size(); }
  /// Heap footprint (for scratch accounting).
  std::size_t capacity_bytes() const {
    return buckets_.capacity() * sizeof(Bucket);
  }

  /// Single exact allocation for n entries; keeps existing entries. A
  /// caller that reserves its final size up front never rehashes.
  void reserve(std::size_t n) {
    const std::size_t want = bucket_target(n);
    if (want > buckets_.size()) rehash(want);
  }

  /// Removes every entry; keeps the bucket storage for reuse. The reset is
  /// a linear sweep of the bucket array — a contiguous, memset-speed pass
  /// (the unordered_map this replaced also zeroed its bucket array on
  /// clear). Per-bucket generation counters would make it O(1) but cost an
  /// extra compare in the hot find/emplace probes, a bad trade here.
  void clear() {
    for (Bucket& b : buckets_) b.value = kFlatNotFound;
    size_ = 0;
  }

  /// Index of `key`, or kFlatNotFound.
  std::uint32_t find(const Key& key) const {
    if (buckets_.empty()) return kFlatNotFound;
    const std::size_t mask = buckets_.size() - 1;
    std::size_t i = Hasher{}(key) & mask;
    while (true) {
      const Bucket& b = buckets_[i];
      if (b.value == kFlatNotFound) return kFlatNotFound;
      if (b.key == key) return b.value;
      i = (i + 1) & mask;
    }
  }

  bool contains(const Key& key) const { return find(key) != kFlatNotFound; }

  /// Inserts (key, value) unless key is present; returns true when
  /// inserted. `value` must not be kFlatNotFound.
  bool emplace(const Key& key, std::uint32_t value) {
    if (size_ + 1 > (buckets_.size() / 8) * 7)
      rehash(bucket_target(size_ + 1));
    const std::size_t mask = buckets_.size() - 1;
    std::size_t i = Hasher{}(key) & mask;
    while (true) {
      Bucket& b = buckets_[i];
      if (b.value == kFlatNotFound) {
        b.key = key;
        b.value = value;
        ++size_;
        return true;
      }
      if (b.key == key) return false;
      i = (i + 1) & mask;
    }
  }

 private:
  struct Bucket {
    Key key{};
    std::uint32_t value = kFlatNotFound;
  };

  /// Smallest power-of-two bucket count holding n entries at load <= 7/8.
  static std::size_t bucket_target(std::size_t n) {
    std::size_t want = 8;
    while ((want / 8) * 7 < n) want <<= 1;
    return want;
  }

  void rehash(std::size_t new_buckets) {
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(new_buckets, Bucket{});
    size_ = 0;
    for (const Bucket& b : old)
      if (b.value != kFlatNotFound) emplace(b.key, b.value);
  }

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
};

}  // namespace ppsi::support

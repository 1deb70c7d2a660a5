#pragma once

// Output storage of one DP solve.
//
// Every solved node keeps two arrays: its valid states and its CSR
// signature index (sequential_dp.hpp). Allocating them one heap block each
// cost two allocations per node and, on warm queries, a glibc malloc/free
// pair per node that outweighed the per-solve setup. A NodeStore instead
// carves small arrays from chunks owned by the solution: the first chunk
// is 4 KiB and each further one doubles up to kMaxChunk, so a solve of
// small nodes makes a few allocations however many nodes it has, and
// freeing the solution returns every chunk at once. An array of at least
// kLargeBlock bytes gets a heap block of its own: its node holds about a
// hundred states or more, so one allocation is noise next to its work,
// and exact-sized blocks keep a tree of large nodes at the footprint of
// per-node allocation (doubling chunks would leave up to half unused).
//
// The parallel engine's path tasks fill distinct nodes of one solution
// concurrently, so allocate takes a mutex; at one lock per node array it
// stays off every profile.

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <new>

namespace ppsi::iso {

class NodeStore {
 public:
  NodeStore() = default;
  NodeStore(const NodeStore&) = delete;
  NodeStore& operator=(const NodeStore&) = delete;
  ~NodeStore() {
    while (blocks_ != nullptr) {
      Header* next = blocks_->next;
      ::operator delete(blocks_);
      blocks_ = next;
    }
  }

  /// `bytes` (> 0) of storage aligned to kAlign, valid until the store is
  /// destroyed.
  std::byte* allocate(std::size_t bytes) {
    const std::size_t size = (bytes + kAlign - 1) & ~(kAlign - 1);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (size >= kLargeBlock) return new_block(size);
    if (size > left_) {
      cursor_ = new_block(next_chunk_);
      left_ = next_chunk_;
      next_chunk_ = std::min(next_chunk_ * 2, kMaxChunk);
    }
    std::byte* block = cursor_;
    cursor_ += size;
    left_ -= size;
    return block;
  }

  static constexpr std::size_t kAlign = alignof(std::max_align_t);
  /// Arrays of at least this many bytes get a heap block of their own.
  static constexpr std::size_t kLargeBlock = 2048;

 private:
  static constexpr std::size_t kFirstChunk = 4 * 1024;
  static constexpr std::size_t kMaxChunk = 64 * 1024;

  /// Links every heap block (chunks and large blocks) for the destructor;
  /// a block's storage follows its header.
  struct alignas(kAlign) Header {
    Header* next;
  };

  /// A fresh heap block of `size` bytes, linked in (mutex held).
  std::byte* new_block(std::size_t size) {
    auto* h = static_cast<Header*>(::operator new(sizeof(Header) + size));
    h->next = blocks_;
    blocks_ = h;
    return reinterpret_cast<std::byte*>(h + 1);
  }

  std::mutex mutex_;
  Header* blocks_ = nullptr;  ///< most recent heap block first
  std::byte* cursor_ = nullptr;
  std::size_t left_ = 0;
  std::size_t next_chunk_ = kFirstChunk;
};

}  // namespace ppsi::iso

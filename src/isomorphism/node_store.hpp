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
// A decision-only solve frees each node once its parent has consumed it
// (release_interior), so its peak is one frontier rather than the whole
// tree. A recycling store keeps that meaning: release() frees a large
// block at once, and pushes a small one, which a recycling store rounds
// up to a power of two, onto its size class's free list, which later
// small blocks of that class reuse first. Without recycling, small blocks
// are carved at their exact size and release() frees only large ones.
//
// The parallel engine's path tasks fill distinct nodes of one solution
// concurrently, so allocate and release take a mutex; at one lock per node
// array it stays off every profile.

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <new>

namespace ppsi::iso {

class NodeStore {
 public:
  explicit NodeStore(bool recycle = false) : recycle_(recycle) {}
  NodeStore(const NodeStore&) = delete;
  NodeStore& operator=(const NodeStore&) = delete;
  ~NodeStore() {
    while (blocks_.next != &blocks_) unlink_and_free(blocks_.next);
  }

  /// `bytes` (> 0) of storage aligned to kAlign, valid until the store is
  /// destroyed or the block is released.
  std::byte* allocate(std::size_t bytes) {
    const std::size_t size = block_size(bytes);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (size >= kLargeBlock) return new_block(size);
    if (recycle_) {
      std::byte*& head = free_[size_class(size)];
      if (head != nullptr) {
        std::byte* block = head;
        std::memcpy(&head, block, sizeof head);
        return block;
      }
    }
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

  /// Hands a block of allocate(bytes) back: a large block is freed, a
  /// small one is kept for reuse by later small blocks of its size class
  /// (recycling stores; a no-op otherwise).
  void release(const void* data, std::size_t bytes) {
    if (data == nullptr) return;
    auto* block = static_cast<std::byte*>(const_cast<void*>(data));
    const std::size_t size = block_size(bytes);
    if (size < kLargeBlock && !recycle_) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (size >= kLargeBlock) {
      unlink_and_free(reinterpret_cast<Header*>(block) - 1);
      return;
    }
    std::byte*& head = free_[size_class(size)];
    std::memcpy(block, &head, sizeof head);  // the free list's next link
    head = block;
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
    Header* prev;
    Header* next;
  };

  std::size_t block_size(std::size_t bytes) const {
    const std::size_t aligned = (bytes + kAlign - 1) & ~(kAlign - 1);
    return recycle_ && aligned < kLargeBlock ? std::bit_ceil(aligned)
                                             : aligned;
  }
  static std::size_t size_class(std::size_t pow2) {
    return static_cast<std::size_t>(std::countr_zero(pow2));
  }

  /// A fresh heap block of `size` bytes, linked in (mutex held).
  std::byte* new_block(std::size_t size) {
    auto* h = static_cast<Header*>(::operator new(sizeof(Header) + size));
    h->prev = &blocks_;
    h->next = blocks_.next;
    blocks_.next->prev = h;
    blocks_.next = h;
    return reinterpret_cast<std::byte*>(h + 1);
  }
  void unlink_and_free(Header* h) {
    h->prev->next = h->next;
    h->next->prev = h->prev;
    ::operator delete(h);
  }

  std::mutex mutex_;
  bool recycle_;
  Header blocks_{&blocks_, &blocks_};  ///< sentinel of the block list
  std::byte* cursor_ = nullptr;
  std::size_t left_ = 0;
  std::size_t next_chunk_ = kFirstChunk;
  std::array<std::byte*, 12> free_{};  ///< small classes, up to 1 KiB
};

}  // namespace ppsi::iso

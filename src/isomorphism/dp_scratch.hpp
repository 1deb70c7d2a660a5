#pragma once

// Per-thread reusable working storage for the DP engines.
//
// One DpScratch lives per thread (the OMP pool keeps threads alive across
// queries). Its buffers are *acquired* — cleared with capacity kept — at
// each use, so after the first queries of a given shape they stop growing
// and the engines run with zero steady-state scratch allocation; the
// embedded ScratchArena (support/arena.hpp) counts growth events and the
// footprint high-water mark, which solves surface through
// support::Metrics (allocs / scratch_peak_bytes).
//
// Output storage (SolvedNode's state array and CSR signature groups) is
// not scratch: it persists in the DpSolution's NodeStore
// (isomorphism/node_store.hpp) and is sized exactly and written once per
// node. Every dedup of the DP runs on one set class (IndexSet below):
// solve_sparse's per-node states, solve_path's per-path-node candidates
// and junction projections, and recovery's per-state assignments. A
// thread-lifetime table must not be reset by sweeping all of its buckets,
// which are sized by the largest use the thread has seen, while most uses
// hold a few dozen entries. The set instead grows a power-of-two prefix
// within its slot array and sweeps, at each reset, only the prefix the
// previous use filled. The reset costs O(previous use), and a use that
// threw mid-build is swept by the next reset like any other.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "isomorphism/state_enumeration.hpp"
#include "support/arena.hpp"

namespace ppsi::iso::detail {

/// Per-path-node bookkeeping of solve_path (plain data so the array is
/// reusable scratch).
struct PathNodeMeta {
  std::uint32_t id = 0;          ///< treedecomp::NodeId
  std::uint32_t base = 0;        ///< first DAG vertex id of this node
  std::uint32_t side = 0;        ///< side-child NodeId (valid when has_side)
  const StateKey* states = nullptr;  ///< candidate states (span)
  std::uint32_t num_states = 0;
  bool has_side = false;
};

/// Open-addressing set of 32-bit indices into an array the caller owns.
/// The set never sees the elements: the caller passes each element's hash
/// and an equality test against a held index, and growth re-inserts
/// indices 0..next-1 through the caller's hash of an index. So a slot is
/// 4 bytes, and one class dedups StateKeys and k-strided assignments
/// alike. The held indices are always 0..next-1: an element is inserted
/// under the next free index of its array and appended there. Only a
/// power-of-two prefix of the slot array is live (load cap 7/8); every
/// slot past it is empty. reset() sweeps the live prefix and leaves none,
/// so the next insert starts at the minimum prefix.
class IndexSet {
 public:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  /// Empties the set for an emptied array.
  void reset() {
    std::fill_n(slots_.begin(), prefix_, kAbsent);
    prefix_ = 0;
  }

  /// The held index i with equal(i), where `hash` is the sought element's
  /// hash, or kAbsent.
  template <class Equal>
  std::uint32_t find(std::size_t hash, Equal&& equal) const {
    if (prefix_ == 0) return kAbsent;
    const std::size_t mask = prefix_ - 1;
    for (std::size_t i = hash & mask; slots_[i] != kAbsent;
         i = (i + 1) & mask)
      if (equal(slots_[i])) return slots_[i];
    return kAbsent;
  }

  /// The held index i with equal(i); when there is none, records `next`
  /// (the array's size, where the caller then appends the element) and
  /// returns it. `hash_at(i)` is the hash of held element i; slot growth
  /// reports to `arena` when one is given.
  template <class Equal, class HashAt>
  std::uint32_t insert(std::size_t hash, std::uint32_t next, Equal&& equal,
                       HashAt&& hash_at, support::ScratchArena* arena) {
    if ((std::size_t{next} + 1) * 8 > prefix_ * 7) grow(next, hash_at, arena);
    const std::size_t mask = prefix_ - 1;
    std::size_t i = hash & mask;
    while (slots_[i] != kAbsent) {
      if (equal(slots_[i])) return slots_[i];
      i = (i + 1) & mask;
    }
    slots_[i] = next;
    return next;
  }

 private:
  /// The smallest live prefix: 56 entries before the first doubling. At
  /// 32, recovery's per-call sets start at half the size and the heap
  /// layout alone raised perfbench `warm-screen`'s peak RSS by 0.7 MB.
  static constexpr std::size_t kMinPrefix = 64;

  /// Doubles the prefix (or starts the minimum one) and re-inserts the
  /// held indices 0..count-1.
  template <class HashAt>
  void grow(std::uint32_t count, HashAt& hash_at,
            support::ScratchArena* arena) {
    const std::size_t next = std::max(prefix_ * 2, kMinPrefix);
    if (slots_.size() < next) {
      const std::size_t before = support::ScratchArena::bytes_of(slots_);
      slots_.resize(next, kAbsent);
      if (arena != nullptr)
        arena->settle(before, support::ScratchArena::bytes_of(slots_));
    }
    std::fill_n(slots_.begin(), prefix_, kAbsent);
    prefix_ = next;
    const std::size_t mask = prefix_ - 1;
    for (std::uint32_t idx = 0; idx < count; ++idx) {
      std::size_t i = hash_at(idx) & mask;
      while (slots_[i] != kAbsent) i = (i + 1) & mask;
      slots_[i] = idx;
    }
  }

  std::vector<std::uint32_t> slots_;
  std::size_t prefix_ = 0;  ///< live slots: a power of two, or 0 when empty
};

/// A staged state array and the IndexSet over it.
struct StagedStates {
  std::vector<StateKey> states;
  IndexSet set;

  void clear() {
    states.clear();
    set.reset();
  }

  /// Index of state {code, sep}, appending it first when new. The halves
  /// arrive as two scalars: a StateKey argument is spilled as two 8-byte
  /// stores and reloaded as one 16-byte load, which stalls store
  /// forwarding once per state on solve_sparse's hot path.
  std::uint32_t stage(std::uint64_t code, std::uint64_t sep,
                      support::ScratchArena& arena) {
    const auto next = static_cast<std::uint32_t>(states.size());
    const std::uint32_t held = set.insert(
        support::hash_combine(code, sep), next,
        [&](std::uint32_t i) {
          return states[i].code == code && states[i].sep == sep;
        },
        [&](std::uint32_t i) { return StateKeyHash{}(states[i]); }, &arena);
    if (held == next) states.push_back(StateKey{code, sep});
    return held;
  }

  /// Index of `key`, or IndexSet::kAbsent.
  std::uint32_t find(StateKey key) const {
    return set.find(StateKeyHash{}(key),
                    [&](std::uint32_t i) { return states[i] == key; });
  }
};

struct DpScratch {
  support::ScratchArena arena;

  // solve_node_exact and solve_path's install: a node's states, staged
  // before the exact-sized copy into the SolvedNode.
  std::vector<StateKey> exact_states;

  // solve_sparse: the same, deduped as they are generated.
  StagedStates staged;

  // build_sig_groups and solve_sparse: (signature, state index) pairs fed
  // to SigIndex.
  std::vector<std::pair<StateKey, std::uint32_t>> sig_pairs;

  // solve_sparse: the right child's signatures keyed for the join.
  std::vector<std::pair<std::uint64_t, StateKey>> join_pairs;

  // solve_path: per-node candidate states and their sets (slot j of the
  // path), the flat match-DAG edge list and its CSR form, translation
  // targets, a junction's distinct projections and their set, shortcut
  // forest, and the BFS state.
  std::vector<PathNodeMeta> path_meta;
  std::vector<StagedStates> path_states;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<std::uint32_t> edge_offsets;
  std::vector<std::uint32_t> edge_cursor;
  std::vector<std::uint32_t> edge_targets;
  std::vector<std::uint32_t> translate_target;
  StagedStates pis;
  std::vector<std::uint32_t> forest_parent;
  std::vector<char> reachable;
  std::vector<std::uint32_t> frontier;
  std::vector<std::uint32_t> next_frontier;
  std::vector<std::uint32_t> marked;

  /// Grows path_states to n without discarding the capacity already
  /// learned by existing slots. Call before taking slot references (growth
  /// moves the outer array).
  void ensure_slots(std::size_t n) {
    if (path_states.size() >= n) return;
    const std::size_t before = support::ScratchArena::bytes_of(path_states);
    path_states.resize(n);
    arena.settle(before, support::ScratchArena::bytes_of(path_states));
  }

  /// The calling thread's scratch (thread-local, reused across queries).
  static DpScratch& local();
};

}  // namespace ppsi::iso::detail

#pragma once

// Per-thread reusable working storage for the DP engines.
//
// solve_node_exact and solve_path previously allocated their working sets
// per node / per path (candidate-state vectors, hash maps, the match-DAG
// adjacency, BFS frontiers). One DpScratch lives per thread (the OMP pool
// keeps threads alive across queries), is prepared once per solve from
// (k, max_bag), and is *acquired* — cleared with capacity kept — at each
// use. After the first queries of a given shape the buffers stop growing
// and the engines run with zero steady-state scratch allocation; the
// embedded ScratchArena (support/arena.hpp) counts growth events and the
// footprint high-water mark, which solves surface through
// support::Metrics (allocs / scratch_peak_bytes).
//
// Output storage (SolvedNode's state array and CSR signature groups) is
// not scratch: it persists in the DpSolution's NodeStore
// (isomorphism/node_store.hpp) and is sized exactly and written once per
// node. solve_sparse's per-node state-dedup set is
// scratch (StagedStateSet below). A thread-lifetime table must not be
// reset by sweeping all of its buckets, which are sized by the largest
// node the thread has seen, while most nodes hold a few dozen states.
// The set instead grows a power-of-two prefix within its slot array and
// sweeps, before each node, only the prefix the previous node used. The
// reset costs O(previous node), and a node that threw mid-build is swept
// by the next node like any other.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "isomorphism/state_enumeration.hpp"
#include "support/arena.hpp"
#include "support/flat_table.hpp"

namespace ppsi::iso::detail {

using StateIndexMap = support::FlatMap<StateKey, StateKeyHash>;

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

/// solve_sparse's per-node state-dedup set: open addressing over 32-bit
/// indices into the node's staged state array, compared through it
/// (`staged[i] == key`), so a slot is 4 bytes and growth re-inserts from
/// the array. Only a power-of-two prefix of the slot array is live; every
/// slot past it is empty. begin_node() sweeps the previous node's prefix
/// and restarts at the minimum one.
class StagedStateSet {
 public:
  /// Empties the set for a node whose states stage into an emptied array.
  void begin_node(support::ScratchArena& arena) {
    std::fill_n(slots_.begin(), prefix_, kEmpty);
    prefix_ = kMinPrefix;
    if (slots_.size() < prefix_) extend(prefix_, arena);
  }

  /// Appends state {code, sep} to `staged` unless already present;
  /// returns true when appended. `staged` must hold exactly the states
  /// inserted since begin_node().
  bool insert(std::vector<StateKey>& staged, std::uint64_t code,
              std::uint64_t sep, support::ScratchArena& arena) {
    if ((staged.size() + 1) * 8 > prefix_ * 7) grow(staged, arena);
    const std::size_t mask = prefix_ - 1;
    std::size_t i = support::hash_combine(code, sep) & mask;
    while (slots_[i] != kEmpty) {
      const StateKey& held = staged[slots_[i]];
      if (held.code == code && held.sep == sep) return false;
      i = (i + 1) & mask;
    }
    slots_[i] = static_cast<std::uint32_t>(staged.size());
    staged.push_back(StateKey{code, sep});
    return true;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  static constexpr std::size_t kMinPrefix = 32;

  /// Doubles the prefix (load cap 7/8) and re-inserts every staged state.
  void grow(const std::vector<StateKey>& staged,
            support::ScratchArena& arena) {
    const std::size_t next = prefix_ * 2;
    if (slots_.size() < next) extend(next, arena);
    std::fill_n(slots_.begin(), prefix_, kEmpty);
    prefix_ = next;
    const std::size_t mask = prefix_ - 1;
    for (std::uint32_t idx = 0; idx < staged.size(); ++idx) {
      std::size_t i = StateKeyHash{}(staged[idx]) & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = idx;
    }
  }

  /// Extends the slot array to n slots, all new ones empty.
  void extend(std::size_t n, support::ScratchArena& arena) {
    const std::size_t before = support::ScratchArena::bytes_of(slots_);
    slots_.resize(n, kEmpty);
    arena.settle(before, support::ScratchArena::bytes_of(slots_));
  }

  std::vector<std::uint32_t> slots_;
  std::size_t prefix_ = 0;  ///< live slots: a power of two, or 0 at start
};

struct DpScratch {
  support::ScratchArena arena;

  // solve_node_exact and solve_sparse: a node's states, staged before the
  // exact-sized copy into the SolvedNode.
  std::vector<StateKey> exact_states;

  // solve_sparse: the dedup set over exact_states.
  StagedStateSet staged_set;

  // build_sig_groups and solve_sparse: (signature, state index) pairs fed
  // to SigIndex.
  std::vector<std::pair<StateKey, std::uint32_t>> sig_pairs;

  // solve_sparse: the right child's signatures keyed for the join.
  std::vector<std::pair<std::uint64_t, StateKey>> join_pairs;

  // solve_path: per-node candidate states and index (slot j of the path),
  // the flat match-DAG edge list and its CSR form, translation targets,
  // per-junction projection map, shortcut forest, and the BFS state.
  std::vector<PathNodeMeta> path_meta;
  std::vector<std::vector<StateKey>> path_states;
  std::vector<StateIndexMap> path_index;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<std::uint32_t> edge_offsets;
  std::vector<std::uint32_t> edge_cursor;
  std::vector<std::uint32_t> edge_targets;
  std::vector<std::uint32_t> translate_target;
  StateIndexMap pi_map;
  std::vector<std::uint32_t> forest_parent;
  std::vector<char> reachable;
  std::vector<std::uint32_t> frontier;
  std::vector<std::uint32_t> next_frontier;
  std::vector<std::uint32_t> marked;

  /// Grows the per-path-node slot arrays to n without discarding the
  /// capacity already learned by existing slots. Call before taking slot
  /// references (growth moves the outer arrays).
  void ensure_slots(std::size_t n) {
    if (path_states.size() < n || path_index.size() < n) grow_slots(n);
  }
  /// Slot j of the per-path-node buffers (ensure_slots(j + 1) first).
  std::vector<StateKey>& states_slot(std::size_t j) {
    path_states[j].clear();
    return path_states[j];
  }
  StateIndexMap& index_slot(std::size_t j) {
    path_index[j].clear();
    return path_index[j];
  }

  /// The calling thread's scratch (thread-local, reused across queries).
  static DpScratch& local();

 private:
  void grow_slots(std::size_t n);
};

}  // namespace ppsi::iso::detail

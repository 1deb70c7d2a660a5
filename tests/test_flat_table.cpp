// Unit tests of the flat-state storage layer: the DP's one dedup set,
// IndexSet (full collision chains, growth across several prefixes, reuse
// after a large use, absent lookups, StateKey and k-strided elements), the
// CSR SigIndex (grouping, empty/absent lookups, input-order independence),
// and the ScratchArena growth accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "isomorphism/dp_scratch.hpp"
#include "isomorphism/sig_index.hpp"
#include "support/arena.hpp"
#include "support/rng.hpp"

namespace ppsi {
namespace {

using iso::SigIndex;
using iso::StateKey;
using iso::detail::IndexSet;

/// An IndexSet over a caller-owned array of 64-bit keys, with the hash
/// chosen by the test.
struct U64Keys {
  std::size_t (*hash)(std::uint64_t);
  std::vector<std::uint64_t> keys;
  IndexSet set;

  /// Index of `key`, appending it when new.
  std::uint32_t insert(std::uint64_t key, support::ScratchArena* arena) {
    const auto next = static_cast<std::uint32_t>(keys.size());
    const std::uint32_t held = set.insert(
        hash(key), next, [&](std::uint32_t i) { return keys[i] == key; },
        [&](std::uint32_t i) { return hash(keys[i]); }, arena);
    if (held == next) keys.push_back(key);
    return held;
  }
  std::uint32_t find(std::uint64_t key) const {
    return set.find(hash(key),
                    [&](std::uint32_t i) { return keys[i] == key; });
  }
  void reset() {
    keys.clear();
    set.reset();
  }
};

std::size_t mixed_hash(std::uint64_t v) { return support::splitmix64(v); }
/// Worst case: every key probes from the same slot.
std::size_t colliding_hash(std::uint64_t) { return 42; }

TEST(IndexSet, FullCollisionChainStaysCorrect) {
  U64Keys table{colliding_hash, {}, {}};
  constexpr std::uint32_t kN = 200;  // grows across several prefixes too
  for (std::uint32_t i = 0; i < kN; ++i)
    ASSERT_EQ(table.insert(1000 + i, nullptr), i);
  EXPECT_EQ(table.keys.size(), kN);
  // A duplicate keeps its first index and appends nothing.
  EXPECT_EQ(table.insert(1000 + 17, nullptr), 17u);
  EXPECT_EQ(table.keys.size(), kN);
  for (std::uint32_t i = 0; i < kN; ++i)
    EXPECT_EQ(table.find(1000 + i), i) << i;
  // Absent keys on the same chain terminate.
  EXPECT_EQ(table.find(999), IndexSet::kAbsent);
  EXPECT_EQ(table.find(1000 + kN), IndexSet::kAbsent);
}

TEST(IndexSet, GrowthAcrossPrefixesPreservesEntries) {
  U64Keys table{mixed_hash, {}, {}};
  support::ScratchArena arena;
  support::Rng rng(3);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.next_u64() | 1);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  // Absent lookups before the first insert (no live prefix yet).
  EXPECT_EQ(table.find(keys[0]), IndexSet::kAbsent);
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(table.insert(keys[i], &arena), i);
    // Every held index stays findable across each doubling.
    if ((i & (i + 1)) != 0) continue;
    for (std::uint32_t j = 0; j <= i; ++j) ASSERT_EQ(table.find(keys[j]), j);
  }
  for (std::uint32_t i = 0; i < keys.size(); ++i)
    ASSERT_EQ(table.find(keys[i]), i);
  EXPECT_EQ(table.find(2), IndexSet::kAbsent);  // keys are odd
  // Slot growth reported to the arena: the minimum prefix doubled to at
  // least 5000 / (7/8) slots.
  EXPECT_GE(arena.alloc_events(), 8u);
  EXPECT_GE(arena.footprint_bytes(), 8192 * sizeof(std::uint32_t));
}

TEST(IndexSet, ReuseAfterALargeUseStartsEmpty) {
  U64Keys table{mixed_hash, {}, {}};
  support::ScratchArena arena;
  for (std::uint64_t v = 0; v < 3000; ++v) table.insert(v, &arena);
  const std::uint64_t events = arena.alloc_events();
  table.reset();
  for (std::uint64_t v = 0; v < 3000; ++v)
    ASSERT_EQ(table.find(v), IndexSet::kAbsent) << v;
  // A small use after the large one: fresh indices, nothing left behind,
  // and no slot growth (the large use's slots are reused).
  for (std::uint64_t v = 2990; v < 3010; ++v)
    EXPECT_EQ(table.insert(v, &arena), v - 2990);
  EXPECT_EQ(table.find(5), IndexSet::kAbsent);
  EXPECT_EQ(arena.alloc_events(), events);
  // A reset after the small use sweeps only its prefix; the large use's
  // entries past that prefix were swept by the first reset.
  table.reset();
  for (std::uint64_t v = 0; v < 3010; ++v)
    ASSERT_EQ(table.find(v), IndexSet::kAbsent) << v;
  EXPECT_EQ(table.insert(7, &arena), 0u);
}

TEST(IndexSet, IndexesStateKeys) {
  iso::detail::StagedStates staged;
  support::ScratchArena arena;
  const StateKey a{0x12, 0}, b{0x12, 1}, c{0x13, 0};
  EXPECT_EQ(staged.find(a), IndexSet::kAbsent);  // before the first stage
  EXPECT_EQ(staged.stage(a.code, a.sep, arena), 0u);
  EXPECT_EQ(staged.stage(b.code, b.sep, arena), 1u);
  EXPECT_EQ(staged.stage(a.code, a.sep, arena), 0u);
  ASSERT_EQ(staged.states.size(), 2u);
  EXPECT_EQ(staged.find(a), 0u);
  EXPECT_EQ(staged.find(b), 1u);  // sep distinguishes
  EXPECT_EQ(staged.find(c), IndexSet::kAbsent);
  // Many states: each lands at its staging index.
  for (std::uint64_t code = 0; code < 500; ++code)
    staged.stage(code << 8, code & 3, arena);
  EXPECT_EQ(staged.states.size(), 502u);
  for (std::uint32_t i = 0; i < staged.states.size(); ++i)
    ASSERT_EQ(staged.find(staged.states[i]), i);
  staged.clear();
  EXPECT_EQ(staged.find(a), IndexSet::kAbsent);
  EXPECT_EQ(staged.stage(c.code, c.sep, arena), 0u);
}

TEST(IndexSet, IndexesKStridedKeys) {
  // Ordinals into a flat k-strided array, hashed and compared k words at a
  // time, as recovery's assignment accumulator keys them.
  constexpr std::uint32_t k = 3;
  std::vector<Vertex> items;
  IndexSet set;
  const auto hash_of = [](const Vertex* a) {
    std::uint64_t h = 0;
    for (std::uint32_t i = 0; i < k; ++i) h = support::hash_combine(h, a[i]);
    return h;
  };
  const auto insert = [&](std::array<Vertex, k> a) {
    const auto next = static_cast<std::uint32_t>(items.size() / k);
    const std::uint32_t held = set.insert(
        hash_of(a.data()), next,
        [&](std::uint32_t o) {
          return std::equal(a.begin(), a.end(), items.data() + o * k);
        },
        [&](std::uint32_t o) { return hash_of(items.data() + o * k); },
        nullptr);
    if (held == next) items.insert(items.end(), a.begin(), a.end());
    return held;
  };
  EXPECT_EQ(insert({1, 2, 3}), 0u);
  EXPECT_EQ(insert({3, 2, 1}), 1u);  // order matters
  EXPECT_EQ(insert({1, 2, 3}), 0u);
  for (Vertex v = 0; v < 400; ++v) EXPECT_EQ(insert({v, v + 1, 7}), v + 2);
  EXPECT_EQ(insert({5, 6, 7}), 7u);
  EXPECT_EQ(items.size(), 402u * k);
  const Vertex absent[k] = {2, 1, 3};
  EXPECT_EQ(set.find(hash_of(absent),
                     [&](std::uint32_t o) {
                       return std::equal(absent, absent + k,
                                         items.data() + o * k);
                     }),
            IndexSet::kAbsent);
}

// ---- SigIndex ----

std::vector<std::pair<StateKey, std::uint32_t>> sample_pairs() {
  // Three groups with interleaved discovery order; indices ascend within
  // each group as build_sig_groups produces them.
  return {
      {{5, 0}, 0}, {{3, 0}, 1}, {{5, 0}, 2}, {{9, 1}, 3},
      {{3, 0}, 4}, {{5, 0}, 5}, {{9, 0}, 6},
  };
}

TEST(SigIndex, GroupsAndLookups) {
  iso::NodeStore store;
  auto pairs = sample_pairs();
  SigIndex index;
  index.build(pairs, store);
  EXPECT_EQ(index.size(), 4u);
  EXPECT_TRUE(index.contains(StateKey{5, 0}));
  const auto g5 = index.group(StateKey{5, 0});
  ASSERT_EQ(g5.size(), 3u);
  EXPECT_EQ(g5[0], 0u);
  EXPECT_EQ(g5[1], 2u);
  EXPECT_EQ(g5[2], 5u);
  const auto g3 = index.group(StateKey{3, 0});
  ASSERT_EQ(g3.size(), 2u);
  EXPECT_EQ(g3[0], 1u);
  EXPECT_EQ(g3[1], 4u);
  // (9,0) and (9,1) are distinct signatures.
  EXPECT_EQ(index.group(StateKey{9, 0}).size(), 1u);
  EXPECT_EQ(index.group(StateKey{9, 1}).size(), 1u);
}

TEST(SigIndex, AbsentAndEmptyLookups) {
  iso::NodeStore store;
  SigIndex empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.contains(StateKey{1, 0}));
  EXPECT_TRUE(empty.group(StateKey{1, 0}).empty());

  auto pairs = sample_pairs();
  SigIndex index;
  index.build(pairs, store);
  EXPECT_FALSE(index.contains(StateKey{4, 0}));
  EXPECT_TRUE(index.group(StateKey{4, 0}).empty());
  EXPECT_FALSE(index.contains(StateKey{5, 1}));

  std::vector<std::pair<StateKey, std::uint32_t>> none;
  SigIndex rebuilt;
  rebuilt.build(none, store);
  EXPECT_EQ(rebuilt.size(), 0u);
  EXPECT_TRUE(rebuilt.group(StateKey{5, 0}).empty());
}

TEST(SigIndex, InputOrderIndependence) {
  iso::NodeStore store;
  auto pairs = sample_pairs();
  SigIndex reference;
  reference.build(pairs, store);
  support::Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    auto shuffled = sample_pairs();
    for (std::size_t i = shuffled.size(); i > 1; --i)
      std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
    SigIndex index;
    index.build(shuffled, store);
    ASSERT_TRUE(std::ranges::equal(index.sigs(), reference.sigs()));
    for (std::size_t s = 0; s < index.size(); ++s) {
      const auto got = index.group_at(s);
      const auto want = reference.group_at(s);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                             want.end()))
          << "group " << s << " trial " << trial;
    }
  }
}

TEST(SigIndex, SigsAreSorted) {
  iso::NodeStore store;
  auto pairs = sample_pairs();
  SigIndex index;
  index.build(pairs, store);
  EXPECT_TRUE(std::is_sorted(index.sigs().begin(), index.sigs().end()));
}

// ---- ScratchArena ----

TEST(ScratchArena, AcquireCountsGrowthOnce) {
  support::ScratchArena arena;
  std::vector<std::uint32_t> buf;
  arena.acquire(buf, 100);
  EXPECT_EQ(arena.alloc_events(), 1u);
  EXPECT_GE(arena.footprint_bytes(), 100 * sizeof(std::uint32_t));
  // Steady state: same-size reuse never allocates.
  for (int i = 0; i < 10; ++i) arena.acquire(buf, 100);
  EXPECT_EQ(arena.alloc_events(), 1u);
  arena.acquire(buf, 50);  // smaller fits existing capacity
  EXPECT_EQ(arena.alloc_events(), 1u);
  arena.acquire(buf, 200);  // growth is one more event
  EXPECT_EQ(arena.alloc_events(), 2u);
  EXPECT_EQ(arena.peak_bytes(), arena.footprint_bytes());
}

TEST(ScratchArena, SettleTracksOrganicGrowth) {
  support::ScratchArena arena;
  std::vector<std::uint64_t> buf;
  const std::size_t before = support::ScratchArena::bytes_of(buf);
  for (int i = 0; i < 100; ++i) buf.push_back(i);
  arena.settle(before, support::ScratchArena::bytes_of(buf));
  EXPECT_EQ(arena.alloc_events(), 1u);
  EXPECT_EQ(arena.footprint_bytes(), support::ScratchArena::bytes_of(buf));
  // A use that stays within capacity settles for free.
  const std::size_t stable = support::ScratchArena::bytes_of(buf);
  buf.clear();
  buf.push_back(1);
  arena.settle(stable, support::ScratchArena::bytes_of(buf));
  EXPECT_EQ(arena.alloc_events(), 1u);
}

}  // namespace
}  // namespace ppsi

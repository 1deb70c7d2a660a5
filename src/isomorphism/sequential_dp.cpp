#include "isomorphism/sequential_dp.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <span>

#include "isomorphism/dp_scratch.hpp"

namespace ppsi::iso {

namespace {

using detail::ChildLink;
using detail::DpScratch;

/// Gathers per-node child links and solved-children pointers.
struct NodeEnv {
  ChildLink left, right;
  const SolvedNode* left_node = nullptr;
  const SolvedNode* right_node = nullptr;
};

NodeEnv make_env(const DpSolution& sol, treedecomp::NodeId x) {
  NodeEnv env;
  const auto kids = sol.plan->children(x);
  if (!kids.empty()) {
    env.left_node = &sol.nodes[kids[0]];
    env.left = {true, sol.plan->shared_with_parent(kids[0])};
  }
  if (kids.size() == 2) {
    env.right_node = &sol.nodes[kids[1]];
    env.right = {true, sol.plan->shared_with_parent(kids[1])};
  }
  return env;
}

}  // namespace

namespace detail {

DpSolution prepare_solution(const std::shared_ptr<const DpPlan>& plan,
                            const Pattern& pattern) {
  DpSolution sol;
  sol.plan = plan;
  sol.codec = StateCodec::make(pattern.size(), plan->max_bag());
  sol.pin = parity_pin(*plan, pattern);
  sol.nodes.resize(plan->num_nodes());
  sol.store = std::make_unique<NodeStore>();
  return sol;
}

std::span<const StateKey> store_states(NodeStore& store,
                                       std::span<const StateKey> states) {
  if (states.empty()) return {};
  auto* out = std::launder(
      reinterpret_cast<StateKey*>(store.allocate(states.size_bytes())));
  std::copy(states.begin(), states.end(), out);
  return {out, states.size()};
}

void collect_accepting(DpSolution& solution) {
  const std::span<const StateKey> states =
      solution.nodes[solution.plan->root()].states;
  for (std::uint32_t i = 0; i < states.size(); ++i) {
    const bool sep_ok = !solution.plan->separating() ||
                        ((states[i].sep & kSepIx) != 0 &&
                         (states[i].sep & kSepOx) != 0);
    if (sep_ok && view_of(solution.codec, states[i].code).u_mask == 0)
      solution.accepting.push_back(i);
  }
  solution.accepted = !solution.accepting.empty();
}

void solve_node_exact(const Pattern& pattern, treedecomp::NodeId x,
                      DpSolution& solution, std::uint64_t* work) {
  SolvedNode& node = solution.nodes[x];
  const StateCodec& codec = solution.codec;
  const bool separating = solution.plan->separating();
  const BagView ctx = solution.ctx(x);
  const NodeEnv env = make_env(solution, x);
  // Survivors stage through the thread's scratch; the node's states are
  // then sized exactly, so a solved node never carries growth slack and
  // the scratch arena absorbs all churn.
  DpScratch& scratch = DpScratch::local();
  std::vector<StateKey>& survivors = scratch.exact_states;
  const std::size_t bytes_before = support::ScratchArena::bytes_of(survivors);
  survivors.clear();
  // A combo is supported when each present child solved its signature;
  // every visited combo ticks one unit of work, and the first supported
  // one ends the enumeration.
  const auto sig_present = [](const SolvedNode* child, const StateKey* sig) {
    return child == nullptr || child->sig_groups.contains(*sig);
  };
  enumerate_local_states(
      pattern, ctx, codec, separating, [&](StateKey key) {
        if (work != nullptr) ++*work;
        const bool supported = for_each_support_combo(
            codec, ctx, key, env.left, env.right, separating,
            [&](const StateKey* sl, const StateKey* sr) {
              if (work != nullptr) ++*work;
              return sig_present(env.left_node, sl) &&
                     sig_present(env.right_node, sr);
            });
        if (supported) survivors.push_back(key);
      });
  scratch.arena.settle(bytes_before,
                       support::ScratchArena::bytes_of(survivors));
  node.states = store_states(*solution.store, survivors);
}

void build_sig_groups(const Pattern& pattern, treedecomp::NodeId x,
                      DpSolution& solution) {
  SolvedNode& node = solution.nodes[x];
  const DpPlan& plan = *solution.plan;
  if (plan.parent(x) == treedecomp::kNoNode) return;
  DpScratch& scratch = DpScratch::local();
  auto& pairs = scratch.sig_pairs;
  scratch.arena.acquire(pairs, node.states.size());
  // The plan's position table re-addresses each projection with table
  // loads instead of a per-vertex binary search.
  const std::int8_t* to_parent = plan.to_parent(x);
  const BagView ctx = solution.ctx(x);
  const StateCodec& codec = solution.codec;
  for (std::uint32_t i = 0; i < node.states.size(); ++i) {
    const StateKey state = node.states[i];
    const auto sig = project_to_parent(state, view_of(codec, state.code),
                                       codec, pattern, ctx, to_parent);
    if (sig.has_value()) pairs.emplace_back(*sig, i);
  }
  node.sig_groups.build(pairs, *solution.store);
}

}  // namespace detail

DpSolution solve_sequential(const std::shared_ptr<const DpPlan>& plan,
                            const Pattern& pattern, const DpOptions& options) {
  return detail::solve_bottom_up(
      plan, pattern, options,
      [&](DpSolution& sol, treedecomp::NodeId x, std::uint64_t& work) {
        detail::solve_node_exact(pattern, x, sol, &work);
        detail::build_sig_groups(pattern, x, sol);
      });
}

DpSolution solve_sequential(const Graph& g,
                            const treedecomp::TreeDecomposition& td,
                            const Pattern& pattern, const DpOptions& options) {
  return solve_sequential(std::make_shared<const DpPlan>(g, td, options.spec),
                          pattern, options);
}

namespace {

/// Deduping, capped, k-strided assignment accumulator: candidates insert
/// through an IndexSet over the ordinals of the flat item array, so
/// membership is "first `limit` distinct in enumeration order" (exactly
/// the std::set-based semantics it replaces) while the cap bounds the
/// expansion work as results accumulate. The set's growth is not scratch
/// of the thread's arena: a Recoverer lives for one call.
struct AssignmentAccum {
  std::uint32_t k = 0;
  std::vector<Vertex> items;  ///< count * k, insertion order
  detail::IndexSet set;       ///< over the ordinals 0..count-1
  std::uint32_t count = 0;

  void reset(std::uint32_t width) {
    k = width;
    items.clear();
    count = 0;
    set.reset();
  }

  static std::uint64_t hash_span(const Vertex* a, std::uint32_t k) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = 0; i < k; ++i) h = support::hash_combine(h, a[i]);
    return h;
  }

  /// Inserts unless present; returns true when new.
  bool insert(const Vertex* a) {
    const std::uint32_t held = set.insert(
        hash_span(a, k), count,
        [&](std::uint32_t ordinal) { return std::equal(a, a + k, at(ordinal)); },
        [&](std::uint32_t ordinal) { return hash_span(at(ordinal), k); },
        nullptr);
    if (held != count) return false;
    items.insert(items.end(), a, a + k);
    ++count;
    return true;
  }

  const Vertex* at(std::uint32_t ordinal) const {
    return items.data() + std::size_t{ordinal} * k;
  }

  /// Ordinals sorted by lexicographic assignment order (the std::set
  /// iteration order of the map-based recoverer).
  void sorted_ordinals(std::vector<std::uint32_t>& out) const {
    out.resize(count);
    std::iota(out.begin(), out.end(), 0u);
    std::sort(out.begin(), out.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return std::lexicographical_compare(at(a), at(a) + k, at(b),
                                                    at(b) + k);
              });
  }
};

/// Top-down expansion of one valid state into the assignments realized in
/// its subtree (paper §4.2.1). Memoized per (node, state) as a (begin,
/// count) group in one flat k-strided pool; per-state accumulation dedups
/// and caps through AssignmentAccum (one per recursion depth), and each
/// finished group is sorted lexicographically before entering the pool, so
/// outputs are byte-identical to the std::set<Assignment> recoverer this
/// replaces.
class Recoverer {
 public:
  Recoverer(const DpSolution& sol, std::size_t limit)
      : sol_(sol), limit_(limit), k_(sol.codec.k),
        memo_begin_(sol.nodes.size() + 1, 0) {
    for (std::size_t x = 0; x < sol.nodes.size(); ++x)
      memo_begin_[x + 1] = memo_begin_[x] + sol.nodes[x].states.size();
    memo_.assign(memo_begin_.back(), Group{});
  }

  struct Group {
    std::uint32_t begin = kUnset;  ///< first assignment (k-strided) in pool
    std::uint32_t count = 0;
  };
  static constexpr std::uint32_t kUnset = 0xffffffffu;

  Group expand(treedecomp::NodeId x, std::uint32_t state_idx) {
    Group& slot = memo_[memo_begin_[x] + state_idx];
    if (slot.begin != kUnset) return slot;
    const SolvedNode& node = sol_.nodes[x];
    const StateKey state = node.states[state_idx];
    const BagView ctx = sol_.ctx(x);
    std::array<Vertex, kMaxPatternSize> base;
    base.fill(kNoVertex);
    for (std::uint32_t v = 0; v < k_; ++v) {
      const std::uint64_t val = sol_.codec.get(state.code, v);
      if (val >= kStateMapped) base[v] = ctx.vertices[val - kStateMapped];
    }
    AssignmentAccum& acc = accum_at(depth_);
    acc.reset(k_);
    ++depth_;
    const std::span<const treedecomp::NodeId> kids = sol_.plan->children(x);
    if (kids.empty()) {
      ++work_;
      acc.insert(base.data());
    } else {
      // Re-derive the support combos and expand through every valid pair.
      const NodeEnv env = make_env(sol_, x);
      detail::for_each_support_combo(
          sol_.codec, ctx, state, env.left, env.right,
          sol_.plan->separating(),
          [&](const StateKey* sl, const StateKey* sr) {
            std::span<const std::uint32_t> lgroup, rgroup;
            if (sl != nullptr) {
              lgroup = env.left_node->sig_groups.group(*sl);
              if (lgroup.empty()) return false;
            }
            if (sr != nullptr) {
              rgroup = env.right_node->sig_groups.group(*sr);
              if (rgroup.empty()) return false;
            }
            combine(kids, base.data(), sl != nullptr ? &lgroup : nullptr,
                    sr != nullptr ? &rgroup : nullptr, acc);
            return acc.count >= limit_;
          });
    }
    --depth_;
    // Materialize: sorted (set order), contiguous in the pool.
    acc.sorted_ordinals(order_);
    slot.begin = static_cast<std::uint32_t>(pool_.size() / k_);
    slot.count = acc.count;
    // No per-group exact reserve: libstdc++ reserve allocates exactly the
    // request, which would reallocate-and-copy the whole pool per group
    // (quadratic); insert's geometric growth amortizes instead.
    for (const std::uint32_t ordinal : order_)
      pool_.insert(pool_.end(), acc.at(ordinal), acc.at(ordinal) + k_);
    return slot;
  }

  const Vertex* assignment(Group g, std::uint32_t i) const {
    return pool_.data() + (std::size_t{g.begin} + i) * k_;
  }
  std::uint64_t work() const { return work_; }

 private:
  AssignmentAccum& accum_at(std::size_t depth) {
    while (accums_.size() <= depth)
      accums_.push_back(std::make_unique<AssignmentAccum>());
    return *accums_[depth];
  }

  void combine(std::span<const treedecomp::NodeId> kids,
               const Vertex* base,
               const std::span<const std::uint32_t>* lgroup,
               const std::span<const std::uint32_t>* rgroup,
               AssignmentAccum& acc) {
    static constexpr std::uint32_t kNone[1] = {0xffffffffu};
    const std::span<const std::uint32_t> lids =
        lgroup != nullptr ? *lgroup : std::span<const std::uint32_t>(kNone);
    const std::span<const std::uint32_t> rids =
        rgroup != nullptr ? *rgroup : std::span<const std::uint32_t>(kNone);
    for (const std::uint32_t li : lids) {
      Group lg{};
      if (lgroup != nullptr) lg = expand(kids[0], li);
      for (const std::uint32_t ri : rids) {
        Group rg{};
        if (rgroup != nullptr) rg = expand(kids[1], ri);
        merge_products(base, lgroup != nullptr ? &lg : nullptr,
                       rgroup != nullptr ? &rg : nullptr, acc);
        if (acc.count >= limit_) return;
      }
      if (acc.count >= limit_) return;
    }
  }

  void merge_products(const Vertex* base, const Group* lg, const Group* rg,
                      AssignmentAccum& acc) {
    const std::uint32_t lcount = lg != nullptr ? lg->count : 1;
    const std::uint32_t rcount = rg != nullptr ? rg->count : 1;
    std::array<Vertex, kMaxPatternSize> merged;
    for (std::uint32_t la = 0; la < lcount; ++la) {
      for (std::uint32_t ra = 0; ra < rcount; ++ra) {
        ++work_;
        std::copy(base, base + k_, merged.begin());
        bool ok = true;
        const auto fold = [&](const Vertex* contribution) {
          for (std::uint32_t v = 0; v < k_; ++v) {
            if (contribution[v] == kNoVertex) continue;
            if (merged[v] != kNoVertex && merged[v] != contribution[v]) {
              ok = false;
              return;
            }
            merged[v] = contribution[v];
          }
        };
        if (lg != nullptr) fold(assignment(*lg, la));
        if (ok && rg != nullptr) fold(assignment(*rg, ra));
        if (ok) acc.insert(merged.data());
        if (acc.count >= limit_) return;
      }
    }
  }

  const DpSolution& sol_;
  std::size_t limit_;
  std::uint32_t k_;
  std::vector<std::size_t> memo_begin_;  ///< node -> first slot in memo_
  std::vector<Group> memo_;              ///< per (node, state)
  std::vector<Vertex> pool_;                   ///< finished groups, sorted
  std::vector<std::unique_ptr<AssignmentAccum>> accums_;  ///< per depth
  std::vector<std::uint32_t> order_;
  std::size_t depth_ = 0;
  std::uint64_t work_ = 0;
};

}  // namespace

std::vector<Assignment> recover_assignments(const DpSolution& solution,
                                            std::size_t limit,
                                            std::uint64_t* work) {
  std::vector<Assignment> out;
  if (limit == 0) return out;
  Recoverer recoverer(solution, limit);
  // Cross-state dedup replicates the legacy std::set<Assignment> exactly:
  // first `limit` distinct assignments over the per-state (sorted) groups
  // in accepting order, returned in sorted order.
  AssignmentAccum all;
  all.reset(solution.codec.k);
  for (const std::uint32_t idx : solution.accepting) {
    const Recoverer::Group group = recoverer.expand(solution.plan->root(), idx);
    for (std::uint32_t i = 0; i < group.count; ++i) {
      all.insert(recoverer.assignment(group, i));
      if (all.count >= limit) break;
    }
    if (all.count >= limit) break;
  }
  std::vector<std::uint32_t> order;
  all.sorted_ordinals(order);
  out.reserve(order.size());
  for (const std::uint32_t ordinal : order)
    out.emplace_back(all.at(ordinal), all.at(ordinal) + all.k);
  if (work != nullptr) *work = recoverer.work();
  return out;
}

std::vector<Assignment> recover_assignments(
    const DpSolution& solution, const treedecomp::TreeDecomposition& td,
    std::size_t limit, std::uint64_t* work) {
  support::require(td.num_nodes() == solution.plan->num_nodes(),
                   "recover_assignments: not the solution's decomposition");
  return recover_assignments(solution, limit, work);
}

}  // namespace ppsi::iso

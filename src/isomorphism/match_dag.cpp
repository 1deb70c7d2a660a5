#include "isomorphism/match_dag.hpp"

#include <algorithm>

#include "isomorphism/dp_scratch.hpp"
#include "isomorphism/parallel_engine.hpp"
#include "treepath/tree_paths.hpp"

namespace ppsi::iso {
namespace {

using treedecomp::NodeId;
using detail::DpScratch;
using detail::PathNodeMeta;

constexpr std::uint32_t kNoTarget = 0xffffffffu;

}  // namespace

// The match DAG is materialized as one flat (from, to) edge list staged in
// the thread's scratch, then counting-sorted into a CSR adjacency right
// before the reachability BFS. The counting sort is stable, so each
// vertex's neighbor order equals the chronological edge-emission order —
// exactly the per-vertex push order of the previous vector-of-vectors
// adjacency — which keeps the BFS traversal (and its instrumented work
// count) bit-identical while replacing one heap vector per DAG vertex with
// three reusable flat arrays. Candidates and junction projections stage
// through the thread's StagedStates (isomorphism/dp_scratch.hpp); a
// projection's pi vertex id is the junction's first pi id plus its
// first-seen index.
PathStats solve_path(const Pattern& pattern,
                     std::span<const treedecomp::NodeId> nodes,
                     const ParallelOptions& options, DpSolution& solution) {
  PathStats stats;
  const DpPlan& plan = *solution.plan;
  stats.path_length = nodes.size();
  const StateCodec& codec = solution.codec;
  const bool sep = plan.separating();
  DpScratch& scratch = DpScratch::local();
  const std::uint64_t allocs_before = scratch.arena.alloc_events();

  // ---- X_1: exact solve against its (already solved) children. ----
  std::uint64_t work = 0;
  detail::solve_node_exact(pattern, nodes.front(), solution, &work);
  stats.enumerated_states += solution.nodes[nodes.front()].states.size();

  const std::size_t p = nodes.size();
  if (p > 1) {
    // ---- Candidates and per-node wiring. ----
    scratch.ensure_slots(p);
    std::vector<PathNodeMeta>& path = scratch.path_meta;
    scratch.arena.acquire(path, p);
    path.resize(p);
    std::uint32_t next_vertex = 0;
    for (std::size_t j = 0; j < p; ++j) {
      PathNodeMeta& pn = path[j];
      pn = PathNodeMeta{};
      pn.id = nodes[j];
      if (j == 0) {
        const SolvedNode& solved = solution.nodes[pn.id];
        pn.states = solved.states.data();
        pn.num_states = static_cast<std::uint32_t>(solved.states.size());
      } else {
        // Enumeration yields distinct states, so staging keeps them all,
        // in order; the set then answers the translation lookups.
        detail::StagedStates& cand = scratch.path_states[j];
        const std::size_t cand_bytes =
            support::ScratchArena::bytes_of(cand.states);
        cand.clear();
        enumerate_local_states(pattern, solution.ctx(pn.id), codec, sep,
                               [&](StateKey key) {
                                 cand.stage(key.code, key.sep, scratch.arena);
                               });
        scratch.arena.settle(cand_bytes,
                             support::ScratchArena::bytes_of(cand.states));
        pn.states = cand.states.data();
        pn.num_states = static_cast<std::uint32_t>(cand.states.size());
        stats.enumerated_states += pn.num_states;
        // Wire children: the path child plus at most one side child.
        const std::span<const NodeId> kids = plan.children(pn.id);
        support::require(!kids.empty(),
                         "solve_path: path node must have the path child");
        for (NodeId kid : kids) {
          if (kid == nodes[j - 1]) continue;
          support::require(!pn.has_side,
                           "solve_path: more than one side child");
          pn.has_side = true;
          pn.side = kid;
        }
      }
      pn.base = next_vertex;
      next_vertex += pn.num_states;
    }
    const std::uint32_t num_state_vertices = next_vertex;

    // ---- Edges (flat list; pi vertices get ids past the state ids). ----
    std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges =
        scratch.edges;
    const std::size_t edges_bytes = support::ScratchArena::bytes_of(edges);
    edges.clear();
    std::vector<std::uint32_t>& translate_target = scratch.translate_target;
    scratch.arena.acquire_fill(translate_target,
                               num_state_vertices, kNoTarget);
    for (std::size_t j = 0; j + 1 < p; ++j) {
      const PathNodeMeta& lo = path[j];
      const PathNodeMeta& hi = path[j + 1];
      const BagView lo_ctx = solution.ctx(lo.id);
      const BagView hi_ctx = solution.ctx(hi.id);
      const detail::StagedStates& hi_cand = scratch.path_states[j + 1];
      // Projections of lo's states toward hi: pi vertices, numbered from
      // first_pi in first-seen order (pi id = first_pi + index in pis).
      detail::StagedStates& pis = scratch.pis;
      const std::size_t pi_bytes = support::ScratchArena::bytes_of(pis.states);
      pis.clear();
      const std::uint32_t first_pi = next_vertex;
      // hi is lo's tree parent, so the plan's table re-addresses each
      // projection instead of a binary search per mapped vertex.
      const std::int8_t* lo_to_hi = plan.to_parent(lo.id);
      for (std::uint32_t i = 0; i < lo.num_states; ++i) {
        ++work;
        const StateKey state = lo.states[i];
        const auto proj = project_to_parent(state, view_of(codec, state.code),
                                            codec, pattern, lo_ctx, lo_to_hi);
        if (!proj.has_value()) continue;
        edges.emplace_back(lo.base + i,
                           first_pi + pis.stage(proj->code, proj->sep,
                                                scratch.arena));
        ++stats.dag_edges;
        // Translation edge (base mode): the unique no-new-match extension
        // is exactly the projection read as a state of the parent bag.
        if (!sep) {
          const std::uint32_t t = hi_cand.find(*proj);
          if (t != detail::IndexSet::kAbsent) {
            translate_target[lo.base + i] = hi.base + t;
            ++stats.translation_edges;
          }
        }
      }
      next_vertex += static_cast<std::uint32_t>(pis.states.size());
      scratch.arena.settle(pi_bytes,
                           support::ScratchArena::bytes_of(pis.states));
      // Heavy edges pi -> parent candidate, gated by the side child. Edges
      // are emitted in combo enumeration order (the stable counting sort
      // below depends on it); every combo ticks one unit of work.
      const SolvedNode* side_solved =
          hi.has_side ? &solution.nodes[hi.side] : nullptr;
      const detail::ChildLink side_link{
          hi.has_side, hi.has_side ? plan.shared_with_parent(hi.side) : 0};
      const detail::ChildLink path_link{true,
                                        plan.shared_with_parent(lo.id)};
      for (std::uint32_t i = 0; i < hi.num_states; ++i) {
        detail::for_each_support_combo(
            codec, hi_ctx, hi.states[i], side_link, path_link, sep,
            [&](const StateKey* sl, const StateKey* sr) {
              ++work;
              if (side_solved != nullptr &&
                  !side_solved->sig_groups.contains(*sl))
                return false;
              const std::uint32_t pi = pis.find(*sr);
              if (pi != detail::IndexSet::kAbsent) {
                edges.emplace_back(first_pi + pi, hi.base + i);
                ++stats.dag_edges;
              }
              return false;  // enumerate every combo
            });
      }
    }
    // Translation edges also participate in the BFS directly.
    for (std::uint32_t v = 0; v < num_state_vertices; ++v) {
      if (translate_target[v] != kNoTarget)
        edges.emplace_back(v, translate_target[v]);
    }

    // ---- Shortcuts on the translation forest (Lemma 3.3). ----
    if (!sep && options.use_shortcuts && num_state_vertices > 0) {
      std::vector<std::uint32_t>& parent = scratch.forest_parent;
      scratch.arena.acquire(parent, num_state_vertices);
      parent.assign(translate_target.begin(), translate_target.end());
      treepath::Forest forest;  // kNoTarget == treepath::kNoNode
      forest.parent.swap(parent);
      const treepath::PathDecomposition fpaths =
          treepath::decompose_into_paths(forest);
      forest.parent.swap(parent);
      std::uint32_t step = 1;
      while ((1u << step) < num_state_vertices + 2) ++step;
      for (const auto& fpath : fpaths.paths) {
        // Express edge: any vertex can leave the path in one hop
        // ("shortcut to the first vertex in a lower layer").
        const std::uint32_t exit = parent[fpath.back()];
        if (exit != treepath::kNoNode) {
          for (const std::uint32_t v : fpath) {
            if (v != fpath.back()) {
              edges.emplace_back(v, exit);
              ++stats.shortcut_edges;
            }
          }
        }
        // Marked vertices every `step` positions with exponential jumps.
        std::vector<std::uint32_t>& marked = scratch.marked;
        scratch.arena.acquire(marked, (fpath.size() + step - 1) / step);
        for (std::size_t i = 0; i < fpath.size(); i += step)
          marked.push_back(fpath[i]);
        for (std::size_t i = 0; i < marked.size(); ++i) {
          for (std::size_t jump = 1; i + jump < marked.size(); jump *= 2) {
            edges.emplace_back(marked[i], marked[i + jump]);
            ++stats.shortcut_edges;
          }
        }
      }
    }
    scratch.arena.settle(edges_bytes, support::ScratchArena::bytes_of(edges));

    // ---- CSR adjacency (stable counting sort by source vertex). ----
    const std::uint32_t num_vertices = next_vertex;
    std::vector<std::uint32_t>& offsets = scratch.edge_offsets;
    scratch.arena.acquire_fill(offsets, num_vertices + 1, 0u);
    for (const auto& [from, to] : edges) ++offsets[from + 1];
    for (std::uint32_t v = 0; v < num_vertices; ++v)
      offsets[v + 1] += offsets[v];
    std::vector<std::uint32_t>& cursor = scratch.edge_cursor;
    scratch.arena.acquire(cursor, num_vertices);
    cursor.assign(offsets.begin(), offsets.end() - 1);
    std::vector<std::uint32_t>& targets = scratch.edge_targets;
    scratch.arena.acquire(targets, edges.size());
    targets.resize(edges.size());
    for (const auto& [from, to] : edges) targets[cursor[from]++] = to;

    // ---- Round-counted BFS from X_1's valid states. ----
    std::vector<char>& reachable = scratch.reachable;
    scratch.arena.acquire_fill(reachable, num_vertices, char{0});
    std::vector<std::uint32_t>& frontier = scratch.frontier;
    scratch.arena.acquire(frontier, path[0].num_states);
    for (std::uint32_t i = 0; i < path[0].num_states; ++i) {
      reachable[path[0].base + i] = 1;
      frontier.push_back(path[0].base + i);
    }
    std::vector<std::uint32_t>& next = scratch.next_frontier;
    scratch.arena.acquire(next, 0);
    const std::size_t frontier_bytes =
        support::ScratchArena::bytes_of(frontier) +
        support::ScratchArena::bytes_of(next);
    while (!frontier.empty()) {
      ++stats.bfs_rounds;
      next.clear();
      for (const std::uint32_t v : frontier) {
        for (std::uint32_t e = offsets[v]; e < offsets[v + 1]; ++e) {
          ++work;
          const std::uint32_t w = targets[e];
          if (!reachable[w]) {
            reachable[w] = 1;
            next.push_back(w);
          }
        }
      }
      frontier.swap(next);
    }
    scratch.arena.settle(frontier_bytes,
                         support::ScratchArena::bytes_of(frontier) +
                             support::ScratchArena::bytes_of(next));

    // ---- Install valid states (exact-sized storage per node). ----
    for (std::size_t j = 1; j < p; ++j) {
      const PathNodeMeta& pn = path[j];
      std::vector<StateKey>& valid = scratch.exact_states;
      const std::size_t valid_bytes = support::ScratchArena::bytes_of(valid);
      valid.clear();
      for (std::uint32_t i = 0; i < pn.num_states; ++i) {
        if (reachable[pn.base + i]) valid.push_back(pn.states[i]);
      }
      scratch.arena.settle(valid_bytes, support::ScratchArena::bytes_of(valid));
      solution.nodes[pn.id].states =
          detail::store_states(*solution.store, valid);
    }
    stats.dag_vertices = num_vertices;
  }

  // Signatures toward tree parents (used by higher layers and recovery).
  for (const NodeId x : nodes) detail::build_sig_groups(pattern, x, solution);
  solution.metrics.add_work(work);
  solution.metrics.add_allocs(scratch.arena.alloc_events() - allocs_before);
  solution.metrics.note_scratch_peak(scratch.arena.peak_bytes());
  return stats;
}

}  // namespace ppsi::iso

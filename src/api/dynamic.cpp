#include "api/dynamic.hpp"

#include <algorithm>
#include <queue>
#include <string>
#include <utility>

#include "graph/components.hpp"
#include "planar/lr_planarity.hpp"

namespace ppsi {

namespace detail {

void add_cumulative_stats(CacheStats* into, const CacheStats& sub) {
  into->cover_hits += sub.cover_hits;
  into->cover_misses += sub.cover_misses;
  into->cover_evictions += sub.cover_evictions;
  into->slices_rebuilt += sub.slices_rebuilt;
  into->slices_reused += sub.slices_reused;
  into->stale_covers_purged += sub.stale_covers_purged;
}

namespace {

Status edit_status(std::size_t index, const Edit& edit, const char* problem,
                   bool unsupported = false) {
  std::string out = "apply: edit ";
  out += std::to_string(index);
  out += " (";
  out += to_string(edit.kind);
  if (edit.kind != EditKind::kInsertVertex) {
    out += ' ';
    out += std::to_string(edit.u);
    out += '-';
    out += std::to_string(edit.v);
  }
  out += "): ";
  out += problem;
  return unsupported ? Status::Unsupported(std::move(out))
                     : Status::InvalidOptions(std::move(out));
}

/// BFS reachability over the working rotation lists (the embedding under
/// edit has no Graph yet).
bool reachable(const std::vector<std::vector<Vertex>>& rot, Vertex from,
               Vertex to) {
  std::vector<std::uint8_t> seen(rot.size(), 0);
  std::queue<Vertex> frontier;
  frontier.push(from);
  seen[from] = 1;
  while (!frontier.empty()) {
    const Vertex x = frontier.front();
    frontier.pop();
    if (x == to) return true;
    for (const Vertex y : rot[x]) {
      if (seen[y] == 0) {
        seen[y] = 1;
        frontier.push(y);
      }
    }
  }
  return false;
}

}  // namespace

VersionState::VersionState() = default;

VersionState::~VersionState() {
  if (!ledger) return;
  CacheStats sub;
  bool have_sub = false;
  if (fvg_solver) {
    sub = fvg_solver->cache_stats();
    have_sub = true;
  }
  const std::lock_guard<std::mutex> lock(ledger->mutex);
  ++ledger->reclaimed;
  if (have_sub) add_cumulative_stats(&ledger->harvested, sub);
}

Status apply_edits_embedded(const planar::EmbeddedGraph& base,
                            const EditScript& script,
                            planar::EmbeddedGraph* out) {
  using planar::HalfEdge;
  using planar::kNoHalfEdge;

  // Working rotation lists: the embedding's adjacency order IS the
  // rotation order, so edits patch plain neighbor lists.
  std::vector<std::vector<Vertex>> rot(base.graph().num_vertices());
  for (Vertex v = 0; v < base.graph().num_vertices(); ++v) {
    const auto neighbors = base.graph().neighbors(v);
    rot[v].assign(neighbors.begin(), neighbors.end());
  }

  for (std::size_t i = 0; i < script.edits.size(); ++i) {
    const Edit& edit = script.edits[i];
    const Vertex n = static_cast<Vertex>(rot.size());
    switch (edit.kind) {
      case EditKind::kInsertVertex:
        // A new isolated vertex sits inside some face; no rotation changes.
        rot.emplace_back();
        break;
      case EditKind::kRemoveEdge: {
        if (edit.u >= n || edit.v >= n)
          return edit_status(i, edit, "endpoint out of range");
        const auto u_at = std::find(rot[edit.u].begin(), rot[edit.u].end(),
                                    edit.v);
        if (u_at == rot[edit.u].end())
          return edit_status(i, edit, "edge not present");
        // Deleting an edge merges its two incident faces; the remaining
        // rotation system stays planar unconditionally.
        rot[edit.u].erase(u_at);
        rot[edit.v].erase(
            std::find(rot[edit.v].begin(), rot[edit.v].end(), edit.u));
        break;
      }
      case EditKind::kInsertEdge: {
        if (edit.u >= n || edit.v >= n)
          return edit_status(i, edit, "endpoint out of range");
        if (edit.u == edit.v) return edit_status(i, edit, "self-loop");
        if (std::find(rot[edit.u].begin(), rot[edit.u].end(), edit.v) !=
            rot[edit.u].end())
          return edit_status(i, edit, "edge already present");
        if (rot[edit.u].empty() || rot[edit.v].empty()) {
          // An isolated endpoint embeds into any face incident to the
          // other; any rotation position realizes that.
          rot[edit.u].push_back(edit.v);
          rot[edit.v].push_back(edit.u);
          break;
        }
        // Incremental placement: find a face incident to both endpoints
        // and split it. The walk is local to the faces around u; only the
        // embedding rebuild below is global (O(n + m), dwarfed by the
        // cover/decomposition work a commit saves).
        const planar::EmbeddedGraph cur =
            planar::EmbeddedGraph::from_rotations(rot);
        const std::uint32_t u_base = cur.graph().adjacency_offset(edit.u);
        const std::uint32_t u_deg = cur.graph().degree(edit.u);
        HalfEdge at_u = kNoHalfEdge;
        HalfEdge at_v = kNoHalfEdge;
        for (std::uint32_t j = 0; j < u_deg && at_u == kNoHalfEdge; ++j) {
          const HalfEdge a = u_base + j;
          // First v-sourced half-edge on the face left of a, scanning u's
          // faces in rotation order: deterministic placement.
          for (HalfEdge h = cur.face_next(a); h != a; h = cur.face_next(h)) {
            if (cur.source(h) == edit.v) {
              at_u = a;
              at_v = h;
              break;
            }
          }
        }
        if (at_u != kNoHalfEdge) {
          // Split the face: u->v goes immediately before at_u in u's
          // rotation and v->u immediately before at_v in v's; both new
          // faces then close under face_next (rotation_next of twin).
          rot[edit.u].insert(rot[edit.u].begin() + (at_u - u_base), edit.v);
          rot[edit.v].insert(
              rot[edit.v].begin() +
                  (at_v - cur.graph().adjacency_offset(edit.v)),
              edit.u);
          break;
        }
        if (!reachable(rot, edit.u, edit.v)) {
          // Distinct components never share a face orbit, but bridging
          // them is always planar (embed one component inside any face
          // incident to the other); any rotation positions realize it.
          rot[edit.u].push_back(edit.v);
          rot[edit.v].push_back(edit.u);
          break;
        }
        // Same component, no shared face: the current embedding cannot
        // host the edge. Full-check fallback decides which refusal.
        std::vector<std::vector<Vertex>> probe = rot;
        probe[edit.u].push_back(edit.v);
        probe[edit.v].push_back(edit.u);
        if (planar::is_planar(
                planar::EmbeddedGraph::from_rotations(probe).graph())) {
          return edit_status(
              i, edit,
              "endpoints share no face of the current embedding; the edge "
              "is planar but needs re-embedding from scratch, which "
              "dynamic targets do not support",
              /*unsupported=*/true);
        }
        return edit_status(i, edit, "edit makes the target non-planar");
      }
    }
  }

  planar::EmbeddedGraph patched = planar::EmbeddedGraph::from_rotations(rot);
  // Safety net over the placement rules above: Euler's certificate is
  // O(n + m) and catches any patching bug (it needs a connected graph).
  if (connected_components(patched.graph()).count == 1) {
    support::require(patched.validate_planar(),
                     "apply_edits_embedded: patched rotation system failed "
                     "planarity validation");
  }
  *out = std::move(patched);
  return Status::Ok();
}

}  // namespace detail

std::uint64_t TargetVersion::id() const {
  support::require(valid(), "TargetVersion: default-constructed handle");
  return state_->id;
}

const Graph& TargetVersion::graph() const {
  support::require(valid(), "TargetVersion: default-constructed handle");
  return state_->graph;
}

bool TargetVersion::has_embedding() const {
  support::require(valid(), "TargetVersion: default-constructed handle");
  return state_->embedding.has_value();
}

const planar::EmbeddedGraph& TargetVersion::embedding() const {
  support::require(has_embedding(),
                   "TargetVersion: no embedding on this version");
  return *state_->embedding;
}

Result<TargetVersion> MutableTarget::commit() {
  support::require(solver_ != nullptr, "MutableTarget: not bound to a Solver");
  Result<TargetVersion> committed = solver_->apply(script_);
  if (committed.ok()) {
    script_.edits.clear();
    next_vertex_ = committed->graph().num_vertices();
  }
  return committed;
}

}  // namespace ppsi

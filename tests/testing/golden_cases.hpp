#pragma once

// The DP golden fixtures: grid, Apollonian and random targets in base and
// separating mode, each with its pattern. test_golden_work pins the
// engines' figures on them; the DpPlan suite checks its plans on them.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "isomorphism/pattern.hpp"
#include "isomorphism/state_enumeration.hpp"
#include "testing/random_inputs.hpp"

namespace ppsi::testing {

/// How the separating spec of a case marks S (every vertex is allowed).
enum class Mode { kBase, kSepEvery2, kSepEvery3 };

struct Case {
  std::string name;
  Graph g;
  iso::Pattern pattern;
  Mode mode;
};

inline std::vector<Case> cases() {
  std::vector<Case> out;
  const auto from = [](const Graph& p) { return iso::Pattern::from_graph(p); };
  out.push_back({"grid6x6/C4", gen::grid_graph(6, 6),
                 from(gen::cycle_graph(4)), Mode::kBase});
  out.push_back({"grid6x6/C5", gen::grid_graph(6, 6),
                 from(gen::cycle_graph(5)), Mode::kBase});
  out.push_back({"grid5x5/P3/sep", gen::grid_graph(5, 5),
                 from(gen::path_graph(3)), Mode::kSepEvery3});
  out.push_back({"grid4x5/C4/sep", gen::grid_graph(4, 5),
                 from(gen::cycle_graph(4)), Mode::kSepEvery2});
  out.push_back({"apollonian30/C4", gen::apollonian(30, 7).graph(),
                 from(gen::cycle_graph(4)), Mode::kBase});
  out.push_back({"apollonian30/K4", gen::apollonian(30, 7).graph(),
                 from(gen::complete_graph(4)), Mode::kBase});
  out.push_back({"apollonian20/C3/sep", gen::apollonian(20, 3).graph(),
                 from(gen::cycle_graph(3)), Mode::kSepEvery2});
  for (const std::uint64_t seed : {3u, 11u, 29u, 42u}) {
    out.push_back({"random" + std::to_string(seed),
                   random_target(seed),
                   random_pattern(seed), Mode::kBase});
  }
  for (const std::uint64_t seed : {5u, 17u}) {
    out.push_back({"random" + std::to_string(seed) + "/sep",
                   random_target(seed),
                   random_pattern(seed, 2, 3), Mode::kSepEvery3});
  }
  return out;
}

inline iso::SeparatingSpec spec_for(const Case& c) {
  if (c.mode == Mode::kBase) return iso::SeparatingSpec::disabled();
  const Vertex stride = c.mode == Mode::kSepEvery2 ? 2 : 3;
  iso::SeparatingSpec spec;
  spec.enabled = true;
  spec.in_s.assign(c.g.num_vertices(), 0);
  for (Vertex v = 0; v < c.g.num_vertices(); v += stride) spec.in_s[v] = 1;
  spec.allowed.assign(c.g.num_vertices(), 1);
  return spec;
}

}  // namespace ppsi::testing

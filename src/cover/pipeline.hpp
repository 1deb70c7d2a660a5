#pragma once

// Shared vocabulary of the paper's pipeline (§2, §4, §5.2): the engine kind
// and the Decision/Listing/Count result structs.
// ppsi::Solver (api/solver.hpp) is the only query surface; its
// QueryOptions carries the per-query knobs and validate(QueryOptions)
// keeps their bounds in one place.

#include <cstdint>
#include <optional>
#include <vector>

#include "cover/kd_cover.hpp"
#include "graph/graph.hpp"
#include "isomorphism/parallel_engine.hpp"
#include "isomorphism/pattern.hpp"
#include "support/metrics.hpp"

namespace ppsi::cover {

enum class EngineKind {
  kSparse,      ///< output-sensitive bottom-up DP (default; fastest)
  kParallel,    ///< §3.3 path/shortcut engine (paper-faithful rounds)
  kSequential,  ///< §3.2 bottom-up DP over the full local state space
};

struct DecisionResult {
  bool found = false;
  std::optional<iso::Assignment> witness;  ///< original-graph images
  std::uint32_t runs = 0;                  ///< cover runs executed
  support::Metrics metrics;
  std::size_t slices_solved = 0;
};

struct ListingResult {
  std::vector<iso::Assignment> occurrences;  ///< distinct assignments
  std::uint32_t iterations = 0;
  support::Metrics metrics;
};

struct CountResult {
  std::size_t assignments = 0;  ///< injective pattern -> target maps
  std::size_t subgraphs = 0;    ///< distinct edge images
  std::uint32_t iterations = 0;
  support::Metrics metrics;  ///< instrumented work of the underlying listing
};

}  // namespace ppsi::cover

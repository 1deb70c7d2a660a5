// Heap allocations of warm queries.
//
// A warm query re-solves cached slices, and every solve over a slice
// reads the slice's cached DpPlan. The plan holds everything that does not
// depend on the pattern, and each solve carves its node storage from a
// few NodeStore chunks. So a warm query's heap allocations must scale
// with the slices it solves, not with their decomposition nodes. This
// binary replaces the global operator new to count them; it is its own
// test binary so the replacement touches no other suite.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "api/solver.hpp"
#include "graph/generators.hpp"
#include "isomorphism/dp_plan.hpp"
#include "isomorphism/pattern.hpp"
#include "isomorphism/sparse_dp.hpp"
#include "treedecomp/greedy_decomposition.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ppsi {
namespace {

struct WarmQuery {
  std::uint64_t allocations = 0;
  std::size_t slices = 0;
};

/// One warm `find` of `pattern` on `solver` (primed by an identical query).
WarmQuery warm_find(Solver& solver, const iso::Pattern& pattern) {
  QueryOptions options;
  options.seed = 7;
  options.engine = cover::EngineKind::kSparse;
  const auto prime = solver.find(pattern, options);
  EXPECT_TRUE(prime.ok());
  WarmQuery out;
  const std::uint64_t before = g_allocations.load();
  const auto result = solver.find(pattern, options);
  out.allocations = g_allocations.load() - before;
  EXPECT_TRUE(result.ok());
  out.slices = result.value().slices_solved;
  return out;
}

// Absent patterns on a grid run every cover and solve every slice; the
// query then allocates a bounded number of blocks per solved slice (task,
// node array, NodeStore and its chunks, the odd large node array, the
// scheduler's bookkeeping) and a bounded number per cover run, where
// per-node storage took two or more per decomposition node.
TEST(WarmAllocations, SparseFindAllocatesPerSliceNotPerNode) {
  Solver solver(gen::grid_graph(14, 14));
  const struct {
    const char* name;
    Graph pattern;
  } cases[] = {
      {"K3", gen::complete_graph(3)},
      {"K4", gen::complete_graph(4)},
      {"C5", gen::cycle_graph(5)},
  };
  for (const auto& c : cases) {
    const WarmQuery q = warm_find(solver, iso::Pattern::from_graph(c.pattern));
    ASSERT_GT(q.slices, 0u) << c.name;
    const double per_slice =
        static_cast<double>(q.allocations) / static_cast<double>(q.slices);
    EXPECT_LE(per_slice, 16.0)
        << c.name << ": " << q.allocations << " allocations for " << q.slices
        << " slices";
  }
}

/// Node arrays of `sol` that get a heap block of their own (NodeStore).
std::uint64_t large_arrays(const iso::DpSolution& sol) {
  std::uint64_t large = 0;
  for (const iso::SolvedNode& node : sol.nodes) {
    large += node.states.size_bytes() >= iso::NodeStore::kLargeBlock;
    std::size_t indices = 0;
    for (std::size_t i = 0; i < node.sig_groups.size(); ++i)
      indices += node.sig_groups.group_at(i).size();
    const std::size_t sig_bytes =
        node.sig_groups.size() * sizeof(iso::StateKey) +
        (node.sig_groups.size() + 1 + indices) * sizeof(std::uint32_t);
    constexpr std::size_t kAlign = iso::NodeStore::kAlign;
    large += !node.sig_groups.empty() &&
             ((sig_bytes + kAlign - 1) & ~(kAlign - 1)) >=
                 iso::NodeStore::kLargeBlock;
  }
  return large;
}

// One solve over a cached plan: after a first solve has grown the
// thread's scratch, a repeat allocates a handful of blocks (node array,
// NodeStore and its chunks) plus one per large node array, however many
// small nodes the plan has.
TEST(WarmAllocations, RepeatedSparseSolveAllocatesPerSolveNotPerNode) {
  const Graph g = gen::grid_graph(12, 12);
  const auto plan = std::make_shared<const iso::DpPlan>(
      g, treedecomp::binarize(treedecomp::greedy_decomposition(g)),
      iso::SeparatingSpec::disabled());
  for (const Graph& p : {gen::complete_graph(3), gen::cycle_graph(5)}) {
    const iso::Pattern pattern = iso::Pattern::from_graph(p);
    (void)iso::solve_sparse(plan, pattern, {});
    const std::uint64_t before = g_allocations.load();
    const iso::DpSolution sol = iso::solve_sparse(plan, pattern, {});
    const std::uint64_t allocations = g_allocations.load() - before;
    const std::uint64_t large = large_arrays(sol);
    EXPECT_LE(allocations, large + 12)
        << "k=" << pattern.size() << ": " << large << " large arrays over "
        << plan->num_nodes() << " nodes";
  }
}

}  // namespace
}  // namespace ppsi

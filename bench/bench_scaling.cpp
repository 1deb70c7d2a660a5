// Thread scaling of the task-parallel runtime.
//
// Run with a thread sweep (scripts/bench_smoke.sh passes 1,2,4,8) so the
// JSON carries one record per (case, thread count); the per-thread-count
// wall medians are the scaling curve. Each trial additionally re-times its
// query pinned to one thread and emits
//   speedup_vs_1t     — 1-thread seconds / sweep-thread seconds
//                       (self-relative, robust to runner speed).
//
// Cases:
//   decision/<family>/<pat>  — Solver::find, parallel engine (slice tasks
//                              nesting path tasks on the shared pool)
//   listing/<family>/<pat>   — Solver::list (stopping rule, many covers)

#include <omp.h>

#include <algorithm>
#include <string>

#include "api/solver.hpp"
#include "graph/generators.hpp"
#include "harness/corpus.hpp"
#include "harness/harness.hpp"
#include "support/timer.hpp"

using namespace ppsi;
using bench::Corpus;
using bench::Registry;
using bench::Trial;

namespace {

QueryOptions scaling_options(std::uint64_t seed) {
  QueryOptions opts;
  opts.engine = cover::EngineKind::kParallel;
  opts.max_runs = 4;
  opts.seed = seed;
  return opts;
}

/// Runs `query` (seed -> Metrics) once pinned to 1 thread (untimed
/// reference), then as the measured region at the sweep's thread count
/// (only that invocation's metrics are recorded), and emits the
/// self-relative speedup.
template <typename Query>
void sweep_and_compare(Trial& trial, Query&& query) {
  const int sweep_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  double one_thread_sec = 0;
  {
    support::ScopedTimer timed(one_thread_sec);
    query(trial.seed());
  }
  omp_set_num_threads(sweep_threads);
  double sweep_sec = 0;
  trial.measure([&] {
    support::ScopedTimer timed(sweep_sec);
    trial.record(query(trial.seed()));
  });
  trial.counter("speedup_vs_1t",
                one_thread_sec / std::max(sweep_sec, 1e-12));
}

void add_decision(Registry& reg, const std::string& name, const Graph& g,
                  const iso::Pattern& pattern) {
  reg.add("decision/" + name, [g, pattern](Trial& trial) {
    sweep_and_compare(trial, [&](std::uint64_t seed) {
      // Fresh Solver per run: the cold pipeline is where the slice/path
      // fan-out lives (bench_solver_reuse covers the warm path).
      Solver solver(g);
      return solver.find(pattern, scaling_options(seed))->metrics;
    });
  });
}

void add_listing(Registry& reg, const std::string& name, const Graph& g,
                 const iso::Pattern& pattern) {
  reg.add("listing/" + name, [g, pattern](Trial& trial) {
    sweep_and_compare(trial, [&](std::uint64_t seed) {
      Solver solver(g);
      return solver.list(pattern, scaling_options(seed))->metrics;
    });
  });
}

void register_benchmarks(Registry& reg, const Corpus& corpus) {
  const iso::Pattern c4 = iso::Pattern::from_graph(gen::cycle_graph(4));
  const iso::Pattern c6 = iso::Pattern::from_graph(gen::cycle_graph(6));

  const Graph grid = corpus.grid(60, 60);
  add_decision(reg, "grid/C4", grid, c4);
  add_decision(reg, "grid/C6", grid, c6);
  const Graph apo = corpus.apollonian(2000, 3).graph();
  add_decision(reg, "apollonian/C4", apo, c4);

  add_listing(reg, "grid/C4", corpus.grid(30, 30), c4);
}

}  // namespace

int main(int argc, char** argv) {
  return ppsi::bench::run_main(argc, argv, "scaling", register_benchmarks);
}

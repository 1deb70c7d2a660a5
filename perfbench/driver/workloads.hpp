#pragma once

// The benchmark workloads: closed loops (one client that waits for each
// answer) run by the pass harness in main.cpp.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "replay.hpp"

namespace perfbench {

/// Workload parameters fixed in BENCHMARK.json (the parenthesised
/// `key=value` group that ends the workload's `why`), handed over as
/// --param key=value.
class Params {
 public:
  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  /// Throws std::invalid_argument when the parameter is missing.
  double number(const std::string& key) const;
  /// Throws std::invalid_argument when a parameter was given that the
  /// workload never read, so a stray key cannot pass unnoticed.
  void check_all_read() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

/// One named metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< printed before the result line
  /// Summed metrics.work() of each pass, in run order (the traced pass
  /// last): identical across runs at one seed and length.
  std::vector<std::uint64_t> pass_work;
  std::uint64_t pass_len = 0;  ///< queries per pass

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

struct Outcome {
  double latency_ms = 0;  ///< call to return, library calls only
  bool ok = false;        ///< returned ok with the expected answer
  std::uint64_t work = 0; ///< the query's metrics.work()
};

struct TracedOutcome {
  Outcome out;
  ReplayStats replay;
  bool replay_faithful = false;  ///< replayed work == metrics.work()
  std::uint64_t cover_hits = 0;  ///< CacheStats deltas of the query
  std::uint64_t cover_misses = 0;
};

struct SetupCost {
  double seconds = 0;
  std::uint64_t work = 0;
};

class ClosedLoop {
 public:
  virtual ~ClosedLoop() = default;
  /// Queries in one pass; every pass runs the same queries in order.
  virtual std::size_t pass_len() const = 0;
  /// Roughly how long one pass takes on the reference host; a run of S
  /// seconds makes round(S / nominal_pass_s()) passes.
  virtual double nominal_pass_s() const = 0;
  /// (Re)builds the library state the queries run against; returns the
  /// seconds spent inside library calls and their summed metrics.work().
  virtual SetupCost setup() = 0;
  /// Every pass runs the same queries with the same seeds, so the work of
  /// each query must repeat from pass to pass.
  virtual bool passes_repeat() const { return false; }
  /// Untimed, before pass `pass`: a workload whose inputs differ from pass
  /// to pass (new targets, new run seeds) derives them here from the
  /// workload seed and the pass index.
  virtual void begin_pass(std::size_t /*pass*/) {}
  virtual Outcome run(std::size_t i) = 0;
  /// Runs query i under a query span, then replays it layer by layer.
  virtual TracedOutcome run_traced(std::size_t i, Tracer& tracer,
                                   Replayer& replayer) = 0;
  /// Fills the replay cache with what set-up put in the Solver caches.
  virtual void prime_replay(Replayer&) {}
};

std::unique_ptr<ClosedLoop> make_warm_screen(std::uint64_t seed,
                                             const Params& params);
std::unique_ptr<ClosedLoop> make_cold_find(std::uint64_t seed,
                                           const Params& params);
std::unique_ptr<ClosedLoop> make_connectivity(std::uint64_t seed,
                                              const Params& params);

/// Per-layer figures that do not come from the replay itself.
struct LayerExtras {
  double self_ms = 0;  ///< median of (query span - replayed layer spans)
  double cover_hit_frac = 0;
  double speedup = 0;  ///< serial replay time / untraced wall time
  double steal = 0;
  double overhead = 0;  ///< traced query spans / untraced latencies - 1
};

/// Adds every per-layer metric; `total` sums the replays of `queries`
/// queries, and busy times and counts are reported per query.
void add_layer_metrics(Report& report, const ReplayStats& total,
                       double queries, const LayerExtras& extras);

/// Helpers shared by the workload drivers.
double peak_rss_mb();
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes read_cpu_times();
double steal_share(const CpuTimes& from, const CpuTimes& to);
/// Steal share above which a pass counts as disturbed by neighbours.
inline constexpr double kDisturbedSteal = 0.05;

}  // namespace perfbench

#pragma once

// Unified benchmark harness: registry + warmup/repeated-trial timing +
// OMP thread sweeps + uniform CLI + versioned JSON emission.
//
// Every bench binary registers named cases and delegates main() to
// run_main(). The shared CLI:
//
//   --filter GLOB    run cases whose name matches (substring, or */? glob)
//   --list           print matching case names and exit
//   --repeats N      override every case's trial count
//   --warmup N       override every case's warmup count
//   --threads A,B,C  OMP thread sweep (default: current omp_get_max_threads)
//   --scale S        instance-size scale factor given to the Corpus
//                    (CI smoke runs use S << 1)
//   --json PATH      also write a ppsi-bench-v1 JSON document to PATH
//   --help           usage. Unknown or malformed flags exit with status 2.
//
// A case runs `warmup` untimed trials followed by `repeats` timed trials
// per thread count; each trial gets a distinct derived seed. Reported
// seconds are, by default, the wall time of the whole case function; a case
// that wants to exclude setup/verification calls Trial::measure() around
// the hot region (measured regions accumulate). Per-trial work/rounds come
// from Trial::record(metrics); scalar side measurements (bound columns,
// probabilities) are Trial::counter() values, averaged across trials.
//
// JSON schema (ppsi-bench-v1), consumed by scripts/bench_compare.py and
// documented in the README "Benchmarking" section:
//
//   { "schema": "ppsi-bench-v1", "schema_version": 1, "suite": str,
//     "git_sha": str, "compiler": str, "build_type": str, "scale": num,
//     "generated_at": str (ISO-8601 UTC), "omp_max_threads": int,
//     "benchmarks": [ { "suite": str, "name": str, "threads": int,
//         "repeats": int, "warmup": int,
//         "seconds": {"median","min","max","mean","stddev","trials":[...]},
//         "work":    {"median","min","max","mean","stddev"},   (optional)
//         "rounds":  {"median","min","max","mean","stddev"},   (optional)
//         "allocs":  {"median","min","max","mean","stddev"},   (optional)
//         "scratch_peak": {same stats, bytes},                 (optional)
//         "counters": { name: mean-across-trials, ... } } ] }
//
// `allocs` counts scratch-arena allocation events of the measured region
// (support/arena.hpp); `scratch_peak` is the per-thread scratch high-water
// mark in bytes. Both come from Trial::record(metrics) like work/rounds,
// making the engine's steady-state-allocation behavior visible in
// BENCH_smoke.json, not just through wall clock.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "support/metrics.hpp"
#include "support/stats.hpp"

#include "harness/json.hpp"

namespace ppsi::bench {

struct Corpus;  // harness/corpus.hpp

inline constexpr const char* kSchemaName = "ppsi-bench-v1";
inline constexpr int kSchemaVersion = 1;

/// Per-case defaults; the CLI --repeats/--warmup override them globally.
struct CaseOptions {
  int repeats = 5;
  int warmup = 1;
  std::uint64_t seed = 1;  // base seed; trial r runs with a seed derived
                           // from (seed, r), so Monte Carlo cases sample
                           // independent runs across trials
};

/// Handle given to a benchmark function, once per trial.
class Trial {
 public:
  Trial(int repetition, std::uint64_t seed)
      : repetition_(repetition), seed_(seed) {}

  /// 0-based timed-trial index; warmup trials are negative.
  int repetition() const { return repetition_; }
  bool is_warmup() const { return repetition_ < 0; }
  /// Deterministic per-trial seed (distinct across repetitions).
  std::uint64_t seed() const { return seed_; }

  /// Times `body`; multiple measured regions accumulate. When never called,
  /// the harness falls back to the wall time of the whole case function.
  void measure(const std::function<void()>& body);

  /// Records instrumented work/rounds for this trial (adds across calls;
  /// allocation events add, scratch peaks max-merge).
  void record(const support::Metrics& m) {
    work_ += m.work();
    rounds_ += m.rounds();
    allocs_ += m.allocs();
    scratch_peak_ = std::max(scratch_peak_, m.scratch_peak_bytes());
  }
  void add_work(std::uint64_t w) { work_ += w; }
  void add_rounds(std::uint64_t r) { rounds_ += r; }

  /// Records a named scalar side measurement; the harness reports the mean
  /// across trials. Calling the same name twice in one trial overwrites.
  void counter(const std::string& name, double value);

  // Harness-side accessors.
  bool used_measure() const { return used_measure_; }
  double measured_seconds() const { return measured_seconds_; }
  std::uint64_t work() const { return work_; }
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t allocs() const { return allocs_; }
  std::uint64_t scratch_peak() const { return scratch_peak_; }
  const std::vector<std::pair<std::string, double>>& counters() const {
    return counters_;
  }

 private:
  int repetition_;
  std::uint64_t seed_;
  bool used_measure_ = false;
  double measured_seconds_ = 0;
  std::uint64_t work_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t allocs_ = 0;
  std::uint64_t scratch_peak_ = 0;
  std::vector<std::pair<std::string, double>> counters_;
};

using BenchFn = std::function<void(Trial&)>;

struct Case {
  std::string name;
  BenchFn fn;
  CaseOptions options;
};

class Registry {
 public:
  void add(std::string name, BenchFn fn, CaseOptions options = {});
  const std::vector<Case>& cases() const { return cases_; }

 private:
  std::vector<Case> cases_;
};

/// One (case, thread-count) measurement: what a JSON benchmark record holds.
struct BenchRecord {
  std::string suite;
  std::string name;
  int threads = 1;
  int repeats = 0;
  int warmup = 0;
  std::vector<double> trial_seconds;
  support::SampleStats seconds;
  support::SampleStats work;
  support::SampleStats rounds;
  support::SampleStats allocs;
  support::SampleStats scratch_peak;
  bool has_metrics = false;  // any trial recorded work/rounds
  std::vector<std::pair<std::string, double>> counters;  // means, ordered
};

struct HarnessOptions {
  std::string filter;
  int repeats = -1;  // -1: keep per-case defaults
  int warmup = -1;
  std::vector<int> threads;  // empty: current omp_get_max_threads()
  double scale = 1.0;
  std::string json_path;
  bool list_only = false;
  bool help = false;
};

/// Filter semantics: empty matches everything; a pattern containing * or ?
/// is a glob over the full name; anything else matches as a substring.
bool matches_filter(const std::string& filter, const std::string& name);

/// Parses the shared CLI. Returns false on unknown/malformed flags and
/// fills *error (callers print usage and exit 2).
bool parse_args(int argc, const char* const* argv, HarnessOptions* options,
                std::string* error);

std::string usage(const std::string& suite);

/// Runs every matching case across the requested thread counts.
std::vector<BenchRecord> run_benchmarks(const Registry& registry,
                                        const HarnessOptions& options,
                                        const std::string& suite);

/// Builds the ppsi-bench-v1 document for `records`.
Json records_to_json(const std::string& suite, const HarnessOptions& options,
                     const std::vector<BenchRecord>& records);

/// Human-readable table render of the same records (stdout).
void print_table(const std::vector<BenchRecord>& records);

using RegisterFn = void (*)(Registry&, const Corpus&);

/// Shared main(): parse CLI, build the Corpus, register, run, print the
/// table, optionally emit JSON. Returns the process exit status.
/// Registration runs before --filter/--list are applied, so cases that
/// construct instances eagerly pay that cost even when filtered out — a
/// deliberate simplicity tradeoff (measured at well under a second per
/// binary); cases with genuinely expensive setup should build lazily on
/// first trial (see the shared_ptr caches in bench_listing/bench_shortcuts).
int run_main(int argc, const char* const* argv, const std::string& suite,
             RegisterFn register_benchmarks);

}  // namespace ppsi::bench

// perfbench_driver — runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--param key=value]... [--spans PATH]
//   perfbench_driver --self-test
//
// The last stdout line is one JSON object: correct / attempted / failed /
// pass_len / pass_work / metrics. perfbench/run.py builds this program,
// passes the workload's parameters from BENCHMARK.json, checks `pass_work`
// across runs and re-emits the line in the benchmark's result format.

#include <omp.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Pass {
  std::vector<double> latency_ms;
  std::vector<std::uint64_t> work;
  std::size_t failed = 0;
  double wall_s = 0;
  double steal = 0;
};

Pass run_pass(ClosedLoop& workload, std::size_t index) {
  workload.begin_pass(index);
  Pass pass;
  const CpuTimes cpu0 = read_cpu_times();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < workload.pass_len(); ++i) {
    const Outcome out = workload.run(i);
    pass.latency_ms.push_back(out.latency_ms);
    pass.work.push_back(out.work);
    if (!out.ok) ++pass.failed;
  }
  pass.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  pass.steal = steal_share(cpu0, read_cpu_times());
  return pass;
}

std::uint64_t sum(const std::vector<std::uint64_t>& values) {
  std::uint64_t total = 0;
  for (const auto v : values) total += v;
  return total;
}

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 5;

/// The closed-loop harness: set-up, then whole passes of the workload's
/// query list. The pass count follows from `seconds` and the workload's
/// nominal pass time, so every run at one seed and length executes the
/// same queries and the same summed work. With `trace`, half the passes
/// run untraced, then pass 0 runs again traced, replaying every query
/// through the layer functions.
void run_closed(ClosedLoop& workload, double seconds, bool trace,
                const std::string& spans_path, Report& report) {
  std::vector<double> setups;
  std::vector<std::uint64_t> setup_work;
  for (int i = 0; i < (trace ? 1 : kSetupReps); ++i) {
    const SetupCost cost = workload.setup();
    setups.push_back(cost.seconds);
    setup_work.push_back(cost.work);
  }

  const double budget = trace ? seconds / 2 : seconds;
  const auto num_passes = static_cast<std::size_t>(
      std::max(1.0, std::round(budget / workload.nominal_pass_s())));
  // Host noise: a pass during which neighbours stole more than
  // kDisturbedSteal of the CPU is run again (its inputs are a function of
  // the pass index), up to kMaxReruns times a run, so disturbed passes are
  // flagged and replaced rather than averaged in, and the sample count
  // stays fixed.
  constexpr int kMaxReruns = 2;
  int reruns = 0;
  std::vector<Pass> passes;
  for (std::size_t p = 0; p < num_passes; ++p) {
    Pass pass = run_pass(workload, p);
    while (pass.steal > kDisturbedSteal && reruns < kMaxReruns) {
      ++reruns;
      report.note("host: pass " + std::to_string(p) +
                  " DISTURBED (steal share " + std::to_string(pass.steal) +
                  "), run again");
      pass = run_pass(workload, p);
    }
    passes.push_back(std::move(pass));
  }
  // Summed work per pass: run.py checks that it repeats across runs at one
  // seed.
  report.pass_len = workload.pass_len();
  for (const Pass& pass : passes) {
    report.pass_work.push_back(sum(pass.work));
    report.attempted += pass.latency_ms.size();
    report.failed += pass.failed;
  }
  // Determinism within the run: every set-up repeats the first one's work,
  // and where passes repeat, every query repeats its work of pass 0. A
  // set-up that differs puts every query in doubt.
  std::size_t drifted = 0;
  if (workload.passes_repeat()) {
    for (const Pass& pass : passes) {
      for (std::size_t i = 0; i < pass.work.size(); ++i)
        drifted += pass.work[i] != passes.front().work[i] ? 1 : 0;
    }
  }
  for (const std::uint64_t w : setup_work) {
    if (w != setup_work.front()) drifted = report.attempted;
  }
  if (drifted > 0) {
    report.note("determinism: " + std::to_string(drifted) +
                " queries did not repeat the work of their first run or "
                "set-up");
    report.failed = std::min<std::uint64_t>(report.attempted,
                                            report.failed + drifted);
  }

  std::vector<double> latencies;
  double wall = 0;
  double steal = 0;
  std::size_t disturbed = 0;
  for (const Pass& pass : passes) {
    latencies.insert(latencies.end(), pass.latency_ms.begin(),
                     pass.latency_ms.end());
    wall += pass.wall_s;
    steal += pass.steal * pass.wall_s;
    disturbed += pass.steal > kDisturbedSteal ? 1 : 0;
  }
  steal /= wall;
  if (disturbed > 0)
    report.note("host: DISTURBED run, " + std::to_string(disturbed) +
                " passes kept with steal share > " +
                std::to_string(kDisturbedSteal));
  const auto tail = tail_percentile(latencies);
  report.note(std::to_string(passes.size()) + " passes of " +
              std::to_string(workload.pass_len()) + " queries, " +
              std::to_string(latencies.size()) + " latencies; steal share " +
              std::to_string(steal));
  if (tail)
    report.note("query_tail_ms is p" + std::to_string(tail->percentile) +
                " (" + std::to_string(tail->beyond) + " samples beyond)");
  report.correct = report.failed == 0;

  if (!trace) {
    if (!tail) throw std::runtime_error("too few samples for a tail percentile");
    report.add("setup_s", median(setups), "s");
    report.add("query_p50_ms", median(latencies), "ms");
    report.add("query_tail_ms", tail->value, "ms");
    report.add("queries_per_s", static_cast<double>(latencies.size()) / wall,
               "1/s");
    report.add("ok_frac",
               static_cast<double>(report.attempted - report.failed) /
                   static_cast<double>(report.attempted),
               "frac");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // ---- The traced pass ----
  Tracer tracer;
  Replayer replayer(tracer);
  workload.prime_replay(replayer);
  ReplayStats total;
  LayerExtras extras;
  std::vector<double> self_ms;
  double call_sum = 0;
  double untraced_sum = 0;
  workload.begin_pass(0);
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t unfaithful = 0;
  std::uint64_t traced_work = 0;
  const CpuTimes cpu0 = read_cpu_times();
  for (std::size_t i = 0; i < workload.pass_len(); ++i) {
    tracer.begin_query(static_cast<std::uint32_t>(i));
    const TracedOutcome t = workload.run_traced(i, tracer, replayer);
    ++report.attempted;
    if (!t.out.ok) ++report.failed;
    traced_work += t.out.work;
    if (!t.replay_faithful || t.out.work != passes.front().work[i]) ++unfaithful;
    total.add(t.replay);
    self_ms.push_back(t.out.latency_ms - t.replay.total_layer_ms());
    call_sum += t.out.latency_ms;
    untraced_sum += passes.front().latency_ms[i];
    hits += t.cover_hits;
    misses += t.cover_misses;
  }
  report.pass_work.push_back(traced_work);
  if (unfaithful > 0) {
    report.failed += unfaithful;
    report.note("trace: " + std::to_string(unfaithful) +
                " traced queries or replays did not reproduce the untraced "
                "query's metrics.work()");
  }
  report.correct = report.failed == 0;
  extras.self_ms = median(self_ms);
  extras.cover_hit_frac =
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                        : 0.0;
  extras.speedup = total.total_layer_ms() / untraced_sum;
  extras.steal = steal_share(cpu0, read_cpu_times());
  extras.overhead = call_sum / untraced_sum - 1.0;
  add_layer_metrics(report, total, static_cast<double>(workload.pass_len()),
                    extras);
  if (!spans_path.empty() && !tracer.write_jsonl(spans_path))
    report.note("trace: could not write spans to " + spans_path);
}

void print_report(const Report& report) {
  for (const std::string& line : report.notes) std::printf("# %s\n", line.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"pass_len\": %llu, \"pass_work\": [",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.pass_len));
  for (std::size_t i = 0; i < report.pass_work.size(); ++i) {
    std::printf("%s%llu", i == 0 ? "" : ", ",
                static_cast<unsigned long long>(report.pass_work[i]));
  }
  std::printf("], \"metrics\": {");
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
}

// ---- Self-tests of the benchmark's own statistics ----

int self_test() {
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  const auto ramp = [](std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
    return v;  // n, n-1, ..., 1 (unsorted on purpose)
  };

  // Percentile rule: the highest grid percentile with >= 10 samples beyond.
  check(!tail_percentile(ramp(19)).has_value(), "19 samples: no tail at all");
  const auto t20 = tail_percentile(ramp(20));
  check(t20 && t20->percentile == 50 && t20->value == 10 && t20->beyond == 10,
        "20 samples: p50 = 10 with 10 beyond");
  const auto t100 = tail_percentile(ramp(100));
  check(t100 && t100->percentile == 90 && t100->value == 90 && t100->beyond == 10,
        "100 samples: p90 = 90 with 10 beyond");
  const auto t999 = tail_percentile(ramp(999));
  check(t999 && t999->percentile == 98 && t999->beyond >= 10,
        "999 samples: p98 (p99 would leave 9 beyond)");
  const auto t1000 = tail_percentile(ramp(1000));
  check(t1000 && t1000->percentile == 99 && t1000->value == 990,
        "1000 samples: p99 = 990");
  const auto t1m = tail_percentile(ramp(20000));
  check(t1m && t1m->percentile == 99.9 && t1m->beyond == 20,
        "20000 samples: capped at p99.9");
  check(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median");

  // Inputs and per-query seeds: one workload seed, one stream.
  const auto stream = [](std::uint64_t seed) {
    SeedRng rng(seed);
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 64; ++i) out.push_back(rng.next());
    return out;
  };
  check(stream(42) == stream(42), "seed stream: one seed gives one stream");
  check(stream(42) != stream(43), "seed stream: another seed, another stream");

  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 [--param key=value]... [--spans PATH]\n"
               "       perfbench_driver --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string spans;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  Params params;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::stoull(value);
    } else if (arg == "--seconds") {
      seconds = std::stod(value);
    } else if (arg == "--trace") {
      trace = value == "1";
    } else if (arg == "--spans") {
      spans = value;
    } else if (arg == "--param") {
      const auto eq = value.find('=');
      if (eq == std::string::npos) return usage();
      params.set(value.substr(0, eq), value.substr(eq + 1));
    } else {
      return usage();
    }
  }
  if (workload.empty() || seconds <= 0) return usage();
  try {
    Report report;
    report.note("workload " + workload + ", seed " + std::to_string(seed) +
                ", OMP threads " + std::to_string(omp_get_max_threads()) +
                (trace ? ", traced" : ""));
    std::unique_ptr<ClosedLoop> loop;
    if (workload == "warm-screen") loop = make_warm_screen(seed, params);
    if (workload == "cold-find") loop = make_cold_find(seed, params);
    if (workload == "connectivity") loop = make_connectivity(seed, params);
    if (!loop) {
      std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
      return 2;
    }
    params.check_all_read();
    run_closed(*loop, seconds, trace, spans, report);
    print_report(report);
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 3;
  }
}

#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The script builds perfbench_driver (the
library plus perfbench/driver/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the workload in its own process with the
parameters fixed in BENCHMARK.json: the parenthesised group of
`key=value` tokens that ends the workload's `why` (threads= sets
OMP_NUM_THREADS, the rest go to the driver, which rejects keys the
workload does not read). The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). A wrong answer, a replay that does not
reproduce a query's work, or a pass whose summed work differs from an
earlier run at the same seed counts as failed queries, lowers ok_frac and
makes the exit code non-zero. See perfbench/METRICS.md.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_driver", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(step))
            return None
    return os.path.join(out, "perfbench_driver")


def workload_params(why):
    """The `(key=value ...)` group that ends a workload's `why`."""
    group = re.search(r"\(([^()]*)\)\s*$", why)
    if not group:
        raise ValueError("workload why lacks a trailing (key=value ...) group")
    params = {}
    for token in group.group(1).split():
        match = re.fullmatch(r"([a-z_]+)=([0-9.]+)", token)
        if not match:
            raise ValueError("bad workload parameter %r" % token)
        params[match.group(1)] = match.group(2)
    return params


def git_commit():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except OSError:
        pass
    return "none"


def source_fingerprint():
    """A hash of the library and benchmark sources and of BENCHMARK.json (a
    checkout may not be a git repository, and a working tree may differ
    from its commit)."""
    digest = hashlib.sha256()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "rb") as f:
        digest.update(f.read())
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def load_average():
    try:
        return os.getloadavg()[0]
    except OSError:
        return -1.0


def check_work_ledger(key, pass_work):
    """Each pass's summed instrumented work must repeat across runs at one
    seed. Returns the indices of the passes that differ from an earlier
    run's (every pass when the pass count differs)."""
    path = os.path.join(build_dir(), "work_ledger.json")
    ledger = {}
    if os.path.exists(path):
        with open(path) as f:
            ledger = json.load(f)
    earlier = ledger.get(key)
    if earlier is None:
        ledger[key] = pass_work
        with open(path, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
        return []
    if len(earlier) != len(pass_work):
        return list(range(len(pass_work)))
    return [i for i, (a, b) in enumerate(zip(earlier, pass_work)) if a != b]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    driver = build()
    if driver is None:
        return 2
    if args.self_test:
        return subprocess.run([driver, "--self-test"]).returncode

    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in workloads:
        log("perfbench: unknown workload %r (have %s)" % (args.workload,
                                                           ", ".join(workloads)))
        return 2
    try:
        params = workload_params(workloads[args.workload])
    except ValueError as e:
        log("perfbench: %s: %s" % (args.workload, e))
        return 2
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = params.pop("threads", "1")
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    for key, value in sorted(params.items()):
        command += ["--param", "%s=%s" % (key, value)]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(
            spans, "%s-%d.jsonl" % (args.workload, args.seed))]

    load_before = load_average()
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (args.workload,
                                                          DRIVER_TIMEOUT_S))
        return 3
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        log("perfbench: driver exited with code %d" % done.returncode)
        return 3
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    # Host-noise attestation, recorded with every run.
    sources = source_fingerprint()
    cores = os.cpu_count() or 1
    load_after = load_average()
    print("# host: cpu %r, %d cores, OMP_NUM_THREADS %s, load average %.2f -> %.2f, "
          "git %s, sources %s" % (cpu_model(), cores, env["OMP_NUM_THREADS"],
                                  load_before, load_after, git_commit(), sources))
    if max(load_before, load_after) > cores + 0.5:
        print("# host: DISTURBED run, load average above the core count")

    attempted = result["attempted"]
    failed = result["failed"]
    drifted = check_work_ledger(
        "%s/seed=%d/seconds=%r/trace=%d/sources=%s" % (
            args.workload, args.seed, args.seconds, args.trace, sources),
        result["pass_work"])
    if drifted:
        print("# determinism: the summed work of passes %s differs from an "
              "earlier run at this seed" % drifted)
        failed = min(attempted, failed + len(drifted) * result["pass_len"])
        if "ok_frac" in result["metrics"]:
            result["metrics"]["ok_frac"]["value"] = (attempted - failed) / attempted
    print("# summed instrumented work of the run: %d" % sum(result["pass_work"]))
    correct = bool(result["correct"]) and not drifted

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        log("perfbench: driver did not report " + ", ".join(missing))
        return 3
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: result["metrics"][name] for name in wanted},
    }
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

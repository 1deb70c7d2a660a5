#!/usr/bin/env bash
# Small-n benchmark smoke run: every suite at a reduced --scale with few
# trials, merged into one schema-valid ppsi-bench-v1 document. Used by the
# CI perf-smoke job (compared against bench/baselines/BENCH_smoke_baseline.json
# by scripts/bench_compare.py) and locally around a perf change:
#
#   scripts/bench_smoke.sh                   # writes BENCH_smoke.json
#   scripts/bench_smoke.sh out.json          # custom output path
#   BUILD_DIR=build-rel scripts/bench_smoke.sh
#
# Tunables (env): SMOKE_SCALE (default 0.1), SMOKE_REPEATS (3),
# SMOKE_THREADS (1,4), SMOKE_SCALING_THREADS (1,2,4,8 — the scaling
# suite's sweep), BUILD_DIR (build).
set -euo pipefail

# Pin OMP threads to cores (close packing) so thread placement is stable
# across runs; unpinned runs let the kernel migrate threads mid-trial and
# add wall-clock noise. Export OMP_PROC_BIND/OMP_PLACES
# before invoking to override (e.g. OMP_PROC_BIND=spread for a
# cross-socket sweep).
export OMP_PROC_BIND="${OMP_PROC_BIND:-close}"
export OMP_PLACES="${OMP_PLACES:-cores}"

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
OUT="${1:-BENCH_smoke.json}"
SCALE="${SMOKE_SCALE:-0.1}"
REPEATS="${SMOKE_REPEATS:-3}"
THREADS="${SMOKE_THREADS:-1,4}"
SCALING_THREADS="${SMOKE_SCALING_THREADS:-1,2,4,8}"

# suite:filter entries. Filters keep the smoke run in CI-seconds territory:
# the connectivity solids (icosahedron/octahedron subdivisions) are fixed
# size — they don't shrink with --scale — and cost minutes per trial.
ENTRIES=(
  "micro:"
  "clustering:est/*"
  "cover:kd/*"
  "decision:grid/*"
  "listing:"
  "shortcuts:"
  "table1:grid/*"
  "treepaths:"
  "treewidth_ablation:"
  "connectivity:grid2/*"
  "connectivity:random-planar/*"
  "disconnected:"
  "solver_reuse:"
  "dynamic:"
  "serving:"
  "scaling:"
)

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

files=()
i=0
for entry in "${ENTRIES[@]}"; do
  suite="${entry%%:*}"
  filter="${entry#*:}"
  bin="$BUILD_DIR/bench_$suite"
  if [ ! -x "$bin" ]; then
    echo "bench_smoke: missing $bin (build with -DPPSI_BUILD_BENCH=ON)" >&2
    exit 1
  fi
  json="$tmp/$i-$suite.json"
  threads="$THREADS"
  # The scaling suite exists to sweep threads: it gets the full 1/2/4/8
  # sweep so the JSON carries the whole scaling curve per case.
  if [ "$suite" = "scaling" ]; then
    threads="$SCALING_THREADS"
  fi
  args=(--scale "$SCALE" --repeats "$REPEATS" --warmup 1
        --threads "$threads" --json "$json")
  if [ -n "$filter" ]; then
    args+=(--filter "$filter")
  fi
  echo "bench_smoke: $bin ${args[*]}"
  "$bin" "${args[@]}" > /dev/null
  files+=("$json")
  i=$((i + 1))
done

python3 scripts/bench_compare.py merge "$OUT" "${files[@]}"
python3 scripts/bench_compare.py validate "$OUT"

#!/usr/bin/env bash
# Local mirror of the CI tier-1 verify: configure, build everything, and run
# every test suite under both OMP_NUM_THREADS=1 and =4 (the two variants are
# registered by CMake; plain ctest runs both), then print the src/ line count.
#
# Usage: scripts/check.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(getconf _NPROCESSORS_ONLN)"
# The src/ line count ROADMAP.md tracks (same command as CI's perf-smoke job).
echo "src/ lines: $(find src -name '*.[ch]pp' -print0 | xargs -0 cat | wc -l)"

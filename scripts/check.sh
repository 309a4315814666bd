#!/usr/bin/env bash
# Fast-suite CI gate: build with ThreadSanitizer and run the tier-1 tests
# (unit tests + bench_smoke + golden_smoke, which runs every experiment and
# diffs its output against tests/golden/<experiment>/ + its self-test +
# resume_smoke + micro_datapath_smoke + perf_compare_logic +
# plot_jsonl_smoke).
# TSan exercises the runner's worker threads and its in-order JSONL
# emission, including a resumed batch; resume_smoke additionally SIGKILLs
# a 4-thread sweep and resumes it. The tier1 label keeps this loop fast
# enough to run on every change. The performance gate is separate:
# scripts/perf_compare.py <base-ref>.
#
# Usage: scripts/check.sh [-L label] [build-dir]
#   -L label    ctest label to run (default: tier1)
#   build-dir   sanitizer build directory (default: build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL="tier1"
BUILD_DIR=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    -L) LABEL="$2"; shift 2 ;;
    -h|--help) grep '^# ' "$0" | sed 's/^# //'; exit 0 ;;
    *) BUILD_DIR="$1"; shift ;;
  esac
done
BUILD_DIR="${BUILD_DIR:-build-tsan}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCEBINAE_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$JOBS"
echo "+ ctest --test-dir $BUILD_DIR -L $LABEL --output-on-failure -j $JOBS"
ctest --test-dir "$BUILD_DIR" -L "$LABEL" --output-on-failure -j "$JOBS"

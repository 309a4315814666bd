#!/usr/bin/env bash
# Fast-suite CI gate: build with ThreadSanitizer and run the tier-1 tests
# (unit tests + exp_smoke + bench_smoke + golden_smoke + resume_smoke +
# examples_smoke).
# TSan exercises the src/exp thread pool and the runner's in-order JSONL
# emission, including a resumed batch; resume_smoke additionally SIGKILLs
# a 4-thread sweep and resumes it. The tier1 label keeps this loop fast
# enough to run on every change.
#
# Usage: scripts/check.sh [-L label] [--perf] [build-dir]
#   -L label    ctest label to run (default: tier1)
#   --perf      additionally build Release (no sanitizer) in build-perf,
#               run the micro benchmark suite, and gate the result against
#               bench/baselines/ via scripts/perf_gate.py. Opt-in because
#               perf numbers are only meaningful on a quiet machine.
#   build-dir   sanitizer build directory (default: build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL="tier1"
RUN_PERF=0
BUILD_DIR=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    -L) LABEL="$2"; shift 2 ;;
    --perf) RUN_PERF=1; shift ;;
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

if [[ "$RUN_PERF" -eq 1 ]]; then
  PERF_DIR="build-perf"
  cmake -B "$PERF_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$PERF_DIR" -j "$JOBS" --target cebinae_bench
  "./$PERF_DIR/bench/cebinae_bench" --experiment=micro --full --trials=3 \
      --perf-out="$PERF_DIR/BENCH_micro.json"
  python3 scripts/perf_gate.py "$PERF_DIR/BENCH_micro.json"
fi

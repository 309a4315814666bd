#!/usr/bin/env bash
# Bench smoke gate (tier-1): malformed --seed/--trials/--jobs values and a
# failed results or perf-summary write must exit 2, every experiment
# `cebinae_bench --list` reports must complete a --smoke run, and a
# representative subset must produce byte-identical stdout at --jobs=1 and
# --jobs=4 (the registry's determinism contract: reports render only from
# aggregated records, progress goes to stderr).
#
# Usage: scripts/bench_smoke.sh [path-to-cebinae_bench]
set -euo pipefail

BENCH="${1:-build/bench/cebinae_bench}"
if [[ ! -x "$BENCH" ]]; then
  echo "error: $BENCH not built" >&2
  exit 1
fi
JOBS="$(nproc 2>/dev/null || echo 4)"

names="$("$BENCH" --list | cut -f1)"
if [[ -z "$names" ]]; then
  echo "error: --list returned no experiments" >&2
  exit 1
fi

# Malformed numeric flags must be rejected (exit 2, "error:"), not read as
# their numeric prefix.
for flag in --seed=abc --seed=-1 --trials=2x --trials= --jobs=x1 --jobs=+4 \
            --seed=18446744073709551616; do
  status=0
  err="$("$BENCH" --experiment=fig12 --smoke "$flag" 2>&1 >/dev/null)" || status=$?
  if [[ "$status" -ne 2 || "$err" != error:* ]]; then
    echo "error: $flag exited $status (want 2 with an 'error:' message)" >&2
    exit 1
  fi
done

# A write that fails after the file opened (a full disk) is an error too,
# for the results file and for the perf summary alike.
for flag in --out=/dev/full --perf-out=/dev/full; do
  status=0
  err="$("$BENCH" --experiment=table3 --smoke "$flag" 2>&1 >/dev/null)" || status=$?
  if [[ "$status" -ne 2 ]] || ! grep -q '^error: ' <<<"$err"; then
    echo "error: $flag exited $status (want 2 with an 'error:' line)" >&2
    exit 1
  fi
done

for name in $names; do
  echo "== $name --smoke ==" >&2
  "$BENCH" --experiment="$name" --smoke --jobs="$JOBS" >/dev/null
done

# Determinism across worker counts on quick multi-job experiments.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
for name in fig07 fig10; do
  echo "== $name --jobs determinism ==" >&2
  "$BENCH" --experiment="$name" --smoke --trials=2 --jobs=1 2>/dev/null \
    >"$tmpdir/$name.j1"
  "$BENCH" --experiment="$name" --smoke --trials=2 --jobs=4 2>/dev/null \
    >"$tmpdir/$name.j4"
  if ! diff -u "$tmpdir/$name.j1" "$tmpdir/$name.j4"; then
    echo "error: $name stdout differs between --jobs=1 and --jobs=4" >&2
    exit 1
  fi
done

echo "bench smoke: all experiments pass" >&2

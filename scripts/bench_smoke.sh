#!/usr/bin/env bash
# Bench smoke gate (tier-1): malformed --seed/--trials/--jobs values, a
# removed flag, --resume without a results file, and a failed results,
# perf-summary or stdout write must exit 2, results written to a target that
# cannot be fsynced (/dev/null, a pipe) must not. That every experiment
# completes a --smoke run, and prints the same report at --jobs=1 and
# --jobs=4, is golden_smoke's check (scripts/golden_smoke.sh).
#
# Usage: scripts/bench_smoke.sh [path-to-cebinae_bench]
set -euo pipefail

BENCH="${1:-build/bench/cebinae_bench}"
if [[ ! -x "$BENCH" ]]; then
  echo "error: $BENCH not built" >&2
  exit 1
fi

# Malformed numeric flags must be rejected (exit 2, "error:"), not read as
# their numeric prefix, and so must --resume without a results file to
# continue (it would re-run every job) and the removed --trace-out (a traced
# job's time series is in its --out row). Each entry is split into its flags.
for flags in --seed=abc --seed=-1 --trials=2x --trials= --jobs=x1 --jobs=+4 \
             --seed=18446744073709551616 --resume "--resume --out=-" --trace-out=x; do
  status=0
  err="$("$BENCH" --experiment=fig12 --smoke $flags 2>&1 >/dev/null)" || status=$?
  if [[ "$status" -ne 2 || "$err" != error:* ]]; then
    echo "error: $flags exited $status (want 2 with an 'error:' message)" >&2
    exit 1
  fi
done

# A write that fails after the file opened (a full disk) is an error too:
# for the results file, for the perf summary, and for stdout, whether it
# takes the report alone or the results rows too (--out=-).
# Usage: expect_write_error <stdout target> [flag]
expect_write_error() {
  local status=0 err
  err="$("$BENCH" --experiment=table3 --smoke ${2:+"$2"} 2>&1 >"$1")" || status=$?
  if [[ "$status" -ne 2 ]] || ! grep -q '^error: ' <<<"$err"; then
    echo "error: stdout $1 ${2:-} exited $status (want 2 with an 'error:' line)" >&2
    exit 1
  fi
}
expect_write_error /dev/null --out=/dev/full
expect_write_error /dev/null --perf-out=/dev/full
expect_write_error /dev/full
expect_write_error /dev/full --out=-

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# /dev/null and a pipe cannot be fsynced (EINVAL); that is not a failed
# write. Through the pipe comes one row per job.
status=0
"$BENCH" --experiment=table3 --smoke --out=/dev/null >/dev/null 2>&1 || status=$?
if [[ "$status" -ne 0 ]]; then
  echo "error: --out=/dev/null exited $status (want 0)" >&2
  exit 1
fi
"$BENCH" --experiment=table3 --smoke --out="$tmpdir/table3.jsonl" >/dev/null 2>&1
status=0
"$BENCH" --experiment=table3 --smoke --out=/dev/stdout 2>/dev/null | cat >"$tmpdir/table3.pipe" ||
  status=$?
want="$(wc -l <"$tmpdir/table3.jsonl")"
got="$(grep -c '^{"label":' "$tmpdir/table3.pipe" || true)"
if [[ "$status" -ne 0 || "$want" -eq 0 || "$got" -ne "$want" ]]; then
  echo "error: --out=/dev/stdout | cat exited $status with $got rows (want 0 and $want)" >&2
  exit 1
fi

echo "bench smoke: bad flags and failed writes exit 2, unsyncable targets do not" >&2

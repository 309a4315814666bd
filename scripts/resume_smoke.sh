#!/usr/bin/env bash
# Resume smoke gate (tier-1): a sweep killed part-way and continued with
# --resume must print the same report and write the same files as an
# uninterrupted run.
#   * table2 --smoke at --jobs=4 runs under a file-size limit of half the
#     uninterrupted run's --out, so the kernel ends it with SIGXFSZ (exit
#     status 153) partway through a row; it is then resumed at --jobs=1:
#     stdout and JSONL (minus wall_s) must match an uninterrupted --jobs=1
#     run.
#   * fig01 --out is torn inside job 1's row, within its trace list (the job
#     was being written when the process died): the resumed stdout must
#     match byte for byte, and the JSONL minus wall_s.
#
# Usage: scripts/resume_smoke.sh [path-to-cebinae_bench]
set -euo pipefail

BENCH="${1:-build/bench/cebinae_bench}"
if [[ ! -x "$BENCH" ]]; then
  echo "error: $BENCH not built" >&2
  exit 1
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

strip_wall() { sed -E 's/"wall_s":[0-9.eE+-]+/"wall_s":0/' "$1"; }
rows() { [[ -f "$1" ]] && wc -l <"$1" || echo 0; }

# ---- table2: killed mid-sweep, resume at another --jobs ---------------------
echo "== table2 --smoke: killed at half its --out size, then --resume ==" >&2
"$BENCH" --experiment=table2 --smoke --jobs=1 \
  --out="$tmpdir/ref.jsonl" >"$tmpdir/ref.stdout" 2>/dev/null
total="$(rows "$tmpdir/ref.jsonl")"

# Rows are written in job order, so where the limit cuts does not depend on
# the host's speed. `ulimit -f` counts KiB; -c 0 keeps the kill from leaving
# a core file.
limit_kib=$(($(wc -c <"$tmpdir/ref.jsonl") / 2048))
status=0
(
  ulimit -c 0
  ulimit -f "$limit_kib"
  exec "$BENCH" --experiment=table2 --smoke --jobs=4 \
    --out="$tmpdir/res.jsonl" >/dev/null 2>&1
) || status=$?
killed="$(rows "$tmpdir/res.jsonl")"
echo "the run limited to $limit_kib KiB exited $status after $killed of $total rows" >&2
if ((status != 153)); then
  echo "error: the run limited to $limit_kib KiB exited $status; expected 153 (SIGXFSZ)" >&2
  exit 1
fi
if ((killed < 10 || killed >= total)); then
  echo "error: the killed run left $killed of $total rows; expected 10..$((total - 1))" >&2
  exit 1
fi

"$BENCH" --experiment=table2 --smoke --jobs=1 --resume \
  --out="$tmpdir/res.jsonl" >"$tmpdir/res.stdout" 2>/dev/null
if ! diff -u "$tmpdir/ref.stdout" "$tmpdir/res.stdout"; then
  echo "error: resumed table2 stdout differs from the uninterrupted run" >&2
  exit 1
fi
if ! diff -u <(strip_wall "$tmpdir/ref.jsonl") <(strip_wall "$tmpdir/res.jsonl"); then
  echo "error: resumed table2 JSONL differs from the uninterrupted run (modulo wall_s)" >&2
  exit 1
fi

# ---- fig01: torn inside job 1's row ----------------------------------------
echo "== fig01 --out: torn inside job 1's trace list, then --resume ==" >&2
"$BENCH" --experiment=fig01 --smoke --jobs=1 --out="$tmpdir/ref01.jsonl" \
  >"$tmpdir/ref01.stdout" 2>/dev/null
head -n 1 "$tmpdir/ref01.jsonl" >"$tmpdir/res01.jsonl"
row1="$(sed -n 2p "$tmpdir/ref01.jsonl")"
if [[ "$row1" != *'"job_index":1,'*'"trace":[{'* ]]; then
  echo "error: fig01 wrote no trace list for job 1" >&2
  exit 1
fi
printf '%s' "${row1%%\"trace\":\[*}\"trace\":[{\"t_s\":" >>"$tmpdir/res01.jsonl"

"$BENCH" --experiment=fig01 --smoke --jobs=1 --resume --out="$tmpdir/res01.jsonl" \
  >"$tmpdir/res01.stdout" 2>/dev/null
if ! diff -u "$tmpdir/ref01.stdout" "$tmpdir/res01.stdout"; then
  echo "error: resumed fig01 stdout differs from the uninterrupted run" >&2
  exit 1
fi
if ! diff -u <(strip_wall "$tmpdir/ref01.jsonl") <(strip_wall "$tmpdir/res01.jsonl"); then
  echo "error: resumed fig01 JSONL differs from the uninterrupted run (modulo wall_s)" >&2
  exit 1
fi

echo "resume smoke: killed table2 and torn fig01 resume to the uninterrupted output" >&2

#!/usr/bin/env bash
# Golden gate self-test (tier-1): scripts/golden_smoke.sh must fail on a
# copy of tests/golden that the code does not reproduce, so a gate that
# stopped failing (a `|| true`, a diff of the wrong files) cannot pass
# unseen. With one byte of one pinned file flipped it must exit 1 and print
# a diff naming that file; with a directory that no --list experiment owns
# it must exit 1 naming that directory.
#
# Usage: scripts/golden_smoke_selftest.sh [path-to-cebinae_bench] [golden-dir]
set -euo pipefail

BENCH="${1:-build/bench/cebinae_bench}"
GOLDEN="${2:-$(dirname "$0")/../tests/golden}"
GATE="$(dirname "$0")/golden_smoke.sh"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
copy="$tmpdir/golden"

# expect_failure <case> <want>: the gate run on $copy must exit 1 and print
# <want>.
expect_failure() {
  local status=0 out
  out="$("$GATE" "$BENCH" "$copy" 2>&1)" || status=$?
  if [[ $status -ne 1 ]] || ! grep -qF -- "$2" <<<"$out"; then
    echo "$out" >&2
    echo "error: $1: the gate exited $status (want 1 and '$2')" >&2
    exit 1
  fi
  echo "== $1: fails ==" >&2
}

# One byte in the middle of fig10's pinned rows, changed.
cp -r "$GOLDEN" "$copy"
file="$copy/fig10/smoke.jsonl"
offset=$(($(wc -c <"$file") / 2))
byte="$(tail -c +$((offset + 1)) "$file" | head -c 1)"
if [[ "$byte" == 0 ]]; then flip=1; else flip=0; fi
printf '%s' "$flip" | dd of="$file" bs=1 seek="$offset" conv=notrunc status=none
expect_failure "one flipped byte" "--- $copy/fig10/smoke.jsonl"

# A golden directory whose experiment is gone.
rm -rf "$copy"
cp -r "$GOLDEN" "$copy"
mkdir "$copy/no_such_exp"
expect_failure "a stale directory" \
  "error: $copy/no_such_exp has no experiment in --list (delete it)"

echo "golden smoke self-test: a flipped byte and a stale directory fail the gate" >&2

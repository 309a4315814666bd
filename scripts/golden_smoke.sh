#!/usr/bin/env bash
# Golden-output gate (tier-1): every experiment `cebinae_bench --list`
# reports must reproduce, byte for byte, the files committed under
# tests/golden/<experiment>/: smoke.{stdout,jsonl}, the report and --out=
# rows of a --smoke run; quick.{stdout,jsonl}, the same at quick scale for
# the experiments in QUICK (each under ~2 s); and trials2.stdout, the report
# of a --smoke --trials=2 run (mean±stddev columns). The host-timed JSONL
# field wall_s is removed; every other field (event counts, goodputs, JFIs,
# a traced job's trace list, ...) is pinned. --update writes every run at
# --jobs=4 and the gate runs the trials2 pass at --jobs=1, so it also checks
# that no report depends on the worker count.
#
# A golden entry whose experiment `--list` no longer reports fails the gate,
# so a stale one cannot linger. A run that exits non-zero fails it with
# `error: <name> <scale> run exited <status>`; this is the check that every
# `--list` entry completes a --smoke run.
#
# A change that moves simulated behaviour on purpose regenerates the goldens
# with --update and says why in CHANGES.md; `git diff --word-diff
# tests/golden` then shows which values moved.
#
# Usage: scripts/golden_smoke.sh [--update] [path-to-cebinae_bench] [golden-dir]
set -euo pipefail

update=0
if [[ "${1:-}" == "--update" ]]; then
  update=1
  shift
fi
BENCH="${1:-build/bench/cebinae_bench}"
GOLDEN="${2:-$(dirname "$0")/../tests/golden}"
if [[ ! -x "$BENCH" ]]; then
  echo "error: $BENCH not built" >&2
  exit 1
fi
QUICK=" ablation_strawman fig01 fig07 fig10 fig12 fig13 table3 "
TRIALS_JOBS=1
if [[ $update -eq 1 ]]; then TRIALS_JOBS=4; fi

names="$("$BENCH" --list | cut -f1)"
if [[ -z "$names" ]]; then
  echo "error: --list returned no experiments" >&2
  exit 1
fi

mkdir -p "$GOLDEN"
for path in "$GOLDEN"/*; do
  [[ -e "$path" ]] || continue
  if ! grep -qxF "$(basename "$path")" <<<"$names"; then
    echo "error: $path has no experiment in --list (delete it)" >&2
    exit 1
  fi
done

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# run <name> <label> <jobs> [flags]: writes the run's stdout to
# <name>/<label>.stdout and its rows, minus wall_s, to <name>/<label>.jsonl.
# A failed run ends the gate.
run() {
  local name="$1" label="$2" jobs="$3" out="$tmpdir/$1/$2" status=0
  shift 3
  "$BENCH" --experiment="$name" "$@" --jobs="$jobs" --out="$tmpdir/raw.jsonl" \
    2>/dev/null >"$out.stdout" || status=$?
  if [[ $status -ne 0 ]]; then
    echo "error: $name $label run exited $status" >&2
    exit 1
  fi
  sed -E 's/,"wall_s":[-+0-9.eE]+//g' "$tmpdir/raw.jsonl" >"$out.jsonl"
  rm "$tmpdir/raw.jsonl"
}

failed=0
for name in $names; do
  mkdir "$tmpdir/$name"
  run "$name" smoke 4 --smoke
  if [[ "$QUICK" == *" $name "* ]]; then run "$name" quick 4; fi
  run "$name" trials2 "$TRIALS_JOBS" --smoke --trials=2
  rm "$tmpdir/$name/trials2.jsonl"

  if [[ $update -eq 1 ]]; then
    rm -rf "${GOLDEN:?}/$name"
    cp -r "$tmpdir/$name" "$GOLDEN/$name"
    echo "== $name: updated ==" >&2
  elif ! diff -ru "$GOLDEN/$name" "$tmpdir/$name" >&2; then
    echo "error: $name output drifted from tests/golden/$name" >&2
    failed=1
  else
    echo "== $name: ok ==" >&2
  fi
done

if [[ $failed -ne 0 ]]; then exit 1; fi
echo "golden smoke: all experiments match" >&2

#!/usr/bin/env bash
# Golden-output gate (tier-1): every experiment `cebinae_bench --list`
# reports must reproduce, byte for byte, the --smoke stdout and --out= JSONL
# digests checked in under tests/golden/<experiment>.sha256. The experiments
# in QUICK (each under ~2 s at quick scale on 4 cores) also pin their
# quick-scale output. The host-timed JSONL field wall_s is removed before
# hashing; every other field (event counts, goodputs, JFIs, ...) is pinned.
# A digest whose experiment `--list` no longer reports fails the gate too,
# so a stale digest cannot linger.
#
# A change that moves simulated behaviour on purpose regenerates the digests
# with --update and says why in CHANGES.md.
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
JOBS="$(nproc 2>/dev/null || echo 4)"
QUICK=" ablation_strawman fig01 fig07 fig10 fig12 fig13 table3 "

names="$("$BENCH" --list | cut -f1)"
if [[ -z "$names" ]]; then
  echo "error: --list returned no experiments" >&2
  exit 1
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
mkdir -p "$GOLDEN"

# digest <name> <scale-label> [scale flag]: prints the stdout and the
# JSONL digest lines of one run.
digest() {
  local name="$1" label="$2" out="$tmpdir/$1.$2"
  shift 2
  "$BENCH" --experiment="$name" "$@" --jobs="$JOBS" --out="$out.raw.jsonl" \
    2>/dev/null >"$out.stdout"
  sed -E 's/,"wall_s":[-+0-9.eE]+//g' "$out.raw.jsonl" >"$out.jsonl"
  echo "$(sha256sum <"$out.stdout" | cut -d' ' -f1)  $label stdout"
  echo "$(sha256sum <"$out.jsonl" | cut -d' ' -f1)  $label jsonl"
}

failed=0
for digest_file in "$GOLDEN"/*.sha256; do
  [[ -e "$digest_file" ]] || continue
  name="$(basename "$digest_file" .sha256)"
  if ! grep -qxF "$name" <<<"$names"; then
    echo "error: tests/golden/$name.sha256 has no experiment in --list (delete it)" >&2
    failed=1
  fi
done

for name in $names; do
  {
    digest "$name" smoke --smoke
    if [[ "$QUICK" == *" $name "* ]]; then digest "$name" quick; fi
  } >"$tmpdir/$name.sha256"

  if [[ $update -eq 1 ]]; then
    cp "$tmpdir/$name.sha256" "$GOLDEN/$name.sha256"
    echo "== $name: updated ==" >&2
  elif [[ ! -f "$GOLDEN/$name.sha256" ]]; then
    echo "error: $name has no golden digest (run with --update)" >&2
    failed=1
  elif ! diff -u "$GOLDEN/$name.sha256" "$tmpdir/$name.sha256" >&2; then
    echo "error: $name --smoke output drifted from tests/golden/$name.sha256" >&2
    failed=1
  else
    echo "== $name: ok ==" >&2
  fi
done

if [[ $failed -ne 0 ]]; then exit 1; fi
echo "golden smoke: all experiments match" >&2

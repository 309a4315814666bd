#!/usr/bin/env bash
# Plot smoke gate (tier-1): scripts/plot_jsonl.py is the one reader of the
# results format outside C++. It must render README's two example plots from
# the --smoke rows golden_smoke pins (tests/golden/<experiment>/smoke.jsonl)
# — a jfi CDF per qdisc from fig07's results, and both flows' goodput over
# time from the trace lists in fig01's results — exit 0, write the SVG and
# report the expected number of series and points. A traced job's own result
# fields plot one point per job (fig10's whole-run jfi per qdisc), not one
# per tick, and its ticks group by the row's string fields (fig10's windowed
# jfi over time per qdisc). It reads rows by the rule --resume uses: a torn
# last line is skipped, and a malformed line before it fails, naming the
# line.
#
# Usage: scripts/plot_jsonl_smoke.sh [python3]
set -euo pipefail

PYTHON="${1:-python3}"
PLOT="$(dirname "$0")/plot_jsonl.py"
GOLDEN="$(dirname "$0")/../tests/golden"
fig07="$GOLDEN/fig07/smoke.jsonl"
fig01="$GOLDEN/fig01/smoke.jsonl"
fig10="$GOLDEN/fig10/smoke.jsonl"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# check <want> <svg> <plot args...>: plot_jsonl.py must exit 0, write <svg>
# and report "<want>" (series and point counts) on stderr.
check() {
  local want="$1" svg="$2" err status=0
  shift 2
  err="$("$PYTHON" "$PLOT" "$@" --out "$svg" 2>&1 >/dev/null)" || status=$?
  if [[ "$status" -ne 0 || ! -s "$svg" || "$err" != "wrote $svg: $want" ]]; then
    echo "error: plot_jsonl.py $* exited $status, said '$err' (want 0, '$want' and $svg)" >&2
    exit 1
  fi
  echo "== $want: ok ==" >&2
}

check "2 series, 2 points" "$tmpdir/jfi_cdf.svg" \
  "$fig07" --y jfi --cdf --group-by qdisc
check "2 series, 6 points" "$tmpdir/fig01.svg" \
  "$fig01" --x t_s --y 'tput_Bps[0]' --y 'tput_Bps[1]' \
  --filter label='qdisc=Cebinae'

# fig10's jobs are traced; their rows' own jfi, one per qdisc.
check "3 series, 3 points" "$tmpdir/fig10_jfi_cdf.svg" \
  "$fig10" --y jfi --cdf --group-by qdisc
# Their ticks' windowed jfi over time, grouped by the row's qdisc.
check "3 series, 9 points" "$tmpdir/fig10_jfi_t.svg" \
  "$fig10" --x t_s --y jfi --group-by qdisc

# A killed writer's torn last line is skipped: the same plot as without it.
{ cat "$fig07"; head -n 1 "$fig07" | head -c 40; } \
  > "$tmpdir/torn.jsonl"
check "2 series, 2 points" "$tmpdir/torn.svg" \
  "$tmpdir/torn.jsonl" --y jfi --cdf --group-by qdisc

# A malformed line before the last fails and names its line.
{ head -n 1 "$fig07"; echo '{"jfi":x}'; tail -n +2 "$fig07"; } \
  > "$tmpdir/malformed.jsonl"
status=0
err="$("$PYTHON" "$PLOT" "$tmpdir/malformed.jsonl" --y jfi --out "$tmpdir/malformed.svg" 2>&1)" ||
  status=$?
if [[ "$status" -eq 0 || "$err" != "error: $tmpdir/malformed.jsonl line 2 is not a JSON row" ]]; then
  echo "error: a malformed line 2 exited $status, said '$err'" >&2
  exit 1
fi
echo "== malformed line 2: fails ==" >&2

echo "plot smoke: the plots render, a traced job plots its own row, a torn last line is skipped, a malformed line fails" >&2

#!/usr/bin/env python3
"""Performance gate: perfbench on a base commit against this tree.

Usage: scripts/perf_compare.py <base-ref>

Runs `perfbench/run.py --workload W --seed 0 --seconds 3` in `git archive
<base-ref>` and in this tree, PAIRS pairs per BENCHMARK.json workload with
alternating order (each tree builds and measures its own sources), and
prints each end-to-end metric's median and quartiles per side. Exits 1 when
this tree fails an outcome check or a larger share of simulations, or when
a median is worse than the base's by more than the metric's `bound` in
BENCHMARK.json; 2 on a usage error or a ref it cannot extract. A metric
reads `gain` when this tree wins at least 9 of 10 pairs and its median
beats the base's by more than the base's interquartile range: only then
does a run show an improvement. Otherwise a metric whose base runs spread
wider than its bound reads `unresolved`, not `ok`, unless every run of
this tree beats every run of the base.
"""

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SECONDS = 3
GAIN_WINS = 0.9  # share of pairs a change must win for a `gain` verdict


def run_bench(tree, workload):
    """One run.py invocation; returns its result line (correct, attempted,
    failed, metrics). A run that prints none counts as one failed simulation."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", str(SECONDS)],
        capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"{tree}: {workload} printed no result: {proc.stderr.strip()[-500:]}",
              file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def quartiles(xs):
    """(q1, median, q3); one sample is its own quartiles."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def failed_share(runs):
    return sum(r["failed"] for r in runs) / max(sum(r["attempted"] for r in runs), 1)


def compare(end_to_end, workload, base, change):
    """Compares paired run results of one workload. `end_to_end` is
    BENCHMARK.json's list of {name, better, bound}; `base` and `change` are
    lists of run.py result lines, pair i being base[i] and change[i]. Only
    correct runs carry metrics. Returns (table lines, failure messages)."""
    failures = []
    if not all(r["correct"] for r in change):
        failures.append(f"{workload}: a run of the change failed its outcome check")
    if failed_share(change) > failed_share(base):
        failures.append(f"{workload}: failed share {failed_share(change):.3f} "
                        f"> base {failed_share(base):.3f}")
    pairs = [(x["metrics"], y["metrics"]) for x, y in zip(base, change)
             if x["correct"] and y["correct"]]
    lines = []
    for m in end_to_end:
        name, bound = m["name"], m["bound"]
        sign = 1 if m["better"] == "lower" else -1  # sign * (new - old) > 0: worse
        b = [r["metrics"][name]["value"] for r in base if r["correct"]]
        c = [r["metrics"][name]["value"] for r in change if r["correct"]]
        if not b or not c:
            lines.append(f"{workload:<20} {name:<13} no correct runs to compare  unresolved")
            continue
        bq1, bmed, bq3 = quartiles(b)
        cq1, cmed, cq3 = quartiles(c)
        worse = sign * (cmed - bmed) / bmed
        wins = sum(sign * (y[name]["value"] - x[name]["value"]) < 0 for x, y in pairs)
        if worse > bound:
            verdict = "FAIL"
            failures.append(f"{workload} {name}: median {cmed:.4g} is {100 * worse:.1f}% "
                            f"worse than base {bmed:.4g} (bound {100 * bound:.0f}%)")
        elif pairs and wins >= GAIN_WINS * len(pairs) and -sign * (cmed - bmed) > bq3 - bq1:
            verdict = "gain"
        elif (bq3 - bq1) / bmed > bound and not all(sign * (y - x) < 0 for x in b for y in c):
            verdict = "unresolved"
        else:
            verdict = "ok"
        base_side = f"{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]"
        change_side = f"{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]"
        lines.append(f"{workload:<20} {name:<13} {base_side:<32} {change_side:<32}"
                     f" {100 * (cmed / bmed - 1):+6.1f}% {wins:>2}/{len(pairs)}  {verdict}")
    return lines, failures


def main():
    if len(sys.argv) != 2:
        print("usage: scripts/perf_compare.py <base-ref>", file=sys.stderr)
        return 2
    ref = sys.argv[1]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    with tempfile.TemporaryDirectory(prefix="perf_compare.") as tmp:
        base_tree = Path(tmp)
        extract = 'set -o pipefail; git -C "$0" archive "$1" | tar -x -C "$2"'
        if subprocess.run(["bash", "-c", extract, ROOT, ref, tmp]).returncode != 0:
            print(f"error: cannot extract {ref}", file=sys.stderr)
            return 2
        if not (base_tree / "perfbench" / "run.py").is_file():
            print(f"error: {ref} has no perfbench/run.py", file=sys.stderr)
            return 2

        runs = {w: ([], []) for w in workloads}
        for i in range(PAIRS):
            for w in workloads:
                base, change = runs[w]
                order = [(base_tree, base), (ROOT, change)]
                for tree, out in order if i % 2 == 0 else reversed(order):
                    out.append(run_bench(tree, w))
            print(f"pair {i + 1}/{PAIRS} done", file=sys.stderr)

    print(f"base {ref} vs this tree, {PAIRS} pairs of {SECONDS}-s runs")
    print(f"{'workload':<20} {'metric':<13} {'base median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'change':>7} {'won':>5}  verdict")
    failures = []
    for w in workloads:
        lines, fails = compare(spec["end_to_end"], w, *runs[w])
        print("\n".join(lines))
        failures += fails
    for f in failures:
        print(f"FAIL {f}")
    print("perf compare: " + ("regressed" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

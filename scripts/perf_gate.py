#!/usr/bin/env python3
"""Perf-regression gate for the micro benchmark suite.

Compares a freshly measured ``BENCH_micro.json`` (written by
``cebinae_bench --experiment=micro --full --trials=3 --perf-out=...``)
against the checked-in baseline in ``bench/baselines/``. Only throughput
metrics (``*_per_sec``) are gated: a drop beyond --fail-pct fails the run,
a drop beyond --warn-pct warns. Deterministic companion metrics (event
counts, goodput checksums) are reported when they drift but never gate —
they are pinned across commits by the golden_smoke ctest instead
(scripts/golden_smoke.sh checks the micro suite's JSONL, event counts
included, against tests/golden/micro.sha256).

Baselines are machine-specific. After an intentional perf change (or on a
new CI runner class), regenerate with::

    ./build/bench/cebinae_bench --experiment=micro --full --trials=3 \
        --perf-out=/tmp/BENCH_micro.json
    scripts/perf_gate.py /tmp/BENCH_micro.json --update

Exit status: 0 ok (including warnings), 1 regression past --fail-pct,
2 usage/format error.
"""

import argparse
import json
import pathlib
import shutil
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "bench" / "baselines" / "BENCH_micro.json"

GATED_SUFFIX = "_per_sec"


def load_metrics(path: pathlib.Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"perf_gate: cannot read {path}: {exc}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        sys.exit(f"perf_gate: {path} has no 'metrics' object "
                 "(was it written with --perf-out by the micro experiment?)")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", type=pathlib.Path,
                        help="freshly measured BENCH_micro.json")
    parser.add_argument("--baseline", type=pathlib.Path, default=DEFAULT_BASELINE)
    parser.add_argument("--fail-pct", type=float, default=15.0,
                        help="fail when a *_per_sec metric drops more than this")
    parser.add_argument("--warn-pct", type=float, default=5.0,
                        help="warn when a *_per_sec metric drops more than this")
    parser.add_argument("--update", action="store_true",
                        help="install `fresh` as the new baseline and exit")
    args = parser.parse_args()

    fresh = load_metrics(args.fresh)

    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(args.fresh, args.baseline)
        print(f"perf_gate: baseline updated: {args.baseline}")
        return 0

    baseline = load_metrics(args.baseline)

    failures, warnings = [], []
    for key in sorted(baseline):
        base = baseline[key]
        cur = fresh.get(key)
        if cur is None:
            failures.append(f"{key}: missing from fresh run")
            continue
        if not key.endswith(GATED_SUFFIX):
            if base and abs(cur - base) / abs(base) > 1e-9:
                print(f"  note  {key}: {base:g} -> {cur:g} (informational)")
            continue
        delta_pct = (cur - base) / base * 100.0 if base else 0.0
        line = f"{key}: {base:,.0f} -> {cur:,.0f} events/s ({delta_pct:+.1f}%)"
        if delta_pct < -args.fail_pct:
            failures.append(line)
            print(f"  FAIL  {line}")
        elif delta_pct < -args.warn_pct:
            warnings.append(line)
            print(f"  warn  {line}")
        else:
            print(f"  ok    {line}")

    for key in sorted(set(fresh) - set(baseline)):
        print(f"  note  {key}: new metric (not in baseline); "
              "run --update to start tracking it")

    if failures:
        print(f"perf_gate: FAIL — {len(failures)} metric(s) regressed more "
              f"than {args.fail_pct:.0f}% vs {args.baseline}")
        return 1
    if warnings:
        print(f"perf_gate: ok with {len(warnings)} warning(s) "
              f"(>{args.warn_pct:.0f}% slower than baseline)")
    else:
        print("perf_gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

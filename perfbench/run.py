#!/usr/bin/env python3
"""Simulator benchmark: table2 workloads, end-to-end and per-layer metrics.

Run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One workload for about S host seconds. --trace 0 prints the
      end-to-end metrics, --trace 1 the per-layer metrics of the traced run.
      The last stdout line is one JSON object: correct, attempted, failed,
      metrics.
  python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]
      Every workload in turn, one metric per line with its unit; exits 1
      when any outcome check fails.
  python3 perfbench/run.py --self-check
      Every workload briefly, plain and traced: checks outcomes, traced-run
      fidelity and the shape of both outputs against BENCHMARK.json.
  python3 perfbench/run.py --update-references
      Re-records the reference outcomes (a deliberate behaviour change).

The simulator is built from source into .bench_build/ on first use. Every
simulation runs in its own `simbench` process; see README.md.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SIMBENCH = BUILD / "simbench"
REFERENCES = HERE / "references.json"

# The workloads BENCHMARK.json lists. vegas1k_fq runs by name too, but is
# left out of BENCHMARK.json: its runs spread too far on a shared host to
# hold the bound (README.md, "Noise").
WORKLOADS = ["bbr_sack_fifo", "reno_cubic_cebinae"]
ALL_WORKLOADS = [*WORKLOADS, "vegas1k_fq"]

# Scenario seeds with recorded reference outcomes. `--seed N` runs
# SEED_POOL[N % len(SEED_POOL)]; HELD_OUT_SEED is only run on request
# (--scenario-seed), to recheck a gain on a seed not used while making it.
DEFAULT_SEED = 1
SEED_POOL = [1, 5]
HELD_OUT_SEED = 1009
SMOKE_MS = 500  # simulated duration of a self-check run
RUN_LIMIT_S = 170  # a whole invocation stays under the 180 s limit

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_per_wall": "s/s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.events_per_pkt": "ratio",
    "sim.pending_hwm": "count",
    "sim.residual_share": "ratio",
    "sim.residual_ns_per_event": "ns",
    "qdisc.enqueue_ns": "ns",
    "qdisc.enqueue_ns_p99": "ns",
    "qdisc.dequeue_ns": "ns",
    "qdisc.share": "ratio",
    "qdisc.enqueues": "count",
    "qdisc.drop_ratio": "ratio",
    "core.rotations": "count",
    "core.recomputations": "count",
    "core.lbf_drops": "count",
    "core.delayed_pkts": "count",
    "tcp.ack_ns": "ns",
    "tcp.ack_ns_p99": "ns",
    "tcp.ack_share": "ratio",
    "tcp.data_ns": "ns",
    "tcp.data_share": "ratio",
    "tcp.retx_ratio": "ratio",
    "tcp.rtos": "count",
    "tcp.fast_retransmits": "count",
    "cc.on_ack_ns": "ns",
    "cc.share": "ratio",
    "cc.loss_calls": "count",
    "metrics.delivery_ns": "ns",
    "setup.topology_s": "s",
    "setup.routes_s": "s",
    "setup.flows_s": "s",
    "trace.overhead_pct": "%",
    "trace.events_match": "bool",
}


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


# --- build and environment -------------------------------------------------


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no simulator sources at {ROOT} (expected CMakeLists.txt and src/)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "--target", "simbench", "-j", jobs])
    for cmd in steps:
        # Build logs go to stderr: stdout carries the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("building simbench failed: " + " ".join(cmd))


def source_digest():
    """sha256 over the simulator's sources, to tell builds apart without git."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*")), *sorted(HERE.glob("*"))]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def environment():
    env = json.loads(subprocess.run([str(SIMBENCH), "env"], capture_output=True, text=True,
                                    check=True).stdout)
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    env.update(commit=commit, source_sha256=source_digest(), nproc=os.cpu_count())
    return env


# --- one simulation process --------------------------------------------------


class Runner:
    """Starts simbench processes against one deadline and counts failures."""

    def __init__(self, limit_s=RUN_LIMIT_S):
        self.deadline = time.monotonic() + limit_s
        self.attempted = 0
        self.failures = []
        self.records = []

    def run(self, mode, workload, seed, sim_ms, reference):
        """Returns the process's JSON record, or None when it failed."""
        self.attempted += 1
        args = [str(SIMBENCH), mode, f"--workload={workload}", f"--seed={seed}",
                f"--sim-ms={sim_ms}"]
        remaining = self.deadline - time.monotonic()
        try:
            proc = subprocess.run(args, capture_output=True, text=True,
                                  timeout=max(remaining, 1))
        except subprocess.TimeoutExpired:
            return self.record_failure(f"{mode} run timed out")
        if proc.returncode != 0:
            return self.record_failure(
                f"{mode} run exited {proc.returncode}: {proc.stderr.strip()}")
        try:
            record = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return self.record_failure(f"{mode} run printed no JSON")
        if record["outcome"] != reference:
            return self.record_failure(
                f"{mode} outcome {record['outcome']} != reference {reference}")
        self.records.append(record)
        return record

    def record_failure(self, why):
        self.failures.append(why)
        print(f"run failed: {why}", file=sys.stderr)
        return None

    def time_left(self):
        return self.deadline - time.monotonic()


def budgeted(seconds, runner, one_rep):
    """Repeats one_rep() while the next repetition still fits in `seconds`."""
    t0 = time.monotonic()
    durations = []
    while True:
        r0 = time.monotonic()
        if not one_rep():
            return
        durations.append(time.monotonic() - r0)
        elapsed = time.monotonic() - t0
        next_rep = statistics.median(durations)
        if elapsed + next_rep > seconds or runner.time_left() < 2 * next_rep:
            return


# --- metrics -----------------------------------------------------------------


def end_to_end(plains):
    """Every simulation of a run does identical work (the outcome check
    proves it), so the fastest one estimates the program's cost; the host
    only adds time. Times are the process's CPU time: the simulation is
    single-threaded and does no I/O while timed, so on a core of its own
    that is its wall time, and on a shared host it leaves out the time the
    core ran something else (preemption, hypervisor steal). Peak RSS does
    not vary that way and takes the median."""
    return {
        "wall_s": min(p["setup_cpu_s"][-1] + p["run_cpu_s"] for p in plains),
        "setup_s": min(s for p in plains for s in p["setup_cpu_s"]),
        "sim_per_wall": max(p["sim_s"] / p["run_cpu_s"] for p in plains),
        "peak_rss_mb": statistics.median(p["peak_rss_kib"] / 1024 for p in plains),
    }


def per_layer(traced, plain_run_s):
    """Per-layer metrics of one traced run; shares are of the traced run time."""
    layers = traced["layers"]
    run_s = traced["run_s"]
    events = traced["outcome"]["events"]

    def ns_per_call(name):
        calls = layers[name]["calls"]
        return layers[name]["self_s"] * 1e9 / calls if calls else 0.0

    def share(*names):
        return sum(layers[n]["self_s"] for n in names) / run_s

    enqueues = layers["qdisc_enqueue"]["calls"]
    return {
        "sim.events": events,
        "sim.events_per_s": events / plain_run_s,
        "sim.events_per_pkt": events / max(traced["dequeued"], 1),
        "sim.pending_hwm": traced["pending_hwm"],
        "sim.residual_share": traced["residual_s"] / run_s,
        "sim.residual_ns_per_event": traced["residual_s"] * 1e9 / events,
        "qdisc.enqueue_ns": ns_per_call("qdisc_enqueue"),
        "qdisc.enqueue_ns_p99": layers["qdisc_enqueue"]["p99_ns"],
        "qdisc.dequeue_ns": ns_per_call("qdisc_dequeue"),
        "qdisc.share": share("qdisc_enqueue", "qdisc_dequeue"),
        "qdisc.enqueues": enqueues,
        "qdisc.drop_ratio": traced["outcome"]["dropped"] / max(enqueues, 1),
        "core.rotations": traced["core_rotations"],
        "core.recomputations": traced["core_recomputations"],
        "core.lbf_drops": traced["core_lbf_drops"],
        "core.delayed_pkts": traced["core_delayed"],
        "tcp.ack_ns": ns_per_call("tcp_ack"),
        "tcp.ack_ns_p99": layers["tcp_ack"]["p99_ns"],
        "tcp.ack_share": share("tcp_ack"),
        "tcp.data_ns": ns_per_call("tcp_data"),
        "tcp.data_share": share("tcp_data"),
        "tcp.retx_ratio": traced["tcp_retransmits"] / max(traced["tcp_segments"], 1),
        "tcp.rtos": traced["tcp_rtos"],
        "tcp.fast_retransmits": traced["tcp_fast_retransmits"],
        "cc.on_ack_ns": ns_per_call("cc_on_ack"),
        "cc.share": share("cc_on_ack", "cc_on_loss", "cc_on_rto"),
        "cc.loss_calls": layers["cc_on_loss"]["calls"] + layers["cc_on_rto"]["calls"],
        "metrics.delivery_ns": ns_per_call("metrics_delivery"),
        "setup.topology_s": traced["setup_topology_s"],
        "setup.routes_s": traced["setup_routes_s"],
        "setup.flows_s": traced["setup_flows_s"],
        "trace.overhead_pct": 0.0,  # filled in from the paired plain runs
        "trace.events_match": 1,  # 0 when any simulation failed (run_one)
    }


def traced_is_consistent(traced):
    """Spans plus residual must account for the run time exactly."""
    return (traced["balanced"] == 1 and traced["unaccounted_ns"] == 0
            and traced["residual_s"] >= 0)


def measure(workload, seed, seconds, trace, runner, sim_ms=None):
    """Runs one workload for about `seconds`; returns its metrics (or None)."""
    refs = load_references()
    sim_ms = sim_ms or refs[workload]["sim_ms"]
    try:
        reference = refs[workload]["outcomes"][str(sim_ms)][str(seed)]
    except KeyError:
        fail(f"no reference outcome for {workload} at seed {seed}, {sim_ms} ms "
             "(record one with --update-references)")
    plains, traceds = [], []

    def plain_rep():
        rec = runner.run("plain", workload, seed, sim_ms, reference)
        if rec:
            plains.append(rec)
        return rec is not None

    def traced_pair():
        if not plain_rep():
            return False
        rec = runner.run("traced", workload, seed, sim_ms, reference)
        if rec is not None and not traced_is_consistent(rec):
            rec = runner.record_failure("traced spans and residual do not add up to run time")
        if rec:
            traceds.append(rec)
        return rec is not None

    budgeted(seconds, runner, traced_pair if trace else plain_rep)
    if not trace:
        return end_to_end(plains) if plains else None
    if not traceds:
        return None
    plain_run_s = statistics.median(p["run_s"] for p in plains)
    rows = [per_layer(t, plain_run_s) for t in traceds]
    metrics = {k: statistics.median(r[k] for r in rows) for k in PER_LAYER}
    traced_run_s = statistics.median(t["run_s"] for t in traceds)
    metrics["trace.overhead_pct"] = 100.0 * (traced_run_s / plain_run_s - 1.0)
    return metrics


# --- references ----------------------------------------------------------------


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def update_references():
    """Records the plain run's outcome for every workload and scenario seed."""
    jobs = [(w, seed, None) for w in ALL_WORKLOADS for seed in [*SEED_POOL, HELD_OUT_SEED]]
    jobs += [(w, DEFAULT_SEED, SMOKE_MS) for w in ALL_WORKLOADS]

    def record(job):
        w, seed, sim_ms = job
        args = [str(SIMBENCH), "plain", f"--workload={w}", f"--seed={seed}"]
        if sim_ms:
            args.append(f"--sim-ms={sim_ms}")
        out = json.loads(subprocess.run(args, capture_output=True, text=True,
                                        check=True).stdout)
        print(f"recorded {w} seed {seed} sim {out['sim_s']} s", file=sys.stderr)
        return w, seed, round(out["sim_s"] * 1000), out["outcome"]

    refs = {w: {"sim_ms": None, "outcomes": {}} for w in ALL_WORKLOADS}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for w, seed, ms, outcome in pool.map(record, jobs):
            if ms != SMOKE_MS:
                refs[w]["sim_ms"] = ms
            refs[w]["outcomes"].setdefault(str(ms), {})[str(seed)] = outcome
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


# --- output ------------------------------------------------------------------


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def run_one(args, env):
    seed = args.scenario_seed if args.scenario_seed is not None else \
        SEED_POOL[args.seed % len(SEED_POOL)]
    runner = Runner()
    metrics = measure(args.workload, seed, args.seconds, args.trace, runner)
    units = PER_LAYER if args.trace else END_TO_END
    ok = metrics is not None and not runner.failures
    if metrics is None:
        metrics = {k: 0.0 for k in units}
    if args.trace and runner.failures:
        metrics["trace.events_match"] = 0
    plains = [r for r in runner.records if r["mode"] == "plain"]
    # The same figures by the host's wall clock, kept for comparison.
    wall_clock = {
        "wall_s": min(p["wall_s"] for p in plains),
        "setup_s": min(s for p in plains for s in p["setup_s"]),
        "sim_per_wall": max(p["sim_s"] / p["run_s"] for p in plains),
    } if plains else {}
    record = {"workload": args.workload, "seed": args.seed, "scenario_seed": seed,
              "trace": args.trace, "env": env, "failures": runner.failures, "metrics": metrics,
              "wall_clock": wall_clock}
    results = ROOT / ".bench_build" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(env))
    for k, v in metrics.items():
        print(f"{args.workload} {k} = {v:.6g} {units[k]}")
    failed = len(runner.failures)
    print(f"{args.workload} simulations: {runner.attempted} attempted, {failed} failed "
          f"(share {failed / max(runner.attempted, 1):.3f})")
    print(result_line(ok, runner.attempted, failed, metrics, units))
    return ok


def self_check():
    """Short smoke mode: outcomes, traced-run fidelity and output shape."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.py")
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from run.py")
    for w in ALL_WORKLOADS:
        for trace, units in ((0, END_TO_END), (1, PER_LAYER)):
            runner = Runner()
            metrics = measure(w, DEFAULT_SEED, 0, trace, runner, sim_ms=SMOKE_MS)
            if metrics is None or runner.failures:
                problems.append(f"{w} trace={trace}: {runner.failures}")
                continue
            line = json.loads(result_line(True, runner.attempted, 0, metrics, units))
            if set(line) != {"correct", "attempted", "failed", "metrics"} or \
                    set(line["metrics"]) != set(units):
                problems.append(f"{w} trace={trace}: wrong result shape")
            for k, m in line["metrics"].items():
                v = m["value"]
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{w} {k} is not a finite number: {v}")
                elif trace == 0 and v <= 0:
                    problems.append(f"{w} {k} is not positive: {v}")
            if trace == 1 and line["metrics"]["trace.events_match"]["value"] != 1:
                problems.append(f"{w}: traced run does not reproduce the plain run")
            print(f"self-check {w} trace={trace}: {runner.attempted} runs ok", file=sys.stderr)
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "ok"))
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*ALL_WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0,
                    help="picks the scenario seed SEED_POOL[seed %% len(SEED_POOL)]")
    ap.add_argument("--scenario-seed", type=int,
                    help=f"run this scenario seed instead (e.g. the held-out {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=int, default=60, help="host seconds to measure")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--update-references", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.self_check or args.update_references):
        ap.error("one of --workload, --self-check, --update-references is required")

    build()
    if args.update_references:
        update_references()
        return 0
    if args.self_check:
        return 0 if self_check() else 1
    env = environment()
    ok = True
    for w in ALL_WORKLOADS if args.workload == "all" else [args.workload]:
        args.workload = w
        ok = run_one(args, env) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

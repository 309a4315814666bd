#!/usr/bin/env python3
"""Decision logic of scripts/perf_compare.py on fixed result lists."""

import importlib.util
import subprocess
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf_compare.py"
_spec = importlib.util.spec_from_file_location("perf_compare", SCRIPT)
perf_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_compare)

END_TO_END = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "sim_per_wall", "better": "higher", "bound": 0.25},
]


def run(wall_s, sim_per_wall, correct=True, failed=0):
    return {"correct": correct, "attempted": 3, "failed": failed,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "sim_per_wall": {"value": sim_per_wall, "unit": "s/s"}}}


def runs(walls, scale=1.0):
    """One run per wall time, with sim_per_wall = 10 s of simulation per run."""
    return [run(w * scale, 10.0 / (w * scale)) for w in walls]


BASE_WALLS = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def verdicts(lines):
    return {line.split()[1]: line.split()[-1] for line in lines}


class Compare(unittest.TestCase):
    def test_within_bound_passes(self):
        lines, failures = perf_compare.compare(END_TO_END, "w", runs(BASE_WALLS),
                                               runs(BASE_WALLS, 1.10))
        self.assertEqual(failures, [])
        self.assertEqual(verdicts(lines), {"wall_s": "ok", "sim_per_wall": "ok"})

    def test_slower_than_bound_fails_lower_is_better(self):
        change = [run(w * 1.4, 10.0 / w) for w in BASE_WALLS]
        lines, failures = perf_compare.compare(END_TO_END, "w", runs(BASE_WALLS), change)
        self.assertEqual(verdicts(lines), {"wall_s": "FAIL", "sim_per_wall": "ok"})
        self.assertEqual(len(failures), 1)
        self.assertIn("w wall_s", failures[0])

    def test_slower_than_bound_fails_higher_is_better(self):
        change = [run(w, 10.0 / w * 0.7) for w in BASE_WALLS]
        lines, failures = perf_compare.compare(END_TO_END, "w", runs(BASE_WALLS), change)
        self.assertEqual(verdicts(lines), {"wall_s": "ok", "sim_per_wall": "FAIL"})
        self.assertEqual(len(failures), 1)
        self.assertIn("w sim_per_wall", failures[0])

    def test_faster_change_passes_and_wins(self):
        lines, failures = perf_compare.compare(END_TO_END, "w", runs(BASE_WALLS),
                                               runs(BASE_WALLS, 0.5))
        self.assertEqual(failures, [])
        self.assertTrue(all(" 10/10  gain" in line for line in lines), lines)

    def test_gain_needs_nine_of_ten_pairs(self):
        # 15% faster in the median, but two pairs lost: no gain.
        change = runs(BASE_WALLS, 0.85)
        change[0] = run(1.5, 10.0 / 1.5)
        change[1] = run(1.5, 10.0 / 1.5)
        lines, failures = perf_compare.compare(END_TO_END, "w", runs(BASE_WALLS), change)
        self.assertEqual(failures, [])
        self.assertEqual(verdicts(lines), {"wall_s": "ok", "sim_per_wall": "ok"})
        # One pair lost is still a gain.
        change[1] = run(0.85, 10.0 / 0.85)
        lines, failures = perf_compare.compare(END_TO_END, "w", runs(BASE_WALLS), change)
        self.assertEqual(failures, [])
        self.assertEqual(verdicts(lines), {"wall_s": "gain", "sim_per_wall": "gain"})
        self.assertTrue(all(" 9/10  gain" in line for line in lines), lines)

    def test_gain_needs_a_lead_beyond_the_base_quartiles(self):
        # Every pair won, but by less than the base's interquartile range.
        spread = [0.90, 1.10, 0.92, 1.08, 0.94, 1.06, 0.96, 1.04, 0.98, 1.02]
        lines, failures = perf_compare.compare(END_TO_END, "w", runs(spread),
                                               runs(spread, 0.95))
        self.assertEqual(failures, [])
        self.assertEqual(verdicts(lines), {"wall_s": "ok", "sim_per_wall": "ok"})
        lines, failures = perf_compare.compare(END_TO_END, "w", runs(spread),
                                               runs(spread, 0.85))
        self.assertEqual(verdicts(lines), {"wall_s": "gain", "sim_per_wall": "gain"})

    def test_slower_change_is_never_a_gain(self):
        lines, failures = perf_compare.compare(END_TO_END, "w", runs(BASE_WALLS),
                                               runs(BASE_WALLS, 1.2))
        self.assertEqual(failures, [])
        self.assertEqual(verdicts(lines), {"wall_s": "ok", "sim_per_wall": "ok"})

    def test_wide_base_spread_is_unresolved(self):
        wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.6, 1.4, 0.9, 1.1]
        lines, failures = perf_compare.compare(END_TO_END, "w", runs(wide),
                                               runs(wide[::-1]))
        self.assertEqual(failures, [])
        self.assertEqual(verdicts(lines), {"wall_s": "unresolved",
                                           "sim_per_wall": "unresolved"})
        # Unless every run of the change beats every run of the base (here
        # by less than the base's quartiles on wall_s: not a gain).
        faster = [0.50, 0.59, 0.51, 0.58, 0.52, 0.57, 0.53, 0.56, 0.54, 0.55]
        lines, failures = perf_compare.compare(END_TO_END, "w", runs(wide), runs(faster))
        self.assertEqual(failures, [])
        self.assertEqual(verdicts(lines)["wall_s"], "ok")
        # A lead beyond the base's quartiles in 9 of 10 pairs is a gain.
        lines, failures = perf_compare.compare(END_TO_END, "w", runs(wide),
                                               runs(wide, 0.4))
        self.assertEqual(failures, [])
        self.assertEqual(verdicts(lines), {"wall_s": "gain", "sim_per_wall": "gain"})

    def test_more_failed_runs_fail(self):
        change = runs(BASE_WALLS)
        change[3] = run(1.0, 10.0, failed=1)
        _, failures = perf_compare.compare(END_TO_END, "w", runs(BASE_WALLS), change)
        self.assertEqual(len(failures), 1)
        self.assertIn("failed share", failures[0])

    def test_run_without_result_fails(self):
        change = runs(BASE_WALLS)
        change[0] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        _, failures = perf_compare.compare(END_TO_END, "w", runs(BASE_WALLS), change)
        self.assertTrue(any("outcome check" in f for f in failures), failures)
        self.assertTrue(any("failed share" in f for f in failures), failures)

    def test_incorrect_change_run_fails(self):
        change = runs(BASE_WALLS)
        change[5] = run(1.0, 10.0, correct=False)
        _, failures = perf_compare.compare(END_TO_END, "w", runs(BASE_WALLS), change)
        self.assertEqual(len(failures), 1)
        self.assertIn("outcome check", failures[0])


class SrcLines(unittest.TestCase):
    def test_sums_numstat_and_skips_binary_files(self):
        numstat = "12\t3\tsrc/net/node.cpp\n0\t40\tsrc/old.hpp\n-\t-\tsrc/logo.png\n"
        self.assertEqual(perf_compare.src_lines(numstat), (12, 43))
        self.assertEqual(perf_compare.src_lines(""), (0, 0))

    def test_report_counts_working_tree_changes_under_src_only(self):
        with tempfile.TemporaryDirectory() as tmp:
            def git(*args):
                subprocess.run(["git", "-C", tmp, "-c", "user.name=t", "-c", "user.email=t@t",
                                *args], check=True, capture_output=True)
            (Path(tmp) / "src").mkdir()
            (Path(tmp) / "src" / "a.cpp").write_text("1\n2\n3\n")
            (Path(tmp) / "README").write_text("x\n")
            git("init", "-q")
            git("add", "-A")
            git("commit", "-q", "-m", "base")
            (Path(tmp) / "src" / "a.cpp").write_text("1\n4\n")
            (Path(tmp) / "README").write_text("y\nz\n")
            saved = perf_compare.ROOT
            perf_compare.ROOT = Path(tmp)
            try:
                report = perf_compare.src_line_report("HEAD")
            finally:
                perf_compare.ROOT = saved
        self.assertEqual(report, "src/ lines vs HEAD: +1 -2, net -1")


if __name__ == "__main__":
    unittest.main()

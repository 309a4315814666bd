#!/usr/bin/env python3
"""Decision logic of scripts/perf_compare.py on fixed result lists."""

import importlib.util
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
        self.assertTrue(all(" 10/10  ok" in line for line in lines), lines)

    def test_wide_base_spread_is_unresolved(self):
        wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.6, 1.4, 0.9, 1.1]
        lines, failures = perf_compare.compare(END_TO_END, "w", runs(wide),
                                               runs(wide[::-1]))
        self.assertEqual(failures, [])
        self.assertEqual(verdicts(lines), {"wall_s": "unresolved",
                                           "sim_per_wall": "unresolved"})
        # Unless every run of the change beats every run of the base.
        lines, failures = perf_compare.compare(END_TO_END, "w", runs(wide),
                                               runs(wide, 0.4))
        self.assertEqual(failures, [])
        self.assertEqual(verdicts(lines), {"wall_s": "ok", "sim_per_wall": "ok"})

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


if __name__ == "__main__":
    unittest.main()

"""The benchmark's own tests.  From the root of a checkout:

  python3 perfbench/test_run.py

Checks the shape of BENCHMARK.json and the compare-mode verdicts on made-up
samples, and runs the smoke mode (every workload end to end with tiny budgets,
traced and untraced, every metric present).
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench():
    return run.load_json(os.path.join(ROOT, "BENCHMARK.json"))


class BenchmarkJson(unittest.TestCase):
    def test_shape(self):
        b = bench()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        names = [w["name"] for w in b["workloads"]]
        names += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, run.NAME_RE)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_workloads_defined(self):
        workloads = run.load_json(os.path.join(HERE, "workloads.json"))["workloads"]
        self.assertEqual([w["name"] for w in bench()["workloads"]], list(workloads))


class Verdict(unittest.TestCase):
    def test_clear_gain(self):
        parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]
        change = [v * 0.8 for v in parent]
        self.assertEqual(run.verdict(parent, change, "lower", 0.1), "better")
        self.assertEqual(run.verdict(parent, change, "higher", 0.1), "worse")

    def test_within_bound(self):
        parent = [10.0, 10.1, 9.9, 10.05, 9.95]
        change = [10.2, 10.3, 10.1, 10.25, 10.15]
        self.assertEqual(run.verdict(parent, change, "lower", 0.1), "same")

    def test_spread_wider_than_bound(self):
        parent = [5.0, 15.0, 8.0, 12.0, 10.0]
        change = [14.0, 6.0, 11.0, 9.0, 10.5]
        self.assertEqual(run.verdict(parent, change, "lower", 0.1), "unresolved")


class Smoke(unittest.TestCase):
    def test_smoke(self):
        r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                           cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr[-2000:])


if __name__ == "__main__":
    unittest.main()

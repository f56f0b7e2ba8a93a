"""Self-test of the benchmark's output checker and metric reporting.

    python3 -m unittest discover -s perfbench/tests

Runs perfbench/run.py (which builds the benchmark on first use) on tiny
run lengths: every declared metric must be emitted with its unit, and a
corrupted output or an unbalanced spill ledger must raise the failure count.
"""

import json
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ("gol_halo", "life_census", "gemm_out_of_core")


def run(workload, trace=0, inject="none", seconds=0.2):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace), "--inject", inject],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("run.py exited %d: %s" % (out.returncode, out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class MetricsTest(unittest.TestCase):
    def check_metrics(self, result, section):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        want = declared(section)
        self.assertEqual(set(result["metrics"]), set(want))
        for name, unit in want.items():
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_tiny_runs_emit_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                plain = run(workload, trace=0)
                self.assertTrue(plain["correct"])
                self.assertEqual(plain["failed"], 0)
                self.assertGreater(plain["attempted"], 0)
                self.check_metrics(plain, "end_to_end")
                for name in ("tasks_per_s", "step_ms_p50", "step_ms_p90", "setup_s"):
                    self.assertGreater(plain["metrics"][name]["value"], 0, name)
                traced = run(workload, trace=1)
                self.assertTrue(traced["correct"])
                self.check_metrics(traced, "per_layer")
                self.assertEqual(traced["metrics"]["fail_rate"]["value"], 0)
                self.assertEqual(traced["metrics"]["spill.ledger_balanced"]["value"], 1)
                self.assertGreater(traced["metrics"]["sim_step_ms"]["value"], 0)

    def test_step_spans_cover_gol_halo_steps(self):
        traced = run("gol_halo", trace=1)
        self.assertGreaterEqual(traced["metrics"]["trace.step_coverage"]["value"], 0.9)


class CheckerTest(unittest.TestCase):
    def assert_detected(self, result):
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])

    def test_flipped_output_cell_is_detected(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assert_detected(run(workload, inject="flip_cell"))

    def test_unbalanced_spill_ledger_is_detected(self):
        self.assert_detected(run("gemm_out_of_core", inject="unbalanced_ledger"))

    def test_flipped_cell_raises_fail_rate(self):
        result = run("life_census", trace=1, inject="flip_cell")
        self.assertGreater(result["metrics"]["fail_rate"]["value"], 0)


if __name__ == "__main__":
    unittest.main()

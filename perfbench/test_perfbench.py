#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does), runs the C++ checks of the order
statistics and of input determinism (perfbench_test), then drives short
runs with deliberately injected faults: a failing operation must be
counted in `failed` (error_frac), and a wrong answer must abort the run
with a non-zero exit and no result line. Finally, every metric the driver
prints in its JSON line must be exactly the list BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = 0.5


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_unit_checks(self):
        done = subprocess.run([os.path.join(run.BUILD, "perfbench_test")])
        self.assertEqual(done.returncode, 0)

    def test_failing_operation_counts_in_error_frac(self):
        for workload in ("cli_cold", "serve_mixed"):
            code, lines = run.run_driver(workload, 1, SECONDS, 0, "fail")
            self.assertEqual(code, 0, workload)
            result = json.loads(lines[-1])
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["failed"], 1, workload)
            self.assertGreater(result["attempted"], result["failed"])

    def test_wrong_answer_aborts_the_run(self):
        for workload in run.WORKLOADS:
            code, lines = run.run_driver(workload, 1, SECONDS, 0, "wrong")
            self.assertNotEqual(code, 0, workload)
            self.assertFalse(any(line.startswith("{") for line in lines),
                             workload)

    def test_metrics_match_benchmark_json(self):
        declared = benchmark_json()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run.run_driver("cli_warm", 2, SECONDS, trace)
            self.assertEqual(code, 0)
            metrics = json.loads(lines[-1])["metrics"]
            self.assertEqual(list(metrics),
                             [metric["name"] for metric in declared[key]])
            for metric in declared[key]:
                self.assertEqual(metrics[metric["name"]]["unit"],
                                 metric["unit"])

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(
            [workload["name"] for workload in benchmark_json()["workloads"]],
            list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

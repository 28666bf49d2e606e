"""Self-test of the benchmark on tiny configurations of its workloads.

    python3 -m unittest discover -s perfbench/tests

Builds the benchmark like run.py does, runs every workload at a tiny scale
(2,000 users over 2 shards; one replication) with tracing off and on, and
checks the reports against BENCHMARK.json and against each other.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (the benchmark's own build step)

TINY = {
    "fleet_500k": ["--users", "2000", "--shards", "2"],
    "fleet_faults": ["--users", "2000", "--shards", "2"],
    "paper_closed_loop": ["--replications", "1"],
}
FAULT_FREE = ("fleet_500k", "paper_closed_loop")
# The benchmark's stated tolerance on unattributed traced time
# (kLayerSumTolerance in main.cpp).
LAYER_SUM_TOLERANCE = 0.01


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.contract = load_contract()
        cls.out_dir = run.build_dir()
        cls.binary = run.build(cls.out_dir)
        cls.reports = {}
        for name, scale in TINY.items():
            for trace in (0, 1):
                cmd = [cls.binary, "--workload", name, "--seconds", "1",
                       "--trace", str(trace)] + scale
                if trace == 1:
                    cmd += ["--spans",
                            os.path.join(cls.out_dir, f"selftest-{name}.json")]
                out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                     check=True, timeout=120).stdout
                cls.reports[(name, trace)] = out.rstrip("\n").split("\n")

    def result(self, name, trace):
        return json.loads(self.reports[(name, trace)][-1])

    def fingerprints(self, name):
        for line in self.reports[(name, 1)]:
            m = re.match(r"fingerprint (\w+)\s+traced fingerprint (\w+)", line)
            if m:
                return m.group(1), m.group(2)
        self.fail(f"{name}: no fingerprint line in the traced report")

    def test_contract_names_workloads(self):
        self.assertEqual([w["name"] for w in self.contract["workloads"]],
                         list(TINY))

    def test_every_metric_emitted_with_its_unit(self):
        for name in TINY:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result = self.result(name, trace)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.contract[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_end_to_end_metrics_are_nonzero(self):
        for name in TINY:
            metrics = self.result(name, 0)["metrics"]
            for metric, entry in metrics.items():
                with self.subTest(workload=name, metric=metric):
                    self.assertGreater(entry["value"], 0)

    def test_traced_fingerprint_equals_untraced(self):
        for name in TINY:
            with self.subTest(workload=name):
                untraced, traced = self.fingerprints(name)
                self.assertEqual(untraced, traced)

    def test_layer_self_times_sum_to_wall_time(self):
        for name in TINY:
            with self.subTest(workload=name):
                metrics = self.result(name, 1)["metrics"]
                wall = metrics["trace.wall_s"]["value"]
                layers = sum(metrics[m]["value"] for m in (
                    "core.build_s", "core.advance_s", "core.slot_boundary_s",
                    "fleet.coordinate_s", "core.drain_s", "exp.merge_s"))
                self.assertGreater(wall, 0)
                self.assertLessEqual(abs(wall - layers),
                                     LAYER_SUM_TOLERANCE * wall)

    def test_span_file_adds_up(self):
        for name in TINY:
            with self.subTest(workload=name):
                path = os.path.join(self.out_dir, f"selftest-{name}.json")
                with open(path) as f:
                    spans = json.load(f)["spans"]
                roots = [s for s in spans if s["parent"] == -1]
                self.assertEqual(len(roots), 1)
                root = roots[0]
                total_self = sum(s["self_s"] for s in spans)
                self.assertAlmostEqual(total_self,
                                       root["end_s"] - root["start_s"],
                                       delta=1e-6)
                for s in spans:
                    self.assertEqual(s["workload"], name)
                    self.assertLessEqual(s["start_s"], s["end_s"])

    def test_fault_counts(self):
        for name in TINY:
            metrics = self.result(name, 1)["metrics"]
            faults = {k: v["value"] for k, v in metrics.items()
                      if k.startswith("fault.")}
            with self.subTest(workload=name):
                self.assertTrue(faults)
                if name in FAULT_FREE:
                    self.assertTrue(all(v == 0 for v in faults.values()),
                                    faults)
                else:
                    self.assertGreater(faults["fault.preemptions"], 0)


if __name__ == "__main__":
    unittest.main()

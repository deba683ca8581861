#!/usr/bin/env python3
"""The benchmark's own test.

Runs every workload on a second seed (not the default one) through
`perfbench/run.py`, and checks that its output checks pass with no failed
operation and that it prints exactly the metrics `BENCHMARK.json` names,
with their units. Run from the repository root:

    python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 2

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def run(workload, trace, seed=SEED, seconds=1):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Workloads(unittest.TestCase):
    def check(self, out, names):
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        want = {m["name"]: m["unit"] for m in names}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        self.assertEqual(got, want)
        for name, v in out["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)

    def test_every_workload_passes_its_checks_on_a_second_seed(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(result(run(w["name"], 0)), SPEC["end_to_end"])

    def test_traced_run_prints_every_per_layer_metric(self):
        out = result(run(SPEC["workloads"][0]["name"], 1))
        self.check(out, SPEC["per_layer"])

    def test_unknown_workload_is_refused_without_a_result(self):
        proc = run("no-such-workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())

#!/usr/bin/env python3
"""The benchmark's own test: a tiny-size run of every workload.

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is printed with its unit, in
both the untraced and the traced run; that two untraced runs with the same
seed agree exactly on every sim-clock and count metric; and that the traced
run's own DRAM replay ends on the engine's cycle.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    def check_metrics(self, result, section):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, unit in want.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)

    def test_every_workload(self):
        for w in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=w):
                info, first = run(w, 7, 0)
                self.assertEqual(info["params"]["seed"], 7)
                self.assertIn("nproc", info["host"])
                self.check_metrics(first, "end_to_end")
                self.assertGreater(first["metrics"]["setup_s"]["value"], 0)
                _, second = run(w, 7, 0)
                # Metrics on the simulated clock or plain counts repeat exactly.
                for name, clock in info["clocks"].items():
                    if clock != "host":
                        self.assertEqual(first["metrics"][name]["value"],
                                         second["metrics"][name]["value"], name)
                _, traced = run(w, 7, 1)
                self.check_metrics(traced, "per_layer")
                metrics = traced["metrics"]
                self.assertGreater(metrics["obs.host_tok_s"]["value"], 0)
                self.assertEqual(metrics["memsim.replay_cycle_gap"]["value"], 0)


if __name__ == "__main__":
    unittest.main()

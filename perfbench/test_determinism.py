#!/usr/bin/env python3
"""Determinism tests of the benchmark itself.

Run from the repository root:
    python3 perfbench/test_determinism.py

Checks that one --seed yields byte-identical generated inputs and orders,
that another seed changes the order and the service schedule, and that two
traced runs with the same seed report identical per-layer work counts.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer counts that must repeat exactly between runs with one seed.
EXACT_COUNTS = [
    "aig.strash_probes",
    "dqbf.copies",
    "qbf.eliminations",
    "cache.stores",
    "runtime.session_reuse_ratio",
]


def run(*args):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + list(args),
                         cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError("run.py %s failed (%d):\n%s" % (args, out.returncode, out.stderr[-3000:]))
    return out.stdout


def dump(workload, seed):
    return run("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0",
               "--dump-inputs")


def traced_metrics(workload, seed):
    last = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", "1").strip().splitlines()[-1]
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0, result
    return {name: m["value"] for name, m in result["metrics"].items()}


class InputDeterminism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in ("pec_sweep", "service_mix"):
            with self.subTest(workload=workload):
                self.assertEqual(dump(workload, 7), dump(workload, 7))

    def test_other_seed_changes_order_and_schedule(self):
        a = dump("pec_sweep", 7).splitlines()
        b = dump("pec_sweep", 8).splitlines()
        instances = [line for line in a if line.startswith("instance ")]
        # The instances themselves do not depend on the seed; their order in
        # each round does.
        self.assertEqual(instances, [l for l in b if l.startswith("instance ")])
        self.assertNotEqual([l for l in a if l.startswith("round ")],
                            [l for l in b if l.startswith("round ")])
        self.assertNotEqual(dump("service_mix", 7), dump("service_mix", 8))


class CountDeterminism(unittest.TestCase):
    def test_same_seed_same_counts(self):
        for workload in ("pec_sweep", "service_mix"):
            first = traced_metrics(workload, 3)
            second = traced_metrics(workload, 3)
            for name in EXACT_COUNTS:
                with self.subTest(workload=workload, metric=name):
                    self.assertIn(name, first)
                    self.assertEqual(first[name], second[name])
            # Work is done on both workloads, so the counts are not vacuous.
            self.assertGreater(first["aig.strash_probes"], 0)
            if workload == "service_mix":
                self.assertGreater(first["cache.stores"], 0)
                self.assertGreater(first["runtime.session_reuse_ratio"], 0)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

Two traced runs of a workload with the same seed must report identical
per-layer counts (replays, simulated steps, Step 6 counters, IUT inputs and
executions) and identical workload facts, and both must pass the verdict
check.  For campaign_cold the second run uses four workers: the engine
documents these totals as independent of jobs and scheduling.

    python3 perfbench/test_perfbench.py            # every workload
    python3 perfbench/test_perfbench.py -k warm    # workloads matching 'warm'

Run from the root of the source tree; the first run builds the benchmark.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced_run(workload, jobs=0, seed=7):
    """One traced run; returns (result line, facts line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1",
         "--jobs", str(jobs)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    facts = [line for line in lines if line.startswith("facts ")]
    return json.loads(lines[-1]), facts


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


class Determinism(unittest.TestCase):
    def check(self, workload, second_jobs=0):
        first, first_facts = traced_run(workload)
        second, second_facts = traced_run(workload, second_jobs)
        for result in (first, second):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
        self.assertTrue(counts(first))
        self.assertEqual(counts(first), counts(second))
        self.assertEqual(first_facts, second_facts)

    def test_campaign_cold(self):
        self.check("campaign_cold", second_jobs=4)

    def test_campaign_warm(self):
        self.check("campaign_warm")

    def test_one_shot(self):
        self.check("one_shot")

    def test_wide_ring(self):
        self.check("wide_ring")


if __name__ == "__main__":
    unittest.main()

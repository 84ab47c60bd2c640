"""Self-tests of the benchmark itself.

    python3 -m unittest perfbench/selftest.py        # about four minutes

The file is not named ``test_*.py`` on purpose: the repository's own
test suite must not pick it up, since it spawns traced benchmark runs.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
from workloads import ALL_JOBS, WORKLOADS, Job  # noqa: E402


def corrupt(value):
    """Change the first integer found in ``value`` by one; None if none."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        changed = re.sub(r"\d+", lambda m: str(int(m.group()) + 1), value, count=1)
        return changed if changed != value else None
    if isinstance(value, list):
        for i, item in enumerate(value):
            new = corrupt(item)
            if new is not None:
                return value[:i] + [new] + value[i + 1:]
    return None


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=180)
    return json.loads(proc.stdout.splitlines()[-1])


class Verification(unittest.TestCase):
    reference = verify.load_reference()

    def record_text(self, results) -> str:
        return json.dumps({"command": "x", "results": results})

    def test_reference_outputs_pass_every_check(self):
        for job in ALL_JOBS.values():
            expected = self.reference[job.name]
            if "sha256" in expected:
                continue
            with self.subTest(job=job.name):
                text = self.record_text(expected["results"])
                self.assertIsNone(verify.check(job, text, self.reference))

    def test_one_corrupted_coefficient_fails(self):
        for job in ALL_JOBS.values():
            expected = self.reference[job.name]
            if "sha256" in expected:
                continue
            with self.subTest(job=job.name):
                results = corrupt(copy.deepcopy(expected["results"]))
                self.assertIsNotNone(results)
                text = self.record_text(results)
                self.assertIsNotNone(verify.check(job, text, self.reference))
                if job.name in oracles.CHECKS:  # the oracle bites on its own
                    self.assertIsNotNone(
                        oracles.check(job.name, results, self.reference))

    def test_corrupted_dot_fails(self):
        job = ALL_JOBS["perms_digraph_k2_d150_dot"]
        self.assertIsNotNone(verify.check(job, "digraph descendants {\n}",
                                          self.reference))


class JobGuards(unittest.TestCase):
    env = run.child_env()

    def test_exception_is_a_failed_job(self):
        # the node budget of build_digraph runs out near depth 206
        job = Job("budget", "cli", ("perms", "digraph", "--k", "2", "--depth", "400"))
        outcome = run.run_job(job, 0, False, 60, self.env)
        self.assertEqual(outcome.exit_code, 1)
        self.assertIn("Traceback", outcome.error)
        self.assertIn("RuntimeError: node budget exceeded", outcome.error)

    def test_usage_error_is_a_failed_job(self):
        job = Job("usage", "cli", ("perms", "bounds", "--k", "3"))
        outcome = run.run_job(job, 0, False, 60, self.env)
        self.assertEqual(outcome.exit_code, 2)
        self.assertIn("error: bounds require k in {1, 2}", outcome.error)

    def test_timeout_is_a_failed_job(self):
        outcome = run.run_job(ALL_JOBS["perms_bounds_k1"], 0, False, 0.5, self.env)
        self.assertIn("timeout", outcome.error)
        self.assertLess(outcome.latency_s, 5)

    def test_deadline_is_a_failed_job(self):
        outcome = run.run_job(ALL_JOBS["perms_bounds_k1"], 0, False, 0, self.env)
        self.assertIn("deadline", outcome.error)


class Metrics(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))

    def test_counts_repeat_across_runs_and_seeds(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [traced_run(workload, 1), traced_run(workload, 1),
                        traced_run(workload, 2)]
                self.assertTrue(all(r["correct"] for r in runs))
                counts = [{name: m["value"] for name, m in r["metrics"].items()
                           if m["unit"] in ("count", "bytes")} for r in runs]
                self.assertTrue(counts[0])
                self.assertEqual(counts[0], counts[1])
                self.assertEqual(counts[0], counts[2])


if __name__ == "__main__":
    unittest.main()

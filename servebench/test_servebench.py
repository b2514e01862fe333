#!/usr/bin/env python3
"""The served benchmark's own tests, at a tiny size.

Run from the repository root (builds the benchmark on first use):

    python3 servebench/test_servebench.py

They check that every workload prints every metric BENCHMARK.json names,
with its unit; that a corrupted reference digest and a lost acknowledged
key each make the command fail (both faults are injected in the harness,
not in the program); and that the command refuses to run without the
program's sources.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
TINY = ["--seed", "7", "--seconds", "1", "--scale", "0.05"]


def run(*args, cwd=ROOT):
    result = subprocess.run(RUN + list(args), cwd=cwd, capture_output=True,
                            text=True, timeout=600)
    lines = result.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return result.returncode, last, result


class ServebenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            reported = result["metrics"][metric["name"]]
            self.assertEqual(reported["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(reported["value"], (int, float))

    def test_every_workload_prints_every_metric(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            for trace, declared in (("0", self.spec["end_to_end"]),
                                    ("1", self.spec["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, last, raw = run("--workload", workload, "--trace",
                                          trace, *TINY)
                    self.assertEqual(code, 0, raw.stderr[-2000:])
                    self.assertEqual(
                        set(last), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(last["correct"])
                    self.assertEqual(last["failed"], 0)
                    self.assertGreaterEqual(last["attempted"], 1)
                    self.check_metrics(last, declared)

    def test_corrupted_answer_digest_fails(self):
        for workload in ("olap_nested", "oltp_small"):
            with self.subTest(workload=workload):
                code, last, _ = run("--workload", workload, "--trace", "0",
                                    "--corrupt-digest", *TINY)
                self.assertNotEqual(code, 0)
                self.assertFalse(last["correct"])
                self.assertGreater(last["failed"], 0)

    def test_dropped_acknowledged_key_fails(self):
        code, last, _ = run("--workload", "mixed_durable", "--trace", "0",
                            "--drop-acked-key", *TINY)
        self.assertNotEqual(code, 0)
        self.assertFalse(last["correct"])
        self.assertGreater(last["failed"], 0)

    def test_refuses_without_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark itself.
        build_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
            ROOT, ".bench_build")
        os.makedirs(build_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_dir) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "servebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            result = subprocess.run(
                [sys.executable, "servebench/run.py", "--workload",
                 "oltp_small", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170, env=env)
            self.assertNotEqual(result.returncode, 0)
            self.assertEqual(result.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()

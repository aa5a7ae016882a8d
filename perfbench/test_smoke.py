#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/test_smoke.py

Runs every workload at smoke size (tiny units, a fraction of a second) and
checks that the output parses, that every metric BENCHMARK.json names is
present with its unit, that every output was verified, and that the
determinism line (per-repetition counts and board-clock metrics) is
identical across two untraced runs and the traced run of one seed. Also
checks that the benchmark fails cleanly, printing no result, when the
repository sources are missing.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = "0.1"


def run_bench(workload, trace, seed=1, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", SMOKE_SECONDS, "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    det = [l for l in lines if l.startswith("determinism ")]
    return result, json.loads(det[0][len("determinism "):])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, spec, positive):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in spec})
        for m in spec:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if positive:
                self.assertGreater(got["value"], 0, m["name"])

    def test_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                runs = [run_bench(w["name"], 0), run_bench(w["name"], 0),
                        run_bench(w["name"], 1)]
                for proc in runs:
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                (e2e, det0), (_, det1), (layers, det2) = map(parse, runs)
                self.check_metrics(e2e, SPEC["end_to_end"], positive=True)
                self.check_metrics(layers, SPEC["per_layer"], positive=False)
                self.assertEqual(det0, det1)  # run to run
                self.assertEqual(det0, det2)  # untraced vs traced
                self.assertEqual(det0["virt_goodput_KBps"],
                                 e2e["metrics"]["virt_goodput_KBps"]["value"])

    def test_seed_derives_inputs(self):
        # Another seed gives other inputs but the same fixed unit of work.
        for w in ("rsa_churn", "onboard_aes"):
            with self.subTest(workload=w):
                (_, det1), (_, det2) = (parse(run_bench(w, 0, seed=s))
                                        for s in (1, 2))
                self.assertNotEqual(det1["inputs.digest"],
                                    det2["inputs.digest"])
                self.assertEqual(set(det1), set(det2))

    def test_fails_without_sources(self):
        bare = ROOT / ".bench_build" / "smoke-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "psk_churn",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

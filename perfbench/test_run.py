#!/usr/bin/env python3
"""Tests of the benchmark itself, on reduced-size runs (about 20 seconds).

Run from the root of a checkout:

    python3 perfbench/test_run.py

They check that every workload emits every metric BENCHMARK.json names,
with its unit; that an injected output mismatch counts as a failed
operation; that a perturbed deterministic count, within a run or against
an earlier run of the same seed, fails the exact-count check; and that a
directory without the repository fails without printing a result.
"""

import glob
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

STATE = os.path.join(run.ROOT, ".perfbench", "test")
SMALL = ["--limit", "2", "--corpus", "6", "--setup-reps", "1"]


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(workload, *extra, trace=0, seed=1):
    """Run the built benchmark program; return (exit code, stdout lines, result)."""
    cmd = [run.EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--state-dir", STATE]
    cmd += SMALL + list(extra)
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        err = run.build()
        if err:
            raise RuntimeError(err)
        shutil.rmtree(STATE, ignore_errors=True)

    def test_every_metric_with_its_unit(self):
        s = spec()
        self.assertEqual([w["name"] for w in s["workloads"]], run.WORKLOADS)
        printed_names = {
            "compile_paper15": ["compile_s"],
            "simulate_paper15": ["sim_s", "sim_minstr_per_s", "sim_speedup"],
            "execute_paper15": ["exec_s", "exec_speedup"],
            "proggen_flow": ["compile_s", "sim_s", "sim_minstr_per_s",
                             "sim_speedup", "exec_s", "exec_speedup",
                             "flow_ms_p50"],
        }
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in s[key]}
            for w in run.WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    rc, lines, res = bench(w, trace=trace)
                    self.assertEqual(rc, 0, "\n".join(lines))
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {n: m["unit"] for n, m in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for m in res["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))
                    if trace == 0:
                        for n in ["setup_s", "pass_s", "peak_mem_mb",
                                  "failed_frac"] + printed_names[w]:
                            self.assertTrue(
                                any(l.startswith("metric " + n + " ")
                                    for l in lines), n)
                        self.assertIn("seed=1", lines[0])
                        self.assertIn("domains=", lines[0])

    def test_injected_mismatch_counts_as_failed(self):
        for w in ("compile_paper15", "simulate_paper15", "proggen_flow"):
            with self.subTest(workload=w):
                rc, lines, res = bench(w, "--inject-mismatch")
                self.assertNotEqual(rc, 0)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], 1)
                self.assertTrue(any(l.startswith("FAILED") for l in lines))

    def test_perturbed_count_fails_exact_count_check(self):
        for w, count in (("simulate_paper15", "tls.cycles_tls"),
                         ("compile_paper15", "tlscore.sync_ops"),
                         ("execute_paper15", "specrt.commits")):
            with self.subTest(workload=w, count=count):
                rc, lines, res = bench(w, "--perturb-count", count)
                self.assertNotEqual(rc, 0)
                self.assertFalse(res["correct"])
                self.assertTrue(any(l.startswith("COUNT DRIFT") and count in l
                                    for l in lines))

    def test_count_drift_across_runs_of_one_seed(self):
        rc, _, res = bench("simulate_paper15", seed=77)
        self.assertEqual(rc, 0)
        rc, _, res = bench("simulate_paper15", seed=77)
        self.assertEqual(rc, 0)
        (path,) = glob.glob(os.path.join(STATE, "counts-simulate_paper15-seed77-*"))
        with open(path) as f:
            rows = [l.rstrip("\n").split("\t") for l in f]
        rows = [[k, str(int(v) + 1) if k.endswith("tls.epochs_committed") else v]
                for k, v in rows]
        with open(path, "w") as f:
            f.writelines("%s\t%s\n" % (k, v) for k, v in rows)
        rc, lines, res = bench("simulate_paper15", seed=77)
        self.assertNotEqual(rc, 0)
        self.assertFalse(res["correct"])
        self.assertTrue(any("earlier run" in l for l in lines))

    def test_fails_without_the_repository(self):
        bare = os.path.join(STATE, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "proggen_flow",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()

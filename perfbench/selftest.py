"""Self-tests of the benchmark itself (not of crchains).

    python3 perfbench/selftest.py

They show that inputs are a function of the seed alone, that every count
the traced run reports repeats exactly for one seed, and that the checker
counts a wrong result as failed.  Traced runs use a prefix of each job
list, with shorter words for sweep and crown, to stay quick.
"""

from __future__ import annotations

import copy
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import worker  # sets up sys.path and thread pinning first
from common import BENCH_DIR, WORK_DIR
from tracing import COUNTERS, Tracer
from workloads import PARTS, WORKLOADS


def small_jobs(name: str, seed: int) -> list[dict]:
    jobs = PARTS[name].make_inputs(seed)
    if name == "sweep":
        return [dict(job, word_length=6) for job in jobs]
    if name == "crown":
        return [dict(job, word_length=6) for job in jobs[:1]]
    if name == "leaves":
        return jobs[:90]
    return [job for job in jobs if job["kind"] != "hyperconvexity"]


def traced_run(name: str, jobs: list[dict]) -> tuple[dict, list]:
    """One traced pass over `jobs`: per-layer metrics and collected outputs."""
    wl = WORKLOADS[name]
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=WORK_DIR))
    try:
        prepared = [wl.prepare(job, workdir / f"job{k}.json") for k, job in enumerate(jobs)]
        tracer = Tracer()
        tracer.install()
        try:
            walls, _, passes = worker.run_passes(wl, prepared, workdir, 0.0, "traced", tracer)
        finally:
            tracer.uninstall()
        return tracer.metrics(walls[0], walls[0]), worker.collect(wl, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def is_count(metric: str) -> bool:
    return metric.endswith(".calls") or metric in COUNTERS or metric == "trace.spans"


class InputsTest(unittest.TestCase):
    def test_inputs_depend_on_the_seed_only(self):
        for name, wl in WORKLOADS.items():
            with self.subTest(workload=name):
                first = worker.inputs_digest(wl.make_inputs(7))
                self.assertEqual(first, worker.inputs_digest(wl.make_inputs(7)))
                self.assertNotEqual(first, worker.inputs_digest(wl.make_inputs(8)))

    def test_a_fresh_process_builds_the_same_inputs(self):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", "leaves",
             "--seed", "7", "--setup-only"],
            capture_output=True, text=True, check=True,
        )
        digest = worker.json.loads(out.stdout.splitlines()[-1])["inputs_sha256"]
        self.assertEqual(digest, worker.inputs_digest(WORKLOADS["leaves"].make_inputs(7)))


class CountsTest(unittest.TestCase):
    def test_counts_repeat_for_one_seed(self):
        for name in PARTS:
            with self.subTest(workload=name):
                jobs = small_jobs(name, 3)
                first, _ = traced_run(name, jobs)
                second, _ = traced_run(name, jobs)
                counts = {k: v for k, v in first.items() if is_count(k)}
                self.assertEqual(counts, {k: second[k] for k in counts})
                self.assertGreater(first["trace.spans"], 0)

    def test_layers_account_for_the_traced_pass(self):
        metrics, _ = traced_run("curves", small_jobs("curves", 3))
        self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(self_total + metrics["trace.unaccounted_s"], metrics["trace.wall_s"])


def corrupt(name: str, outs: list) -> list:
    outs = copy.deepcopy(outs) if name in ("sweep", "crown", "curves") else list(outs)
    status, value = outs[0]
    if name == "sweep":
        value["rows"][0]["sup_estimate"] += 1.0
    elif name == "crown":
        value["report"]["status"] = "CROSSING"
    elif name == "leaves":
        value += 0.1  # job 0 is a Cartan triple
    else:
        value += 0.1  # job 0 is a bent-curve supremum
    outs[0] = (status, value)
    return outs


class CheckerTest(unittest.TestCase):
    def test_wrong_results_are_failed(self):
        for name, wl in PARTS.items():
            with self.subTest(workload=name):
                jobs = small_jobs(name, 5)
                _, passes = traced_run(name, jobs)
                good = worker.evaluate(wl, jobs, passes)
                bad = worker.evaluate(wl, jobs, [corrupt(name, passes[0])])
                self.assertTrue(good["correct"], good["failures"])
                self.assertFalse(bad["correct"])
                self.assertGreater(bad["failed"], good["failed"])

    def test_a_leaf_on_the_wrong_side_is_failed(self):
        wl = PARTS["leaves"]
        jobs = small_jobs("leaves", 5)[:3]
        _, passes = traced_run("leaves", jobs)
        status, leaf = passes[0][1]
        outs = list(passes[0])
        outs[1] = (status, leaf.opposite())
        self.assertFalse(worker.evaluate(wl, jobs, [outs])["correct"])

    def test_a_raised_job_is_failed_but_not_wrong(self):
        wl = PARTS["curves"]
        jobs = small_jobs("curves", 5)
        _, passes = traced_run("curves", jobs)
        outs = list(passes[0])
        outs[0] = ("raised", "OverflowError: math range error")
        res = worker.evaluate(wl, jobs, [outs])
        self.assertEqual((res["raised"], res["wrong"], res["correct"]), (1, 0, True))

    def test_combined_workload_checks_each_part(self):
        wl = WORKLOADS["queries"]
        jobs = [{"part": "leaves", "job": job} for job in small_jobs("leaves", 5)[:6]] + [
            {"part": "curves", "job": job} for job in small_jobs("curves", 5)[:1]
        ]
        _, passes = traced_run("queries", jobs)
        outs = list(passes[0])
        status, value = outs[-1]
        outs[-1] = (status, value + 0.1)  # the bent-curve supremum is off
        res = worker.evaluate(wl, jobs, [outs])
        self.assertFalse(res["correct"])
        self.assertEqual(res["part_tallies"]["curves"]["wrong"], 1)
        self.assertEqual(res["part_tallies"]["leaves"]["wrong"], 0)

    def test_sweep_trend_needs_monotone_slimness(self):
        wl = PARTS["sweep"]
        rows = [
            {"phase": math.pi, "tau": [4.8, 0.0], "sup_estimate": 0.0, "error": None},
            {"phase": 3.6, "tau": [4.0, 0.0], "sup_estimate": 1.2, "error": None},
            {"phase": 3.9, "tau": [3.6, 0.0], "sup_estimate": 0.8, "error": None},
            {"phase": 4.0, "tau": [3.4, 0.0], "sup_estimate": 0.4, "error": None},
        ]
        checks = dict(wl.check_pass([], [{"exit": 0, "rows": rows}]))
        self.assertIsNotNone(checks["trend"])


if __name__ == "__main__":
    unittest.main(verbosity=2)

"""Benchmark entry point: one workload per invocation.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1

The gated workloads are cli (the sweep and crown parts) and queries (the
leaves and curves parts); each part can also be run on its own, and `all`
runs the gated workloads one after another.  Each runs in a worker process
of its own (worker.py), after SETUP_PROBES processes that only import
crchains and build the inputs, so that set-up time is a median.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  With --workload all it maps each workload to that object.
A result file with the environment and provenance goes to
perfbench/results/.

Exits non-zero without printing a result when the library sources are
missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    PACKAGE,
    PARTS,
    RESULTS_DIR,
    SRC,
    WORKLOADS,
    git_commit,
    pin_threads,
    source_sha256,
)

SETUP_PROBES = 2
# A run must end within 180 s; keep a margin for this process.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "query_s.p50": "s",
    "query_s.p99": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), *args],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} did not finish in {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    env = pin_threads(dict(os.environ))
    env["PYTHONPATH"] = str(SRC)
    common = ["--workload", name, "--seed", str(seed)]
    probes = [_worker(common + ["--setup-only"], env, deadline) for _ in range(SETUP_PROBES)]
    res = _worker(common + ["--seconds", str(seconds), "--trace", str(trace)], env, deadline)
    if len({p["inputs_sha256"] for p in probes + [res]}) != 1:
        raise BenchError("one seed gave different inputs in different processes")
    setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
    res["setup_samples"] = setups
    if trace:
        metrics = res["layers"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": res["wall_s"],
            "query_s.p50": res["query_s"]["p50"],
            "query_s.p99": res["query_s"]["tail"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {
            key: {"value": values[key], "unit": unit} for key, unit in END_TO_END_UNITS.items()
        }
    final = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "src_sha256": source_sha256(),
        **res,
        "result": final,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1))
    _report(record, path.name)
    return final


def _report(rec: dict, path: str) -> None:
    q = rec["query_s"]
    tail = "p99" if q["tail_percentile"] == 99.0 else "max (fewer than 1000 jobs a pass)"
    frac = rec["failed"] / rec["attempted"]
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  -> {path}")
    rows = [
        ("setup_s", statistics.median(rec["setup_samples"]), "s",
         f"median of {len(rec['setup_samples'])} set-ups"),
        ("wall_s", rec["wall_s"], "s", f"median of {rec['passes']} passes of {rec['jobs_per_pass']} jobs"),
        ("query_s.p50", q["p50"], "s", f"{q['samples']} jobs"),
        ("query_s.p99", q["tail"], "s", f"{tail} of {q['samples']} jobs"),
        ("peak_rss_mb", rec["peak_rss_mb"], "MB", "1 worker process"),
        ("failed_frac", frac, "ratio",
         f"{rec['failed']} of {rec['attempted']} ({rec['raised']} raised, {rec['wrong']} wrong)"),
    ]
    if rec["trace"]:
        rows = rows[:2] + [
            (key, rec["layers"][key]["value"], "s", "traced pass")
            for key in ("trace.wall_s", "trace.overhead_s", "trace.unaccounted_s")
        ] + rows[-1:]
    for key, value, unit, note in rows:
        print(f"  {key:<22} {value:>14.6g} {unit:<6} ({note})")
    if len(rec["parts"]) > 1:
        for name, part in rec["parts"].items():
            q = part["query_s"]
            print(
                f"  part {name:<7} wall_s {part['wall_s']:.6g} s, query_s.p50 {q['p50']:.6g} s, "
                f"query_s.{'p99' if q['tail_percentile'] == 99.0 else 'max'} {q['tail']:.6g} s "
                f"({q['samples']} jobs), failed_frac {part['failed'] / part['attempted']:.6g} "
                f"({part['failed']} of {part['attempted']})"
            )
    for message in rec["failures"][:5]:
        print(f"  failure: {message}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="crchains benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + PARTS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"library sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    finals = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            finals[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(finals if args.workload == "all" else finals[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

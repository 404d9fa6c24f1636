"""Run one workload in this process: set-up, timed passes, checks, trace.

    python3 perfbench/worker.py --workload crown --seed 1 --seconds 55 --trace 0
    python3 perfbench/worker.py --workload crown --seed 1 --setup-only

run.py starts this script; it prints one JSON object as the last line of
stdout.  Set-up time runs from the first line of this file, before numpy
is imported, to the moment the seeded inputs exist.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

from common import (  # noqa: E402
    PACKAGE,
    RESULTS_DIR,
    SRC,
    WORK_DIR,
    pin_threads,
    thread_settings,
)

pin_threads(os.environ)
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import crchains  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, metric_units  # noqa: E402

# A percentile below 100 needs ten jobs beyond it in every pass; with
# fewer jobs per pass the tail is the slowest job.
TAIL_MIN_JOBS = 1000


def inputs_digest(jobs: list[dict]) -> str:
    return hashlib.sha256(json.dumps(jobs, sort_keys=True).encode()).hexdigest()


def run_passes(wl, prepared, workdir: Path, seconds: float, tag: str, tracer=None):
    """Repeat the job list until one more pass would overrun `seconds`.

    Returns pass wall times, per-job latencies and, per pass, its output
    directory with one ("ok", raw) or ("raised", message) per job.
    """
    walls, latencies, passes = [], [], []
    start = time.perf_counter()
    while True:
        pass_dir = workdir / f"{tag}{len(walls)}"
        outcomes = []
        t_pass = time.perf_counter()
        for k, job in enumerate(prepared):
            if tracer is not None:
                tracer.job = k
            t_job = time.perf_counter()
            try:
                outcomes.append(("ok", wl.run(job, pass_dir / str(k))))
            except Exception as exc:  # every failure is counted, none skipped
                outcomes.append(("raised", f"{type(exc).__name__}: {exc}"))
            latencies.append(time.perf_counter() - t_job)
        walls.append(time.perf_counter() - t_pass)
        passes.append((pass_dir, outcomes))
        if time.perf_counter() - start + statistics.fmean(walls) > seconds:
            return walls, latencies, passes


def collect(wl, passes) -> list[list[tuple[str, object]]]:
    return [
        [
            (status, wl.collect(value, pass_dir / str(k)) if status == "ok" else value)
            for k, (status, value) in enumerate(outcomes)
        ]
        for pass_dir, outcomes in passes
    ]


def part_names(wl, jobs: list[dict]) -> list[str]:
    """The part each job belongs to: its workload unless the list is combined."""
    return [job.get("part", wl.name) for job in jobs]


def evaluate(wl, jobs: list[dict], passes: list[list[tuple[str, object]]]) -> dict:
    """Reference checks on every job of every pass, group checks on the first.

    A job that raised or whose output fails its check is failed; a failed
    group check is one more failed operation.  `correct` is false when any
    output the program returned is wrong; raised jobs returned none.
    Tallies are kept per part as well.
    """
    names = part_names(wl, jobs)
    tally = {name: dict.fromkeys(("attempted", "raised", "wrong"), 0) for name in names}
    messages = []

    def count(part: str, key: str | None, message: str = "") -> None:
        tally[part]["attempted"] += 1
        if key is not None:
            tally[part][key] += 1
            if len(messages) < 20:
                messages.append(message)

    for p, outcomes in enumerate(passes):
        outs = []
        for k, (job, (status, value)) in enumerate(zip(jobs, outcomes)):
            if status == "raised":
                count(names[k], "raised", f"pass {p} job {k} raised {value}")
                outs.append(None)
                continue
            try:
                err = wl.check_job(job, value)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
            count(names[k], None if err is None else "wrong", f"pass {p} job {k}: {err}")
            outs.append(value)
        if p:
            continue
        try:
            groups = wl.check_pass(jobs, outs)
        except Exception as exc:
            groups = [("group checks", f"raised {type(exc).__name__}: {exc}")]
        for label, err in groups:
            head = label.split(":")[0]
            part = head if head in tally else names[0]
            count(part, None if err is None else "wrong", f"{label}: {err}")
    for t in tally.values():
        t["failed"] = t["raised"] + t["wrong"]
    total = {key: sum(t[key] for t in tally.values()) for key in ("attempted", "raised", "wrong", "failed")}
    return {"correct": total["wrong"] == 0, **total, "failures": messages, "part_tallies": tally}


def query_times(latencies: list[float], jobs_per_pass: int) -> dict:
    lat = np.asarray(latencies)
    pct = 99.0 if jobs_per_pass >= TAIL_MIN_JOBS else 100.0
    return {
        "samples": len(lat),
        "p50": float(np.median(lat)),
        "tail": float(np.percentile(lat, pct)),
        "tail_percentile": pct,
    }


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": thread_settings(),
    }


def measure(wl, jobs: list[dict], workdir: Path, seconds: float, trace: bool, seed: int) -> dict:
    warm = [wl.prepare(job, workdir / f"warm{k}.json") for k, job in enumerate(wl.warmup_inputs(jobs))]
    run_passes(wl, warm, workdir, 0.0, "warm")
    prepared = [wl.prepare(job, workdir / f"job{k}.json") for k, job in enumerate(jobs)]
    walls, latencies, passes = run_passes(
        wl, prepared, workdir, seconds / 2 if trace else seconds, "pass"
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    names = part_names(wl, jobs)
    lat = np.asarray(latencies).reshape(len(walls), len(jobs))
    parts = {}
    for name in dict.fromkeys(names):
        cols = [k for k, part in enumerate(names) if part == name]
        parts[name] = {
            "jobs_per_pass": len(cols),
            "wall_s": float(np.median(lat[:, cols].sum(axis=1))),
            "query_s": query_times(lat[:, cols].ravel(), len(cols)),
        }
    result = {
        "passes": len(walls),
        "jobs_per_pass": len(jobs),
        "walls": walls,
        "wall_s": statistics.median(walls),
        "query_s": query_times(latencies, len(jobs)),
        "peak_rss_mb": peak_rss_mb,
        "parts": parts,
    }
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_walls, _, traced = run_passes(wl, prepared, workdir, 0.0, "traced", tracer)
        finally:
            tracer.uninstall()
        passes += traced
        units = metric_units()
        result["layers"] = {
            key: {"value": value, "unit": units[key]}
            for key, value in tracer.metrics(traced_walls[0], result["wall_s"]).items()
        }
        spans_path = RESULTS_DIR / f"spans-{wl.name}-seed{seed}.csv.gz"
        tracer.write_spans(spans_path)
        result["spans_file"] = spans_path.name
    result.update(evaluate(wl, jobs, collect(wl, passes)))
    for name, t in result.pop("part_tallies").items():
        parts[name].update(t)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if Path(crchains.__file__).resolve().parent != PACKAGE:
        print(f"crchains imported from {crchains.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    jobs = wl.make_inputs(args.seed)
    setup_s = time.perf_counter() - _T0
    head = {"setup_s": setup_s, "inputs_sha256": inputs_digest(jobs)}
    if args.setup_only:
        print(json.dumps(head))
        return 0
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_DIR))
    try:
        result = measure(wl, jobs, workdir, args.seconds, bool(args.trace), args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({**head, **result, "params": wl.params(), "env": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

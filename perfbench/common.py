"""Paths, thread pinning and provenance shared by the benchmark scripts.

Imports nothing heavy, so the runner can use it without loading numpy and
the worker can pin thread pools before numpy is imported.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "crchains"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "_work"

# Gated workloads (BENCHMARK.json), then the parts they combine, which can
# also be run on their own.
WORKLOADS = ("cli", "queries")
PARTS = ("sweep", "crown", "leaves", "curves")

# The measured code is single-threaded and the reference host has two
# cores; one BLAS/OpenMP thread per process keeps pools from competing.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads(env: dict) -> dict:
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def thread_settings() -> dict:
    return {var: os.environ.get(var) for var in THREAD_VARS}


def source_sha256() -> str:
    """Digest of the library sources, so results name the code they timed."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree.

    The ceiling keeps git from adopting a repository above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            env=env,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None

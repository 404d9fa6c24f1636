"""The four benchmark workloads: seeded inputs, timed jobs, reference checks.

A workload turns a seed into a JSON-serialisable job list (`make_inputs`).
The worker prepares each job once (`prepare`), times `run` on it pass after
pass, turns raw results into outputs outside the timed region (`collect`)
and hands them to `check_job` and `check_pass`.  Wherever a closed form
exists the reference is computed here, not by the code being timed.

Library calls go through module attributes (`circles.bent_leaf`, not a
name imported here) so that the tracer, which rebinds the library's
module attributes, sees every call.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from crchains import boundary, circles, cli, crowns, groups, slimness
from crchains.boundary import BoundaryPoint

# Gram phase of the (3,3,4) family where Re tau = 3.2, the far end of the
# deformation; groups.triangle_group_at_tau(3, 3, 4, 3.2) finds it.  Kept
# as a constant so the inputs do not depend on the code being timed; the
# sweep check confirms the trace at this phase.
END_PHASE = 4.274239949800518
END_TAU = 3.2

_J = np.array([[0.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, 0.0]])


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([sum(map(ord, workload)), seed])


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _lift(p: BoundaryPoint) -> np.ndarray:
    if p.at_infinity:
        return np.array([1.0, 0.0, 0.0], dtype=complex)
    return np.array([-abs(p.z) ** 2 + 1j * p.t, p.z, 1.0], dtype=complex)


def _inner(a: np.ndarray, b: np.ndarray) -> complex:
    """<a, b> = b^dagger J a in the Siegel model."""
    return complex(np.conj(b) @ _J @ a)


def _spearman(x: list[float], y: list[float]) -> float:
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    return float(np.corrcoef(rx, ry)[0, 1])


class Sweep:
    """`crchains sweep` in process: (3,3,4) limit-set slimness at L = 10."""

    name = "sweep"
    word_length = 10

    def params(self) -> dict:
        return {
            "family": [3, 3, 4],
            "word_length": self.word_length,
            "phase_range": [math.pi, END_PHASE],
            "phases": "pi, one in [0.2, 0.45] and one in [0.55, 0.8] of the "
            "range, and the end; one CLI call per phase",
        }

    def _config(self, phase: float, length: int) -> dict:
        # With one phase the CLI sweeps [phase_lo] alone; phase_hi only has
        # to lie above it.
        return {
            "p": 3,
            "q": 3,
            "r": 4,
            "phase_lo": phase,
            "phase_hi": phase + 0.01,
            "n_phases": 1,
            "word_length": length,
        }

    def make_inputs(self, seed: int) -> list[dict]:
        rng = _rng(self.name, seed)
        span = END_PHASE - math.pi
        phases = [
            math.pi,
            math.pi + span * (0.2 + 0.25 * rng.random()),
            math.pi + span * (0.55 + 0.25 * rng.random()),
            END_PHASE,
        ]
        return [self._config(phase, self.word_length) for phase in phases]

    def warmup_inputs(self, jobs: list[dict]) -> list[dict]:
        return [self._config(math.pi, 3)]

    def prepare(self, job: dict, path: Path) -> str:
        path.write_text(json.dumps(job))
        return str(path)

    def run(self, config: str, outdir: Path) -> int:
        return _cli(["sweep", "--config", config, "--out", str(outdir)])

    def collect(self, raw: int, outdir: Path) -> dict:
        path = outdir / "sweep.json"
        rows = json.loads(path.read_text())["rows"] if path.is_file() else []
        return {"exit": raw, "rows": rows}

    def check_job(self, job: dict, out: dict) -> str | None:
        if out["exit"] != 0:
            return f"exit code {out['exit']}"
        if len(out["rows"]) != job["n_phases"]:
            return f"{len(out['rows'])} rows for {job['n_phases']} phases"
        bad = [row for row in out["rows"] if row["error"] is not None]
        if bad:
            return f"phase {bad[0]['phase']:.6f} failed: {bad[0]['error']}"
        return None

    def check_pass(self, jobs: list[dict], outs: list) -> list[tuple[str, str | None]]:
        rows = [
            row
            for out in outs
            if out is not None
            for row in out["rows"]
            if row["error"] is None
        ]
        checks = []
        if len(rows) >= 3:
            rho = _spearman([-row["tau"][0] for row in rows], [row["sup_estimate"] for row in rows])
            checks.append(("trend", None if rho > 0.95 else f"spearman(-tau, sup) = {rho:.3f}"))
        first = [row for row in rows if row["phase"] == math.pi]
        last = [row for row in rows if row["phase"] == END_PHASE]
        if not first:
            checks.append(("flat end", "no row at phase pi"))
        else:
            sup = first[0]["sup_estimate"]
            checks.append(("flat end", None if sup <= 0.05 else f"sup {sup:.4f} at phase pi"))
        if not last:
            checks.append(("tau end", "no row at the end phase"))
        else:
            tau, sup = last[0]["tau"][0], last[0]["sup_estimate"]
            err = None
            if abs(tau - END_TAU) > 1e-6:
                err = f"Re tau {tau:.8f} at the end phase"
            elif abs(sup - math.pi / 2) >= 0.15:
                err = f"sup {sup:.4f} at Re tau = {END_TAU}"
            checks.append(("tau end", err))
        return checks


class Crown:
    """`crchains crown` in process: build, certify and export at L = 8."""

    name = "crown"
    word_length = 8
    n_crowns = 3

    def params(self) -> dict:
        return {
            "family": [3, 3, 4],
            "gamma_word": "3212",
            "word_length": self.word_length,
            "phase_range": [math.pi, math.pi + 0.2],
            "crowns": f"{self.n_crowns}, one phase in each third of the range",
        }

    def _config(self, phase: float, length: int) -> dict:
        return {
            "p": 3,
            "q": 3,
            "r": 4,
            "phase": phase,
            "gamma_word": "3212",
            "word_length": length,
        }

    def make_inputs(self, seed: int) -> list[dict]:
        rng = _rng(self.name, seed)
        return [
            self._config(math.pi + 0.2 * (k + rng.random()) / self.n_crowns, self.word_length)
            for k in range(self.n_crowns)
        ]

    def warmup_inputs(self, jobs: list[dict]) -> list[dict]:
        return [self._config(math.pi, 2)]

    prepare = Sweep.prepare

    def run(self, config: str, outdir: Path) -> int:
        return _cli(["crown", "--config", config, "--out", str(outdir)])

    def collect(self, raw: int, outdir: Path) -> dict:
        path = outdir / "crown_report.json"
        report = json.loads(path.read_text()) if path.is_file() else None
        return {"exit": raw, "report": report, "bundle": (outdir / "crown.json").is_file()}

    def check_job(self, job: dict, out: dict) -> str | None:
        report = out["report"]
        if out["exit"] != 0:
            return f"exit code {out['exit']}"
        if report is None or report["status"] != "EMBEDDED":
            return f"status {report and report['status']}"
        if not report["min_margin"] > 0:
            return f"min_margin {report['min_margin']}"
        if not out["bundle"]:
            return "no crown.json written"
        return None

    def check_pass(self, jobs: list[dict], outs: list) -> list[tuple[str, str | None]]:
        return []


def _random_point(rng: np.random.Generator) -> list[float]:
    """[Re z, Im z, t] as in the acceptance criteria's random boundary points."""
    z = rng.normal(scale=1.5, size=2)
    return [float(z[0]), float(z[1]), float(rng.normal(scale=2.0))]


def _point(coords: list[float]) -> BoundaryPoint:
    return BoundaryPoint(complex(coords[0], coords[1]), coords[2])


def _leaf_fit(arc, p: BoundaryPoint) -> tuple[float, float]:
    """Chart parameter of p on the arc and its distance from the arc's circle."""
    a, b, v = _lift(arc.start), _lift(arc.end), _lift(p)
    basis = np.column_stack([a, b])
    coef = np.linalg.lstsq(basis, v, rcond=None)[0]
    residual = float(np.linalg.norm(v - basis @ coef) / np.linalg.norm(v))
    if abs(coef[0]) < 1e-12 * abs(coef[1]):
        return math.inf, residual
    return float((coef[1] / coef[0] * _inner(a, b)).imag), residual


def _on_half_lines(q: BoundaryPoint, angles: tuple[float, ...]) -> bool:
    if q.at_infinity or abs(q.z) < 1e-12:
        return abs(q.t) < 1e-9 or q.at_infinity
    if abs(q.t) > 1e-9 * max(1.0, abs(q.z) ** 2):
        return False
    arg = math.atan2(q.z.imag, q.z.real)
    return any(abs(math.remainder(arg - ang, 2 * math.pi)) < 1e-7 for ang in angles)


class Leaves:
    """Independent scalar point queries: Cartan triples and foliation leaves."""

    name = "leaves"
    per_kind = 2000
    n_theta = 16
    pairwise_rcircle = 30
    pairwise_per_theta = 8

    def params(self) -> dict:
        return {
            "queries": 3 * self.per_kind,
            "mix": "interleaved thirds: cartan triple, foliation_leaf_rcircle, bent_leaf",
            "cartan_points": "z ~ N(0, 1.5^2) per coordinate, t ~ N(0, 2^2)",
            "bent_theta": f"{self.n_theta} angles, one uniform in each "
            f"1/{self.n_theta} of [pi/2, 3pi/2], used in turn",
            "bent_points": "r ~ U[0.3, 3], phi ~ U[0.1, 2pi - 0.1] minus the 0.1 rad "
            "wedge around theta, t ~ N(0, 1)",
        }

    def make_inputs(self, seed: int) -> list[dict]:
        rng = _rng(self.name, seed)
        thetas = [
            math.pi / 2 + math.pi * (k + rng.random()) / self.n_theta
            for k in range(self.n_theta)
        ]
        jobs = []
        for i in range(self.per_kind):
            jobs.append({"kind": "cartan", "points": [_random_point(rng) for _ in range(3)]})
            jobs.append({"kind": "rcircle", "point": _random_point(rng)})
            theta = thetas[i % self.n_theta]
            while True:
                r = rng.uniform(0.3, 3.0)
                phi = rng.uniform(0.1, 2 * math.pi - 0.1)
                if abs(phi - theta) >= 0.1:
                    break
            jobs.append(
                {
                    "kind": "bent",
                    "point": [r * math.cos(phi), r * math.sin(phi), float(rng.normal())],
                    "theta": theta,
                }
            )
        return jobs

    def warmup_inputs(self, jobs: list[dict]) -> list[dict]:
        return jobs[:30]

    def prepare(self, job: dict, path: Path) -> dict:
        return job

    def run(self, job: dict, outdir: Path):
        kind = job["kind"]
        if kind == "cartan":
            p, q, r = (_point(c) for c in job["points"])
            return boundary.cartan(p, q, r).angle
        if kind == "rcircle":
            return circles.foliation_leaf_rcircle(_point(job["point"]))
        return circles.bent_leaf(_point(job["point"]), job["theta"])

    def collect(self, raw, outdir: Path):
        return raw

    def check_job(self, job: dict, out) -> str | None:
        if job["kind"] == "cartan":
            a, b, c = (_lift(_point(x)) for x in job["points"])
            ref = cmath.phase(-_inner(a, b) * _inner(b, c) * _inner(c, a))
            if abs(out) > math.pi / 2 + 1e-12:
                return f"|A| = {abs(out):.6f} exceeds pi/2"
            if abs(out - ref) > 1e-9:
                return f"A = {out:.12f}, reference {ref:.12f}"
            return None
        p = _point(job["point"])
        t, residual = _leaf_fit(out, p)
        if residual >= 1e-8:
            return f"leaf residual {residual:.2e}"
        if not t > 0:
            return f"point on the wrong side of its leaf (t = {t:.3g})"
        angles = (0.0, math.pi) if job["kind"] == "rcircle" else (0.0, job["theta"])
        if not (_on_half_lines(out.start, angles) and _on_half_lines(out.end, angles)):
            return f"leaf endpoints {out.start}, {out.end} are off the curve"
        return None

    def check_pass(self, jobs: list[dict], outs: list) -> list[tuple[str, str | None]]:
        groups_: dict[str, list] = {}
        for job, out in zip(jobs, outs):
            if out is None or job["kind"] == "cartan":
                continue
            key = "rcircle" if job["kind"] == "rcircle" else f"bent theta={job['theta']:.4f}"
            groups_.setdefault(key, []).append(out)
        rel = circles.ArcRelation
        checks = []
        for key, leaves in groups_.items():
            # As in criteria 02 and 04: R-circle leaves never cross; bent
            # leaves are disjoint or share an endpoint.
            if key == "rcircle":
                leaves, allowed = leaves[: self.pairwise_rcircle], set(rel) - {rel.CROSS}
            else:
                leaves = leaves[: self.pairwise_per_theta]
                allowed = {rel.DISJOINT, rel.SHARE_ENDPOINT}
            err = None
            for i in range(len(leaves)):
                for j in range(i + 1, len(leaves)):
                    kind = circles.arcs_intersect(leaves[i], leaves[j]).kind
                    if kind not in allowed and err is None:
                        err = f"leaves {i} and {j} meet as {kind.value}"
            checks.append((f"{key} pairwise", err))
        return checks


class Curves:
    """Curve analyses of acceptance criteria 03, 07, 09 and 10."""

    name = "curves"

    def params(self) -> dict:
        return {
            "bent_theta": "pi, and one uniform in each of [pi/2, 3pi/4], "
            "[3pi/4, pi), (pi, 5pi/4] and [5pi/4, 3pi/2]",
            "bent_n": 200,
            "spiral_a": "U[0.28, 0.32]",
            "spiral_n": 300,
            "analyses": "sup_cartan(refine) x6, hyperconvexity, crossing_detector "
            "(spiral and R-circle control), parabolic demos x3",
        }

    def make_inputs(self, seed: int) -> list[dict]:
        rng = _rng(self.name, seed)
        quarter = math.pi / 4
        thetas = [
            math.pi / 2 + quarter * rng.random(),
            3 * math.pi / 4 + quarter * rng.random(),
            math.pi,
            math.pi + quarter * (1.0 - rng.random()),
            5 * math.pi / 4 + quarter * rng.random(),
        ]
        a = 0.28 + 0.04 * rng.random()
        return (
            [{"kind": "bent_sup", "theta": th} for th in thetas]
            + [
                {"kind": "spiral_sup", "a": a},
                {"kind": "hyperconvexity", "a": a},
                {"kind": "crossing", "a": a},
                {"kind": "control"},
            ]
            + [{"kind": "parabolic", "which": w} for w in ("vertical", "screw", "horizontal")]
        )

    def warmup_inputs(self, jobs: list[dict]) -> list[dict]:
        return [job for job in jobs if job["kind"] == "parabolic"] + jobs[:1]

    prepare = Leaves.prepare
    collect = Leaves.collect

    def run(self, job: dict, outdir: Path):
        kind = job["kind"]
        if kind == "bent_sup":
            return slimness.sup_cartan(circles.bent_curve(job["theta"], n=200), refine=True).sup_estimate
        if kind == "spiral_sup":
            return slimness.sup_cartan(circles.spiral_curve(job["a"], n=300), refine=True).sup_estimate
        if kind == "hyperconvexity":
            return slimness.hyperconvexity(circles.spiral_curve(job["a"], n=300)).min_collinearity
        if kind == "crossing":
            g = groups.diagonal_loxodromic(complex(1.0, job["a"]), 1.0)
            return crowns.crossing_detector(circles.spiral_curve(job["a"]), g)
        if kind == "control":
            g = groups.diagonal_loxodromic(1.0, 1.0)
            return crowns.crossing_detector(circles.RCircle.standard().sample(100), g)
        return slimness.parabolic_obstruction_demo(job["which"]).sup_estimate

    def check_job(self, job: dict, out) -> str | None:
        kind = job["kind"]
        if kind == "bent_sup":
            expected = abs(math.pi - job["theta"]) / 2
            if abs(out - expected) > 0.02:
                return f"sup {out:.5f}, expected {expected:.5f}"
            if job["theta"] == math.pi and not out < 1e-8:
                return f"sup {out:.3e} on the R-circle"
        elif kind == "spiral_sup":
            if not out < math.pi / 2 - 0.01:
                return f"spiral sup {out:.5f} is not slim"
        elif kind == "hyperconvexity":
            if not out > 0:
                return f"min collinearity {out:.3e}"
        elif kind == "crossing":
            if len(out) < 3:
                return f"{len(out)} crossings, expected at least 3"
            for chord, axis, _ in out:
                if circles.arcs_intersect(chord, axis).kind is not circles.ArcRelation.CROSS:
                    return "reported chord does not cross the axis"
        elif kind == "control":
            if out:
                return f"{len(out)} crossings on the R-circle control"
        elif job["which"] == "horizontal":
            if not out < 1e-8:
                return f"horizontal sup {out:.3e}"
        elif not out >= math.pi / 2 - 1e-3:
            return f"{job['which']} sup {out:.5f} below pi/2"
        return None

    def check_pass(self, jobs: list[dict], outs: list) -> list[tuple[str, str | None]]:
        return []


class Combined:
    """Two workloads' job lists run back to back as one pass.

    Each job is tagged with its part, so outputs are collected and checked
    by the part's own code and the worker can report every part.
    """

    def __init__(self, name: str, *parts):
        self.name = name
        self.parts = {part.name: part for part in parts}

    def params(self) -> dict:
        return {name: part.params() for name, part in self.parts.items()}

    def _tag(self, name: str, jobs: list[dict]) -> list[dict]:
        return [{"part": name, "job": job} for job in jobs]

    def _split(self, name: str, jobs: list[dict], outs: list) -> tuple[list, list]:
        pairs = [(job["job"], out) for job, out in zip(jobs, outs) if job["part"] == name]
        return [job for job, _ in pairs], [out for _, out in pairs]

    def make_inputs(self, seed: int) -> list[dict]:
        return [
            tagged
            for name, part in self.parts.items()
            for tagged in self._tag(name, part.make_inputs(seed))
        ]

    def warmup_inputs(self, jobs: list[dict]) -> list[dict]:
        return [
            tagged
            for name, part in self.parts.items()
            for tagged in self._tag(
                name, part.warmup_inputs([job["job"] for job in jobs if job["part"] == name])
            )
        ]

    def prepare(self, job: dict, path: Path) -> tuple[str, object]:
        return job["part"], self.parts[job["part"]].prepare(job["job"], path)

    def run(self, prepared: tuple[str, object], outdir: Path) -> tuple[str, object]:
        name, inner = prepared
        return name, self.parts[name].run(inner, outdir)

    def collect(self, raw: tuple[str, object], outdir: Path):
        name, inner = raw
        return self.parts[name].collect(inner, outdir)

    def check_job(self, job: dict, out) -> str | None:
        return self.parts[job["part"]].check_job(job["job"], out)

    def check_pass(self, jobs: list[dict], outs: list) -> list[tuple[str, str | None]]:
        return [
            (f"{name}: {label}", err)
            for name, part in self.parts.items()
            for label, err in part.check_pass(*self._split(name, jobs, outs))
        ]


PARTS = {wl.name: wl for wl in (Sweep(), Crown(), Leaves(), Curves())}
# The gated workloads pair the CLI runs and the in-process analyses, so
# that each run is long enough to average out the host's speed drift.
WORKLOADS = {
    "cli": Combined("cli", PARTS["sweep"], PARTS["crown"]),
    "queries": Combined("queries", PARTS["leaves"], PARTS["curves"]),
    **PARTS,
}

"""Cartan-supremum estimation, hyperconvexity margins, deformation sweep.

The supremum of the angular invariant over a sample is computed by an
exhaustive vectorized scan of all distinct triples, optionally followed
by a local golden-section refinement along the sampled curve.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import spearmanr

from .boundary import INFINITY, BoundaryPoint, best_triple, cartan, cartan_lifts, lifts
from .circles import CurveSample, min_collinearity
from .groups import (
    TriangleParams,
    heisenberg_translation,
    limit_set,
    screw_parabolic,
    triangle_group,
)
from .hermitian import GeometryError

MAX_SCAN_POINTS = 400


@dataclass(frozen=True)
class SlimnessReport:
    """Estimated Cartan supremum of a sample with its witness triple."""

    sup_estimate: float
    argmax_triple: tuple[BoundaryPoint, BoundaryPoint, BoundaryPoint]
    n_points: int
    n_triples_evaluated: int
    refined: bool


@dataclass(frozen=True)
class HyperconvexityReport:
    """Minimal normalized collinearity determinant with its witness."""

    min_collinearity: float
    witness: tuple[BoundaryPoint, BoundaryPoint, BoundaryPoint]


def _abs_cartan_block(h: np.ndarray, j: int) -> np.ndarray:
    """|A(v_i, v_j, v_k)| for i < j < k, from the Gram matrix h."""
    prod = -h[:j, j, None] * h[None, j, j + 1 :] * h[j + 1 :, :j].T
    return np.abs(np.angle(prod))


def _golden_max(f, lo: float, hi: float, iters: int = 60) -> tuple[float, float]:
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, max(fc, fd)


def _segment_blend(p: BoundaryPoint, q: BoundaryPoint, s: float) -> BoundaryPoint:
    """Point at fraction s of the Heisenberg segment from p to q."""
    if p.at_infinity or q.at_infinity:
        return p if s < 0.5 else q
    return BoundaryPoint(
        p.z + s * (q.z - p.z), p.t + s * (q.t - p.t)
    )


def _refine_triple(
    pts: list[BoundaryPoint], idx: tuple[int, int, int], base: float
) -> tuple[float, tuple[BoundaryPoint, BoundaryPoint, BoundaryPoint]]:
    """Golden-section sweep of each argmax point along its curve segments."""
    n = len(pts)
    triple = [pts[i] for i in idx]
    best = base
    for slot in range(3):
        i = idx[slot]
        for j in (i - 1, i + 1):
            if not 0 <= j < n:
                continue
            p, q = pts[i], pts[j]
            if p.at_infinity or q.at_infinity:
                continue

            def f(s, slot=slot, p=p, q=q):
                cand = list(triple)
                cand[slot] = _segment_blend(p, q, s)
                return abs(float(cartan(*cand)))

            s_star, val = _golden_max(f, 0.0, 1.0)
            if val > best:
                best = val
                triple[slot] = _segment_blend(p, q, s_star)
    return best, tuple(triple)


def sup_cartan(sample, refine: bool = False) -> SlimnessReport:
    """Exhaustive estimate of the Cartan supremum over a point sample.

    Samples larger than MAX_SCAN_POINTS are thinned uniformly before the
    cubic scan.  Refinement moves each witness point along its adjacent
    curve segments and never decreases the estimate.
    """
    pts = list(sample.points)
    if len(pts) < 3:
        raise GeometryError("need at least 3 points for a triple scan")
    if len(pts) > MAX_SCAN_POINTS:
        sel = np.linspace(0, len(pts) - 1, MAX_SCAN_POINTS).astype(int)
        pts = [pts[i] for i in sel]
    n = len(pts)
    h = cartan_lifts(lifts(pts))
    best, witness = best_triple(n, lambda j: _abs_cartan_block(h, j))
    n_triples = n * (n - 1) * (n - 2) // 6
    triple = (pts[witness[0]], pts[witness[1]], pts[witness[2]])
    if refine:
        best_r, triple_r = _refine_triple(pts, witness, best)
        if best_r >= best:
            best, triple = best_r, triple_r
    return SlimnessReport(best, triple, n, n_triples, refine)


def hyperconvexity(sample) -> HyperconvexityReport:
    """Minimal normalized triple determinant of the sample lifts."""
    pts = list(sample.points)
    if len(pts) < 3:
        raise GeometryError("need at least 3 points")
    margin, (i, j, k) = min_collinearity(lifts(pts))
    return HyperconvexityReport(margin, (pts[i], pts[j], pts[k]))


@dataclass(frozen=True)
class SweepRow:
    phase: float
    tau: complex
    n_points: int
    sup_estimate: float
    argmax: tuple[BoundaryPoint, BoundaryPoint, BoundaryPoint]
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]
    word_length: int
    dedup_eps: float

    def spearman_neg_tau_vs_sup(self) -> float:
        return spearman_neg_tau_vs_sup(self.row_dicts())

    def row_dicts(self) -> list[dict]:
        """JSON-ready rows; the argmax triple is kept as point strings."""
        return [
            {
                "phase": r.phase,
                "tau": [r.tau.real, r.tau.imag],
                "n_points": r.n_points,
                "sup_estimate": r.sup_estimate,
                "argmax": (
                    None if r.error is not None else [str(p) for p in r.argmax]
                ),
                "error": r.error,
            }
            for r in self.rows
        ]

    def to_csv(self) -> str:
        return rows_to_csv(self.row_dicts())

    def to_json(self, runtime: float | None = None) -> str:
        return json.dumps(
            {
                "word_length": self.word_length,
                "dedup_eps": self.dedup_eps,
                "runtime_seconds": runtime,
                "rows": self.row_dicts(),
            }
        )


def spearman_neg_tau_vs_sup(rows: list[dict]) -> float:
    """Rank correlation of -Re(tau) with the supremum over successful rows."""
    ok = [r for r in rows if r["error"] is None]
    rho, _ = spearmanr([-r["tau"][0] for r in ok], [r["sup_estimate"] for r in ok])
    return float(rho)


def rows_to_csv(rows: list[dict]) -> str:
    """CSV of the successful rows among `SweepResult.row_dicts` rows."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["phase", "tau_re", "tau_im", "n_points", "sup_estimate", "argmax"])
    for r in rows:
        if r["error"] is not None:
            continue
        w.writerow(
            [
                f"{r['phase']:.12g}",
                f"{r['tau'][0]:.12g}",
                f"{r['tau'][1]:.12g}",
                r["n_points"],
                f"{r['sup_estimate']:.12g}",
                " ".join(r["argmax"]),
            ]
        )
    return buf.getvalue()


def sweep(
    p: int,
    q: int,
    r: int,
    phases: list[float],
    word_length: int = 10,
    dedup_eps: float = 1e-3,
) -> SweepResult:
    """Limit-set slimness across a list of Gram phases, sorted by trace.

    Per-phase failures are recorded in the row and the sweep continues.
    """
    rows = []
    for phi in phases:
        try:
            rep = triangle_group(TriangleParams(p, q, r, phi))
            ls = limit_set(rep, word_length, dedup_eps)
            rep_report = sup_cartan(ls)
            rows.append(
                SweepRow(
                    phi,
                    rep.tau,
                    len(ls.points),
                    rep_report.sup_estimate,
                    rep_report.argmax_triple,
                )
            )
        except GeometryError as exc:
            rows.append(
                SweepRow(phi, complex("nan"), 0, float("nan"), (None,) * 3, str(exc))
            )
    rows.sort(key=lambda row: -row.tau.real if row.error is None else math.inf)
    return SweepResult(rows, word_length, dedup_eps)


def parabolic_obstruction_demo(
    kind: str, n_iter: int = 50, refine: bool = False
) -> SlimnessReport:
    """Slimness of a parabolic orbit: the three qualitative regimes.

    vertical: orbit inside a chain, supremum pi/2.
    screw: rotation around the vertical axis, supremum approaches pi/2.
    horizontal: orbit inside the standard R-circle, supremum 0.
    """
    if kind == "vertical":
        g = heisenberg_translation(0.0, 1.0)
        seed = BoundaryPoint(0.0, 0.0)
    elif kind == "screw":
        g = screw_parabolic(0.7, 1.0)
        seed = BoundaryPoint(0.05, 0.0)
    elif kind == "horizontal":
        g = heisenberg_translation(1.0, 0.0)
        seed = BoundaryPoint(0.0, 0.0)
    else:
        raise GeometryError(f"unknown parabolic kind {kind!r}")
    pts = [seed]
    cur = seed
    for _ in range(n_iter):
        cur = cur.apply(g)
        pts.append(cur)
    pts.append(INFINITY)  # the fixed point of all three model parabolics
    sample = CurveSample(pts, closed=False, source=f"parabolic:{kind}")
    return sup_cartan(sample, refine=refine)

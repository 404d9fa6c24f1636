"""Cartan-supremum estimation, hyperconvexity margins, deformation sweep.

The supremum of the angular invariant over a sample is computed by an
exhaustive vectorized scan of all distinct triples, screened by a bound
from the Gram phases so that exact values are computed only where the
maximum can lie, optionally followed by a local golden-section
refinement along the sampled curve.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .boundary import INFINITY, BoundaryPoint, PointSet, best_triple, cartan, cartan_lifts
from .circles import CurveSample, min_collinearity
from .groups import (
    TriangleParams,
    heisenberg_translation,
    limit_set,
    screw_parabolic,
    triangle_group,
)
from .hermitian import TOL_LIMIT, GeometryError, _tame

MAX_SCAN_POINTS = 400
# the phase-sum bound and the computed |A| differ by a few ulps of pi
SCREEN_SLACK = 1e-12


@dataclass(frozen=True)
class SlimnessReport:
    """Estimated Cartan supremum of a sample with its witness triple."""

    sup_estimate: float
    argmax_triple: tuple[BoundaryPoint, BoundaryPoint, BoundaryPoint]
    n_points: int
    n_triples_evaluated: int
    refined: bool
    # triples whose exact |A| the scan computed: the blocks the screen kept
    n_triples_exact: int = field(compare=False)


@dataclass(frozen=True)
class HyperconvexityReport:
    """Minimal normalized collinearity determinant with its witness."""

    min_collinearity: float
    witness: tuple[BoundaryPoint, BoundaryPoint, BoundaryPoint]


def _abs_cartan_block(h: np.ndarray, j: int) -> np.ndarray:
    """|A(v_i, v_j, v_k)| for i < j < k, from the Gram matrix h."""
    prod = -h[:j, j, None] * h[None, j, j + 1 :] * h[j + 1 :, :j].T
    return np.abs(np.angle(prod))


def _screen(h: np.ndarray) -> range | list[int]:
    """The middle indices j whose blocks can hold the maximum of |A|.

    With P = angle(h), |A(v_i, v_j, v_k)| = pi - wrap(P[i,j] + P[j,k] + P[k,i]),
    wrap(s) = min(|s|, ||s| - 2 pi|): one atan2 per pair, three real adds per
    triple.  A block whose bound is below the largest by 2 SCREEN_SLACK holds
    no triple that reaches or ties the maximum.  Every block is kept when an
    off-diagonal |h| is zero, not finite or outside [1e-100, 1e100], where
    the triple product could underflow or overflow.
    """
    n = len(h)
    p = np.abs(h)
    np.fill_diagonal(p, 1.0)
    if not (p.min() >= 1e-100 and p.max() <= 1e100):  # NaN fails both
        return range(1, n - 1)
    np.arctan2(h.imag, h.real, out=p)  # np.angle(h), in place
    # the rows i < j <= m of P.T, contiguous: the blocks with j > m read P
    pt = np.ascontiguousarray(p[:, : (n - 1) // 2].T)
    scratch = np.empty((n // 2) * (n - 1 - n // 2))
    bound = np.empty(n - 2)
    for j in range(1, n - 1):
        m = n - 1 - j
        # the block (i, k) or its transpose (k, i): the longer side innermost
        if j <= m:
            s = scratch[: j * m].reshape(j, m)
            np.add(pt[:j, j + 1 :], p[j, j + 1 :], out=s)
            s += p[:j, j, None]
        else:
            s = scratch[: j * m].reshape(m, j)
            np.add(p[j + 1 :, :j], p[:j, j], out=s)
            s += p[j, j + 1 :, None]
        np.abs(s, out=s)
        near = s.min()
        s -= 2.0 * math.pi
        np.abs(s, out=s)
        bound[j - 1] = math.pi - min(near, s.min())
    return (np.flatnonzero(bound >= bound.max() - 2.0 * SCREEN_SLACK) + 1).tolist()


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal function on [lo, hi], 60 steps."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
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
    """Point at fraction s of the Heisenberg segment between finite p and q."""
    return BoundaryPoint(p.z + s * (q.z - p.z), p.t + s * (q.t - p.t))


def _refine_triple(
    pts: PointSet, idx: tuple[int, int, int], base: float
) -> tuple[float, tuple[BoundaryPoint, BoundaryPoint, BoundaryPoint]]:
    """Golden-section sweep of each argmax point along its curve segments."""
    n = len(pts.rows)
    triple = pts[list(idx)].points
    best = base
    for slot in range(3):
        i = idx[slot]
        for j in (i - 1, i + 1):
            if not 0 <= j < n or pts.at_infinity[[i, j]].any():
                continue
            p, q = pts[[i, j]].points

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
    cubic scan, which computes exact values only in the blocks that `_screen`
    keeps.  Refinement moves each witness point along its adjacent
    curve segments and never decreases the estimate.
    """
    pts, n = sample, len(sample.rows)
    if n < 3:
        raise GeometryError("need at least 3 points for a triple scan")
    if n > MAX_SCAN_POINTS:
        pts, n = sample[np.linspace(0, n - 1, MAX_SCAN_POINTS).astype(int)], MAX_SCAN_POINTS
    h = cartan_lifts(_tame(pts.rows))
    middles = _screen(h)
    best, witness = best_triple(middles, lambda j: _abs_cartan_block(h, j))
    n_triples = n * (n - 1) * (n - 2) // 6
    n_exact = sum(j * (n - 1 - j) for j in middles)
    triple = tuple(pts[list(witness)].points)
    if refine:
        best_r, triple_r = _refine_triple(pts, witness, best)
        if best_r >= best:
            best, triple = best_r, triple_r
    return SlimnessReport(best, triple, n, n_triples, refine, n_exact)


def hyperconvexity(sample) -> HyperconvexityReport:
    """Minimal normalized triple determinant of the sample lifts."""
    if len(sample.rows) < 3:
        raise GeometryError("need at least 3 points")
    margin, witness = min_collinearity(sample.rows)
    return HyperconvexityReport(margin, tuple(sample[list(witness)].points))


@dataclass(frozen=True)
class SweepRow:
    phase: float
    tau: complex
    n_points: int
    sup_estimate: float
    argmax: tuple[BoundaryPoint, BoundaryPoint, BoundaryPoint]
    error: str | None = None
    # the LimitSetSample counters; None on a failed row
    n_words: int | None = None
    n_skipped: int | None = None
    n_rejected: int | None = None
    n_duplicates: int | None = None
    # points sup_cartan scanned: n_points, thinned to MAX_SCAN_POINTS
    n_scanned: int | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]
    word_length: int
    dedup_eps: float

    def spearman_neg_tau_vs_sup(self) -> float:
        return spearman_neg_tau_vs_sup(self.row_dicts())

    def row_dicts(self) -> list[dict]:
        """JSON-ready rows, one key per `SweepRow` field in field order: tau
        as [re, im], the argmax triple as point strings.  A failed row's NaN
        tau parts and sup_estimate, and its argmax, are None (JSON null:
        strict JSON has no NaN)."""
        return [
            dict(vars(r), tau=[r.tau.real, r.tau.imag], argmax=[str(p) for p in r.argmax])
            if r.error is None
            else dict(vars(r), tau=[None, None], sup_estimate=None, argmax=None)
            for r in self.rows
        ]

    def to_json(
        self,
        runtime: float | None = None,
        rows: list[dict] | None = None,
        metadata: dict | None = None,
    ) -> str:
        """The text of `sweep.json`: the settings, the runtime, the rows
        (`row_dicts` unless given) and the metadata when there is one."""
        payload = {
            "word_length": self.word_length,
            "dedup_eps": self.dedup_eps,
            "runtime_seconds": runtime,
            "rows": self.row_dicts() if rows is None else rows,
        }
        if metadata:
            payload["metadata"] = metadata
        return json.dumps(payload, indent=1)


def spearman_neg_tau_vs_sup(rows: list[dict]) -> float:
    """Spearman's rho of -Re(tau) with the supremum over successful rows.

    The Pearson correlation of the average ranks, with ties ranked as
    scipy.stats.spearmanr ranks them; NaN, without a warning, for fewer
    than two rows, a NaN value or a constant column.
    """
    xy = np.array([[-r["tau"][0], r["sup_estimate"]] for r in rows if r["error"] is None])
    if len(xy) < 2 or np.isnan(xy).any():
        return math.nan
    ranks = []
    for v in xy.T:
        _, inv, counts = np.unique(v, return_inverse=True, return_counts=True)
        rank = (np.cumsum(counts) - (counts - 1) / 2.0)[inv]
        ranks.append(rank - rank.mean())
    rx, ry = ranks
    den = math.sqrt(float(rx @ rx) * float(ry @ ry))
    return float(rx @ ry) / den if den > 0 else math.nan


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
    dedup_eps: float = TOL_LIMIT,
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
                    len(ls.rows),
                    rep_report.sup_estimate,
                    rep_report.argmax_triple,
                    n_words=ls.n_words,
                    n_skipped=ls.n_skipped,
                    n_rejected=ls.n_rejected,
                    n_duplicates=ls.n_duplicates,
                    n_scanned=rep_report.n_points,
                )
            )
        except GeometryError as exc:
            rows.append(
                SweepRow(phi, complex("nan"), 0, float("nan"), (None,) * 3, str(exc))
            )
    rows.sort(key=lambda row: -row.tau.real if row.error is None else math.inf)
    return SweepResult(rows, word_length, dedup_eps)


def parabolic_obstruction_demo(kind: str) -> SlimnessReport:
    """Slimness of a 50-step parabolic orbit: the three qualitative regimes.

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
    for _ in range(50):
        cur = cur.apply(g)
        pts.append(cur)
    pts.append(INFINITY)  # the fixed point of all three model parabolics
    sample = CurveSample.of(pts, False, f"parabolic:{kind}")
    return sup_cartan(sample)

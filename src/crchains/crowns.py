"""Axes at infinity, crown assembly, embeddedness certificates, crossings.

A crown over a representation is the limit set together with the orbit of
the axis at infinity of a chosen loxodromic element.  Embeddedness is
certified by testing all arc pairs for crossings and reporting the worst
separation margin.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .boundary import BoundaryPoint, PointSet, ball_rows, point_set, standard_rows
from .circles import (
    Arc,
    ArcRelation,
    CircleRelation,
    CurveSample,
    _real_up_to_scale,
    arcs_intersect,
    circle_relations,
    sample_arcs,
    spiral_rows,
)
from .groups import (
    LimitSetSample,
    Representation,
    _Dedup,
    _limit_sample,
    enumerate_words,
)
from .hermitian import (
    ElementClass,
    GeometryError,
    GroupElement,
    IndeterminateClassError,
    TOL_DEDUP,
    TOL_LIFT,
    _box,
    _classify_rows,
    _herm,
    _tame,
    _unit_det,
)


def brentq(f, a, b, **kwargs):
    """scipy.optimize.brentq, loaded on the first call: only crossing_detector solves."""
    from scipy.optimize import brentq as solve

    return solve(f, a, b, **kwargs)


def _axis_ends(m: np.ndarray) -> PointSet:
    """Repelling, then attracting fixed point of each element of a stack.

    Raises unless every element is loxodromic.
    """
    kinds, _, attracting, repelling, r = _classify_rows(m)
    bad = np.flatnonzero(kinds != ElementClass.LOXODROMIC)
    if bad.size:
        if kinds[bad[0]] is None:
            raise IndeterminateClassError(
                f"leading modulus {r[bad[0]]:.12f} inside the tolerance band"
            )
        raise GeometryError("axis at infinity requires a loxodromic element")
    fixed = np.stack([repelling, attracting], axis=1).reshape(-1, 3)
    return point_set(fixed, TOL_LIFT)


def axis_at_infinity(g: GroupElement) -> Arc:
    """Arc from the repelling to the attracting fixed point of g."""
    return Arc(*_axis_ends(g.matrix[None]).points)


@dataclass(frozen=True)
class Crown:
    """Limit set plus the orbit of one axis at infinity, by coset."""

    rep: Representation
    core_word: str
    arcs: tuple[tuple[str, Arc], ...]
    limit_sample: LimitSetSample
    word_length: int


def build_crown(
    rep: Representation, gamma_word: str, length: int, limit_length: int | None = None
) -> Crown:
    """Crown arcs for all distinct cosets g<gamma> with |g| <= length.

    Cosets are deduplicated by the unordered fixed-point pair of the
    conjugated element: conjugates share an axis exactly when they share
    their fixed points.  One enumeration serves the arcs and the limit
    set: the words up to the shorter length are a prefix of the longer
    list.  All conjugates are classified by one eig call.
    """
    gamma = rep.word(gamma_word)
    if gamma.classification.kind is not ElementClass.LOXODROMIC:
        raise GeometryError("crown core element must be loxodromic")
    if limit_length is None:
        limit_length = max(length, 6)
    words = enumerate_words(rep, max(length, limit_length))
    n_arcs = bisect.bisect_right([len(w) for w, _ in words], length)
    g = np.array([w.matrix for _, w in words[1:n_arcs]]).reshape(-1, 3, 3)
    # g gamma g^-1, normalized after each product as GroupElement's @ does
    conj = _unit_det(_unit_det(g @ gamma.matrix) @ _unit_det(np.linalg.inv(g)))
    ends = _axis_ends(np.concatenate([gamma.matrix[None], conj]))
    key = ball_rows(ends.rows).view(float).reshape(-1, 2, 4)
    pair = np.stack([key.reshape(-1, 8), key[:, ::-1].reshape(-1, 8)], axis=1)
    k = np.flatnonzero(_Dedup(TOL_DEDUP).keep(pair))
    labels = [""] + [w for w, _ in words[1:n_arcs]]
    arcs = tuple(
        (labels[i], Arc(a, b))
        for i, a, b in zip(k.tolist(), ends[2 * k].points, ends[2 * k + 1].points)
    )
    ls = _limit_sample(words, limit_length)
    return Crown(rep, gamma_word, arcs, ls, length)


@dataclass(frozen=True)
class EmbeddednessReport:
    """EMBEDDED with the minimal separation margin, or CROSSING witness.

    Counters, not part of the verdict: pairs settled by the batched screen
    and pairs passed on to `arcs_intersect`.
    """

    status: str  # "EMBEDDED" or "CROSSING"
    min_margin: float | None
    witness: tuple[str, str] | None
    witness_point: BoundaryPoint | None
    arcs_tested: int
    pairs_screened: int = field(default=0, compare=False)
    pairs_exact: int = field(default=0, compare=False)


def embeddedness(crown: Crown) -> EmbeddednessReport:
    """All-pairs crossing test over the crown arcs.

    One `circle_relations` call relates the supports of every pair.  A
    pair with disjoint supports is settled there, with the margin
    `arcs_intersect` gives it.  The other pairs go to `arcs_intersect` in
    (i, j) order, so the first crossing found is the one a loop over all
    pairs finds.
    """
    arcs = crown.arcs
    n = len(arcs)
    polars = np.array([arc.support.polar for _, arc in arcs]).reshape(-1, 3)
    i, j = np.triu_indices(n, k=1)
    kind, margin, _ = circle_relations(polars[i], polars[j])
    screened = kind == CircleRelation.DISJOINT
    min_margin = float(np.min(np.abs(margin[screened]), initial=math.inf))
    n_screened = int(screened.sum())
    exact = np.flatnonzero(~screened)
    for tested, k in enumerate(exact.tolist(), start=1):
        li, ai = arcs[i[k]]
        lj, aj = arcs[j[k]]
        res = arcs_intersect(ai, aj)
        crossing = res.kind is ArcRelation.CROSS or (
            res.kind is ArcRelation.SAME_SUPPORT and res.relation != "equal"
        )
        if crossing:
            return EmbeddednessReport(
                "CROSSING", None, (li, lj), res.point, n, n_screened, tested
            )
        if res.kind is ArcRelation.DISJOINT:
            min_margin = min(min_margin, res.margin)
    return EmbeddednessReport(
        "EMBEDDED", float(min_margin), None, None, n, n_screened, len(exact)
    )


def _curve_fn_from_sample(sample: CurveSample) -> Callable[[list], np.ndarray]:
    """The exact curve behind a sample, as the map from a list of signed
    coordinates s to the standard rows of their points.

    The source tag names the curve: spiral samples map s to the spiral
    point, R-circle samples map s to [sign(s) e^|s|, 0].  GeometryError
    unless every finite sample point lies on that curve, so that a sample
    moved by an isometry is not analysed as the curve its tag still names.
    """
    src = sample.source
    w, _, e2 = sample.rows.T
    if src.startswith("spiral:"):
        a = float(src.split(":", 1)[1])
        # t = 3 a |z|^2, with |z|^2 = -Re w on a standard row
        curve, on_curve = (
            lambda s: spiral_rows(a, s),
            np.abs(w.imag + 3 * a * w.real) <= 1e-9 * np.maximum(1.0, np.abs(w.imag)),
        )
    elif src.startswith("r-circle"):
        curve, on_curve = (
            lambda s: standard_rows([math.copysign(math.exp(abs(x)), x) for x in s], 0.0),
            # the scalar rule of `RCircle.contains`, row by row
            np.array([_real_up_to_scale(row, 1e-8) for row in sample.rows.tolist()], bool),
        )
    else:
        raise GeometryError(f"no continuous parametrization for source {src!r}")
    off = np.flatnonzero((e2 != 0) & ~on_curve)  # infinity's row has e2 = 0
    if off.size:
        raise GeometryError(f"sample point {sample[off[:1]].points[0]} is off the curve {src!r}")
    return curve


def crossing_detector(
    sample: CurveSample, g: GroupElement, s_range: tuple[float, float] = (0.0, 20.0)
) -> list[tuple[Arc, Arc, BoundaryPoint]]:
    """C-circles through symmetric curve points that cross the axis arc.

    The sample's source tag names the exact curve, and every finite sample
    point must lie on it (`_curve_fn_from_sample`).  For
    each s the chord circle joins curve(-s) and curve(s); the real
    certificate f(s) is the Hermitian square of the box product of the
    chord polar with the axis polar.  Sign changes of f on the grid bracket
    parameter values where the chord circle meets the axis chain on a grid
    of 2000 values; each refined root with |f| <= 1e-10 is kept when the
    resulting arcs genuinely cross.
    """
    axis = axis_at_infinity(g)  # raises unless g is loxodromic
    curve = _curve_fn_from_sample(sample)
    n_axis = axis.support.polar

    def f(s):
        """Certificate at every s of an array, or at one s."""
        ss = np.ravel(s).tolist()
        # curve(-s) and curve(s) are distinct for s > 0: every chord exists
        a = _tame(curve([-x for x in ss]))
        chord = _box(a, _tame(curve(ss)))
        w = _box(chord, n_axis)
        scale = np.linalg.norm(chord, axis=-1) ** 2 * np.linalg.norm(n_axis) ** 2
        return (_herm(w, w).real / scale).reshape(np.shape(s))

    ss = np.linspace(s_range[0] + 1e-6, s_range[1], 2000)
    vals = f(ss)
    out: list[tuple[Arc, Arc, BoundaryPoint]] = []
    for i in range(len(ss) - 1):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] >= 0:
            continue
        s_star = brentq(f, float(ss[i]), float(ss[i + 1]), xtol=1e-14)
        if abs(f(s_star)) > 1e-10:
            continue
        a, b = PointSet(curve([-s_star, s_star]), np.zeros(2, dtype=bool)).points
        chord_arc = Arc(a, b)
        hit = arcs_intersect(chord_arc, axis)
        if hit.kind is not ArcRelation.CROSS:
            hit = arcs_intersect(chord_arc.opposite(), axis)
            chord_arc = chord_arc.opposite()
        if hit.kind is ArcRelation.CROSS:
            assert hit.point is not None
            out.append((chord_arc, axis, hit.point))
    return out


def _encode_matrix(m: np.ndarray):
    return [[[c.real, c.imag] for c in row] for row in m]


def export_uniformization(
    crown: Crown, report: EmbeddednessReport, metadata: dict | None = None
) -> str:
    """JSON bundle of the crown data for external visualization.

    Each arc is a polyline of 64 chart points.  Refuses to export when
    the embeddedness certificate `report` reports a crossing.
    """
    if report.status != "EMBEDDED":
        raise GeometryError(
            f"crown is not embedded: arcs {report.witness} cross"
            + (f" at {report.witness_point}" if report.witness_point else "")
        )
    polylines = sample_arcs([arc for _, arc in crown.arcs], 64, (1e-2, 1e2)).json_points()
    arcs_payload = [
        {
            "coset": label,
            "endpoints": [arc.start.to_json(), arc.end.to_json()],
            "polyline": polylines[64 * m : 64 * (m + 1)],
        }
        for m, (label, arc) in enumerate(crown.arcs)
    ]
    bundle = {
        "generators": [
            _encode_matrix(gen.matrix) for gen in crown.rep.generators
        ],
        "gamma_word": list(crown.core_word),
        "limit_set": crown.limit_sample.json_points(),
        "arcs": arcs_payload,
        "report": {
            "status": report.status,
            "min_margin": report.min_margin,
            "arcs_tested": report.arcs_tested,
        },
    }
    if metadata:
        bundle["metadata"] = metadata
    return json.dumps(bundle)

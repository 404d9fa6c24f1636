"""Axes at infinity, crown assembly, embeddedness certificates, crossings.

A crown over a representation is the limit set together with the orbit of
the axis at infinity of a chosen loxodromic element.  Embeddedness is
certified by testing all arc pairs for crossings and reporting the worst
separation margin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .boundary import BoundaryPoint, lifts
from .circles import (
    Arc,
    ArcRelation,
    CurveSample,
    arcs_intersect,
    spiral_point,
)
from .groups import (
    LimitSetSample,
    Representation,
    _Dedup,
    enumerate_words,
    limit_set,
)
from .hermitian import (
    ElementClass,
    GeometryError,
    GroupElement,
    TOL_LIFT,
    _H_SIEGEL,
    _H_SIEGEL_INV,
    _box,
    _herm,
)


def axis_at_infinity(g: GroupElement) -> Arc:
    """Arc from the repelling to the attracting fixed point of g."""
    cls = g.classification
    if cls.kind is not ElementClass.LOXODROMIC:
        raise GeometryError("axis at infinity requires a loxodromic element")
    assert cls.fixed_points is not None
    attracting, repelling = cls.fixed_points
    return Arc(
        BoundaryPoint.from_lift(repelling.representative, tol=TOL_LIFT),
        BoundaryPoint.from_lift(attracting.representative, tol=TOL_LIFT),
    )


@dataclass(frozen=True)
class Crown:
    """Limit set plus the orbit of one axis at infinity, by coset."""

    rep: Representation
    core_word: str
    arcs: tuple[tuple[str, Arc], ...]
    limit_sample: LimitSetSample
    word_length: int


def _fixed_pair_key(arc: Arc) -> np.ndarray:
    return np.concatenate(
        [arc.start.ball_coords().view(float), arc.end.ball_coords().view(float)]
    )


def build_crown(
    rep: Representation,
    gamma_word: str,
    length: int,
    dedup_eps: float = 1e-6,
    limit_length: int | None = None,
) -> Crown:
    """Crown arcs for all distinct cosets g<gamma> with |g| <= length.

    Cosets are deduplicated by the unordered fixed-point pair of the
    conjugated element: conjugates share an axis exactly when they share
    their fixed points.
    """
    gamma = rep.word(gamma_word)
    if gamma.classification.kind is not ElementClass.LOXODROMIC:
        raise GeometryError("crown core element must be loxodromic")
    arcs: list[tuple[str, Arc]] = []
    kept = _Dedup(dedup_eps)

    def push(label: str, arc: Arc) -> None:
        if kept.add(np.stack([_fixed_pair_key(arc), _fixed_pair_key(arc.opposite())])):
            arcs.append((label, arc))

    push("", axis_at_infinity(gamma))
    if length > 0:
        for word, g in enumerate_words(rep, length):
            if not word:
                continue
            conj = g @ gamma @ g.inverse()
            push(word, axis_at_infinity(conj))
    ls = limit_set(rep, limit_length if limit_length is not None else max(length, 6))
    return Crown(rep, gamma_word, tuple(arcs), ls, length)


@dataclass(frozen=True)
class EmbeddednessReport:
    """EMBEDDED with the minimal separation margin, or CROSSING witness."""

    status: str  # "EMBEDDED" or "CROSSING"
    min_margin: float | None
    witness: tuple[str, str] | None
    witness_point: BoundaryPoint | None
    arcs_tested: int


def embeddedness(crown: Crown) -> EmbeddednessReport:
    """All-pairs crossing test over the crown arcs."""
    arcs = crown.arcs
    min_margin = math.inf
    n = len(arcs)
    for i in range(n):
        for j in range(i + 1, n):
            li, ai = arcs[i]
            lj, aj = arcs[j]
            res = arcs_intersect(ai, aj)
            if res.kind is ArcRelation.CROSS:
                return EmbeddednessReport(
                    "CROSSING", None, (li, lj), res.point, n
                )
            if res.kind is ArcRelation.DISJOINT:
                min_margin = min(min_margin, res.margin)
            elif res.kind is ArcRelation.SAME_SUPPORT and res.relation != "equal":
                return EmbeddednessReport("CROSSING", None, (li, lj), None, n)
    return EmbeddednessReport("EMBEDDED", float(min_margin), None, None, n)


def _curve_fn_from_sample(sample: CurveSample) -> Callable[[float], BoundaryPoint]:
    """The exact curve behind a sample, as a map of a signed coordinate s.

    Only the sample's source tag is read: spiral samples map s to the
    spiral point, R-circle samples map s to [sign(s) e^|s|, 0].  The
    stored points are not used.
    """
    src = sample.source
    if src.startswith("spiral:"):
        a = float(src.split(":", 1)[1])
        return lambda s: spiral_point(a, s)
    if src.startswith("r-circle"):
        return lambda s: BoundaryPoint(math.copysign(math.exp(abs(s)), s), 0.0)
    raise GeometryError(f"no continuous parametrization for source {src!r}")


def crossing_detector(
    sample: CurveSample,
    g: GroupElement,
    s_range: tuple[float, float] = (0.0, 20.0),
    grid: int = 2000,
    tol: float = 1e-10,
) -> list[tuple[Arc, Arc, BoundaryPoint]]:
    """C-circles through symmetric curve points that cross the axis arc.

    Only the sample's source tag is used: it names the exact curve.  For
    each s the chord circle joins curve(-s) and curve(s); the real
    certificate f(s) is the Hermitian square of the box product of the
    chord polar with the axis polar.  Sign changes of f on the grid bracket
    parameter values where the chord circle meets the axis chain; each
    refined root is kept when the resulting arcs genuinely cross.
    """
    axis = axis_at_infinity(g)  # raises unless g is loxodromic
    curve = _curve_fn_from_sample(sample)
    n_axis = axis.support.polar.representative.entries

    def f(s):
        """Certificate at every s of an array, or at one s."""
        ss = np.ravel(s).tolist()
        # curve(-s) and curve(s) are distinct for s > 0: every chord exists
        a = lifts([curve(-x) for x in ss])
        chord = _box(a, lifts([curve(x) for x in ss]), _H_SIEGEL_INV)
        w = _box(chord, n_axis, _H_SIEGEL_INV)
        scale = np.linalg.norm(chord, axis=-1) ** 2 * np.linalg.norm(n_axis) ** 2
        return (_herm(w, w, _H_SIEGEL).real / scale).reshape(np.shape(s))

    ss = np.linspace(s_range[0] + 1e-6, s_range[1], grid)
    vals = f(ss)
    out: list[tuple[Arc, Arc, BoundaryPoint]] = []
    for i in range(len(ss) - 1):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] >= 0:
            continue
        s_star = brentq(f, float(ss[i]), float(ss[i + 1]), xtol=1e-14)
        if abs(f(s_star)) > tol:
            continue
        a = curve(-s_star)
        b = curve(s_star)
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
    crown: Crown,
    report: EmbeddednessReport | None = None,
    arc_samples: int = 64,
    metadata: dict | None = None,
) -> str:
    """JSON bundle of the crown data for external visualization.

    Refuses to export when the embeddedness certificate reports a
    crossing.
    """
    if report is None:
        report = embeddedness(crown)
    if report.status != "EMBEDDED":
        raise GeometryError(
            f"crown is not embedded: arcs {report.witness} cross"
            + (f" at {report.witness_point}" if report.witness_point else "")
        )
    arcs_payload = []
    for label, arc in crown.arcs:
        poly = [p.to_json() for p in arc.sample(arc_samples, t_range=(1e-2, 1e2))]
        arcs_payload.append(
            {
                "coset": label,
                "endpoints": [arc.start.to_json(), arc.end.to_json()],
                "polyline": poly,
            }
        )
    bundle = {
        "generators": [
            _encode_matrix(gen.matrix) for gen in crown.rep.generators
        ],
        "gamma_word": list(crown.core_word),
        "limit_set": [p.to_json() for p in crown.limit_sample.points],
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


def read_uniformization(text: str) -> dict:
    """Round-trip reader for the crown bundle."""
    return json.loads(text)

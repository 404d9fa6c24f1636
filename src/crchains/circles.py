"""C-circles, arcs, foliation leaves and related predicates.

A C-circle is stored through its polar positive-type point; an arc from a
to b is the t > 0 component of the canonical chart
t -> [a + (i t / <b, a>) b] built on the standard lifts of its endpoints.
Rescaling a lift reparametrizes t by a positive factor, so the point set
is chart-independent.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.optimize import root

from .boundary import INFINITY, BoundaryPoint, best_triple, lifts, normalizer_to_standard
from .hermitian import (
    GeometryError,
    GroupElement,
    HVector,
    Model,
    PointType,
    ProjectivePoint,
    TOL_ARC,
    TOL_ENDPOINT,
    TOL_LIFT,
    TOL_NULL,
    _CAYLEY,
    _H_SIEGEL,
    _H_SIEGEL_INV,
    _box,
    _cross3,
    _null_margin,
    box,
    herm_inner,
    point_type,
)

# Ratio between the Hermitian square of the doubly-boxed four-point vector
# and the factored polynomial certificate for two bent half-lines; fixed by
# evaluating both sides at generic rational points (see tests).
BENT_CERT_RATIO = 0.125


@dataclass(frozen=True)
class CCircle:
    """A C-circle, encoded by its polar positive-type point."""

    polar: ProjectivePoint

    def __post_init__(self):
        if self.polar.point_type is not PointType.POSITIVE:
            raise GeometryError("polar point of a C-circle must be positive")

    def residual(self, p: BoundaryPoint) -> float:
        """Normalized |<p, polar>|; zero iff p lies on the circle."""
        m, v = self.polar.representative, p.lift
        scale = float(np.linalg.norm(m.entries) * np.linalg.norm(v.entries))
        return abs(herm_inner(v, m)) / scale

    def contains(self, p: BoundaryPoint, tol: float = 1e-8) -> bool:
        return self.residual(p) < tol

    def same_as(self, other: "CCircle", tol: float = 1e-9) -> bool:
        return self.polar.proportional_to(other.polar, tol)


def ccircle_through(a: BoundaryPoint, b: BoundaryPoint) -> CCircle:
    """The C-circle through two distinct boundary points."""
    m = box(a.lift, b.lift)
    if m is None:
        raise GeometryError("coincident points span no circle")
    return CCircle(point_type(m))


def tangent_polar(p: BoundaryPoint) -> ProjectivePoint:
    """Polar of the tangent complex line at a boundary point: p itself."""
    pt = point_type(p.lift)
    if pt.point_type is not PointType.NULL:
        raise GeometryError("tangent line is defined at null points only")
    return pt


class CircleRelation(Enum):
    DISJOINT = "disjoint"
    MEET = "meet"
    EQUAL = "equal"


@dataclass(frozen=True)
class CircleIntersection:
    kind: CircleRelation
    margin: float = 0.0
    point: BoundaryPoint | None = None


def ccircles_intersect(
    c1: CCircle, c2: CCircle, tol_null: float = TOL_NULL
) -> CircleIntersection:
    """Intersection test via the box product of the polar points."""
    if c1.same_as(c2):
        return CircleIntersection(CircleRelation.EQUAL)
    # not None: box rejects only polars that same_as has already matched
    n = box(c1.polar.representative, c2.polar.representative)
    margin = float(_null_margin(n.entries, n.model.matrix))
    if abs(margin) < tol_null:
        return CircleIntersection(
            CircleRelation.MEET, margin, BoundaryPoint.from_lift(n, tol=TOL_LIFT)
        )
    return CircleIntersection(CircleRelation.DISJOINT, margin)


@dataclass(frozen=True)
class Arc:
    """Oriented arc of C-circle: the t > 0 side of the canonical chart."""

    start: BoundaryPoint
    end: BoundaryPoint

    def __post_init__(self):
        if self.start.close_to(self.end, eps=1e-12):
            raise GeometryError("arc endpoints must be distinct")

    @cached_property
    def support(self) -> CCircle:
        return ccircle_through(self.start, self.end)

    def opposite(self) -> "Arc":
        return Arc(self.end, self.start)

    def point(self, t: float) -> BoundaryPoint:
        """Point of the arc at chart parameter t in (0, inf)."""
        return self._points([t])[0]

    def sample(self, n: int, t_range: tuple[float, float] = (1e-3, 1e3)) -> list[BoundaryPoint]:
        return self._points([float(t) for t in np.geomspace(t_range[0], t_range[1], n)])

    def _points(self, ts: list[float]) -> list[BoundaryPoint]:
        """Chart points [a + (i t / <b, a>) b], with <b, a> computed once."""
        if not all(t > 0 for t in ts):
            raise GeometryError("arc parameter must be positive")
        a, b = self.start.lift, self.end.lift
        h = herm_inner(b, a)
        chart = (a.entries + (1j * t / h) * b.entries for t in ts)
        return [BoundaryPoint.from_lift(HVector(v)) for v in chart]

    def param_of(self, p: BoundaryPoint) -> tuple[float, float]:
        """Chart parameter of p (infinite at the far endpoint) + residual.

        The residual measures the distance of p from the supporting circle
        (least-squares defect of expressing the lift in the endpoint span,
        normalized).  The sign of the parameter selects the side: positive
        parameters are on this arc.
        """
        a = self.start.lift.entries
        b = self.end.lift.entries
        v = p.lift.entries
        basis = np.column_stack([a, b])
        coef, res, _, _ = np.linalg.lstsq(basis, v, rcond=None)
        fit = basis @ coef
        residual = float(np.linalg.norm(v - fit) / np.linalg.norm(v))
        if abs(coef[0]) < 1e-12 * abs(coef[1]):
            return math.inf, residual
        mu = coef[1] / coef[0]
        t = (mu * herm_inner(self.end.lift, self.start.lift)).imag
        return float(t), residual

    def contains(
        self, p: BoundaryPoint, tol: float = 1e-8, strict_eps: float = 1e-10
    ) -> bool:
        """True when p is an interior point of the arc."""
        if p.close_to(self.start, strict_eps) or p.close_to(self.end, strict_eps):
            return False
        t, res = self.param_of(p)
        return res < tol and t > 0


class ArcRelation(Enum):
    DISJOINT = "disjoint"
    CROSS = "cross"
    SHARE_ENDPOINT = "share_endpoint"
    SAME_SUPPORT = "same_support"


@dataclass(frozen=True)
class ArcIntersection:
    kind: ArcRelation
    margin: float = 0.0
    point: BoundaryPoint | None = None
    relation: str | None = None  # for SAME_SUPPORT: equal / opposite / overlapping


def _shares_endpoint(a1: Arc, a2: Arc, eps: float) -> bool:
    return any(
        p.close_to(q, eps)
        for p in (a1.start, a1.end)
        for q in (a2.start, a2.end)
    )


def arcs_intersect(
    a1: Arc,
    a2: Arc,
    tol_null: float = TOL_NULL,
    endpoint_eps: float = TOL_ENDPOINT,
) -> ArcIntersection:
    """Combinatorial intersection of two arcs of C-circles."""
    inter = ccircles_intersect(a1.support, a2.support, tol_null)
    if inter.kind is CircleRelation.EQUAL:
        if a1.start.close_to(a2.start, endpoint_eps) and a1.end.close_to(
            a2.end, endpoint_eps
        ):
            return ArcIntersection(ArcRelation.SAME_SUPPORT, relation="equal")
        if a1.start.close_to(a2.end, endpoint_eps) and a1.end.close_to(
            a2.start, endpoint_eps
        ):
            return ArcIntersection(ArcRelation.SAME_SUPPORT, relation="opposite")
        return ArcIntersection(ArcRelation.SAME_SUPPORT, relation="overlapping")
    if inter.kind is CircleRelation.DISJOINT:
        return ArcIntersection(ArcRelation.DISJOINT, margin=abs(inter.margin))
    q = inter.point
    assert q is not None
    ends = (a1.start, a1.end, a2.start, a2.end)
    near_end = any(q.close_to(e, endpoint_eps) for e in ends)
    if near_end and _shares_endpoint(a1, a2, endpoint_eps):
        return ArcIntersection(ArcRelation.SHARE_ENDPOINT, point=q)
    in1 = a1.contains(q, tol=TOL_ARC)
    in2 = a2.contains(q, tol=TOL_ARC)
    if in1 and in2 and not near_end:
        return ArcIntersection(ArcRelation.CROSS, point=q)
    # The supports meet but the meeting point misses at least one open arc:
    # clearance is its chordal distance to the nearest arc endpoint.
    clear = math.inf
    for arc, inside in ((a1, in1), (a2, in2)):
        if not inside:
            clear = min(
                clear, q.chordal(arc.start), q.chordal(arc.end)
            )
    if near_end:
        clear = 0.0 if math.isinf(clear) else clear
    return ArcIntersection(ArcRelation.DISJOINT, margin=clear, point=q)


@dataclass(frozen=True)
class RCircle:
    """An R-circle given by a frame mapping the standard one onto it.

    The standard R-circle is {[x, 0] : x real} together with infinity.
    """

    frame: GroupElement

    @staticmethod
    def standard() -> "RCircle":
        return RCircle(GroupElement(np.eye(3), Model.SIEGEL))

    def contains(self, p: BoundaryPoint, tol: float = 1e-8) -> bool:
        q = p.apply(self.frame.inverse())
        if q.at_infinity:
            return True
        return abs(q.z.imag) < tol and abs(q.t) < tol

    def sample(self, n: int, x_range: tuple[float, float] = (1e-3, 1e3)) -> "CurveSample":
        xs = np.concatenate(
            [-np.geomspace(x_range[1], x_range[0], n // 2), np.geomspace(x_range[0], x_range[1], n - n // 2)]
        )
        pts = [BoundaryPoint(float(x), 0.0).apply(self.frame) for x in xs]
        pts.append(INFINITY.apply(self.frame))
        return CurveSample(pts, closed=True, source="r-circle")


@dataclass
class CurveSample:
    """An ordered sample of boundary points with provenance tag."""

    points: list[BoundaryPoint]
    closed: bool
    source: str

    def __post_init__(self):
        for a, b in zip(self.points, self.points[1:]):
            if a.close_to(b, 1e-14):
                raise GeometryError("consecutive sample points coincide")

    def to_json(self) -> str:
        return json.dumps(
            {
                "source": self.source,
                "closed": self.closed,
                "points": [p.to_json() for p in self.points],
            }
        )

    @staticmethod
    def from_json(text: str) -> "CurveSample":
        data = json.loads(text)
        pts = [BoundaryPoint.from_json(item) for item in data["points"]]
        return CurveSample(pts, data["closed"], data["source"])


def foliation_leaf_rcircle(p: BoundaryPoint) -> Arc:
    """Leaf through p of the arc foliation of the standard R-circle complement.

    The tangent line at p meets the real projective plane in one point m;
    the circle polar to m hits the R-circle twice, and the leaf is the side
    containing p.
    """
    if RCircle.standard().contains(p):
        raise GeometryError("point lies on the R-circle")
    v = p.lift
    m = box(v, v.conjugated())
    if m is None:
        raise GeometryError("degenerate conjugate pair")
    # Projectively real: rotate the phase away and keep the real part.
    entries = m.entries
    k = int(np.argmax(np.abs(entries)))
    entries = entries / entries[k]
    m_real = np.real(entries)
    a, b = _real_null_points_on_polar(m_real)
    arc = Arc(a, b)
    t, res = arc.param_of(p)
    if res > 1e-6:
        raise GeometryError(f"leaf construction failed (residual {res:.2e})")
    return arc if t > 0 else arc.opposite()


def _real_null_points_on_polar(m_real: np.ndarray) -> tuple[BoundaryPoint, BoundaryPoint]:
    """The two real null points orthogonal to a real positive vector."""
    u = _H_SIEGEL @ m_real
    # <lift(x), m> = 0 with lift (-x^2, x, 1): -u0 x^2 + u1 x + u2 = 0.
    a_c, b_c, c_c = -u[0], u[1], u[2]
    scale = float(np.linalg.norm(u))
    if abs(a_c) < 1e-12 * scale:
        x = -c_c / b_c
        return BoundaryPoint(float(x), 0.0), INFINITY
    disc = b_c * b_c - 4 * a_c * c_c
    if disc < 0:
        raise GeometryError("polar circle misses the R-circle")
    r = math.sqrt(disc)
    x1 = (-b_c + r) / (2 * a_c)
    x2 = (-b_c - r) / (2 * a_c)
    return BoundaryPoint(float(x1), 0.0), BoundaryPoint(float(x2), 0.0)


def bent_curve(
    theta: float, n: int = 200, r_range: tuple[float, float] = (1e-3, 1e3)
) -> CurveSample:
    """Union of two half-lines at angle theta, closed through 0 and infinity.

    Sampled with geometric spacing accumulating at the origin and at
    infinity; theta = pi recovers the standard R-circle.
    """
    if not 0 < theta < 2 * math.pi:
        raise GeometryError("bending angle must lie in (0, 2 pi)")
    half = (n - 2) // 2
    radii = np.geomspace(r_range[0], r_range[1], half)
    e = complex(math.cos(theta), math.sin(theta))
    branch1 = [BoundaryPoint(float(x), 0.0) for x in radii[::-1]]
    branch2 = [BoundaryPoint(y * e, 0.0) for y in radii]
    pts = branch1 + [BoundaryPoint(0.0, 0.0)] + branch2 + [INFINITY]
    return CurveSample(pts, closed=True, source=f"bent:{theta:.6g}")


def _bent_lifts(x, y, z, t, theta):
    e = complex(math.cos(theta), math.sin(theta))
    a = np.array([-(x**2), x, 1], dtype=complex)
    b = np.array([-(y**2), y * e, 1], dtype=complex)
    c = np.array([-(z**2), z, 1], dtype=complex)
    d = np.array([-(t**2), t * e, 1], dtype=complex)
    return a, b, c, d


def bent_certificate(
    x: float, y: float, z: float, t: float, theta: float
) -> tuple[float, float]:
    """Disjointness certificate for the two circles (x, y) and (z, t).

    Returns (direct, factored): the Hermitian square of the doubly-boxed
    vector of the four lifts, and the polynomial factorization
    (x - z)(t - y)(-alpha cos^2 theta + beta cos theta - gamma).  They
    satisfy direct = BENT_CERT_RATIO * factored.
    """
    if min(x, y, z, t) < 0:
        raise GeometryError("half-line parameters must be nonnegative")
    if (x == 0 and z == 0) or (y == 0 and t == 0):
        raise GeometryError("degenerate half-line configuration")
    a, b, c, d = _bent_lifts(x, y, z, t, theta)
    va = HVector(a)
    vb = HVector(b)
    vc = HVector(c)
    vd = HVector(d)
    n1 = box(va, vb)
    n2 = box(vc, vd)
    if n1 is None or n2 is None:
        raise GeometryError("degenerate half-line configuration")
    w = box(n1, n2)
    direct = 0.0 if w is None else w.norm2
    ct = math.cos(theta)
    alpha = 16 * x * y * z * t * (x + z) * (y + t)
    beta = (
        4
        * ((x * t + y * z) ** 2 + (t * y + x * z) ** 2 + 2 * (t * x + y * z) * (x * y + t * z))
        * (t * y + x * z)
    )
    gamma = 4 * (
        (t**2 + 2 * t * y + z**2) * t * y**2 * z
        + (t**2 + 2 * x * z + z**2) * t * x**2 * z
        + (x**2 + 2 * t * y + y**2) * t**2 * x * y
        + (x**2 + y**2 + 2 * x * z) * x * y * z**2
    )
    factored = (x - z) * (t - y) * (-alpha * ct**2 + beta * ct - gamma)
    return direct, factored


def _branch_point(u: float, branch: int, theta: float) -> BoundaryPoint:
    if branch == 0:
        return BoundaryPoint(u, 0.0)
    e = complex(math.cos(theta), math.sin(theta))
    return BoundaryPoint(u * e, 0.0)


def bent_leaf(p: BoundaryPoint, theta: float, tol: float = 1e-8) -> Arc:
    """Leaf through p of the arc foliation of the bent-curve complement.

    Endpoints on the two half-lines are found by root-finding on the
    collinearity of the three null lifts; multistart covers the three
    branch assignments.
    """
    if not math.pi / 2 <= theta <= 3 * math.pi / 2:
        raise GeometryError("bending angle outside the foliated range")
    if p.at_infinity:
        raise GeometryError("leaf through infinity is degenerate")
    vp = p.lift.entries
    vp = vp / np.linalg.norm(vp)

    def residual_fn(branches):
        def fn(s):
            a = _branch_point(math.exp(s[0]), branches[0], theta).lift.entries
            b = _branch_point(math.exp(s[1]), branches[1], theta).lift.entries
            a = a / np.linalg.norm(a)
            b = b / np.linalg.norm(b)
            det = np.linalg.det(np.column_stack([vp, a, b]))
            return [det.real, det.imag]

        return fn

    base = math.log(max(abs(p.z), 0.1))
    starts = [
        (base, base),
        (base - 1.5, base + 1.5),
        (base + 1.5, base - 1.5),
        (base - 3.0, base),
        (base, base - 3.0),
        (base + 3.0, base),
        (base, base + 3.0),
        (base - 1.0, base + 3.0),
    ]
    branch_pairs = ((0, 1), (0, 0), (1, 1))
    # the wide starts first; close-in starts catch the few points where
    # every wide start converges to a spurious or no root
    attempts = [(br, s0) for br in branch_pairs for s0 in starts] + [
        (br, (base + a, base + b))
        for br in branch_pairs
        for a, b in itertools.permutations((-1, 0, 1), 2)
    ]
    for branches, s0 in attempts:
        fn = residual_fn(branches)
        # hybr may step to log-parameters whose exp or lift norm overflows;
        # that start has failed, the next one may still converge
        try:
            with np.errstate(over="raise"):
                sol = root(fn, s0, method="hybr", tol=1e-12)
                res = float(np.linalg.norm(fn(sol.x)))
            if res > tol:
                continue
            a = _branch_point(math.exp(sol.x[0]), branches[0], theta)
            b = _branch_point(math.exp(sol.x[1]), branches[1], theta)
        except (OverflowError, FloatingPointError):
            continue
        if a.close_to(b, 1e-10):
            continue
        arc = Arc(a, b)
        t_par, fit_res = arc.param_of(p)
        if fit_res > 1e-7:
            continue
        leaf = arc if t_par > 0 else arc.opposite()
        if leaf.contains(p, tol=1e-6):
            return leaf
    raise GeometryError(
        f"bent-leaf solver did not converge for {p} at theta={theta:.4f}"
    )


def spiral_point(a: float, s: float) -> BoundaryPoint:
    """Point of the horizontal loxodromic spiral with parameter s.

    The spiral is the horizontal orbit of [1, 3a] under the diagonal
    one-parameter subgroup with exponent 1 + i a; every point satisfies
    t = 3 a |z|^2.
    """
    z = complex(math.exp(s)) * complex(math.cos(3 * a * s), -math.sin(3 * a * s))
    t = 3 * a * math.exp(2 * s)
    return BoundaryPoint(z, t)


def spiral_curve(
    a: float, s_range: tuple[float, float] = (-6.0, 6.0), n: int = 300
) -> CurveSample:
    """Sampled horizontal spiral, with the two fixed points appended."""
    if a <= 0:
        raise GeometryError("spiral parameter must be positive")
    if n < 2:
        raise GeometryError("need at least two sample points")
    ss = np.linspace(s_range[0], s_range[1], n)
    pts = [BoundaryPoint(0.0, 0.0)] + [spiral_point(a, float(s)) for s in ss] + [INFINITY]
    return CurveSample(pts, closed=False, source=f"spiral:{a:.6g}")


def min_collinearity(lifts: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """Minimal normalized |det| over distinct index triples of lifts.

    A zero value witnesses three points on a common complex line.
    """
    unit = lifts / np.linalg.norm(lifts, axis=1)[:, None]

    def block(j):
        # |u_i . (u_j x u_k)|, summed term by term in a fixed order: a BLAS
        # product would round each value differently for each block shape
        cr = _cross3(unit[j], unit[j + 1 :]).T
        u = unit[:j, :, None]
        return np.abs(u[:, 0] * cr[0] + u[:, 1] * cr[1] + u[:, 2] * cr[2])

    return best_triple(len(unit), block, sign=-1)


def mobius_sample(
    sample: CurveSample, hyperconvex_tol: float = 1e-10
) -> tuple[list[ProjectivePoint], float]:
    """Polar images of all point pairs of a curve, with injectivity margin.

    Pairs (x, y) and (y, x) give the same image; the margin is the minimal
    projective (Fubini-Study) distance between images of distinct pairs.
    Raises on a hyperconvexity violation, naming a witness triple.
    """
    v = lifts(sample.points)
    coll, witness = min_collinearity(v)
    if coll < hyperconvex_tol:
        raise GeometryError(
            f"sample is not hyperconvex: triple {witness} is collinear "
            f"(normalized det {coll:.2e})"
        )
    i, j = np.triu_indices(v.shape[0], k=1)
    polars = _box(v[i], v[j], _H_SIEGEL_INV)  # one row per pair
    images = [point_type(HVector(w)) for w in polars]
    # ball-model affine coordinates for the chordal margin; clamp the chart
    # denominator: images on the hyperplane at infinity get huge
    # coordinates and never realize the minimum
    ball = polars @ _CAYLEY.T
    denom = np.where(np.abs(ball[:, 2]) > 1e-200, ball[:, 2], 1e-200)
    rep = ball[:, :2] / denom[:, None]
    m = rep.shape[0]
    margin = math.inf
    block = 512
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        diff = rep[lo:hi, None, :] - rep[None, :, :]
        # clamped chart points overflow to inf here, which is correct
        with np.errstate(over="ignore", invalid="ignore"):
            d = np.linalg.norm(diff, axis=2)
        d = np.where(np.isnan(d), math.inf, d)
        for r in range(hi - lo):
            d[r, lo + r] = math.inf
        margin = min(margin, float(np.min(d)))
    return images, margin


def flow_point(
    x: BoundaryPoint, y: BoundaryPoint, z: BoundaryPoint
) -> BoundaryPoint:
    """The point of arc(x -> y) whose foot on the real geodesic xy is z's.

    Normalizing x to the origin and y to infinity, the orthogonal
    projection of a point with first lift coordinate w has foot |w| on the
    geodesic, and the arc point with the same foot is [0, |w|].
    """
    for p, q in ((x, y), (x, z), (y, z)):
        if p.close_to(q, 1e-12):
            raise GeometryError("flow point needs three distinct points")
    g = normalizer_to_standard(x, y)
    w = z.apply(g)
    if w.at_infinity:
        raise GeometryError("unexpected normalization failure")
    zeta = abs(complex(-abs(w.z) ** 2, -w.t))
    if zeta == 0:
        raise GeometryError("projection foot is degenerate")
    p_norm = BoundaryPoint(0.0, zeta)
    return p_norm.apply(g.inverse())

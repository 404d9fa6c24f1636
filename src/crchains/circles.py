"""C-circles, arcs, foliation leaves and related predicates.

A C-circle is stored through its polar row, a positive lift; an arc from a
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

from .boundary import (
    INFINITY,
    BoundaryPoint,
    PointSet,
    ball_rows,
    best_triple,
    lifts,
    point_set,
    standard_rows,
)
from .hermitian import (
    GeometryError,
    GroupElement,
    PointType,
    TOL_ARC,
    TOL_ENDPOINT,
    TOL_LIFT,
    TOL_NULL,
    _box,
    _cross3,
    _herm,
    _null_margin,
    _proportional,
    _tame,
    box,
    herm_inner,
    point_type,
)


# scipy's solvers load on first use, so the sweep and crown paths import no
# scipy submodule; the names stay module attributes that a caller can rebind
def root(fun, x0, **kwargs):
    """scipy.optimize.root, loaded on the first call: only bent_leaf solves."""
    from scipy.optimize import root as solve

    return solve(fun, x0, **kwargs)


# Ratio between the Hermitian square of the doubly-boxed four-point vector
# and the factored polynomial certificate for two bent half-lines; fixed by
# evaluating both sides at generic rational points (see tests).
BENT_CERT_RATIO = 0.125


@dataclass(frozen=True)
class CCircle:
    """A C-circle, encoded by its polar row, a positive lift."""

    polar: np.ndarray

    def __post_init__(self):
        if point_type(self.polar) is not PointType.POSITIVE:
            raise GeometryError("polar point of a C-circle must be positive")

    def residual(self, p: BoundaryPoint) -> float:
        """Normalized |<p, polar>|; zero iff p lies on the circle."""
        m, v = self.polar, p.lift
        scale = float(np.linalg.norm(m) * np.linalg.norm(v))
        return abs(herm_inner(v, m)) / scale

    def contains(self, p: BoundaryPoint, tol: float = 1e-8) -> bool:
        return self.residual(p) < tol


def ccircle_through(a: BoundaryPoint, b: BoundaryPoint) -> CCircle:
    """The C-circle through two distinct boundary points."""
    m = box(a.lift, b.lift)
    if m is None:
        raise GeometryError("coincident points span no circle")
    return CCircle(m)


class CircleRelation(Enum):
    DISJOINT = "disjoint"
    MEET = "meet"
    EQUAL = "equal"


@dataclass(frozen=True)
class CircleIntersection:
    kind: CircleRelation
    margin: float = 0.0
    point: BoundaryPoint | None = None


def circle_relations(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`ccircles_intersect` on rows of (N, 3) Siegel polars p and q.

    Returns the CircleRelation of each row pair, the signed null margin of
    the box product of the two polars and the box product itself, whose
    class is the meeting point of MEET rows.  Proportional polars, by
    `_proportional` at TOL_PROPORTIONAL, are EQUAL.
    """
    same = _proportional(p, q)
    boxed = _box(p, q)
    with np.errstate(invalid="ignore"):  # proportional polars box to zero: NaN
        margin = _null_margin(boxed)
    meet = np.abs(margin) < TOL_NULL
    kind = np.where(
        same,
        CircleRelation.EQUAL,
        np.where(meet, CircleRelation.MEET, CircleRelation.DISJOINT),
    )
    return kind, margin, boxed


def ccircles_intersect(c1: CCircle, c2: CCircle) -> CircleIntersection:
    """Intersection test via the box product of the polar points.

    The one-row case of `circle_relations`.
    """
    kind, margin, boxed = circle_relations(c1.polar[None], c2.polar[None])
    kind, margin = kind[0], float(margin[0])
    if kind is CircleRelation.EQUAL:
        return CircleIntersection(kind)
    if kind is CircleRelation.MEET:
        point = BoundaryPoint.from_lift(boxed[0], tol=TOL_LIFT)
        return CircleIntersection(kind, margin, point)
    return CircleIntersection(kind, margin)


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
        return _chart_points((self,), [t]).points[0]

    def sample(self, n: int, t_range: tuple[float, float] = (1e-3, 1e3)) -> PointSet:
        """The polyline of n chart points, t geometrically spaced over t_range:
        the one-arc case of `sample_arcs`."""
        return sample_arcs((self,), n, t_range)

    def param_of(self, p: BoundaryPoint) -> tuple[float, float]:
        """Chart parameter of p (infinite at the far endpoint) + residual.

        On the circle the lift is v = c0 a + c1 b with a and b null, so
        <v, a> = c1 <b, a> and <v, b> = c0 <a, b>: the chart parameter
        Im(c1 <b, a> / c0) is Im(<v, a> <a, b> / <v, b>).  The residual
        |det(a, b, v)| / (|a x b| |v|) is the distance of the lift from the
        span of the endpoint lifts, normalized.  The sign of the parameter
        selects the side: positive parameters are on this arc.  The far
        endpoint is |c0 a| < 1e-12 |c1 b|: |<v, b>| |a| < 1e-12 |<v, a>| |b|.
        """
        e = _tame(lifts((self.start, self.end, p)))
        a, b, v = e
        va, vb, ab = _herm(e[[2, 2, 0]], e[[0, 1, 1]]).tolist()
        n = _cross3(a, b)
        residual = float(abs(n @ v) / (np.linalg.norm(n) * np.linalg.norm(v)))
        # the far-endpoint rule, squared: vdot is cheaper than a norm
        if abs(vb) ** 2 * np.vdot(a, a).real < 1e-24 * abs(va) ** 2 * np.vdot(b, b).real:
            return math.inf, residual
        return (va * ab / vb).imag, residual

    def contains(self, p: BoundaryPoint, tol: float = 1e-8) -> bool:
        """True when p is an interior point of the arc, 1e-10 from its ends."""
        if p.close_to(self.start, 1e-10) or p.close_to(self.end, 1e-10):
            return False
        t, res = self.param_of(p)
        return res < tol and t > 0


def sample_arcs(arcs, n: int, t_range: tuple[float, float]) -> PointSet:
    """The polylines `Arc.sample(n, t_range)` of the arcs, stacked: n rows per arc."""
    return _chart_points(arcs, [float(t) for t in np.geomspace(t_range[0], t_range[1], n)])


def _chart_points(arcs, ts: list[float]) -> PointSet:
    """Chart points [a + (i t / <b, a>) b] of each arc at each t, arc after
    arc, with <b, a> computed once per arc and one `point_set` for them all."""
    if not all(t > 0 for t in ts):
        raise GeometryError("arc parameter must be positive")
    rows = []
    for arc in arcs:
        a, b = arc.start.lift, arc.end.lift
        h = herm_inner(b, a)
        # 1j * t / h stays a Python scalar per t: numpy rounds it differently
        mu = np.array([1j * t / h for t in ts], dtype=complex)
        rows.append(a + mu[:, None] * b)
    return point_set(np.array(rows, dtype=complex).reshape(-1, 3))


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


def arcs_intersect(a1: Arc, a2: Arc) -> ArcIntersection:
    """Combinatorial intersection of two arcs of C-circles."""
    inter = ccircles_intersect(a1.support, a2.support)
    eps = TOL_ENDPOINT
    if inter.kind is CircleRelation.EQUAL:
        if a1.start.close_to(a2.start, eps) and a1.end.close_to(a2.end, eps):
            return ArcIntersection(ArcRelation.SAME_SUPPORT, relation="equal")
        if a1.start.close_to(a2.end, eps) and a1.end.close_to(a2.start, eps):
            return ArcIntersection(ArcRelation.SAME_SUPPORT, relation="opposite")
        return ArcIntersection(ArcRelation.SAME_SUPPORT, relation="overlapping")
    if inter.kind is CircleRelation.DISJOINT:
        return ArcIntersection(ArcRelation.DISJOINT, margin=abs(inter.margin))
    q = inter.point
    assert q is not None
    ends = (a1.start, a1.end, a2.start, a2.end)
    near_end = any(q.close_to(e, eps) for e in ends)
    if near_end and any(p.close_to(e, eps) for p in ends[:2] for e in ends[2:]):
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
            clear = min(clear, q.chordal(arc.start), q.chordal(arc.end))
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
        return RCircle(GroupElement(np.eye(3)))

    def contains(self, p: BoundaryPoint, tol: float = 1e-8) -> bool:
        return _real_up_to_scale(p.apply(self.frame.inverse()).row, tol)

    def sample(self, n: int) -> "CurveSample":
        """n points [x, 0] with 1e-3 <= |x| <= 1e3 geometrically spaced, then infinity."""
        xs = np.concatenate(
            [-np.geomspace(1e3, 1e-3, n // 2), np.geomspace(1e-3, 1e3, n - n // 2)]
        )
        rows = np.concatenate([standard_rows(xs, 0.0), [INFINITY.row]])
        pts = point_set(rows @ self.frame.matrix.T)
        return CurveSample(pts.rows, pts.at_infinity, closed=True, source="r-circle")


@dataclass(frozen=True, eq=False)
class CurveSample(PointSet):
    """An ordered sample of boundary points with provenance tag."""

    closed: bool
    source: str

    def __post_init__(self):
        b = ball_rows(self.rows)
        if (np.linalg.norm(b[1:] - b[:-1], axis=-1) < 1e-14).any():
            raise GeometryError("consecutive sample points coincide")

    def to_json(self) -> str:
        return json.dumps(
            {"source": self.source, "closed": self.closed, "points": self.json_points()}
        )

    @staticmethod
    def from_json(text: str) -> "CurveSample":
        """Inverse of `to_json`; GeometryError on anything else."""
        try:
            data = json.loads(text)
            pts = [BoundaryPoint.from_json(item) for item in data["points"]]
            closed, source = data["closed"], data["source"]
        except (KeyError, TypeError, ValueError) as exc:
            raise GeometryError(f"malformed curve sample: {exc!r}") from exc
        return CurveSample.of(pts, closed, source)


def _then_infinity(rows: np.ndarray) -> PointSet:
    """The points of finite standard rows, followed by infinity."""
    flags = np.arange(len(rows) + 1) == len(rows)
    return PointSet(np.concatenate([rows, [INFINITY.row]]), flags)


def _real_up_to_scale(row: tuple, tol: float) -> bool:
    """On the standard R-circle: the lift over its largest entry is real to tol."""
    big = max(row, key=abs)
    return all(abs((c / big).imag) < tol for c in row)


def foliation_leaf_rcircle(p: BoundaryPoint) -> Arc:
    """Leaf through p of the arc foliation of the standard R-circle complement.

    The leaf lies on the chain through p and two points [x, 0]: p's row
    (w, z, 1) is in the span of their lifts (-x^2, x, 1).  With u = Re z,
    y = Im z and t = Im w, the two x are the real roots of
    y x^2 + t x + c = 0, c = Re(w) y - t u.  The discriminant is the sum of
    squares (t + 2uy)^2 + (2y^2)^2, so with
    q = -(t + sign(t) hypot(t + 2uy, 2y^2)) / 2 the far root x1 = q / y and
    the near root x2 = c / q carry no cancellation.  The far end is
    infinity when y = 0 (the vertical chain through [u, 0]) or when [x1, 0]
    has no finite lift.

    The leaf is the side where p's chart parameter is positive: for the arc
    from a to b, the sign of -Im(<v,a> conj <v,b>), where
    <v,a> = -(x1 - u)^2 - y^2 + i(2 x1 y + t) and 2 x1 y + t = y (x1 - x2).
    That is y (x1 - x2) times a positive number, and since |x1| > |x2| it
    has the sign of q, that of -t.  So the leaf runs from the near end to
    the far end when t > 0, ([u, 0], inf) on a vertical chain, and back
    when t < 0; at t = +-0 both sign bits give the same arc.  GeometryError
    when the leaf misses p by a normalized residual above 1e-6.
    """
    if _real_up_to_scale(p.row, 1e-8):  # RCircle.standard().contains(p)
        raise GeometryError("point lies on the R-circle")
    w, z, _ = p.row
    u, y, t = float(z.real), float(z.imag), w.imag
    if y == 0:
        x1, x2 = math.inf, u
    else:
        c = w.real * y - t * u
        q = -0.5 * (t + math.copysign(math.hypot(t + 2.0 * u * y, 2.0 * y * y), t))
        x1, x2 = q / y, c / q
    near = BoundaryPoint(x2, 0.0)
    try:
        far = BoundaryPoint(x1, 0.0)
    except GeometryError:  # y = 0, or [x1, 0] is within ~1e-154 of infinity
        far = INFINITY
    # |det(v, a, b)| / (|a x b| |v|), as in `Arc.param_of`: a x b is along
    # (1, x1 + x2, -x1 x2) for two finite ends and along (0, 1, -x) for
    # [x, 0] and infinity; hypot, not squares, so a far root cannot overflow
    if far is INFINITY:
        res = math.hypot(u - x2, y) / math.hypot(1.0, x2)
    else:
        s, prod = x1 + x2, x1 * x2
        res = math.hypot(w.real + s * u - prod, t + s * y) / math.hypot(1.0, s, prod)
    res /= math.hypot(w.real, t, u, y, 1.0)
    if not res <= 1e-6:  # NaN fails too
        raise GeometryError(f"leaf construction failed (residual {res:.2e})")
    return Arc(near, far) if math.copysign(1.0, t) > 0 else Arc(far, near)


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
    z = np.concatenate([radii[::-1], [0.0], radii * e])  # branch 0, origin, branch 1
    pts = _then_infinity(standard_rows(z, 0.0))
    return CurveSample(pts.rows, pts.at_infinity, closed=True, source=f"bent:{float(theta)!r}")


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
    pts = ((x, 0), (y, 1), (z, 0), (t, 1))  # the circles (x, y) and (z, t)
    va, vb, vc, vd = (_branch_point(u, branch, theta).lift for u, branch in pts)
    n1 = box(va, vb)
    n2 = box(vc, vd)
    if n1 is None or n2 is None:
        raise GeometryError("degenerate half-line configuration")
    w = box(n1, n2)
    direct = 0.0 if w is None else _herm(w, w).real
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


def bent_leaf(p: BoundaryPoint, theta: float) -> Arc:
    """Leaf through p of the arc foliation of the bent-curve complement.

    Endpoints on the two half-lines are found by root-finding on the
    collinearity of the three null lifts, to a residual of 1e-8;
    multistart covers the three branch assignments.
    """
    if not math.pi / 2 <= theta <= 3 * math.pi / 2:
        raise GeometryError("bending angle outside the foliated range")
    if p.at_infinity:
        raise GeometryError("leaf through infinity is degenerate")
    vp = np.array(p.row)
    vp = vp / np.linalg.norm(vp)

    def residual_fn(branches):
        def fn(s):
            a = np.array(_branch_point(math.exp(s[0]), branches[0], theta).row)
            b = np.array(_branch_point(math.exp(s[1]), branches[1], theta).row)
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
        # hybr may step to log-parameters whose exp or lift overflows, or to
        # NaN; that start has failed, the next one may still converge
        try:
            with np.errstate(over="raise"):
                sol = root(fn, s0, method="hybr", tol=1e-12)
                res = float(np.linalg.norm(fn(sol.x)))
            if res > 1e-8:
                continue
            a = _branch_point(math.exp(sol.x[0]), branches[0], theta)
            b = _branch_point(math.exp(sol.x[1]), branches[1], theta)
        except (OverflowError, FloatingPointError, GeometryError):
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


def spiral_rows(a: float, s) -> np.ndarray:
    """Standard rows of the horizontal loxodromic spiral at the parameters s.

    The spiral is the horizontal orbit of [1, 3a] under the diagonal
    one-parameter subgroup with exponent 1 + i a; every point satisfies
    t = 3 a |z|^2.  Python's math and complex arithmetic per s, not numpy's,
    which rounds exp and complex products differently.
    """
    z = [complex(math.exp(x)) * complex(math.cos(3 * a * x), -math.sin(3 * a * x)) for x in s]
    return standard_rows(z, [3 * a * math.exp(2 * x) for x in s])


def spiral_point(a: float, s: float) -> BoundaryPoint:
    """Point of the horizontal loxodromic spiral: the one-row `spiral_rows`."""
    return PointSet(spiral_rows(a, [s]), np.zeros(1, dtype=bool)).points[0]


def spiral_curve(
    a: float, s_range: tuple[float, float] = (-6.0, 6.0), n: int = 300
) -> CurveSample:
    """Sampled horizontal spiral, with the two fixed points appended."""
    if a <= 0:
        raise GeometryError("spiral parameter must be positive")
    if n < 2:
        raise GeometryError("need at least two sample points")
    ss = np.linspace(s_range[0], s_range[1], n).tolist()
    origin = standard_rows([0.0], 0.0)
    pts = _then_infinity(np.concatenate([origin, spiral_rows(a, ss)]))
    return CurveSample(pts.rows, pts.at_infinity, closed=False, source=f"spiral:{float(a)!r}")


def _det_block(unit: np.ndarray, j: int) -> np.ndarray:
    """|u_i . (u_j x u_k)| for i < j < k, as a (j, n - j - 1) block."""
    # summed term by term in a fixed order: a BLAS product would round each
    # value differently for each block shape
    cr = _cross3(unit[j], unit[j + 1 :]).T
    u = unit[:j, :, None]
    return np.abs(u[:, 0] * cr[0] + u[:, 1] * cr[1] + u[:, 2] * cr[2])


def min_collinearity(lifts: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """Minimal normalized |det| over distinct index triples of lifts.

    A zero value witnesses three points on a common complex line.
    """
    v = _tame(lifts)
    unit = v / np.linalg.norm(v, axis=1)[:, None]
    return best_triple(range(1, len(unit) - 1), lambda j: _det_block(unit, j), sign=-1)

"""C-circles, arcs, foliation leaves, bent curves, spirals."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from crchains import circles
from crchains.boundary import INFINITY, BoundaryPoint, PointSet, cartan
from crchains.circles import (
    Arc,
    ArcRelation,
    BENT_CERT_RATIO,
    CircleRelation,
    CurveSample,
    RCircle,
    arcs_intersect,
    bent_certificate,
    bent_curve,
    bent_leaf,
    ccircle_through,
    ccircles_intersect,
    circle_relations,
    foliation_leaf_rcircle,
    min_collinearity,
    spiral_curve,
    spiral_rows,
)
from crchains.groups import diagonal_loxodromic
from crchains.hermitian import (
    GeometryError,
    _H_SIEGEL,
    _proportional,
    box,
    herm_inner,
    random_form_preserving,
)

RNG = np.random.default_rng(20240819)


def rand_point():
    return BoundaryPoint(
        complex(RNG.normal(), RNG.normal()), float(RNG.normal())
    )


class TestCCircle:
    def test_vertical_chain(self):
        c = ccircle_through(BoundaryPoint(0, 0), INFINITY)
        assert c.contains(BoundaryPoint(0, 5.0))
        assert not c.contains(BoundaryPoint(1, 0))

    def test_through_its_defining_points(self):
        a, b = rand_point(), rand_point()
        c = ccircle_through(a, b)
        assert c.contains(a) and c.contains(b)

    def test_points_on_circle_are_extremal_triples(self):
        # any three points of a chain have |A| = pi/2
        a, b = rand_point(), rand_point()
        arc = Arc(a, b)
        p1, p2 = arc.point(0.5), arc.point(2.0)
        assert abs(cartan(a, p1, p2).angle) == pytest.approx(
            math.pi / 2, abs=1e-9
        )


class TestCirclesIntersect:
    def test_meeting_circles(self):
        # both chains pass through the origin
        c1 = ccircle_through(BoundaryPoint(0, 0), INFINITY)
        c2 = ccircle_through(BoundaryPoint(0, 0), BoundaryPoint(1, 0))
        res = ccircles_intersect(c1, c2)
        assert res.kind is CircleRelation.MEET
        assert res.point.close_to(BoundaryPoint(0, 0), 1e-6)

    def test_disjoint_circles(self):
        # vertical axis vs the chain through [1,0] and [-1,0]:
        # hand computation gives <n,n> = -2 before normalization
        c1 = ccircle_through(BoundaryPoint(0, 0), INFINITY)
        c2 = ccircle_through(BoundaryPoint(1, 0), BoundaryPoint(-1, 0))
        res = ccircles_intersect(c1, c2)
        assert res.kind is CircleRelation.DISJOINT
        assert res.margin < 0

    def test_parallel_vertical_chains_meet_at_infinity(self):
        c1 = ccircle_through(BoundaryPoint(0, 0), INFINITY)
        c2 = ccircle_through(BoundaryPoint(1, 0), INFINITY)
        res = ccircles_intersect(c1, c2)
        assert res.kind is CircleRelation.MEET
        assert res.point.at_infinity

    def test_equal_circles(self):
        c1 = ccircle_through(BoundaryPoint(0, 0), INFINITY)
        c2 = ccircle_through(BoundaryPoint(0, 1), BoundaryPoint(0, -3))
        assert ccircles_intersect(c1, c2).kind is CircleRelation.EQUAL

    def test_rows_relate_as_pairs(self):
        """circle_relations on a stack gives each pair what
        ccircles_intersect gives it alone: kind and margin bits."""
        pts = [rand_point() for _ in range(40)] + [BoundaryPoint(0, 0), INFINITY]
        circles = [ccircle_through(a, b) for a, b in zip(pts, pts[1:])]
        # an equal circle and circles meeting at a sample point
        circles += [ccircle_through(BoundaryPoint(0, 1), BoundaryPoint(0, -3))]
        circles += [ccircle_through(pts[0], rand_point()) for _ in range(5)]
        polars = np.array([c.polar for c in circles])
        i, j = np.triu_indices(len(circles), k=1)
        kind, margin, _ = circle_relations(polars[i], polars[j])
        seen = set()
        for k in range(len(i)):
            res = ccircles_intersect(circles[i[k]], circles[j[k]])
            assert res.kind is kind[k]
            seen.add(res.kind)
            if res.kind is not CircleRelation.EQUAL:
                assert res.margin == margin[k]
        assert seen == set(CircleRelation)


class TestArc:
    def test_points_lie_on_support(self):
        a, b = rand_point(), rand_point()
        arc = Arc(a, b)
        sup = arc.support
        for t in (0.1, 1.0, 7.3):
            assert sup.contains(arc.point(t), tol=1e-8)

    def test_param_round_trip(self):
        arc = Arc(rand_point(), rand_point())
        for t in (0.25, 1.0, 4.0):
            t_back, res = arc.param_of(arc.point(t))
            assert res < 1e-10
            assert t_back == pytest.approx(t, rel=1e-8)

    def test_opposite_arc_partitions_circle(self):
        # a circle point is interior to exactly one of the two arcs
        arc = Arc(rand_point(), rand_point())
        p = arc.point(2.0)
        assert arc.contains(p) and not arc.opposite().contains(p)
        q = arc.opposite().point(2.0)
        assert arc.opposite().contains(q) and not arc.contains(q)

    def test_endpoints_not_interior(self):
        arc = Arc(rand_point(), rand_point())
        assert not arc.contains(arc.start)
        assert not arc.contains(arc.end)

    def test_equivariance(self):
        # the image of the arc equals the arc of the images
        g = random_form_preserving(RNG)
        a, b = rand_point(), rand_point()
        arc = Arc(a, b)
        moved = Arc(a.apply(g), b.apply(g))
        for t in (0.3, 1.7):
            p = arc.point(t).apply(g)
            assert moved.contains(p, tol=1e-7)

    def test_rejects_bad_parameter(self):
        arc = Arc(rand_point(), rand_point())
        with pytest.raises(GeometryError):
            arc.point(0.0)
        with pytest.raises(GeometryError):
            arc.point(-1.0)


class TestArcsIntersect:
    def test_same_support_opposite(self):
        a, b = rand_point(), rand_point()
        res = arcs_intersect(Arc(a, b), Arc(b, a))
        assert res.kind is ArcRelation.SAME_SUPPORT
        assert res.relation == "opposite"

    def test_same_support_equal(self):
        a, b = rand_point(), rand_point()
        res = arcs_intersect(Arc(a, b), Arc(a, b))
        assert res.kind is ArcRelation.SAME_SUPPORT
        assert res.relation == "equal"

    def test_share_endpoint(self):
        a, b, c = rand_point(), rand_point(), rand_point()
        res = arcs_intersect(Arc(a, b), Arc(a, c))
        assert res.kind in (ArcRelation.SHARE_ENDPOINT, ArcRelation.DISJOINT)

    def test_disjoint_supports(self):
        a1 = Arc(BoundaryPoint(0, 0), INFINITY)
        a2 = Arc(BoundaryPoint(1, 0), BoundaryPoint(-1, 0))
        res = arcs_intersect(a1, a2)
        assert res.kind is ArcRelation.DISJOINT
        assert res.margin > 0

    @staticmethod
    def _transversal_pair():
        # two chains through the origin with distinct supports; interior
        # points are taken off each to get genuinely crossing candidates
        o = BoundaryPoint(0, 0)
        base1 = Arc(BoundaryPoint(0, -1), o)
        base2 = Arc(BoundaryPoint(1, 0), o)
        a1 = Arc(base1.point(0.5), base1.point(2.0))
        a2 = Arc(base2.point(0.5), base2.point(2.0))
        return a1, a2

    def test_cross(self):
        a1, a2 = self._transversal_pair()
        kinds = {
            arcs_intersect(x, y).kind
            for x in (a1, a1.opposite())
            for y in (a2, a2.opposite())
        }
        assert ArcRelation.CROSS in kinds

    def test_meet_outside_arc_is_disjoint(self):
        a1, a2 = self._transversal_pair()
        crossing = None
        for x in (a1, a1.opposite()):
            for y in (a2, a2.opposite()):
                res = arcs_intersect(x, y)
                if res.kind is ArcRelation.CROSS:
                    crossing = (x, y)
        assert crossing is not None
        res = arcs_intersect(crossing[0].opposite(), crossing[1])
        assert res.kind is ArcRelation.DISJOINT


class TestRCircleFoliation:
    def test_standard_rcircle_membership(self):
        rc = RCircle.standard()
        assert rc.contains(BoundaryPoint(2.5, 0))
        assert rc.contains(INFINITY)
        assert not rc.contains(BoundaryPoint(1j, 0))

    def test_hand_computed_leaf(self):
        # the leaf through [i, 0] ends at [1, 0] and [-1, 0]
        leaf = foliation_leaf_rcircle(BoundaryPoint(1j, 0))
        ends = {round(leaf.start.z.real, 6), round(leaf.end.z.real, 6)}
        assert ends == {1.0, -1.0}

    def test_leaf_contains_point(self):
        for _ in range(20):
            p = rand_point()
            if RCircle.standard().contains(p):
                continue
            leaf = foliation_leaf_rcircle(p)
            assert leaf.contains(p, tol=1e-6)

    def test_leaf_endpoints_on_rcircle(self):
        p = BoundaryPoint(0.3 + 0.7j, -0.4)
        leaf = foliation_leaf_rcircle(p)
        rc = RCircle.standard()
        assert rc.contains(leaf.start) and rc.contains(leaf.end)

    def test_moved_rcircle_contains_its_sample(self):
        # [x, 0] with |x| up to 1e3 and the image of infinity, each moved by
        # the frame and back: on the circle up to rounding, which grows
        # with |x|^2 in t
        for _ in range(5):
            rc = RCircle(random_form_preserving(RNG))
            assert all(rc.contains(p) for p in rc.sample(20).points)

    def test_on_circle_point_rejected(self):
        with pytest.raises(GeometryError):
            foliation_leaf_rcircle(BoundaryPoint(1.0, 0.0))

    def test_leaves_through_chain_points(self):
        # vertical-axis points have leaves with endpoint at infinity
        leaf = foliation_leaf_rcircle(BoundaryPoint(0, 1.0))
        assert leaf.start.at_infinity or leaf.end.at_infinity


class TestBentCurve:
    def test_theta_pi_is_rcircle(self):
        sample = bent_curve(math.pi, n=50)
        rc = RCircle.standard()
        assert all(rc.contains(p) for p in sample.points)

    def test_sample_accumulates_at_corner_and_infinity(self):
        sample = bent_curve(3 * math.pi / 4, n=100)
        assert sample.points[-1].at_infinity
        assert any(p.close_to(BoundaryPoint(0, 0), 1e-6) for p in sample.points)

    def test_branches_at_correct_angle(self):
        theta = math.pi / 2
        sample = bent_curve(theta, n=60)
        args = {round(np.angle(p.z), 6) for p in sample.points
                if not p.at_infinity and abs(p.z) > 1e-6}
        assert args <= {0.0, round(theta, 6)}

    def test_invalid_angle(self):
        with pytest.raises(GeometryError):
            bent_curve(0.0)


class TestBentCertificate:
    def test_reference_value(self):
        # generic rational configuration evaluated by direct expansion
        direct, factored = bent_certificate(1, 1, 2, 2, math.pi / 2)
        assert direct == pytest.approx(72.0, rel=1e-12)
        assert factored == pytest.approx(576.0, rel=1e-12)

    def test_ratio_constant(self):
        for _ in range(200):
            x, y, z, t = RNG.uniform(0.1, 5.0, size=4)
            theta = RNG.uniform(0.1, 2 * math.pi - 0.1)
            direct, factored = bent_certificate(x, y, z, t, theta)
            assert direct == pytest.approx(
                BENT_CERT_RATIO * factored, rel=1e-9, abs=1e-12
            )

    def test_vanishes_iff_equal_radii(self):
        d1, _ = bent_certificate(1, 2, 1, 3, 2.0)  # x == z
        assert d1 == pytest.approx(0.0, abs=1e-10)
        d2, _ = bent_certificate(1, 2, 3, 2, 2.0)  # y == t
        assert d2 == pytest.approx(0.0, abs=1e-10)

    def test_nested_configuration_nonzero(self):
        for theta in np.linspace(math.pi / 2, 3 * math.pi / 2, 21):
            x, z = sorted(RNG.uniform(0.1, 5.0, size=2))
            y, t = sorted(RNG.uniform(0.1, 5.0, size=2))
            direct, _ = bent_certificate(x, y, z, t + 0.01, float(theta))
            assert abs(direct) > 0


class TestBentLeaf:
    def test_leaf_contains_point(self):
        theta = 3 * math.pi / 4
        for _ in range(10):
            p = BoundaryPoint(
                complex(RNG.uniform(0.2, 2), RNG.uniform(0.2, 2)), 0.0
            )
            leaf = bent_leaf(p, theta)
            assert leaf.contains(p, tol=1e-6)

    def test_endpoints_on_bent_curve(self):
        theta = 3 * math.pi / 4
        p = BoundaryPoint(0.5 + 0.8j, 0.3)
        leaf = bent_leaf(p, theta)
        for e in (leaf.start, leaf.end):
            ang = np.angle(e.z) % (2 * math.pi)
            assert min(abs(ang), abs(ang - theta)) < 1e-7

    def test_theta_pi_matches_rcircle_foliation(self):
        p = BoundaryPoint(1 + 1j, 0.5)
        leaf_bent = bent_leaf(p, math.pi)
        leaf_std = foliation_leaf_rcircle(p)
        assert _proportional(leaf_bent.support.polar, leaf_std.support.polar, 1e-6)

    def test_out_of_range_angle(self):
        with pytest.raises(GeometryError):
            bent_leaf(BoundaryPoint(1j, 0), math.pi / 4)

    def test_overflowing_start_is_skipped(self):
        # a multistart step here overflows math.exp; a later start converges
        theta = 3.5178741487736946
        p = BoundaryPoint(
            -0.3103425436533394 - 0.16775717574157115j, -0.10105062627503876
        )
        with np.errstate(over="ignore"):
            leaf = bent_leaf(p, theta)
        assert leaf.contains(p, tol=1e-6)
        for e in (leaf.start, leaf.end):
            ang = np.angle(e.z) % (2 * math.pi)
            assert min(abs(ang), abs(ang - theta)) < 1e-7

    @pytest.mark.parametrize("bad", [[math.nan, 0.0], [400.0, 0.0]])
    def test_start_without_finite_lift_is_skipped(self, monkeypatch, bad):
        # the first start steps to NaN, or to a radius e^400 whose lift
        # overflows; the next start converges
        from scipy.optimize import root as solve

        calls = []

        def root(fn, x0, **kwargs):
            calls.append(x0)
            if len(calls) == 1:
                return SimpleNamespace(x=np.array(bad))
            return solve(fn, x0, **kwargs)

        monkeypatch.setattr(circles, "root", root)
        p = BoundaryPoint(0.5 + 0.8j, 0.3)
        leaf = bent_leaf(p, 3 * math.pi / 4)
        assert len(calls) > 1 and leaf.contains(p, tol=1e-6)

    def test_close_in_starts_catch_wide_start_failures(self):
        # every one of the 24 wide starts fails here; a close-in start
        # around log|z| converges
        theta = 4.067437255369329
        p = BoundaryPoint(-1.158026869779057 - 2.646970398094633j, -2.4223783631695097)
        with np.errstate(over="ignore"):
            leaf = bent_leaf(p, theta)
        assert leaf.contains(p, tol=1e-6)
        for e in (leaf.start, leaf.end):
            assert abs(e.t) < 1e-12
            ang = np.angle(e.z) % (2 * math.pi)
            assert min(abs(ang), abs(ang - theta)) < 1e-7


class TestSpiral:
    @staticmethod
    def point(a, s):
        """The spiral's point at s, read off `spiral_rows`."""
        return PointSet(spiral_rows(a, [s]), np.zeros(1, dtype=bool)).points[0]

    def test_horizontality_relation(self):
        # every spiral point satisfies t = 3 a |z|^2
        a = 0.3
        for s in np.linspace(-4, 4, 17):
            p = self.point(a, float(s))
            assert p.t == pytest.approx(3 * a * abs(p.z) ** 2, rel=1e-12)

    def test_invariant_under_generator(self):
        a = 0.3
        g = diagonal_loxodromic(1 + a * 1j, 1.0)
        p = self.point(a, 0.7)
        q = p.apply(g)
        # the image is the spiral point at shifted parameter
        expected = self.point(a, 1.7)
        assert q.close_to(expected, 1e-9)

    def test_curve_endpoints(self):
        c = spiral_curve(0.3)
        assert c.points[0].close_to(BoundaryPoint(0, 0), 1e-6)
        assert c.points[-1].at_infinity

    def test_rejects_nonpositive_parameter(self):
        with pytest.raises(GeometryError):
            spiral_curve(0.0)


class TestCurveSampleJson:
    def test_round_trip(self):
        c = bent_curve(3 * math.pi / 4, n=20)
        c2 = CurveSample.from_json(c.to_json())
        assert c2.closed == c.closed and c2.source == c.source
        assert len(c2.points) == len(c.points)
        for p, q in zip(c.points, c2.points):
            assert p.at_infinity == q.at_infinity
            if not p.at_infinity:
                assert p.z == q.z and p.t == q.t

    def test_infinity_encoding(self):
        c = RCircle.standard().sample(10)
        data = json.loads(c.to_json())
        assert "inf" in data["points"]


@pytest.mark.parametrize(
    "read, payload",
    [
        (BoundaryPoint.from_json, {"z": [1, 2]}),
        (BoundaryPoint.from_json, "infinity"),
        (BoundaryPoint.from_json, {"z": [1], "t": 0}),
        (BoundaryPoint.from_json, {"z": [1e200, 0], "t": 0}),
        (BoundaryPoint.from_json, {"z": ["a", 0], "t": 0}),
        (CurveSample.from_json, "{"),
        (CurveSample.from_json, '{"points": []}'),
        (CurveSample.from_json, "[]"),
        (CurveSample.from_json, '{"points": ["infinity"], "closed": true, "source": "s"}'),
    ],
)
def test_malformed_json_is_a_geometry_error(read, payload):
    with pytest.raises(GeometryError):
        read(payload)


def test_min_collinearity_witness():
    arc = Arc(BoundaryPoint(0, -1), BoundaryPoint(0, 1))
    pts = [arc.start, arc.point(1.0), arc.end, BoundaryPoint(3.0, 0.0)]
    lifts = np.array([p.lift for p in pts])
    val, witness = min_collinearity(lifts)
    assert val < 1e-12
    assert set(witness) == {0, 1, 2}


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


def _reference_leaf_rcircle(p):
    """foliation_leaf_rcircle as it was at first: the polar of p's box with
    its conjugate, rounded to a real vector, meets the R-circle in the two
    ends, and `param_of` picks the side; the R-circle test maps p through
    the standard frame."""
    if RCircle.standard().contains(p):
        raise GeometryError("point lies on the R-circle")
    v = p.lift
    m = box(v, np.conj(v))
    entries = m / m[int(np.argmax(np.abs(m)))]
    a, b = _real_null_points_on_polar(np.real(entries))
    arc = Arc(a, b)
    t, _ = arc.param_of(p)
    return arc if t > 0 else arc.opposite()


def test_rcircle_leaf_matches_frame_reference():
    rng = np.random.default_rng(5)
    points = [
        BoundaryPoint(complex(*rng.normal(scale=1.5, size=2)), float(rng.normal(scale=2.0)))
        for _ in range(300)
    ]
    # off the R-circle by one coordinate only
    points += [BoundaryPoint(2.0, 0.5), BoundaryPoint(2.0 + 0.5j, 0.0)]
    for p in points:
        leaf, ref = foliation_leaf_rcircle(p), _reference_leaf_rcircle(p)
        # the same order, each end within 1e-12 chordal (7.8e-14 measured):
        # the two bodies round the ends differently
        assert leaf.start.chordal(ref.start) <= 1e-12
        assert leaf.end.chordal(ref.end) <= 1e-12
    on_circle = [INFINITY, BoundaryPoint(0.0, 0.0), BoundaryPoint(-2.5, 0.0)]
    on_circle += [BoundaryPoint(3.0 + 1e-9j, -1e-9), RCircle.standard().sample(6).points[2]]
    for p in on_circle:
        with pytest.raises(GeometryError, match="on the R-circle"):
            foliation_leaf_rcircle(p)
        with pytest.raises(GeometryError, match="on the R-circle"):
            _reference_leaf_rcircle(p)


def _mp_leaf_ends(p):
    """The ends of the R-circle leaf through p at 60 digits, in leaf order;
    None is infinity.

    The ends are the real roots of y x^2 + t x + c, c = -|z|^2 y - t u, for
    the null lift (-|z|^2 + it, z, 1) of p = [u + iy, t], by the stable
    formula (q / y, c / q): the naive (-t +- sqrt(D)) / 2y cancels past 60
    digits once y is below about 1e-60.  D is written as the sum of squares
    (t + 2uy)^2 + 4y^4 that it equals, so it cannot cancel either.  The
    side is the sign of -Im(<v,a> conj <v,b>).
    """
    import mpmath

    with mpmath.workdps(60):
        u, y, t = (mpmath.mpf(float(x)) for x in (p.z.real, p.z.imag, p.t))
        if y == 0:
            return (u, None) if t > 0 else (None, u)
        c = -(u * u + y * y) * y - t * u
        h = mpmath.sqrt((t + 2 * u * y) ** 2 + 4 * y**4)
        q = -(t + (h if t >= 0 else -h)) / 2
        a, b = q / y, c / q

        def inner(x):  # <v, (-x^2, x, 1)>
            return mpmath.mpc(-((x - u) ** 2) - y * y, 2 * x * y + t)

        return (a, b) if -(inner(a) * mpmath.conj(inner(b))).imag > 0 else (b, a)


def _mp_chordal(e, x):
    """Chordal distance at 60 digits between the end e and [x, 0], None
    being infinity: [x, 0] has ball coordinates (x^2 - 1, -2x) / (x^2 + 1),
    infinity (1, 0)."""
    import mpmath

    def ball(v):
        return (1, 0) if v is None else ((v * v - 1) / (v * v + 1), -2 * v / (v * v + 1))

    with mpmath.workdps(60):
        (a0, a1), (b0, b1) = ball(None if e.at_infinity else mpmath.mpf(float(e.z.real))), ball(x)
        return float(mpmath.hypot(a0 - b0, a1 - b1))


def test_rcircle_leaf_matches_60_digit_roots():
    """Over |z| from 1e-12 to 1e8 and Im z / |z| down to 1e-300, every leaf
    has its ends within 1e-13 chordal of the 60-digit roots, in their order,
    and carries p on its positive side.  A point is refused only as on the
    R-circle.  The earlier construction, through a real polar rounded from
    p's box with its conjugate, refused points next to vertical chains such
    as the first two pinned below, and put far ends up to 8.1e-7 chordal
    off on this sample."""
    rng = np.random.default_rng(20)
    points = []
    for _ in range(2500):
        r, s = 10 ** rng.uniform(-12, 8), 10 ** rng.uniform(-300, 0)
        z = r * complex(rng.choice([-1, 1]) * math.sqrt(1 - s * s), rng.choice([-1, 1]) * s)
        points.append(BoundaryPoint(z, rng.choice([-1, 1]) * r * r * 10 ** rng.uniform(-8, 8)))
    pinned = [
        BoundaryPoint(0.110726 + 1.24784e-15j, 0.000363401),
        BoundaryPoint(-0.106033 - 1.04758e-13j, 0.00809686),
        BoundaryPoint(1 + 1e-200j, 1.0),
        BoundaryPoint(2.0, 0.5),
        BoundaryPoint(2.0, -0.5),
    ]
    leaves = 0
    for p in pinned + points:
        try:
            leaf = foliation_leaf_rcircle(p)
        except GeometryError as exc:
            assert p not in pinned and "on the R-circle" in str(exc)
            assert RCircle.standard().contains(p)
            continue
        a, b = _mp_leaf_ends(p)
        assert _mp_chordal(leaf.start, a) <= 1e-13 and _mp_chordal(leaf.end, b) <= 1e-13
        assert leaf.param_of(p)[0] > 0
        leaves += 1
    assert leaves > 1000
    assert foliation_leaf_rcircle(pinned[2]).end is INFINITY
    up, down = foliation_leaf_rcircle(pinned[3]), foliation_leaf_rcircle(pinned[4])
    assert (up.start, up.end) == (down.end, down.start) == (BoundaryPoint(2.0, 0.0), INFINITY)


def _reference_param_of(arc, p):
    """Arc.param_of as it was: least squares in the span of the endpoint lifts."""
    a, b, v = arc.start.lift, arc.end.lift, p.lift
    basis = np.column_stack([a, b])
    coef = np.linalg.lstsq(basis, v, rcond=None)[0]
    residual = float(np.linalg.norm(v - basis @ coef) / np.linalg.norm(v))
    if abs(coef[0]) < 1e-12 * abs(coef[1]):
        return math.inf, residual
    mu = coef[1] / coef[0]
    return float((mu * herm_inner(arc.end.lift, arc.start.lift)).imag), residual


def _reference_contains(arc, p, tol):
    if p.close_to(arc.start, 1e-10) or p.close_to(arc.end, 1e-10):
        return False
    t, res = _reference_param_of(arc, p)
    return res < tol and t > 0


def test_param_of_matches_least_squares_reference():
    """On arcs between ordinary points, the closed-form chart inverse gives
    the old parameter, residual and `contains` verdicts: on both arcs of a
    circle, at its endpoints, near it and off it."""
    rng = np.random.default_rng(21)
    n_on = 0
    for _ in range(60):
        arc = Arc(rand_point(), rand_point())
        ts = np.geomspace(1e-3, 1e3, 13)
        on = [arc.point(t) for t in ts]
        on += [arc.opposite().point(t) for t in (0.01, 1.0, 100.0)]
        off = [arc.start, arc.end, rand_point(), rand_point()]
        for p in on[::3]:
            for eps in (1e-9, 1e-7, 1e-5):
                z, t = p.z + eps * complex(*rng.normal(size=2)), p.t + eps * rng.normal()
                off.append(BoundaryPoint(z, t))
        for t0, p in zip(ts, on):
            t, res = arc.param_of(p)
            t_ref, res_ref = _reference_param_of(arc, p)
            # rounding the chart point to [z, t] costs both bodies up to
            # about 1e-11 of t at the ends of the range
            assert abs(t - t0) <= 1e-10 * t0 and abs(t_ref - t0) <= 1e-10 * t0
            if 0.1 <= t0 <= 10:
                assert abs(t - t_ref) <= 1e-12 * abs(t_ref)
            assert abs(res - res_ref) <= 1e-14
            n_on += 1
        for p in on + off:
            t, res = arc.param_of(p)
            t_ref, res_ref = _reference_param_of(arc, p)
            assert abs(res - res_ref) <= 1e-14
            assert math.isinf(t) == math.isinf(t_ref)
            for tol in (1e-8, 1e-6, 1e-4):
                assert arc.contains(p, tol=tol) == _reference_contains(arc, p, tol)
    assert n_on == 780


@pytest.mark.parametrize("far", [1e6, 1e8, 1e9])
def test_param_of_with_a_far_endpoint(far):
    """Chart points of an arc whose endpoint lifts differ in norm by up to
    1e18 read back on the arc.  The old least-squares body lost the short
    lift below lstsq's default singular-value cutoff from far = 1e8 on and
    read these points as off the circle (t = inf, residual 0.1 to 1).  The
    far-endpoint rule weighs the lift norms, so the opposite arc does not
    read them as its far endpoint (t = inf) and contain them too."""
    arc = Arc(BoundaryPoint(2e-9 + 5e-9j, 3e-17), BoundaryPoint(far * (1j - 0.45), 2.7 * far**2))
    for t0 in (0.1, 1.0, 10.0):
        p = arc.point(t0)
        t, res = arc.param_of(p)
        assert abs(t - t0) <= 1e-12 * t0 and res < 1e-14
        assert arc.contains(p)
        assert not arc.opposite().contains(p)


def test_leaves_match_least_squares_reference(monkeypatch):
    """Both foliations pick the same leaves through the old chart inverse.

    The R-circle leaf picks its side without `Arc.param_of`, so the old
    chart inverse checks that side directly: it reads p on the leaf."""
    rng = np.random.default_rng(22)
    rpoints = [
        BoundaryPoint(complex(*rng.normal(scale=1.5, size=2)), float(rng.normal(scale=2.0)))
        for _ in range(300)
    ]
    bent = []
    for _ in range(20):
        theta = rng.uniform(math.pi / 2, 3 * math.pi / 2)
        r, phi = rng.uniform(0.3, 3.0), rng.uniform(0.1, 2 * math.pi - 0.1)
        bent.append((BoundaryPoint(r * complex(math.cos(phi), math.sin(phi)), rng.normal()), theta))
    for p in rpoints:
        assert _reference_param_of(foliation_leaf_rcircle(p), p)[0] > 0
    leaves = [bent_leaf(p, theta) for p, theta in bent]
    monkeypatch.setattr(Arc, "param_of", _reference_param_of)
    assert leaves == [bent_leaf(p, theta) for p, theta in bent]


def test_coincident_consecutive_points_rejected():
    pts = bent_curve(3 * math.pi / 4, n=20).points
    with pytest.raises(GeometryError, match="coincide"):
        CurveSample.of(pts[:5] + [pts[4]] + pts[5:], closed=True, source="test")
    with pytest.raises(GeometryError, match="coincide"):
        CurveSample.of([INFINITY, INFINITY], closed=False, source="test")
    assert len(CurveSample.of(pts[:1], closed=False, source="test").points) == 1
    assert not CurveSample.of([], closed=False, source="test").points


"""Boundary points and the angular invariant."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crchains.boundary import (
    INFINITY,
    BoundaryPoint,
    cartan,
    cartan_lifts,
)
from crchains.circles import (
    CurveSample,
    RCircle,
    bent_curve,
    ccircle_through,
)
from crchains.groups import diagonal_loxodromic, heisenberg_translation, screw_parabolic
from crchains.hermitian import (
    GeometryError,
    GroupElement,
    PointType,
    _CAYLEY,
    herm_inner,
    point_type,
    random_form_preserving,
)

RNG = np.random.default_rng(20240818)


def rand_point():
    return BoundaryPoint(
        complex(RNG.normal(), RNG.normal()), float(RNG.normal())
    )


class TestLifts:
    def test_lift_is_null(self):
        for _ in range(100):
            v = rand_point().lift
            assert abs(herm_inner(v, v).real) < 1e-12

    def test_round_trip(self):
        p = rand_point()
        q = BoundaryPoint.from_lift(p.lift)
        assert q.z == pytest.approx(p.z) and q.t == pytest.approx(p.t)

    def test_infinity_round_trip(self):
        assert BoundaryPoint.from_lift(INFINITY.lift).at_infinity

    def test_scaled_lift_same_point(self):
        p = rand_point()
        q = BoundaryPoint.from_lift((2.0 - 1.0j) * p.lift)
        assert p.close_to(q, 1e-10)

    def test_non_null_rejected(self):
        with pytest.raises(GeometryError):
            BoundaryPoint.from_lift(np.array([0.0, 1.0, 0.0]))

    def test_chordal_bounded(self):
        for _ in range(50):
            assert rand_point().chordal(rand_point()) <= 2.0 + 1e-12


class TestCartan:
    def test_quarter_pi_example(self):
        # hand-checked: -<p,q><q,r><r,p> = 1 - i for these three points
        val = cartan(INFINITY, BoundaryPoint(0, 0), BoundaryPoint(1, 1))
        assert abs(val.angle) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_chain_triple_is_extremal(self):
        val = cartan(
            BoundaryPoint(0, -1), BoundaryPoint(0, 0), BoundaryPoint(0, 1)
        )
        assert abs(val.angle) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_real_triple_is_zero(self):
        val = cartan(
            BoundaryPoint(-1, 0), BoundaryPoint(0.5, 0), BoundaryPoint(2, 0)
        )
        assert val.angle == pytest.approx(0.0, abs=1e-12)

    def test_range(self):
        for _ in range(200):
            v = cartan(rand_point(), rand_point(), rand_point())
            assert -math.pi / 2 - 1e-12 <= v.angle <= math.pi / 2 + 1e-12

    def test_antisymmetry(self):
        for _ in range(100):
            p, q, r = rand_point(), rand_point(), rand_point()
            assert cartan(p, q, r).angle == pytest.approx(
                -cartan(q, p, r).angle, abs=1e-12
            )

    def test_cyclic_invariance(self):
        p, q, r = rand_point(), rand_point(), rand_point()
        assert cartan(p, q, r).angle == pytest.approx(cartan(q, r, p).angle)

    def test_degenerate_flag(self):
        p = rand_point()
        assert cartan(p, p, rand_point()).degenerate
        # the flag reads cancellation in one Gram entry: 1e-12 apart is one
        # point, 1e-8 apart two
        far = BoundaryPoint(-2, 0.5)
        assert cartan(BoundaryPoint(1, 0), BoundaryPoint(1, 1e-12), far).degenerate
        # |<a, b>| = 3.5e-12 and 4.5e-12 against term sizes 1 + 2 + 1 = 4,
        # with the close pair in each of the three pairings
        a = BoundaryPoint(1, 0)
        for dt, degenerate in ((3.5e-12, True), (4.5e-12, False)):
            b = BoundaryPoint(1, dt)
            for triple in ((a, b, far), (far, a, b), (b, far, a)):
                assert cartan(*triple).degenerate == degenerate
        assert not cartan(BoundaryPoint(1, 0), BoundaryPoint(1, 1e-8), far).degenerate

    @pytest.mark.parametrize("s", [1e3, 1e4, 1e8])
    def test_far_chain_triple_is_not_degenerate(self, s):
        # the s = 1 triple dilated by s: three distinct points, A = +-pi/2
        val = cartan(BoundaryPoint(s, 0), BoundaryPoint(s * 1j, 0), BoundaryPoint(-s, 0))
        assert not val.degenerate
        assert abs(val.angle) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_isometry_invariance(self):
        for _ in range(50):
            g = random_form_preserving(RNG)
            p, q, r = rand_point(), rand_point(), rand_point()
            before = cartan(p, q, r).angle
            after = cartan(p.apply(g), q.apply(g), r.apply(g)).angle
            assert after == pytest.approx(before, abs=1e-9)

    def test_gram_matrix_matches_pairwise(self):
        pts = [rand_point() for _ in range(5)]
        lifts = np.array([p.lift for p in pts])
        h = cartan_lifts(lifts)
        for i in range(5):
            for j in range(5):
                assert h[i, j] == pytest.approx(
                    herm_inner(pts[i].lift, pts[j].lift)
                )


def _reference_from_lift(e, tol=1e-6):
    """BoundaryPoint.from_lift as it was, one Siegel lift at a time."""
    from crchains.hermitian import _null_margin

    residual = abs(_null_margin(e))
    if residual > tol:
        raise GeometryError(f"lift is not null (relative residual {residual:.2e})")
    if abs(e[2]) <= 1e-9 * math.sqrt(np.vdot(e, e).real):
        return BoundaryPoint.infinity()
    return BoundaryPoint(complex(e[1] / e[2]), float((e[0] / e[2]).imag))


def _reference_ball_coords(p):
    """BoundaryPoint.ball_coords as it was: the lift moved by the ball chart."""
    v = _CAYLEY @ p.lift
    return v[:2] / v[2]


def _bits(points):
    return np.array([[p.z.real, p.z.imag, p.t, p.at_infinity] for p in points]).tobytes()


def test_array_rules_match_scalar_point_rules():
    """lifts, ball_rows, point_set and the scalar calls that are their
    one-row cases give the bits of the old scalar rules; chordal and apply,
    written out on the rows, agree with the array rules."""
    from crchains.boundary import ball_rows, lifts, point_set

    rng = np.random.default_rng(11)
    scale = 10.0 ** rng.uniform(-4, 4, size=(300, 1))
    zt = rng.normal(size=(300, 3)) * scale
    points = [BoundaryPoint(complex(a, b), float(t)) for a, b, t in zt]
    points += [BoundaryPoint(np.complex128(a + 1j * b), t) for a, b, t in zt[:20]]
    points += [BoundaryPoint(float(a), 0.0) for a, _, _ in zt[:20]] + [INFINITY]
    v = lifts(points)
    ref = [(1, 0, 0) if p.at_infinity else (-abs(p.z) ** 2 + 1j * p.t, p.z, 1) for p in points]
    assert v.tobytes() == np.array(ref, dtype=complex).tobytes()
    assert v.tobytes() == np.array([p.lift for p in points]).tobytes()
    ball = np.array([_reference_ball_coords(p) for p in points])
    assert ball_rows(lifts(points)).tobytes() == ball.tobytes()
    assert np.array([p.ball_coords() for p in points]).tobytes() == ball.tobytes()
    chordal = [p.chordal(q) for p, q in zip(points, points[::-1])]
    ref = [float(np.linalg.norm(b - c)) for b, c in zip(ball, ball[::-1])]
    assert np.max(np.abs(np.array(chordal) - ref)) <= 1e-15

    # apply: the rules of point_set on g times the lift; t is read off the
    # row's first entry, so its error is relative to that entry
    isometries = [random_form_preserving(rng) for _ in range(3)] + [
        diagonal_loxodromic(2.0 - 1.0j, 0.7),
        heisenberg_translation(1.0 + 2.0j, -3.0),
        screw_parabolic(0.4, 1.5),
        _INVERSION,
    ]
    # the inversion maps [0, 0] to e2 = 0 and [0, 1e-310] past every finite row
    moved = [*points, BoundaryPoint(0, 0), BoundaryPoint(0, 1e-310), BoundaryPoint(1e5j, 0)]
    flags = set()
    for g in isometries:
        for p in moved:
            got, ref = p.apply(g), point_set((g.matrix @ p.lift)[None]).points[0]
            assert got.at_infinity == ref.at_infinity
            flags.add(got.at_infinity)
            if ref is INFINITY:
                assert got is INFINITY
                continue
            assert abs(got.z - ref.z) <= 1e-13 * abs(ref.z)
            assert abs(got.t - ref.t) <= 1e-13 * abs(ref.row[0])
    assert flags == {True, False}
    swap = GroupElement(np.eye(3)[[0, 2, 1]])  # (w, z, 1) to (w, 1, z): not null
    for p in moved[:20]:
        with pytest.raises(GeometryError, match="not null") as exc:
            p.apply(swap)
        with pytest.raises(GeometryError, match="not null") as ref:
            point_set((swap.matrix @ p.lift)[None])
        assert str(exc.value) == str(ref.value)

    e = v * (rng.normal(size=(len(v), 1)) + 1j * rng.normal(size=(len(v), 1)))
    ref = [_reference_from_lift(row) for row in e]
    assert _bits(point_set(e).points) == _bits(ref)
    assert _bits(BoundaryPoint.from_lift(row) for row in e) == _bits(ref)
    bad = e.copy()
    bad[5, 1] *= 2.0  # no longer null
    with pytest.raises(GeometryError, match="not null"):
        point_set(bad)


def _reference_cartan(p, q, r):
    """cartan written out: three scalar pairings, each tested against the
    size of its three terms."""
    a, b, c = p.lift, q.lift, r.lift
    for x, y in ((a, b), (b, c), (c, a)):
        (x0, x1, x2), (y0, y1, y2) = np.abs(x), np.abs(y)
        if abs(herm_inner(x, y)) <= 1e-12 * (x0 * y2 + 2.0 * x1 * y1 + x2 * y0):
            return 0.0, True
    return cmath.phase(-herm_inner(a, b) * herm_inner(b, c) * herm_inner(c, a)), False


_SPOTS = st.one_of(
    st.just(None),  # infinity
    st.tuples(*[st.integers(-12, 12)] * 3),  # [z, t] on the grid of step 1/4
)


@settings(max_examples=300, deadline=None)
@given(spots=st.lists(_SPOTS, min_size=3, max_size=3), s=st.floats(1e-3, 1e6))
def test_cartan_invariant_under_dilation(spots, s):
    """Dilating a triple by diag(s^2, s, 1) keeps its angle within 1e-12 and
    its degenerate flag; the triple is degenerate exactly when two points
    coincide, as grid points are 1/4 apart or more."""

    def point(spot, s):
        if spot is None:
            return INFINITY
        x, y, t = (k / 4 for k in spot)
        return BoundaryPoint(complex(s * x, s * y), s * s * t)

    before = cartan(*(point(spot, 1.0) for spot in spots))
    after = cartan(*(point(spot, s) for spot in spots))
    assert before.degenerate == after.degenerate == (len(set(spots)) < 3)
    assert abs(after.angle - before.angle) <= 1e-12


def _gram_cartan(p, q, r):
    """cartan as the one-triple case of cartan_lifts on the tamed rows."""
    from crchains.boundary import lifts
    from crchains.hermitian import _tame

    v = _tame(lifts((p, q, r)))
    h, size = cartan_lifts(v), cartan_lifts(np.abs(v))
    if any(abs(h[i, j]) <= 1e-12 * size[i, j] for i, j in ((0, 1), (1, 2), (2, 0))):
        return 0.0, True
    return cmath.phase(complex(-h[0, 1] * h[1, 2] * h[2, 0])), False


def test_cartan_matches_pairwise_reference():
    """cartan agrees with the old body and with the Gram rule cartan_lifts,
    far rows, infinity and coincident points included."""
    rng = np.random.default_rng(12)
    scale = 10.0 ** rng.uniform(-2, 2, size=(1200, 3, 1))
    zt = rng.normal(size=(1200, 3, 3)) * scale
    triples = [
        [BoundaryPoint(complex(a, b), float(t)) for a, b, t in row] for row in zt
    ]
    pts = [t[0] for t in triples[:100]]
    triples += [[p, p, q] for p, q in zip(pts, pts[1:])]
    triples += [[p, q, p] for p, q in zip(pts, pts[1:])]
    triples += [[INFINITY, p, q] for p, q in zip(pts, pts[1:])]
    triples += [[p, INFINITY, INFINITY] for p in pts[:10]]
    triples += [[BoundaryPoint(0, 0), BoundaryPoint(1, 1), INFINITY]]
    triples += [[BoundaryPoint(1000, 0), BoundaryPoint(1000j, 0), BoundaryPoint(-1000, 0)]]
    r = 10.0 ** rng.uniform(70, 150, size=200)
    zt = zip(r * np.exp(2j * np.pi * rng.uniform(size=200)), rng.normal(size=200) * r * r)
    far = [BoundaryPoint(complex(z), float(t)) for z, t in zt]
    triples += [[a, p, b] for a, b, p in zip(far[::2], far[1::2], pts)]
    triples += [[a, a, p] for a, p in zip(far, pts)]
    triples += [[INFINITY, a, p] for a, p in zip(far, pts)]
    flags = set()
    for p, q, r in triples:
        val = cartan(p, q, r)
        for angle, degenerate in (_reference_cartan(p, q, r), _gram_cartan(p, q, r)):
            assert val.degenerate == degenerate
            assert abs(val.angle - angle) <= 1e-14
        flags.add(degenerate)
    assert flags == {True, False}


_INVERSION = GroupElement(np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))


def _to_infinity(b):
    """A form-preserving element sending b to infinity: the dilation by 1/s,
    the Heisenberg translation of the dilated point to the origin, then the
    inversion swapping 0 and infinity.  s = max(1, |row[0]|^(1/2)) brings b
    to unit size first: translating a far point cancels terms of size
    |row[0]|, and the rounding left over would break the null test."""
    s = max(1.0, math.sqrt(abs(b.row[0])))
    dilation = GroupElement(np.diag([1.0 / s, 1.0, s]))
    return _INVERSION @ heisenberg_translation(-b.z / s, -b.t / s**2) @ dilation


class TestStoredLift:
    """Each point stores its Siegel lift and every geometric rule reads it;
    [z, t] and infinity are a view with a 1e-9 rule that moves no point."""

    @pytest.mark.parametrize(
        "p, g",
        [
            (BoundaryPoint(1e5j, 0), GroupElement(np.eye(3))),
            (BoundaryPoint(math.exp(20), 0.0), RCircle.standard().frame),
        ],
    )
    def test_large_point_keeps_its_place(self, p, g):
        q = p.apply(g)
        assert q.at_infinity  # the view's 1e-9 rule
        assert q.chordal(p) < 1e-12  # p itself is 4.1e-9 from infinity, or farther

    def test_large_point_off_the_rcircle(self):
        assert not RCircle.standard().contains(BoundaryPoint(1e5j, 0))
        assert RCircle.standard().contains(BoundaryPoint(math.exp(20), 0.0))

    def test_rounded_infinities(self):
        # b's image under an element sending b to infinity is infinity up to
        # rounding: viewed as infinity, and its lift is within 1e-11 chordal of it
        for _ in range(200):
            b = rand_point()
            w = b.apply(_to_infinity(b))
            assert w.at_infinity and w.chordal(INFINITY) < 1e-11

    @pytest.mark.parametrize(
        "z, t", [(1e200, 0.0), (2e154j, 0.0), (math.nan, 0.0), (0.0, math.inf), (1j, math.nan)]
    )
    def test_point_without_finite_lift(self, z, t):
        with pytest.raises(GeometryError, match="no finite lift"):
            BoundaryPoint(z, t)


_ELEMENTS = st.one_of(
    st.just(GroupElement(np.eye(3))),
    st.builds(
        diagonal_loxodromic,
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        st.floats(-1.5, 1.5),
    ),
    st.builds(
        heisenberg_translation,
        st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
        st.floats(-10.0, 10.0),
    ),
    st.builds(screw_parabolic, st.floats(-math.pi, math.pi), st.floats(-10.0, 10.0)),
)


@settings(max_examples=300, deadline=None)
@given(
    g=_ELEMENTS,
    log_r=st.floats(-6.0, 8.0),
    arg=st.floats(-math.pi, math.pi),
    t_ratio=st.floats(-2.0, 2.0),
)
def test_apply_round_trip(g, log_r, arg, t_ratio):
    """p.apply(g).apply(g^-1) is p to 1e-12 chordal, far out in [z, t] too."""
    r = 10.0**log_r
    p = BoundaryPoint(r * cmath.exp(1j * arg), t_ratio * r * r)
    assert p.apply(g).apply(g.inverse()).chordal(p) < 1e-12


class TestRowIsThePoint:
    """A point is its row: z and t are read off it, ==, hash and JSON follow
    it, and at_infinity only records how the point was made."""

    def test_fields(self):
        from dataclasses import fields

        assert [f.name for f in fields(BoundaryPoint)] == ["row", "at_infinity"]
        p = BoundaryPoint(2 - 1j, 0.5)
        assert p.z is p.row[1] and p.t == p.row[0].imag == 0.5

    def test_equal_rows_are_equal_points(self):
        p = BoundaryPoint(1e5j, 0)
        q = p.apply(GroupElement(np.eye(3)))
        assert q.at_infinity and not p.at_infinity
        assert q == p and hash(q) == hash(p)

    def test_equal_points_print_alike(self):
        # a point made from a real z and the equal view of a complex row
        p, q = BoundaryPoint(1000.0, 0.0), bent_curve(3 * math.pi / 4, n=20).points[0]
        assert p == q
        assert str(p) == str(q) == "[1000+0j, 0]"

    def test_curve_sample_json_keeps_a_far_point(self):
        far = BoundaryPoint(1e5j, 0).apply(GroupElement(np.eye(3)))
        sample = CurveSample.of([BoundaryPoint(0, 0), far], closed=False, source="x")
        back = CurveSample.from_json(sample.to_json())
        assert back.points[-1].chordal(far) == 0.0
        assert back.points[-1] == far

    def test_signed_zero_t_in_json(self):
        assert math.copysign(1.0, BoundaryPoint(1.0, -0.0).to_json()["t"]) == -1.0
        assert INFINITY.to_json() == "inf" and BoundaryPoint.infinity() is INFINITY


@settings(max_examples=300, deadline=None)
@given(
    g=_ELEMENTS,
    log_r=st.floats(-6.0, 8.0),
    arg=st.floats(-math.pi, math.pi),
    t_ratio=st.floats(-2.0, 2.0),
)
def test_json_round_trip_keeps_the_row(g, log_r, arg, t_ratio):
    """from_json(p.to_json()) has p's row, bit for bit, for images of points
    under isometries and for rounded infinities."""
    r = 10.0**log_r
    q = BoundaryPoint(r * cmath.exp(1j * arg), t_ratio * r * r).apply(g)
    for p in (q, q.apply(_to_infinity(q))):  # the second is infinity, rounded
        back = BoundaryPoint.from_json(json.loads(json.dumps(p.to_json())))
        assert back.row == p.row
        assert np.array(back.row).tobytes() == np.array(p.row).tobytes()


class TestHugeRows:
    """Points with |z| up to the 1.3e154 where the lift overflows work in
    every rule: rows past 2^160 are scaled by a power of two first."""

    def test_point_type(self):
        assert point_type(BoundaryPoint(1e80, 0).lift) is PointType.NULL

    def test_cartan(self):
        val = cartan(BoundaryPoint(0, 0), BoundaryPoint(1, 1), BoundaryPoint(1e80, 0))
        assert val.angle == pytest.approx(
            cartan(BoundaryPoint(0, 0), BoundaryPoint(1, 1), INFINITY).angle, abs=1e-15
        )

    def test_three_far_points(self):
        # rows of 1e118, whose three Gram entries multiply to 1e354
        pts = [BoundaryPoint(1e59, 0), BoundaryPoint(1e59j, 0), BoundaryPoint(-1e59, 1)]
        assert cartan(*pts).angle == _mp_cartan([(p.z, p.t) for p in pts])

    def test_ordinary_rows_keep_their_bits(self):
        from crchains.hermitian import _tame

        v = np.array([[2.0**160, 1e40j, 1.0], [-1e6 + 2j, 3e3, 1.0]])
        assert _tame(v) is v
        big = v * 2.0
        tamed = _tame(big)
        assert tamed[1].tobytes() == big[1].tobytes()
        assert tamed[0].tobytes() == (big[0] * 2.0**-162).tobytes()
        assert np.abs(tamed[0]).max() == 0.5


def _mp_cartan(points):
    """cartan's rule on three finite points at 50 digits: the phase of
    -<p,q><q,r><r,p>, or 0.0 where it is below 1e-12 of the lift norms."""
    import mpmath

    with mpmath.workdps(50):
        v = [
            (mpmath.mpc(-(abs(mpmath.mpc(z)) ** 2), t), mpmath.mpc(z), mpmath.mpc(1))
            for z, t in points
        ]

        def inner(a, b):  # <a, b> = b^dagger J a, J = antidiag(1, 2, 1)
            c = mpmath.conj
            return c(b[0]) * a[2] + 2 * c(b[1]) * a[1] + c(b[2]) * a[0]

        prod = -inner(v[0], v[1]) * inner(v[1], v[2]) * inner(v[2], v[0])
        scale = mpmath.fprod(sum(abs(c) ** 2 for c in row) for row in v)
        return 0.0 if abs(prod) < 1e-12 * scale else float(mpmath.arg(prod))


_ZT = st.tuples(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)
).map(lambda c: (complex(c[0], c[1]), c[2]))


@settings(max_examples=200, deadline=None)
@given(
    log_r=st.floats(70.0, 150.0),
    arg=st.floats(-math.pi, math.pi),
    t=st.floats(-1e3, 1e3),
    q=_ZT,
    r=_ZT,
    slot=st.integers(0, 2),
    g=_ELEMENTS,
    seed=st.integers(0, 2**32 - 1),
)
def test_far_points_in_every_rule(log_r, arg, t, q, r, slot, g, seed):
    """Points with |z| in [1e70, 1e150]: only GeometryError escapes, cartan
    agrees with 50 digits and apply round trips to 1e-12 chordal."""
    far = (10.0**log_r * cmath.exp(1j * arg), t)
    triple = [q, r]
    triple.insert(slot, far)
    pts = [BoundaryPoint(z, tt) for z, tt in triple]
    p, other = pts[slot], pts[slot - 1]
    try:
        val = cartan(*pts)
        # the two finite points 1e-3 apart: nearer, the float Gram product
        # loses the digits the 1e-9 comparison needs, far point or not
        if pts[slot - 1].chordal(pts[slot - 2]) > 1e-3:
            assert val.angle == pytest.approx(_mp_cartan(triple), abs=1e-9)
        assert p.apply(g).apply(g.inverse()).chordal(p) < 1e-12
        assert 0.0 <= p.chordal(other) <= 2.0
        circle = ccircle_through(p, other)
        assert circle.contains(p) and circle.contains(other)
        RCircle(random_form_preserving(np.random.default_rng(seed))).contains(p)
        assert RCircle.standard().contains(BoundaryPoint(abs(p.z), 0.0))
    except GeometryError:
        pass

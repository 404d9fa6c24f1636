"""Unit tests for the Hermitian core: forms, box products, classification."""

import cmath
import math

import numpy as np
import pytest

from crchains.hermitian import (
    ElementClass,
    GeometryError,
    GroupElement,
    IndeterminateClassError,
    PointType,
    TOL_NULL,
    _CAYLEY,
    _CAYLEY_INV,
    _H_SIEGEL,
    _box,
    _herm,
    _null_margin,
    _proportional,
    box,
    classify,
    det3,
    herm_inner,
    point_type,
    random_form_preserving,
)

RNG = np.random.default_rng(20240817)


def rand_vec():
    return RNG.normal(size=3) + 1j * RNG.normal(size=3)


class TestForms:
    def test_siegel_form_matrix(self):
        assert np.array_equal(_H_SIEGEL, [[0, 0, 1], [0, 2, 0], [1, 0, 0]])

    def test_inner_is_hermitian(self):
        for _ in range(50):
            a, b = rand_vec(), rand_vec()
            assert herm_inner(a, b) == pytest.approx(np.conj(herm_inner(b, a)))

    def test_inner_linear_first_slot(self):
        a, b = rand_vec(), rand_vec()
        lam = 2.0 - 3.0j
        assert herm_inner(lam * a, b) == pytest.approx(lam * herm_inner(a, b))
        assert herm_inner(a, lam * b) == pytest.approx(
            np.conj(lam) * herm_inner(a, b)
        )

    def test_standard_lift_norms(self):
        # lift of [0, 0] against lift of infinity: <(0,0,1), (1,0,0)> = 1
        o = np.array([0.0, 0.0, 1.0])
        inf = np.array([1.0, 0.0, 0.0])
        assert herm_inner(o, inf) == pytest.approx(1.0)
        assert herm_inner(o, o) == pytest.approx(0.0)
        assert herm_inner(inf, inf) == pytest.approx(0.0)


class TestCayley:
    def test_chart_carries_ball_form_to_siegel(self):
        # C^T diag(1, 1, -1) C = J, the identity `ball_rows` rests on; 1/sqrt(2)
        # rounds, so it holds to a few ulps
        ball_form = _CAYLEY.T @ np.diag([1.0, 1.0, -1.0]) @ _CAYLEY
        assert np.abs(ball_form - _H_SIEGEL).max() <= 1e-15
        # _realize_gram moves ball-model columns back with the inverse chart
        assert np.abs(_CAYLEY_INV @ _CAYLEY - np.eye(3)).max() <= 1e-15


class TestBox:
    def test_orthogonality(self):
        for _ in range(100):
            a, b = rand_vec(), rand_vec()
            n = box(a, b)
            assert abs(herm_inner(a, n)) < 1e-10 * np.linalg.norm(n)
            assert abs(herm_inner(b, n)) < 1e-10 * np.linalg.norm(n)

    def test_proportional_returns_none(self):
        a = rand_vec()
        assert box(a, (3.0 - 1.0j) * a) is None

    def test_det_identity(self):
        # <a, b box c> equals det(a, b, c)
        for _ in range(100):
            a, b, c = rand_vec(), rand_vec(), rand_vec()
            lhs = herm_inner(a, box(b, c))
            assert lhs == pytest.approx(det3(a, b, c), rel=1e-10)

    def test_expansion_identity(self):
        # <a box b, c box d> = -(1/det J)(<d,a><c,b> - <c,a><d,b>), det J = -2
        factor = -1.0 / np.linalg.det(_H_SIEGEL)
        for _ in range(100):
            a, b, c, d = (rand_vec() for _ in range(4))
            lhs = herm_inner(box(a, b), box(c, d))
            rhs = herm_inner(d, a) * herm_inner(c, b) - herm_inner(
                c, a
            ) * herm_inner(d, b)
            assert lhs == pytest.approx(factor * rhs, rel=1e-10)

    def test_double_box_identity(self):
        # (a box b) box (a box c) = (1/det J) det(a, b, c) a
        factor = 1.0 / np.linalg.det(_H_SIEGEL)
        for _ in range(50):
            a, b, c = rand_vec(), rand_vec(), rand_vec()
            lhs = box(box(a, b), box(a, c))
            rhs = factor * det3(a, b, c) * a
            assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


class TestPointType:
    def test_interior_point(self):
        v = np.array([-1.0, 0.0, 1.0])  # the ball centre; <v, v> = -2
        assert point_type(v) is PointType.NEGATIVE

    def test_polar_point(self):
        v = np.array([0.0, 1.0, 0.0])
        assert point_type(v) is PointType.POSITIVE

    def test_null_point(self):
        v = np.array([1.0, 0.0, 0.0])
        assert point_type(v) is PointType.NULL


class TestGroupElement:
    def test_determinant_normalized(self):
        g = GroupElement(5.0 * np.eye(3))
        assert g.det == pytest.approx(1.0)

    def test_random_elements_preserve_form(self):
        for _ in range(20):
            g = random_form_preserving(RNG)
            assert g.form_residual() < 1e-10

    def test_inverse_and_compose(self):
        g = random_form_preserving(RNG)
        prod = g @ g.inverse()
        assert np.allclose(prod.matrix, np.eye(3), atol=1e-10)

    def test_single_field(self):
        from dataclasses import fields

        assert [f.name for f in fields(GroupElement)] == ["matrix"]


class TestClassification:
    def test_identity(self):
        assert classify(GroupElement(np.eye(3))).kind is ElementClass.IDENTITY

    def test_real_diagonal_loxodromic(self):
        g = GroupElement(np.diag([math.e, 1.0, 1.0 / math.e]))
        cls = classify(g)
        assert cls.kind is ElementClass.LOXODROMIC
        assert cls.rotation_factor == pytest.approx(0.0, abs=1e-12)

    def test_rotating_loxodromic(self):
        a = 1.0 + 0.3j
        d = np.diag(
            [cmath.exp(a), cmath.exp(np.conj(a) - a), cmath.exp(-np.conj(a))]
        )
        g = GroupElement(d)
        cls = classify(g)
        assert cls.kind is ElementClass.LOXODROMIC
        # leading eigenvalue e^(1+0.3i): rotation factor three times its argument
        assert cls.rotation_factor == pytest.approx(0.9)

    def test_loxodromic_fixed_points(self):
        g = GroupElement(np.diag([2.0, 1.0, 0.5]))
        cls = classify(g)
        att, rep = cls.fixed_points
        assert np.allclose(np.abs(att), [1, 0, 0])
        assert np.allclose(np.abs(rep), [0, 0, 1])

    def test_parabolic_translation(self):
        m = np.array([[1, -2, -1], [0, 1, 1], [0, 0, 1]], dtype=complex)
        assert classify(GroupElement(m)).kind is ElementClass.PARABOLIC

    def test_elliptic_rotation(self):
        m = np.diag([1.0, cmath.exp(1j), 1.0])
        assert classify(GroupElement(m)).kind is ElementClass.ELLIPTIC

    def test_indeterminate_band(self):
        g = GroupElement(np.diag([1.0 + 3e-8, 1.0, 1.0 / (1.0 + 3e-8)]))
        with pytest.raises(IndeterminateClassError):
            classify(g)

    def test_central_lift_invariance(self):
        # multiplying by a cube root of unity must not change the class
        omega = cmath.exp(2j * math.pi / 3)
        g = GroupElement(np.diag([2.0, 1.0, 0.5]))
        h = GroupElement(omega * np.diag([2.0, 1.0, 0.5]))
        assert classify(g).rotation_factor == pytest.approx(
            classify(h).rotation_factor, abs=1e-9
        )


class TestErrors:
    def test_zero_vector_rejected(self):
        """A zero or non-finite row is no point: every entry point that reads
        a row as a lift raises GeometryError, without a RuntimeWarning."""
        from crchains.boundary import BoundaryPoint, point_set
        from crchains.circles import CCircle
        from crchains.groups import complex_reflection

        for row in ([0, 0, 0], [np.nan, 0, 1], [1, np.inf, 0], [0, 1j, -np.inf * 1j]):
            row = np.array(row, dtype=complex)
            for call in (
                lambda: point_set(row[None]),
                lambda: point_set(np.stack([[1.0, 0, 0], row])),
                lambda: BoundaryPoint.from_lift(row),
                lambda: CCircle(row),
                lambda: complex_reflection(row),
                lambda: point_type(row),
            ):
                with pytest.raises(GeometryError, match="zero or non-finite"):
                    call()


# Reference bodies of the scalar functions from before the array kernel,
# kept verbatim apart from the form, which they took from the lift's model tag,
# and the lift wrapper, whose entries they read: they take the rows themselves.


def _scalar_herm_inner(a, b):
    return complex(np.conj(b) @ (_H_SIEGEL @ a))


def _scalar_box(a, b):
    cross = np.cross(a, b)
    scale = float(np.linalg.norm(a) * np.linalg.norm(b))
    if np.linalg.norm(cross) < 1e-14 * scale:
        return None
    return np.conj(np.linalg.inv(_H_SIEGEL) @ cross)


def _scalar_point_type(v, tol_null=TOL_NULL):
    norm2 = _scalar_herm_inner(v, v).real
    euc = float(np.vdot(v, v).real)
    margin = abs(norm2) / euc
    if margin < tol_null:
        return PointType.NULL, margin
    return (PointType.NEGATIVE if norm2 < 0 else PointType.POSITIVE), margin


def _bits(x):
    return np.asarray(x).tobytes()


def test_kernel_matches_scalar_reference():
    """_herm, _box and _null_margin give the old scalar results bit for bit,
    one vector at a time and batched over leading axes."""
    rng = np.random.default_rng(31)
    n = 240
    a = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    a *= rng.lognormal(sigma=3.0, size=(n, 1))
    b = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    # null rows too: standard lifts of random boundary points
    z = rng.normal(size=n // 4) + 1j * rng.normal(size=n // 4)
    null = np.stack([-abs(z) ** 2 + 1j * rng.normal(size=n // 4), z, np.ones(n // 4)], 1)
    a[: n // 4] = null
    herm, polar, margin = _herm(a, b), _box(a, b), _null_margin(a)
    # a (4, n/4, 3) stack gives the same rows as the flat batch
    stacked = a.reshape(4, n // 4, 3), b.reshape(4, n // 4, 3)
    assert _bits(_herm(*stacked)) == _bits(herm.reshape(4, n // 4))
    assert _bits(_box(*stacked)) == _bits(polar.reshape(4, n // 4, 3))
    assert _bits(_null_margin(stacked[0])) == _bits(margin.reshape(4, n // 4))
    kinds = set()
    for k in range(n):
        va, vb = a[k], b[k]
        ref = _scalar_herm_inner(va, vb)
        assert _bits(herm_inner(va, vb)) == _bits(ref)
        assert _bits(_herm(a[k], b[k])) == _bits(herm[k]) == _bits(ref)
        ref_box = _scalar_box(va, vb)
        assert _bits(box(va, vb)) == _bits(ref_box)
        assert _bits(_box(a[k], b[k])) == _bits(polar[k]) == _bits(ref_box)
        kind, ref_margin = _scalar_point_type(va)
        assert point_type(va) is kind
        assert _bits(abs(_null_margin(a[k]))) == _bits(abs(margin[k])) == _bits(ref_margin)
        kinds.add(kind)
    assert kinds == set(PointType)


def _reference_classify(g, tol_lox=1e-7):
    """classify as it was: one eig per element, identity by np.allclose."""
    if np.allclose(g.matrix, np.eye(3), rtol=0.0, atol=1e-12):
        return ElementClass.IDENTITY, None, None
    vals, vecs = np.linalg.eig(g.matrix)
    moduli = np.abs(vals)
    i_max = int(np.argmax(moduli))
    i_min = int(np.argmin(moduli))
    r = moduli[i_max]
    if r > 1.0 + tol_lox:
        lam = vals[i_max]
        omega = cmath.exp(2j * math.pi / 3)
        factor = next(
            omega**k
            for k in range(3)
            if -math.pi / 3 < cmath.phase(lam * omega**k) <= math.pi / 3 + 1e-15
        )
        rot = 3.0 * cmath.phase(lam * factor)
        if rot > math.pi:
            rot -= 2.0 * math.pi
        return ElementClass.LOXODROMIC, rot, (vecs[:, i_max], vecs[:, i_min])
    if r > 1.0 + 0.1 * tol_lox:
        return None, None, None  # indeterminate
    gaps = [abs(vals[i] - vals[j]) for i in range(3) for j in range(i + 1, 3)]
    if min(gaps) > 1e-8 or np.linalg.cond(vecs) < 1e6:
        return ElementClass.ELLIPTIC, None, None
    return ElementClass.PARABOLIC, None, None


def test_stacked_classifier_matches_per_element_reference():
    """One eig over a stack classifies as the per-element body did, bit for bit."""
    from crchains.groups import diagonal_loxodromic, heisenberg_translation, screw_parabolic
    from crchains.hermitian import _classify_rows

    rng = np.random.default_rng(7)
    psi = 0.7
    elements = [random_form_preserving(rng) for _ in range(200)] + [
        GroupElement(np.eye(3)),
        heisenberg_translation(0.4 - 1.1j, 0.3),
        screw_parabolic(0.7, 1.0),
        GroupElement(np.diag(np.exp([1j * psi, -2j * psi, 1j * psi]))),
        GroupElement(np.diag([1.0, cmath.exp(1j), 1.0])),
        diagonal_loxodromic(1.0, 5e-8),  # leading modulus inside the band
        # distinct unit eigenvalues 1e-5 apart, eigenvectors nearly parallel:
        # elliptic by the eigenvalue gaps alone
        GroupElement(np.array([[1, 1e4, 0], [0, cmath.exp(1e-5j), 0], [0, 0, cmath.exp(-1e-5j)]])),
        diagonal_loxodromic(1.0 + 0.3j, 0.8),
    ]
    refs = [_reference_classify(g) for g in elements]
    kinds = {ref[0] for ref in refs}
    assert kinds == {None, *ElementClass}, kinds  # every rule is exercised

    stacked, _, attracting, repelling, _ = _classify_rows(
        np.array([g.matrix for g in elements])
    )
    for k, (g, (kind, rot, fixed)) in enumerate(zip(elements, refs)):
        assert stacked[k] is kind
        if kind is None:
            with pytest.raises(IndeterminateClassError):
                classify(g)
            continue
        cls = classify(g)
        assert cls.kind is kind
        assert cls.rotation_factor == rot
        if kind is ElementClass.LOXODROMIC:
            att, rep = cls.fixed_points
            assert att.tobytes() == fixed[0].tobytes()
            assert rep.tobytes() == fixed[1].tobytes()
            assert attracting[k].tobytes() == fixed[0].tobytes()
            assert repelling[k].tobytes() == fixed[1].tobytes()
        else:
            assert cls.fixed_points is None


def _reference_proportional(a, b, tol=1e-9):
    """The proportional rule of the old lift wrapper, one pair of rows at a time."""
    c = np.cross(a, b)
    return float(np.linalg.norm(c)) < tol * float(np.linalg.norm(a) * np.linalg.norm(b))


def test_proportional_rows_match_scalar_reference():
    """`_proportional` on stacked rows, and on one row at a time, gives the
    old scalar verdicts on either side of the tolerance."""
    rng = np.random.default_rng(30)
    a = rng.normal(size=(600, 3)) + 1j * rng.normal(size=(600, 3))
    c = rng.normal(size=(600, 1)) + 1j * rng.normal(size=(600, 1))
    eps = 10.0 ** rng.uniform(-17, -5, size=(600, 1))
    b = c * a + eps * (rng.normal(size=(600, 3)) + 1j * rng.normal(size=(600, 3)))
    for tol in (1e-14, 1e-9):
        ref = [_reference_proportional(x, y, tol) for x, y in zip(a, b)]
        assert _proportional(a, b, tol).tolist() == ref
        assert [bool(_proportional(x, y, tol)) for x, y in zip(a, b)] == ref
        assert 0 < sum(ref) < len(ref)

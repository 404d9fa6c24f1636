"""Unit tests for the Hermitian core: forms, box products, classification."""

import cmath
import math

import numpy as np
import pytest

from crchains.hermitian import (
    ElementClass,
    GeometryError,
    GroupElement,
    HVector,
    IndeterminateClassError,
    Model,
    ModelMismatchError,
    PointType,
    TOL_NULL,
    _CAYLEY,
    _box,
    _herm,
    _null_margin,
    box,
    cayley,
    classify,
    det3,
    herm_inner,
    is_real_loxodromic,
    point_type,
    random_form_preserving,
)

RNG = np.random.default_rng(20240817)


def rand_vec(model=Model.SIEGEL):
    return HVector(RNG.normal(size=3) + 1j * RNG.normal(size=3), model)


class TestForms:
    def test_siegel_form_matrix(self):
        j = Model.SIEGEL.matrix
        assert np.array_equal(j, [[0, 0, 1], [0, 2, 0], [1, 0, 0]])

    def test_inner_is_hermitian(self):
        for _ in range(50):
            a, b = rand_vec(), rand_vec()
            assert herm_inner(a, b) == pytest.approx(np.conj(herm_inner(b, a)))

    def test_inner_linear_first_slot(self):
        a, b = rand_vec(), rand_vec()
        lam = 2.0 - 3.0j
        assert herm_inner(a.scaled(lam), b) == pytest.approx(lam * herm_inner(a, b))
        assert herm_inner(a, b.scaled(lam)) == pytest.approx(
            np.conj(lam) * herm_inner(a, b)
        )

    def test_standard_lift_norms(self):
        # lift of [0, 0] against lift of infinity: <(0,0,1), (1,0,0)> = 1
        o = HVector(np.array([0.0, 0.0, 1.0]))
        inf = HVector(np.array([1.0, 0.0, 0.0]))
        assert herm_inner(o, inf) == pytest.approx(1.0)
        assert o.norm2 == pytest.approx(0.0)
        assert inf.norm2 == pytest.approx(0.0)

    def test_model_mismatch_raises(self):
        with pytest.raises(ModelMismatchError):
            herm_inner(rand_vec(Model.SIEGEL), rand_vec(Model.BALL))


class TestCayley:
    def test_transition_preserves_form(self):
        for _ in range(50):
            a, b = rand_vec(), rand_vec()
            ca, cb = cayley(a, Model.BALL), cayley(b, Model.BALL)
            assert herm_inner(ca, cb) == pytest.approx(herm_inner(a, b), abs=1e-12)

    def test_round_trip(self):
        v = rand_vec()
        w = cayley(cayley(v, Model.BALL), Model.SIEGEL)
        assert np.allclose(v.entries, w.entries)

    def test_ball_center_is_siegel_interior(self):
        center = HVector(np.array([0.0, 0.0, 1.0]), Model.BALL)
        assert point_type(cayley(center, Model.SIEGEL)).point_type is PointType.NEGATIVE


class TestBox:
    def test_orthogonality(self):
        for _ in range(100):
            a, b = rand_vec(), rand_vec()
            n = box(a, b)
            assert abs(herm_inner(a, n)) < 1e-10 * np.linalg.norm(n.entries)
            assert abs(herm_inner(b, n)) < 1e-10 * np.linalg.norm(n.entries)

    def test_proportional_returns_none(self):
        a = rand_vec()
        assert box(a, a.scaled(3.0 - 1.0j)) is None

    def test_det_identity(self):
        # <a, b box c> equals det(a, b, c)
        for _ in range(100):
            a, b, c = rand_vec(), rand_vec(), rand_vec()
            lhs = herm_inner(a, box(b, c))
            assert lhs == pytest.approx(det3(a, b, c), rel=1e-10)

    @pytest.mark.parametrize("model", [Model.BALL, Model.SIEGEL])
    def test_expansion_identity(self, model):
        # <a box b, c box d> = -(1/det J)(<d,a><c,b> - <c,a><d,b>);
        # the constant is 1 for the ball form and 1/2 for the Siegel form
        factor = -1.0 / np.linalg.det(model.matrix)
        for _ in range(100):
            a, b, c, d = (rand_vec(model) for _ in range(4))
            lhs = herm_inner(box(a, b), box(c, d))
            rhs = herm_inner(d, a) * herm_inner(c, b) - herm_inner(
                c, a
            ) * herm_inner(d, b)
            assert lhs == pytest.approx(factor * rhs, rel=1e-10)

    @pytest.mark.parametrize("model", [Model.BALL, Model.SIEGEL])
    def test_double_box_identity(self, model):
        # (a box b) box (a box c) = (1/det J) det(a, b, c) a
        factor = 1.0 / np.linalg.det(model.matrix)
        for _ in range(50):
            a, b, c = rand_vec(model), rand_vec(model), rand_vec(model)
            lhs = box(box(a, b), box(a, c))
            rhs = a.scaled(factor * det3(a, b, c))
            assert np.allclose(lhs.entries, rhs.entries, rtol=1e-9, atol=1e-9)


class TestPointType:
    def test_interior_point(self):
        v = HVector(np.array([0.0, 0.0, 1.0]), Model.BALL)
        assert point_type(v).point_type is PointType.NEGATIVE

    def test_polar_point(self):
        v = HVector(np.array([0.0, 1.0, 0.0]))
        assert point_type(v).point_type is PointType.POSITIVE

    def test_null_point(self):
        v = HVector(np.array([1.0, 0.0, 0.0]))
        assert point_type(v).point_type is PointType.NULL


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


class TestClassification:
    def test_identity(self):
        assert classify(GroupElement(np.eye(3))).kind is ElementClass.IDENTITY

    def test_real_diagonal_loxodromic(self):
        g = GroupElement(np.diag([math.e, 1.0, 1.0 / math.e]))
        cls = classify(g)
        assert cls.kind is ElementClass.LOXODROMIC
        assert cls.rotation_factor == pytest.approx(0.0, abs=1e-12)
        assert is_real_loxodromic(g)

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
        assert not is_real_loxodromic(g)

    def test_loxodromic_fixed_points(self):
        g = GroupElement(np.diag([2.0, 1.0, 0.5]))
        cls = classify(g)
        att, rep = cls.fixed_points
        assert np.allclose(np.abs(att.representative.entries), [1, 0, 0])
        assert np.allclose(np.abs(rep.representative.entries), [0, 0, 1])

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
        with pytest.raises(GeometryError):
            HVector(np.zeros(3))


# Reference bodies of the scalar functions from before the array kernel,
# kept verbatim apart from J^-1, which they took from Model.inverse.


def _scalar_herm_inner(a, b):
    return complex(np.conj(b.entries) @ (a.model.matrix @ a.entries))


def _scalar_box(a, b):
    cross = np.cross(a.entries, b.entries)
    scale = float(np.linalg.norm(a.entries) * np.linalg.norm(b.entries))
    if np.linalg.norm(cross) < 1e-14 * scale:
        return None
    return HVector(np.conj(np.linalg.inv(a.model.matrix) @ cross), a.model)


def _scalar_point_type(v, tol_null=TOL_NULL):
    norm2 = _scalar_herm_inner(v, v).real
    euc = float(np.vdot(v.entries, v.entries).real)
    margin = abs(norm2) / euc
    if margin < tol_null:
        return PointType.NULL, margin
    return (PointType.NEGATIVE if norm2 < 0 else PointType.POSITIVE), margin


def _bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("model", list(Model))
def test_kernel_matches_scalar_reference(model):
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
    a[: n // 4] = null if model is Model.SIEGEL else null @ _CAYLEY.T
    j, jinv = model.matrix, model.inverse
    herm, polar, margin = _herm(a, b, j), _box(a, b, jinv), _null_margin(a, j)
    # a (4, n/4, 3) stack gives the same rows as the flat batch
    stacked = a.reshape(4, n // 4, 3), b.reshape(4, n // 4, 3)
    assert _bits(_herm(*stacked, j)) == _bits(herm.reshape(4, n // 4))
    assert _bits(_box(*stacked, jinv)) == _bits(polar.reshape(4, n // 4, 3))
    assert _bits(_null_margin(stacked[0], j)) == _bits(margin.reshape(4, n // 4))
    kinds = set()
    for k in range(n):
        va, vb = HVector(a[k], model), HVector(b[k], model)
        ref = _scalar_herm_inner(va, vb)
        assert _bits(herm_inner(va, vb)) == _bits(ref)
        assert _bits(_herm(a[k], b[k], j)) == _bits(herm[k]) == _bits(ref)
        ref_box = _scalar_box(va, vb).entries
        assert _bits(box(va, vb).entries) == _bits(ref_box)
        assert _bits(_box(a[k], b[k], jinv)) == _bits(polar[k]) == _bits(ref_box)
        kind, ref_margin = _scalar_point_type(va)
        pt = point_type(va)
        assert pt.point_type is kind and _bits(pt.type_margin) == _bits(ref_margin)
        assert _bits(abs(_null_margin(a[k], j))) == _bits(abs(margin[k])) == _bits(ref_margin)
        kinds.add(kind)
    assert kinds == set(PointType)

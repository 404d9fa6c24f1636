"""Triangle-group representations, word enumeration, limit sets, fixtures."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from crchains.boundary import BoundaryPoint, INFINITY, normalizer_to_standard
from crchains.circles import Arc, ArcRelation, arcs_intersect
from crchains.crowns import (
    EmbeddednessReport,
    axis_at_infinity,
    build_crown,
    embeddedness,
)
from crchains.groups import (
    LimitSetSample,
    TriangleParams,
    _angular_order,
    complex_reflection,
    diagonal_loxodromic,
    enumerate_words,
    heisenberg_translation,
    limit_set,
    screw_parabolic,
    triangle_group,
    triangle_group_at_tau,
)
from crchains.hermitian import (
    ElementClass,
    GeometryError,
    GroupElement,
    HVector,
    Model,
    classify,
    herm_inner,
    point_type,
)

TAU_FUCHSIAN = 2 + 2 * math.sqrt(2)


class TestTriangleParams:
    def test_euclidean_triangle_rejected(self):
        with pytest.raises(GeometryError):
            TriangleParams(3, 3, 3)  # 1/3+1/3+1/3 = 1

    def test_small_order_rejected(self):
        with pytest.raises(GeometryError):
            TriangleParams(1, 7, 7)

    def test_gram_phase(self):
        params = TriangleParams(3, 3, 4, 3.5)
        g = params.gram()
        phase = np.angle(g[0, 1] * g[1, 2] * g[2, 0]) % (2 * math.pi)
        assert phase == pytest.approx(3.5)


class TestComplexReflection:
    def test_is_involution(self):
        c = point_type(HVector(np.array([0.0, 1.0, 0.0])))
        m = complex_reflection(c)
        assert np.allclose(m.matrix @ m.matrix, np.eye(3), atol=1e-12)

    def test_preserves_form(self):
        c = point_type(HVector(np.array([1.0, 0.5 + 0.2j, 0.3])))
        assert complex_reflection(c).form_residual() < 1e-10

    def test_unit_determinant(self):
        c = point_type(HVector(np.array([0.0, 1.0, 0.0])))
        assert complex_reflection(c).det == pytest.approx(1.0)

    def test_fixes_polar_line_pointwise(self):
        # the mirror of (0,1,0) is the chain through the origin and infinity
        c = point_type(HVector(np.array([0.0, 1.0, 0.0])))
        m = complex_reflection(c)
        for p in (BoundaryPoint(0, 0), INFINITY, BoundaryPoint(0, 2.0)):
            assert p.apply(m).close_to(p, 1e-10)

    def test_null_mirror_rejected(self):
        with pytest.raises(GeometryError):
            complex_reflection(point_type(HVector(np.array([1.0, 0.0, 0.0]))))


class TestTriangleGroup:
    def test_real_phase_trace(self):
        rep = triangle_group(TriangleParams(3, 3, 4))
        assert rep.tau.real == pytest.approx(TAU_FUCHSIAN, abs=1e-9)
        assert rep.tau.imag == pytest.approx(0.0, abs=1e-9)

    def test_relators_certified(self):
        rep = triangle_group(TriangleParams(3, 3, 4))
        assert all(c.passed for c in rep.relator_report)

    def test_relators_across_phases(self):
        for phi in np.linspace(math.pi, 4.6, 20):
            rep = triangle_group(TriangleParams(3, 3, 4, float(phi)))
            assert max(c.defect for c in rep.relator_report) < 1e-8

    def test_gram_realized(self):
        params = TriangleParams(3, 3, 4, 3.9)
        rep = triangle_group(params)
        g = params.gram()
        for i in range(3):
            for j in range(3):
                got = rep.mirrors[i].representative.inner(
                    rep.mirrors[j].representative
                )
                assert got == pytest.approx(g[i, j], abs=1e-10)

    def test_wrong_signature_rejected(self):
        # phase 0 makes the (3,3,4) Gram positive definite
        with pytest.raises(GeometryError, match="signature"):
            triangle_group(TriangleParams(3, 3, 4, 0.0))

    def test_degeneration_trace(self):
        # at tau = 3 the test word becomes parabolic: triple eigenvalue
        # of modulus one on the unit-determinant lift
        rep = triangle_group_at_tau(3, 3, 4, 3.0)
        w = rep.word("3212")
        vals = np.linalg.eigvals(w.matrix)
        assert np.allclose(np.abs(vals), 1.0, atol=1e-4)

    def test_target_tau_located(self):
        rep = triangle_group_at_tau(3, 3, 4, 3.7)
        assert rep.tau.real == pytest.approx(3.7, abs=1e-8)

    def test_real_phase_generators_are_real_matrices(self):
        rep = triangle_group(TriangleParams(3, 3, 4))
        for g in rep.generators:
            assert np.max(np.abs(g.matrix.imag)) < 1e-10


class TestEnumerateWords:
    def test_length_one(self):
        rep = triangle_group(TriangleParams(3, 3, 4))
        words = enumerate_words(rep, 1)
        assert len(words) == 4  # identity + three involutions

    def test_involution_squares_merged(self):
        rep = triangle_group(TriangleParams(3, 3, 4))
        words = enumerate_words(rep, 2)
        labels = [w for w, _ in words]
        assert "11" not in labels and "22" not in labels

    def test_central_lifts_merged(self):
        # scaling a generator by a cube root of unity changes no projective
        # element; the relation i1 i2 i1 = i2 i1 i2 then holds only up to
        # a central factor and must still merge the two words
        rep = triangle_group(TriangleParams(3, 3, 4))
        g1, g2, g3 = rep.generators
        omega = cmath.exp(2j * math.pi / 3)
        scaled = dataclasses.replace(
            rep, generators=(GroupElement(omega * g1.matrix), g2, g3)
        )
        assert len(enumerate_words(scaled, 6)) == len(enumerate_words(rep, 6))

    def test_against_brute_force_count(self):
        # independent enumeration: all letter strings, dedup by the
        # projective matrix with a fine grid
        rep = triangle_group(TriangleParams(3, 3, 4))
        seen = []

        def visit(mat):
            for s in seen:
                for k in range(3):
                    omega = cmath.exp(2j * math.pi * k / 3)
                    if np.linalg.norm(mat - omega * s) < 1e-6:
                        return
            seen.append(mat)

        from itertools import product

        for length in range(0, 4):
            for letters in product(range(3), repeat=length):
                m = np.eye(3, dtype=complex)
                for i in letters:
                    m = m @ rep.generators[i].matrix
                det = np.linalg.det(m)
                visit(m / det ** (1 / 3))
        words = enumerate_words(rep, 3)
        assert len(words) == len(seen)

    def test_elements_preserve_form(self):
        rep = triangle_group(TriangleParams(3, 3, 4, 4.0))
        worst = max(
            g.form_residual() for _, g in enumerate_words(rep, 8)
        )
        assert worst < 1e-8


def _pairwise_words(rep, length, tol=1e-6):
    """Reference enumeration: each candidate against every kept matrix."""
    omegas = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
    kept = [np.eye(3, dtype=complex)]
    out = [("", np.eye(3, dtype=complex))]
    frontier = list(out)
    for _ in range(length):
        new_frontier = []
        for word, mat in frontier:
            for k in "123":
                if word.endswith(k):
                    continue
                m = mat @ rep.generators[int(k) - 1].matrix
                if any(
                    np.linalg.norm(m - km * w) < tol for km in kept for w in omegas
                ):
                    continue
                kept.append(m)
                out.append((word + k, m))
                new_frontier.append((word + k, m))
        frontier = new_frontier
    return out


def _pairwise_limit_points(words, eps=1e-3):
    pts, coords = [], []
    for _, g in words:
        try:
            cls = g.classification
        except GeometryError:
            continue
        if cls.kind is not ElementClass.LOXODROMIC:
            continue
        for fp in cls.fixed_points:
            try:
                p = BoundaryPoint.from_lift(fp.representative, tol=1e-4)
            except GeometryError:
                continue
            c = np.concatenate([[w.real, w.imag] for w in p.ball_coords()])
            if any(np.linalg.norm(c - c0) < eps for c0 in coords):
                continue
            coords.append(c)
            pts.append(p)
    return _angular_order(pts)


def _pairwise_crown_arcs(rep, gamma_word, words, eps=1e-6):
    def key(arc):
        return np.concatenate(
            [[c.real, c.imag] for p in (arc.start, arc.end) for c in p.ball_coords()]
        )

    gamma = rep.word(gamma_word)
    arcs, keys = [], []
    for word, g in [("", None)] + words[1:]:
        arc = axis_at_infinity(gamma if g is None else g @ gamma @ g.inverse())
        k1, k2 = key(arc), key(arc.opposite())
        if any(min(np.linalg.norm(k - k1), np.linalg.norm(k - k2)) < eps for k in keys):
            continue
        keys.append(k1)
        arcs.append((word, arc))
    return arcs


def _per_pair_embeddedness(crown):
    """embeddedness as it was when every pair recomputed both supports."""
    arcs = crown.arcs
    min_margin = math.inf
    n = len(arcs)
    for i in range(n):
        for j in range(i + 1, n):
            li, ai = arcs[i]
            lj, aj = arcs[j]
            res = arcs_intersect(Arc(ai.start, ai.end), Arc(aj.start, aj.end))
            if res.kind is ArcRelation.CROSS:
                return EmbeddednessReport("CROSSING", None, (li, lj), res.point, n)
            if res.kind is ArcRelation.DISJOINT:
                min_margin = min(min_margin, res.margin)
            elif res.kind is ArcRelation.SAME_SUPPORT and res.relation != "equal":
                return EmbeddednessReport("CROSSING", None, (li, lj), None, n)
    return EmbeddednessReport("EMBEDDED", float(min_margin), None, None, n)


def _per_point_sample(arc, n, t_range):
    """Arc.sample as it was: one Arc.point call, and one <b, a>, per t."""
    out = []
    for t in np.geomspace(t_range[0], t_range[1], n):
        a, b = arc.start.lift, arc.end.lift
        mu = 1j * float(t) / herm_inner(b, a)
        out.append(BoundaryPoint.from_lift(HVector(a.entries + mu * b.entries)))
    return out


def _point_bits(points):
    return np.array([[p.z.real, p.z.imag, p.t, p.at_infinity] for p in points]).tobytes()


@pytest.mark.parametrize("phase", [math.pi, 3.9, 4.2742])
def test_dedup_matches_pairwise_reference(phase):
    """Vectorised dedup keeps exactly what the pairwise loops kept, and the
    crown's arcs give what the per-pair and per-point loops gave."""
    rep = triangle_group(TriangleParams(3, 3, 4, phase))
    words = enumerate_words(rep, 7)
    ref = _pairwise_words(rep, 7)
    assert [w for w, _ in words] == [w for w, _ in ref]
    for (_, g), (_, m) in zip(words, ref):
        assert g.matrix.tobytes() == GroupElement(m).matrix.tobytes()

    assert limit_set(rep, 7).points == _pairwise_limit_points(words)

    crown = build_crown(rep, "3212", 4, limit_length=4)
    ref_arcs = _pairwise_crown_arcs(rep, "3212", enumerate_words(rep, 4))
    assert list(crown.arcs) == ref_arcs

    assert embeddedness(crown) == _per_pair_embeddedness(crown)
    arcs = [arc for _, arc in crown.arcs]  # supports cached by now
    for i, a1 in enumerate(arcs):
        for a2 in arcs[i + 1 :]:
            fresh = Arc(a1.start, a1.end), Arc(a2.start, a2.end)
            assert arcs_intersect(a1, a2) == arcs_intersect(*fresh)
    for _, arc in crown.arcs:
        for n, t_range in ((64, (1e-2, 1e2)), (9, (1e-3, 1e3))):
            ref = _per_point_sample(arc, n, t_range)
            assert _point_bits(arc.sample(n, t_range)) == _point_bits(ref)


class TestLimitSet:
    def test_points_are_null(self):
        rep = triangle_group(TriangleParams(3, 3, 4))
        ls = limit_set(rep, 6)
        for p in ls.points:
            assert abs(p.lift.norm2) < 1e-8

    def test_r_fuchsian_points_real(self):
        rep = triangle_group(TriangleParams(3, 3, 4))
        ls = limit_set(rep, 6)
        for p in ls.points:
            if not p.at_infinity:
                assert abs(p.z.imag) < 1e-8 and abs(p.t) < 1e-8

    def test_pairwise_separation(self):
        rep = triangle_group(TriangleParams(3, 3, 4))
        ls = limit_set(rep, 6, eps=1e-3)
        pts = ls.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert pts[i].chordal(pts[j]) >= 1e-3 * 0.5

    def test_invariant_under_generators(self):
        # images of short-word limit points land in the longer-word sample:
        # the conjugated word has length at most two more
        rep = triangle_group(TriangleParams(3, 3, 4))
        small = limit_set(rep, 6, eps=1e-3)
        big = limit_set(rep, 8, eps=1e-3)
        for i, p in enumerate(small.points):
            q = p.apply(rep.generators[i % 3])
            assert min(q.chordal(r) for r in big.points) < 5e-3

    def test_grows_with_length(self):
        rep = triangle_group(TriangleParams(3, 3, 4))
        n6 = len(limit_set(rep, 6).points)
        n8 = len(limit_set(rep, 8).points)
        assert n8 >= n6

    def test_no_loxodromic_raises(self):
        rep = triangle_group(TriangleParams(3, 3, 4))
        with pytest.raises(GeometryError):
            limit_set(rep, 1)


class TestHeisenbergTranslation:
    def test_preserves_form(self):
        g = heisenberg_translation(1.0 - 2.0j, 0.7)
        assert g.form_residual() < 1e-12

    def test_moves_origin(self):
        w, s = 0.5 + 0.25j, 0.8
        p = BoundaryPoint(0, 0).apply(heisenberg_translation(w, s))
        assert p.z == pytest.approx(w) and p.t == pytest.approx(s)

    def test_parabolic(self):
        g = heisenberg_translation(1.0, 0.0)
        assert classify(g).kind is ElementClass.PARABOLIC

    def test_commutator_is_vertical(self):
        w, s = 1.0 + 0.5j, 0.3
        a = heisenberg_translation(w, s)
        b = heisenberg_translation(-w, -s)
        prod = (a @ b).matrix
        # product differs from identity by a vertical translation
        assert prod[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert prod[1, 2] == pytest.approx(0.0, abs=1e-12)
        assert abs(prod[0, 2].imag) > 0

    def test_screw_parabolic_class(self):
        g = screw_parabolic(0.7, 1.0)
        assert classify(g).kind is ElementClass.PARABOLIC
        assert INFINITY.apply(g).at_infinity


class TestDiagonalLoxodromic:
    def test_real_case(self):
        g = diagonal_loxodromic(1.0, 1.0)
        cls = classify(g)
        assert cls.kind is ElementClass.LOXODROMIC
        assert cls.rotation_factor == pytest.approx(0.0, abs=1e-10)

    def test_rotation_factor(self):
        g = diagonal_loxodromic(1 + 0.3j, 1.0)
        assert classify(g).rotation_factor == pytest.approx(0.9, abs=1e-10)

    def test_fixed_points(self):
        g = diagonal_loxodromic(1 + 0.3j, 1.0)
        assert INFINITY.apply(g).at_infinity
        o = BoundaryPoint(0, 0).apply(g)
        assert o.close_to(BoundaryPoint(0, 0), 1e-10)

    def test_one_parameter_homomorphism(self):
        a = 1 + 0.5j
        g = diagonal_loxodromic(a, 0.3) @ diagonal_loxodromic(a, 0.4)
        h = diagonal_loxodromic(a, 0.7)
        assert np.allclose(g.matrix, h.matrix, atol=1e-12)

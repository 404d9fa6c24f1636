"""End-to-end acceptance gate.

One test per criterion; each asserts its numerical targets and its
runtime budget.
"""

import math
import time

import numpy as np
import pytest

from crchains.boundary import BoundaryPoint, cartan
from crchains.circles import (
    ArcRelation,
    BENT_CERT_RATIO,
    RCircle,
    arcs_intersect,
    bent_certificate,
    bent_curve,
    bent_leaf,
    foliation_leaf_rcircle,
    spiral_curve,
)
from crchains.crowns import build_crown, crossing_detector, embeddedness
from crchains.groups import (
    TriangleParams,
    diagonal_loxodromic,
    limit_set,
    triangle_group,
    triangle_group_at_tau,
)
from crchains.hermitian import (
    box,
    det3,
    herm_inner,
    random_form_preserving,
)
from crchains.slimness import (
    hyperconvexity,
    parabolic_obstruction_demo,
    sup_cartan,
    sweep,
)

RNG = np.random.default_rng(20240823)


def random_boundary_point(rng) -> BoundaryPoint:
    z = complex(*rng.normal(scale=1.5, size=2))
    return BoundaryPoint(z, float(rng.normal(scale=2.0)))


def test_criterion_01_algebraic_identities():
    """Box-product and Cartan identities on 1e4 random cases, < 1e-9."""
    t0 = time.time()
    n = 10_000
    worst = 0.0
    det_j = -2.0  # the determinant of the Siegel form
    raw = RNG.normal(size=(n, 4, 3)) + 1j * RNG.normal(size=(n, 4, 3))
    raw /= np.linalg.norm(raw, axis=2, keepdims=True)
    for quad in raw:
        a, b, c, d = quad
        # polar vector against the determinant
        worst = max(worst, abs(herm_inner(a, box(b, c)) - det3(a, b, c)))
        # expansion of a product of two polar vectors
        lhs = herm_inner(box(a, b), box(c, d))
        rhs = (-1.0 / det_j) * (
            herm_inner(d, a) * herm_inner(c, b)
            - herm_inner(c, a) * herm_inner(d, b)
        )
        worst = max(worst, abs(lhs - rhs))
        # double polar recovers the common vector
        vec = box(box(a, b), box(a, c))
        ref = (det3(a, b, c) / det_j) * a
        worst = max(worst, float(np.max(np.abs(vec - ref))))
    assert worst < 1e-9

    # Cartan invariant: range, antisymmetry, cocycle, isometry invariance
    isometries = [random_form_preserving(RNG) for _ in range(100)]
    worst_c = 0.0
    for i in range(n):
        pts = [random_boundary_point(RNG) for _ in range(4)]
        p, q, r, s = pts
        a_pqr = cartan(p, q, r).angle
        assert -math.pi / 2 <= a_pqr <= math.pi / 2
        worst_c = max(worst_c, abs(a_pqr + cartan(p, r, q).angle))
        coc = (
            a_pqr
            - cartan(p, q, s).angle
            + cartan(p, r, s).angle
            - cartan(q, r, s).angle
        )
        worst_c = max(worst_c, abs(coc))
        g = isometries[i % len(isometries)]
        moved = cartan(p.apply(g), q.apply(g), r.apply(g)).angle
        worst_c = max(worst_c, abs(moved - a_pqr))
    assert worst_c < 1e-9
    assert time.time() - t0 < 10.0


def test_criterion_02_rcircle_foliation():
    """1e3 valid leaves; 100 of them pairwise non-crossing."""
    t0 = time.time()
    rng = np.random.default_rng(2)
    leaves = []
    count = 0
    while count < 1000:
        p = random_boundary_point(rng)
        if RCircle.standard().contains(p, tol=1e-6):
            continue
        leaf = foliation_leaf_rcircle(p)
        _, residual = leaf.param_of(p)
        assert residual < 1e-8
        count += 1
        if len(leaves) < 100:
            leaves.append(leaf)
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            res = arcs_intersect(leaves[i], leaves[j])
            assert res.kind is not ArcRelation.CROSS
    assert time.time() - t0 < 30.0


def test_criterion_03_bent_slimness():
    """Refined supremum equals |pi - theta| / 2 at five bending angles."""
    t0 = time.time()
    for theta in (
        math.pi / 2,
        3 * math.pi / 4,
        math.pi,
        5 * math.pi / 4,
        3 * math.pi / 2,
    ):
        report = sup_cartan(bent_curve(theta, n=200), refine=True)
        expected = abs(math.pi - theta) / 2
        assert report.sup_estimate == pytest.approx(expected, abs=0.02)
        if theta == math.pi:
            assert report.sup_estimate < 1e-8
    assert time.time() - t0 < 120.0


def test_criterion_04_bent_foliation_certificate():
    """Certificate factorization, non-vanishing, and leaf disjointness."""
    t0 = time.time()
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        x, z = sorted(rng.uniform(0.05, 5.0, size=2) + [0.0, 0.05])
        y, t = rng.uniform(0.05, 5.0, size=2)
        t = y + 0.05 + abs(t - y)
        theta = rng.uniform(math.pi / 2, 3 * math.pi / 2)
        direct, factored = bent_certificate(x, y, z, t, theta)
        assert abs(direct - BENT_CERT_RATIO * factored) <= 1e-9 * max(
            1.0, abs(direct)
        )
        assert direct != 0.0
    leaves = []
    while len(leaves) < 50:
        r = rng.uniform(0.3, 3.0)
        phi = rng.uniform(0.1, 2 * math.pi - 0.1)
        if abs(phi - 3 * math.pi / 4) < 0.1:
            continue
        p = BoundaryPoint(r * complex(math.cos(phi), math.sin(phi)),
                          float(rng.normal(scale=1.0)))
        leaves.append(bent_leaf(p, 3 * math.pi / 4))
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            res = arcs_intersect(leaves[i], leaves[j])
            assert res.kind in (
                ArcRelation.DISJOINT,
                ArcRelation.SHARE_ENDPOINT,
            )
    assert time.time() - t0 < 120.0


def test_criterion_05_triangle_group():
    """Relators, the distinguished real trace, and a flat limit set."""
    t0 = time.time()
    for phi in np.linspace(math.pi, 4.6, 20):
        rep = triangle_group(TriangleParams(3, 3, 4, float(phi)))
        assert max(c.defect for c in rep.relator_report) < 1e-8
    rep = triangle_group(TriangleParams(3, 3, 4))
    assert abs(rep.tau - (2 + 2 * math.sqrt(2))) < 1e-6
    report = sup_cartan(limit_set(rep, 10))
    assert report.sup_estimate <= 0.05
    assert time.time() - t0 < 300.0


def test_criterion_06_deformation_sweep():
    """Slimness grows monotonically along the trace deformation."""
    t0 = time.time()
    end_phase = triangle_group_at_tau(3, 3, 4, 3.2).params.phase
    phases = list(np.linspace(math.pi, end_phase, 16))
    result = sweep(3, 3, 4, phases, word_length=10)
    ok = [r for r in result.rows if r.error is None]
    assert len(ok) >= 15
    assert result.spearman_neg_tau_vs_sup() > 0.95
    smallest_tau = min(ok, key=lambda r: r.tau.real)
    assert abs(smallest_tau.sup_estimate - math.pi / 2) < 0.15
    assert time.time() - t0 < 1800.0


def test_criterion_07_non_injectivity():
    """Symmetric chords of the spiral cross the axis; real control does not."""
    t0 = time.time()
    g = diagonal_loxodromic(1 + 0.3j, 1.0)
    hits = crossing_detector(spiral_curve(0.3), g)
    assert len(hits) >= 3
    for chord, axis, _ in hits:
        assert arcs_intersect(chord, axis).kind is ArcRelation.CROSS
    control = crossing_detector(
        RCircle.standard().sample(100), diagonal_loxodromic(1.0, 1.0)
    )
    assert control == []
    assert time.time() - t0 < 60.0


def test_criterion_08_crown_embeddedness():
    """The standard crown and a small deformation are both embedded."""
    t0 = time.time()
    rep = triangle_group(TriangleParams(3, 3, 4))
    crown = build_crown(rep, "3212", 6)
    report = embeddedness(crown)
    assert report.status == "EMBEDDED"
    assert report.min_margin > 0
    rep2 = triangle_group(TriangleParams(3, 3, 4, math.pi + 0.05))
    assert sup_cartan(limit_set(rep2, 10)).sup_estimate < 0.3
    report2 = embeddedness(build_crown(rep2, "3212", 6))
    assert report2.status == "EMBEDDED"
    assert report2.min_margin > 0
    assert time.time() - t0 < 600.0


def test_criterion_09_parabolic_obstruction():
    """Vertical and screw orbits saturate pi/2; horizontal stays flat."""
    t0 = time.time()
    assert parabolic_obstruction_demo("vertical").sup_estimate >= (
        math.pi / 2 - 1e-3
    )
    assert parabolic_obstruction_demo("screw").sup_estimate >= (
        math.pi / 2 - 1e-3
    )
    assert parabolic_obstruction_demo("horizontal").sup_estimate < 1e-8
    assert time.time() - t0 < 10.0


def test_criterion_10_spiral_slimness():
    """The horizontal spiral is strictly slim and hyperconvex."""
    t0 = time.time()
    sample = spiral_curve(0.3, n=300)
    report = sup_cartan(sample, refine=True)
    assert report.sup_estimate < math.pi / 2 - 0.01
    assert hyperconvexity(sample).min_collinearity > 0
    assert time.time() - t0 < 120.0

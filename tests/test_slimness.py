"""Cartan-supremum estimation, hyperconvexity reports, the sweep."""

import math

import numpy as np
import pytest

from crchains.boundary import BoundaryPoint, INFINITY, cartan_lifts, lifts
from crchains.circles import (
    Arc,
    CurveSample,
    RCircle,
    bent_curve,
    mobius_sample,
    spiral_curve,
)
from crchains.groups import TriangleParams, triangle_group, limit_set
from crchains.hermitian import (
    GeometryError,
    HVector,
    Model,
    cayley,
    point_type,
)
from crchains.slimness import (
    HyperconvexityReport,
    SlimnessReport,
    hyperconvexity,
    parabolic_obstruction_demo,
    sup_cartan,
    sweep,
)


def chain_sample(n=10):
    arc = Arc(BoundaryPoint(0, -1), BoundaryPoint(0, 1))
    pts = [arc.start] + [arc.point(t) for t in np.geomspace(0.1, 10, n)] + [arc.end]
    return CurveSample(pts, closed=False, source="chain")


class TestSupCartan:
    def test_rcircle_is_flat(self):
        report = sup_cartan(RCircle.standard().sample(200))
        assert report.sup_estimate < 1e-8

    def test_chain_is_extremal(self):
        report = sup_cartan(chain_sample())
        assert report.sup_estimate == pytest.approx(math.pi / 2, abs=1e-9)

    def test_bent_three_quarters(self):
        report = sup_cartan(bent_curve(3 * math.pi / 4, n=200), refine=True)
        assert report.sup_estimate == pytest.approx(math.pi / 8, abs=0.02)
        # the maximum is attained at equal radii on the two branches
        radii = sorted(
            abs(p.z) for p in report.argmax_triple if not p.at_infinity
        )
        assert radii[-1] / radii[-2] == pytest.approx(1.0, abs=0.1)

    def test_argmax_realizes_estimate(self):
        from crchains.boundary import cartan

        report = sup_cartan(bent_curve(math.pi / 2, n=100))
        val = abs(cartan(*report.argmax_triple).angle)
        assert val == pytest.approx(report.sup_estimate, abs=1e-12)

    def test_monotone_in_points(self):
        base = bent_curve(3 * math.pi / 4, n=60)
        more = bent_curve(3 * math.pi / 4, n=120)
        assert (
            sup_cartan(more).sup_estimate >= sup_cartan(base).sup_estimate - 1e-12
        )

    def test_adding_chain_points_saturates(self):
        pts = RCircle.standard().sample(30).points
        pts = pts + [BoundaryPoint(0, 1.0), BoundaryPoint(0, -1.0)]
        report = sup_cartan(CurveSample(pts, False, "mixed"))
        assert report.sup_estimate == pytest.approx(math.pi / 2, abs=1e-9)

    def test_refinement_never_decreases(self):
        sample = bent_curve(5 * math.pi / 4, n=80)
        coarse = sup_cartan(sample, refine=False)
        fine = sup_cartan(sample, refine=True)
        assert fine.sup_estimate >= coarse.sup_estimate - 1e-15
        assert fine.refined

    def test_too_few_points(self):
        with pytest.raises(GeometryError):
            sup_cartan(CurveSample([BoundaryPoint(0, 0), INFINITY], False, "x"))


class TestHyperconvexity:
    def test_rcircle_margin_positive(self):
        report = hyperconvexity(RCircle.standard().sample(50))
        assert report.min_collinearity > 0

    def test_chain_witness(self):
        report = hyperconvexity(chain_sample())
        assert report.min_collinearity < 1e-12
        # witness points all on the vertical chain
        for p in report.witness:
            assert abs(p.z) < 1e-9

    def test_bent_curves_hyperconvex(self):
        for theta in np.linspace(math.pi / 2 + 0.1, 3 * math.pi / 2 - 0.1, 5):
            report = hyperconvexity(bent_curve(float(theta), n=40))
            assert report.min_collinearity > 0

    def test_slim_implies_hyperconvex(self):
        for theta in (math.pi / 2, 3 * math.pi / 4, 5 * math.pi / 4):
            sample = bent_curve(theta, n=40)
            sup = sup_cartan(sample).sup_estimate
            if sup < math.pi / 2 - 0.05:
                assert hyperconvexity(sample).min_collinearity > 0


class TestSweep:
    def test_small_sweep_trend(self):
        phases = list(np.linspace(math.pi, 4.2, 6))
        result = sweep(3, 3, 4, phases, word_length=6)
        ok = [r for r in result.rows if r.error is None]
        assert len(ok) == 6
        assert result.spearman_neg_tau_vs_sup() > 0.9
        # rows sorted by decreasing trace
        taus = [r.tau.real for r in ok]
        assert taus == sorted(taus, reverse=True)

    def test_failures_recorded_not_raised(self):
        # phase 0 has the wrong signature: the row records the error
        result = sweep(3, 3, 4, [0.0, math.pi], word_length=6)
        errs = [r for r in result.rows if r.error is not None]
        assert len(errs) == 1

    def test_csv_round_trip(self):
        import csv
        import io

        result = sweep(3, 3, 4, [math.pi, 3.9], word_length=6)
        rows = list(csv.DictReader(io.StringIO(result.to_csv())))
        assert len(rows) == 2
        assert {"phase", "tau_re", "tau_im", "n_points", "sup_estimate"} <= set(
            rows[0]
        )

    def test_json_metadata(self):
        import json

        result = sweep(3, 3, 4, [math.pi], word_length=6)
        data = json.loads(result.to_json(runtime=1.0))
        assert data["word_length"] == 6
        assert data["rows"][0]["tau"][0] == pytest.approx(2 + 2 * math.sqrt(2))


class TestParabolicDemos:
    def test_vertical(self):
        report = parabolic_obstruction_demo("vertical")
        assert report.sup_estimate >= math.pi / 2 - 1e-9

    def test_screw(self):
        report = parabolic_obstruction_demo("screw")
        assert report.sup_estimate >= math.pi / 2 - 1e-3

    def test_horizontal(self):
        report = parabolic_obstruction_demo("horizontal")
        assert report.sup_estimate < 1e-8

    def test_unknown_kind(self):
        with pytest.raises(GeometryError):
            parabolic_obstruction_demo("glide")


class TestSpiralAndLimitSets:
    def test_spiral_slim(self):
        report = sup_cartan(spiral_curve(0.3, n=300), refine=True)
        assert report.sup_estimate < math.pi / 2 - 0.01

    def test_r_fuchsian_limit_set_flat(self):
        rep = triangle_group(TriangleParams(3, 3, 4))
        report = sup_cartan(limit_set(rep, 8))
        assert report.sup_estimate < 1e-8


# Reference scans: the per-row and per-pair loops that the single triple
# scan replaced, kept verbatim.


def _triu_cartan_scan(lifts):
    h = cartan_lifts(lifts)
    n = lifts.shape[0]
    best = -1.0
    witness = (0, 1, 2)
    for i in range(n - 2):
        hij = h[i, i + 1 :]
        hki = h[i + 1 :, i]
        hjk = h[i + 1 :, i + 1 :]
        prod = -hij[:, None] * hjk * hki[None, :]
        ang = np.abs(np.angle(prod))
        iu = np.triu_indices(n - i - 1, k=1)
        vals = ang[iu]
        if vals.size == 0:
            continue
        m = int(np.argmax(vals))
        if vals[m] > best:
            best = float(vals[m])
            witness = (i, i + 1 + int(iu[0][m]), i + 1 + int(iu[1][m]))
    return best, witness


def _pairwise_collinearity(lifts):
    n = lifts.shape[0]
    unit = lifts / np.linalg.norm(lifts, axis=1)[:, None]
    best = math.inf
    witness = (0, 1, 2)
    for j in range(n):
        for k in range(j + 1, n):
            cr = np.cross(unit[j], unit[k])
            dets = np.abs(unit[:j] @ cr) if j else np.empty(0)
            if dets.size:
                i = int(np.argmin(dets))
                if dets[i] < best:
                    best = float(dets[i])
                    witness = (i, j, k)
    return best, witness


def _pairwise_mobius(lifts):
    jinv = Model.SIEGEL.inverse
    images, coords = [], []
    n = lifts.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            w = np.conj(jinv @ np.cross(lifts[i], lifts[j]))
            images.append(point_type(HVector(w)))
            b = cayley(HVector(w), Model.BALL).entries
            denom = b[2] if abs(b[2]) > 1e-200 else 1e-200
            coords.append(b[:2] / denom)
    rep = np.array(coords)
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.linalg.norm(rep[:, None, :] - rep[None, :, :], axis=2)
    d = np.where(np.isnan(d), math.inf, d)
    np.fill_diagonal(d, math.inf)
    return images, float(np.min(d))


SCAN_SAMPLES = {
    "bent_pi/2": lambda: bent_curve(math.pi / 2, n=120),
    "bent_3pi/4": lambda: bent_curve(3 * math.pi / 4, n=120),
    "bent_pi": lambda: bent_curve(math.pi, n=120),
    "bent_3pi/2": lambda: bent_curve(3 * math.pi / 2, n=120),
    "spiral": lambda: spiral_curve(0.3, n=150),
    "rcircle": lambda: RCircle.standard().sample(100),
    "limit_set_334": lambda: limit_set(triangle_group(TriangleParams(3, 3, 4, 4.0)), 8),
}


@pytest.mark.parametrize("name", list(SCAN_SAMPLES))
def test_triple_scan_matches_reference(name):
    """One triple scan gives what the per-row and per-pair loops gave."""
    sample = SCAN_SAMPLES[name]()
    pts = list(sample.points)
    v = np.array([p.lift.entries for p in pts])
    assert np.array_equal(lifts(pts), v)

    best, (i, j, k) = _triu_cartan_scan(v)
    report = sup_cartan(sample)
    assert report.sup_estimate == best
    assert report.argmax_triple == (pts[i], pts[j], pts[k])

    margin, (i, j, k) = _pairwise_collinearity(v)
    hc = hyperconvexity(sample)
    assert hc.witness == (pts[i], pts[j], pts[k])
    # the determinant sums products of unit-size entries, so its rounding
    # is measured in ulps of 1, not of the (small) minimum
    assert abs(hc.min_collinearity - margin) <= 4 * np.finfo(float).eps

    small = CurveSample(pts[:: max(1, len(pts) // 30)], False, "subsample")
    ref_images, ref_margin = _pairwise_mobius(lifts(small.points))
    images, mob_margin = mobius_sample(small)
    assert len(images) == len(ref_images)
    for a, b in zip(images, ref_images):
        assert np.array_equal(a.representative.entries, b.representative.entries)
        assert a.point_type is b.point_type and a.type_margin == b.type_margin
    assert mob_margin == pytest.approx(ref_margin, rel=1e-12)

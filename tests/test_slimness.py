"""Cartan-supremum estimation, hyperconvexity reports, the sweep."""

import math

import numpy as np
import pytest

from crchains.boundary import BoundaryPoint, INFINITY, PointSet, cartan_lifts, lifts, standard_rows
from crchains.circles import (
    Arc,
    CurveSample,
    RCircle,
    bent_curve,
    spiral_curve,
)
from crchains.groups import TriangleParams, triangle_group, limit_set
from crchains.hermitian import GeometryError, _tame
from crchains.slimness import (
    MAX_SCAN_POINTS,
    _abs_cartan_block,
    _screen,
    hyperconvexity,
    parabolic_obstruction_demo,
    rows_to_csv,
    sup_cartan,
    sweep,
)


def chain_sample(n=10):
    arc = Arc(BoundaryPoint(0, -1), BoundaryPoint(0, 1))
    pts = [arc.start] + [arc.point(t) for t in np.geomspace(0.1, 10, n)] + [arc.end]
    return CurveSample.of(pts, closed=False, source="chain")


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
        report = sup_cartan(CurveSample.of(pts, False, "mixed"))
        assert report.sup_estimate == pytest.approx(math.pi / 2, abs=1e-9)

    def test_refinement_never_decreases(self):
        sample = bent_curve(5 * math.pi / 4, n=80)
        coarse = sup_cartan(sample, refine=False)
        fine = sup_cartan(sample, refine=True)
        assert fine.sup_estimate >= coarse.sup_estimate - 1e-15
        assert fine.refined

    def test_large_sample_thinned_uniformly(self):
        sample = bent_curve(3 * math.pi / 4, n=600)
        report = sup_cartan(sample)
        assert report.n_points == MAX_SCAN_POINTS == 400
        sel = np.linspace(0, len(sample.points) - 1, MAX_SCAN_POINTS).astype(int)
        thinned = CurveSample.of([sample.points[i] for i in sel], sample.closed, sample.source)
        assert report == sup_cartan(thinned)

    def test_too_few_points(self):
        with pytest.raises(GeometryError):
            sup_cartan(CurveSample.of([BoundaryPoint(0, 0), INFINITY], False, "x"))


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
        rows = list(csv.DictReader(io.StringIO(rows_to_csv(result.row_dicts()))))
        assert len(rows) == 2
        assert {"phase", "tau_re", "tau_im", "n_points", "sup_estimate"} <= set(
            rows[0]
        )

    def test_rows_report_thinning(self):
        """The limit set at phase 4.0 and length 12 outgrows MAX_SCAN_POINTS."""
        (row,) = sweep(3, 3, 4, [4.0], word_length=12).row_dicts()
        assert (row["n_points"], row["n_scanned"]) == (538, 400)

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


# Gram phase of the (3,3,4) family where Re tau = 3.2, the far end of the sweep
END_PHASE = 4.274239949800518


def _limit_set(phase, length):
    """The (3,3,4) limit set, thinned as `sup_cartan` thins it."""
    ls = limit_set(triangle_group(TriangleParams(3, 3, 4, phase)), length)
    n = len(ls.rows)
    return ls[np.linspace(0, n - 1, MAX_SCAN_POINTS).astype(int)] if n > MAX_SCAN_POINTS else ls


def _repeated(sample, index):
    """The sample with its point at index repeated: a zero Gram entry."""
    n = len(sample.rows)
    return sample[np.r_[: index + 1, index : n]]


def _dilated(sample, d):
    """The sample under the Heisenberg dilation [z, t] -> [d z, d^2 t]."""
    rows, finite = sample.rows.copy(), ~sample.at_infinity
    r = rows[finite]
    rows[finite] = standard_rows(d * r[:, 1], d * d * r[:, 0].imag)
    return PointSet(rows, sample.at_infinity)


SCAN_SAMPLES = {
    "bent_pi/2": lambda: bent_curve(math.pi / 2, n=120),
    "bent_3pi/4": lambda: bent_curve(3 * math.pi / 4, n=120),
    "bent_pi": lambda: bent_curve(math.pi, n=120),
    "bent_3pi/2": lambda: bent_curve(3 * math.pi / 2, n=120),
    "spiral": lambda: spiral_curve(0.3, n=150),
    "spiral_0.1": lambda: spiral_curve(0.1, n=150),
    "spiral_0.2": lambda: spiral_curve(0.2, n=150),
    "spiral_0.5": lambda: spiral_curve(0.5, n=150),
    "rcircle": lambda: RCircle.standard().sample(100),
    "limit_set_334": lambda: limit_set(triangle_group(TriangleParams(3, 3, 4, 4.0)), 8),
    # the phases of the benchmark's sweep at L = 10: both ends and one inside
    # each of [0.2, 0.45] and [0.55, 0.8] of the range
    "sweep_L10_pi": lambda: _limit_set(math.pi, 10),
    "sweep_L10_0.3": lambda: _limit_set(math.pi + 0.3 * (END_PHASE - math.pi), 10),
    "sweep_L10_0.7": lambda: _limit_set(math.pi + 0.7 * (END_PHASE - math.pi), 10),
    "sweep_L10_end": lambda: _limit_set(END_PHASE, 10),
    "limit_set_334_L12": lambda: _limit_set(4.0, 12),
    # the screen keeps every block: a zero Gram entry, and entries near 1e-120
    "repeated_point": lambda: _repeated(spiral_curve(0.3, n=150), 0),
    "dilated_1e-60": lambda: _dilated(spiral_curve(0.3, n=150), 1e-60),
}
FALLBACK_SAMPLES = ("repeated_point", "dilated_1e-60")


@pytest.mark.parametrize("name", list(SCAN_SAMPLES))
def test_triple_scan_matches_reference(name):
    """One triple scan gives what the per-row and per-pair loops gave."""
    sample = SCAN_SAMPLES[name]()
    pts = list(sample.points)
    v = np.array([p.lift for p in pts])
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


@pytest.mark.parametrize("name", list(SCAN_SAMPLES))
def test_screen_skips_only_blocks_below_the_supremum(name):
    """Every block the phase-sum screen skips holds no triple at the maximum."""
    sample = SCAN_SAMPLES[name]()
    n = len(sample.rows)
    report = sup_cartan(sample)
    h = cartan_lifts(_tame(sample.rows))
    kept = set(_screen(h))
    skipped = set(range(1, n - 1)) - kept
    for j in skipped:
        assert _abs_cartan_block(h, j).max() < report.sup_estimate
    assert report.n_triples_exact == sum(j * (n - 1 - j) for j in kept)
    if name in FALLBACK_SAMPLES:
        assert not skipped
        assert report.n_triples_exact == report.n_triples_evaluated
    elif name.startswith("sweep_L10"):
        # the screen pays off where the maximum is not tied along the curve
        assert report.n_triples_exact < 0.25 * report.n_triples_evaluated


def _rows(x, y):
    """Sweep row dicts whose -Re(tau) is x and whose supremum is y, with a
    failed row that the correlation must skip."""
    rows = [{"error": None, "tau": [-a, 0.0], "sup_estimate": b} for a, b in zip(x, y)]
    return rows + [{"error": "failed", "tau": [math.nan, math.nan], "sup_estimate": math.nan}]


def test_spearman_matches_scipy_reference():
    """Average ranks over ties, as scipy.stats.spearmanr ranks them."""
    from scipy.stats import spearmanr

    from crchains.slimness import spearman_neg_tau_vs_sup

    rng = np.random.default_rng(8)
    for k in range(200):
        n = int(rng.integers(3, 40))
        x = rng.integers(0, 6, n).astype(float)  # heavy ties
        y = rng.normal(size=n)
        if k % 2:
            y = np.round(y, 1)  # ties in both samples
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue  # scipy warns on constant input; the next test covers it
        ref = spearmanr(x, y)[0]
        assert abs(spearman_neg_tau_vs_sup(_rows(x, y)) - ref) <= 1e-12


def test_spearman_of_constant_input_is_nan_without_warning():
    from crchains.slimness import spearman_neg_tau_vs_sup

    # RuntimeWarnings are errors under the pytest configuration
    assert math.isnan(spearman_neg_tau_vs_sup(_rows([1.0, 1.0, 1.0], [0.1, 0.2, 0.3])))
    assert math.isnan(spearman_neg_tau_vs_sup(_rows([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])))

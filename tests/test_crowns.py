"""Axes at infinity, crowns, embeddedness certificates, crossing scans."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from crchains.boundary import BoundaryPoint, INFINITY
from crchains.circles import (
    Arc,
    ArcRelation,
    RCircle,
    arcs_intersect,
    foliation_leaf_rcircle,
    spiral_curve,
)
from crchains import crowns
from crchains.crowns import (
    Crown,
    _curve_fn_from_sample,
    axis_at_infinity,
    build_crown,
    crossing_detector,
    embeddedness,
    export_uniformization,
    read_uniformization,
)
from crchains.groups import (
    TriangleParams,
    diagonal_loxodromic,
    heisenberg_translation,
    triangle_group,
)
from crchains.hermitian import GeometryError, box, random_form_preserving

RNG = np.random.default_rng(20240820)


@pytest.fixture(scope="module")
def fuchsian_rep():
    return triangle_group(TriangleParams(3, 3, 4))


@pytest.fixture(scope="module")
def fuchsian_crown(fuchsian_rep):
    return build_crown(fuchsian_rep, "3212", 4)


class TestAxisAtInfinity:
    def test_diagonal_axis(self):
        arc = axis_at_infinity(diagonal_loxodromic(1.0, 1.0))
        assert arc.start.close_to(BoundaryPoint(0, 0), 1e-9)
        assert arc.end.at_infinity

    def test_inverse_swaps_endpoints(self):
        g = diagonal_loxodromic(1 + 0.2j, 1.0)
        a = axis_at_infinity(g)
        b = axis_at_infinity(g.inverse())
        assert a.start.close_to(b.end, 1e-8) and a.end.close_to(b.start, 1e-8)

    def test_conjugation_equivariance(self):
        g = diagonal_loxodromic(1.0, 1.0)
        h = random_form_preserving(RNG)
        conj_axis = axis_at_infinity(h @ g @ h.inverse())
        direct = axis_at_infinity(g)
        assert conj_axis.start.close_to(direct.start.apply(h), 1e-6)
        assert conj_axis.end.close_to(direct.end.apply(h), 1e-6)

    def test_parabolic_rejected(self):
        with pytest.raises(GeometryError):
            axis_at_infinity(heisenberg_translation(1.0, 0.0))


class TestBuildCrown:
    def test_length_zero_single_arc(self, fuchsian_rep):
        crown = build_crown(fuchsian_rep, "3212", 0)
        assert len(crown.arcs) == 1

    def test_arc_count_nondecreasing(self, fuchsian_rep):
        n2 = len(build_crown(fuchsian_rep, "3212", 2).arcs)
        n4 = len(build_crown(fuchsian_rep, "3212", 4).arcs)
        assert n4 >= n2

    def test_arcs_have_real_endpoints(self, fuchsian_crown):
        # the R-Fuchsian representation is real: arc endpoints lie on the
        # standard R-circle
        rc = RCircle.standard()
        for _, arc in fuchsian_crown.arcs:
            assert rc.contains(arc.start, tol=1e-7)
            assert rc.contains(arc.end, tol=1e-7)

    def test_non_loxodromic_core_rejected(self, fuchsian_rep):
        with pytest.raises(GeometryError):
            build_crown(fuchsian_rep, "1", 2)

    def test_coset_dedup(self, fuchsian_rep):
        # gamma conjugated by its own letters reproduces existing cosets,
        # so the count is far below the raw word count
        crown = build_crown(fuchsian_rep, "3212", 4)
        from crchains.groups import enumerate_words

        n_words = len(enumerate_words(fuchsian_rep, 4))
        assert len(crown.arcs) < n_words

    def test_generator_invariance(self, fuchsian_rep, fuchsian_crown):
        # applying a generator maps the coset set into the deeper crown
        deeper = build_crown(fuchsian_rep, "3212", 6)

        def pair(arc):
            return np.array(
                [arc.start.ball_coords(), arc.end.ball_coords()]
            )

        deep_pairs = [pair(arc) for _, arc in deeper.arcs]
        g = fuchsian_rep.generators[0]
        for _, arc in fuchsian_crown.arcs:
            moved = pair(Arc(arc.start.apply(g), arc.end.apply(g)))
            best = min(
                min(
                    np.linalg.norm(moved - dp),
                    np.linalg.norm(moved[::-1] - dp),
                )
                for dp in deep_pairs
            )
            assert best < 1e-6


class TestEmbeddedness:
    def test_fuchsian_crown_embedded(self, fuchsian_crown):
        report = embeddedness(fuchsian_crown)
        assert report.status == "EMBEDDED"
        assert report.min_margin > 0

    def test_margin_conjugation_stable(self, fuchsian_rep, fuchsian_crown):
        # conjugating all arcs by a moderate isometry keeps the verdict
        base = embeddedness(fuchsian_crown)
        h = random_form_preserving(np.random.default_rng(3))
        moved = tuple(
            (label, Arc(arc.start.apply(h), arc.end.apply(h)))
            for label, arc in fuchsian_crown.arcs
        )
        crown2 = Crown(
            fuchsian_rep,
            fuchsian_crown.core_word,
            moved,
            fuchsian_crown.limit_sample,
            fuchsian_crown.word_length,
        )
        report = embeddedness(crown2)
        assert report.status == "EMBEDDED"
        assert report.min_margin > 0
        assert base.status == report.status

    def test_crossing_fixture_detected(self, fuchsian_rep, fuchsian_crown):
        # adulterate the crown with an arc built to cross the core axis
        core = fuchsian_crown.arcs[0][1]
        mid = core.point(1.0)
        # the vertical chain through an interior point of the core arc meets
        # the core support exactly there; one of the bracketing arcs crosses
        chord = Arc(
            BoundaryPoint(mid.z, mid.t - 1.0), BoundaryPoint(mid.z, mid.t + 1.0)
        )
        chosen = None
        for cand in (chord, chord.opposite()):
            if arcs_intersect(cand, core).kind is ArcRelation.CROSS:
                chosen = cand
        assert chosen is not None
        bad = fuchsian_crown.arcs + (("fixture", chosen),)
        crown2 = Crown(
            fuchsian_rep,
            fuchsian_crown.core_word,
            bad,
            fuchsian_crown.limit_sample,
            fuchsian_crown.word_length,
        )
        report = embeddedness(crown2)
        assert report.status == "CROSSING"
        assert report.witness is not None

    def test_fuchsian_arcs_are_foliation_leaves(self, fuchsian_crown):
        # each crown arc lies on the support of the leaf through any of
        # its interior points
        for _, arc in fuchsian_crown.arcs[:8]:
            p = arc.point(1.0)
            if RCircle.standard().contains(p):
                continue
            leaf = foliation_leaf_rcircle(p)
            assert leaf.support.same_as(arc.support, tol=1e-7)


class TestCrossingDetector:
    def test_spiral_crossings(self):
        g = diagonal_loxodromic(1 + 0.3j, 1.0)
        hits = crossing_detector(spiral_curve(0.3), g)
        assert len(hits) >= 3
        for chord, axis, point in hits:
            res = arcs_intersect(chord, axis)
            assert res.kind is ArcRelation.CROSS

    def test_real_control_empty(self):
        g = diagonal_loxodromic(1.0, 1.0)
        hits = crossing_detector(RCircle.standard().sample(100), g)
        assert hits == []

    def test_range_monotone(self):
        g = diagonal_loxodromic(1 + 0.3j, 1.0)
        small = crossing_detector(spiral_curve(0.3), g, s_range=(0.0, 10.0))
        large = crossing_detector(spiral_curve(0.3), g, s_range=(0.0, 20.0))
        assert len(large) >= len(small)

    def test_non_loxodromic_rejected(self):
        with pytest.raises(GeometryError):
            crossing_detector(
                spiral_curve(0.3), heisenberg_translation(0, 1.0)
            )


class TestExport:
    def test_round_trip(self, fuchsian_crown):
        report = embeddedness(fuchsian_crown)
        text = export_uniformization(fuchsian_crown, report)
        data = read_uniformization(text)
        assert len(data["arcs"]) == len(fuchsian_crown.arcs)
        assert data["report"]["status"] == "EMBEDDED"
        assert len(data["generators"]) == 3

    def test_refuses_crossing(self, fuchsian_rep, fuchsian_crown):
        from crchains.crowns import EmbeddednessReport

        fake = EmbeddednessReport("CROSSING", None, ("", "fixture"), None, 2)
        with pytest.raises(GeometryError, match="not embedded"):
            export_uniformization(fuchsian_crown, fake)

    def test_deformed_crown_exports(self, fuchsian_rep):
        # a small phase deformation keeps the crown embedded and exportable
        rep2 = triangle_group(TriangleParams(3, 3, 4, math.pi + 0.02))
        c2 = build_crown(rep2, "3212", 2)
        report = embeddedness(c2)
        assert report.status == "EMBEDDED"
        data = read_uniformization(export_uniformization(c2, report))
        assert len(data["arcs"]) == len(c2.arcs)


def _per_point_crossings(sample, g, s_range=(0.0, 20.0), grid=2000, tol=1e-10):
    """crossing_detector as it was, with one box-product pair per grid point;
    returns the sign-change brackets and the hits."""
    axis = axis_at_infinity(g)
    curve = _curve_fn_from_sample(sample)
    n_axis = box(axis.start.lift, axis.end.lift)

    def f(s):
        a = curve(-s).lift
        b = curve(s).lift
        chord = box(a, b)
        if chord is None:
            return 0.0
        w = box(chord, n_axis)
        if w is None:
            return 0.0
        return w.norm2 / float(
            np.linalg.norm(chord.entries) ** 2 * np.linalg.norm(n_axis.entries) ** 2
        )

    ss = np.linspace(s_range[0] + 1e-6, s_range[1], grid)
    vals = np.array([f(float(s)) for s in ss])
    brackets, hits = [], []
    for i in range(len(ss) - 1):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] >= 0:
            continue
        brackets.append((float(ss[i]), float(ss[i + 1])))
        s_star = brentq(f, float(ss[i]), float(ss[i + 1]), xtol=1e-14)
        if abs(f(s_star)) > tol:
            continue
        chord_arc = Arc(curve(-s_star), curve(s_star))
        hit = arcs_intersect(chord_arc, axis)
        if hit.kind is not ArcRelation.CROSS:
            hit = arcs_intersect(chord_arc.opposite(), axis)
            chord_arc = chord_arc.opposite()
        if hit.kind is ArcRelation.CROSS:
            hits.append((chord_arc, axis, hit.point))
    return brackets, hits


@pytest.mark.parametrize("a", [0.2, 0.3, 0.5, None])
def test_crossing_grid_matches_per_point_reference(a, monkeypatch):
    """One kernel call over the grid brackets the roots the per-point loop
    bracketed, and the hits agree to 1e-12 chordal."""
    if a is None:  # the R-circle control: no crossings
        sample, g = RCircle.standard().sample(100), diagonal_loxodromic(1.0, 1.0)
    else:
        sample, g = spiral_curve(a), diagonal_loxodromic(complex(1.0, a), 1.0)
    ref_brackets, ref_hits = _per_point_crossings(sample, g)
    brackets = []

    def recording_brentq(f, lo, hi, **kwargs):
        brackets.append((lo, hi))
        return brentq(f, lo, hi, **kwargs)

    monkeypatch.setattr(crowns, "brentq", recording_brentq)
    hits = crossing_detector(sample, g)
    assert brackets == ref_brackets
    assert len(hits) == len(ref_hits)
    for (chord, axis, p), (ref_chord, ref_axis, ref_p) in zip(hits, ref_hits):
        assert axis == ref_axis
        for q, ref_q in ((chord.start, ref_chord.start), (chord.end, ref_chord.end), (p, ref_p)):
            assert q.chordal(ref_q) < 1e-12

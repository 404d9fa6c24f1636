"""Axes at infinity, crowns, embeddedness certificates, crossing scans."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from crchains.boundary import BoundaryPoint, PointSet, lifts
from crchains.slimness import sup_cartan
from crchains.circles import (
    Arc,
    ArcRelation,
    CurveSample,
    RCircle,
    arcs_intersect,
    bent_curve,
    foliation_leaf_rcircle,
    spiral_curve,
    spiral_point,
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
)
from crchains.groups import (
    TriangleParams,
    diagonal_loxodromic,
    heisenberg_translation,
    limit_set,
    triangle_group,
    triangle_group_at_tau,
)
from crchains.hermitian import (
    ElementClass,
    GeometryError,
    GroupElement,
    IndeterminateClassError,
    _proportional,
    box,
    herm_inner,
    random_form_preserving,
)

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


def test_axis_matches_classification_fixed_points():
    """The stacked axis rule reads the fixed points `classify` reports."""
    rng = np.random.default_rng(4)
    for _ in range(40):
        g = random_form_preserving(rng)
        try:
            cls = g.classification
        except IndeterminateClassError:
            continue
        if cls.kind is not ElementClass.LOXODROMIC:
            continue
        att, rep = (BoundaryPoint.from_lift(fp, tol=1e-4) for fp in cls.fixed_points)
        assert axis_at_infinity(g) == Arc(rep, att)


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


@pytest.mark.parametrize("tau", [2 + 2 * math.sqrt(2), 4.5, 3.5, 3.2])
def test_r3_maps_the_core_to_its_complement(tau):
    """R3 swaps the ends of the core arc of 3212 and carries the arc onto
    the other half of its C-circle, which the crown does not store."""
    rep = triangle_group_at_tau(3, 3, 4, tau)
    label, core = build_crown(rep, "3212", 6).arcs[0]
    assert label == ""
    r3 = rep.generators[2]
    assert core.start.apply(r3).chordal(core.end) < 1e-12
    assert core.end.apply(r3).chordal(core.start) < 1e-12
    p = core.point(1.0).apply(r3)
    t, res = core.opposite().param_of(p)
    assert t > 0 and res < 1e-12
    t, res = core.param_of(p)
    assert t < 0 and res < 1e-12


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

    def test_meeting_supports_go_to_the_exact_test(self, fuchsian_crown):
        # two vertical chains meet at infinity, outside both arcs: the screen
        # passes the pair on and the exact test settles it as disjoint
        a1 = Arc(BoundaryPoint(0, 0), BoundaryPoint(0, 1))
        a2 = Arc(BoundaryPoint(1, 0), BoundaryPoint(1, 1))
        crown = dataclasses.replace(fuchsian_crown, arcs=(("a1", a1), ("a2", a2)))
        report = embeddedness(crown)
        assert report.status == "EMBEDDED"
        assert (report.pairs_screened, report.pairs_exact) == (0, 1)
        assert report.min_margin == arcs_intersect(a1, a2).margin == 1.264911064067352

    def test_fuchsian_arcs_are_foliation_leaves(self, fuchsian_crown):
        # each crown arc lies on the support of the leaf through any of
        # its interior points
        for _, arc in fuchsian_crown.arcs[:8]:
            p = arc.point(1.0)
            if RCircle.standard().contains(p):
                continue
            leaf = foliation_leaf_rcircle(p)
            assert _proportional(leaf.support.polar, arc.support.polar, 1e-7)


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

    def test_follows_the_sampled_spiral(self):
        # a parameter with more than six significant digits survives the tag
        a = 0.2960712345
        curve = _curve_fn_from_sample(spiral_curve(a))
        for s in (-6.0, -0.5, 1e-6, 2.0, 5.0, 20.0):
            assert curve([s]).tobytes() == lifts([spiral_point(a, s)]).tobytes()


class TestExport:
    def test_round_trip(self, fuchsian_crown):
        report = embeddedness(fuchsian_crown)
        text = export_uniformization(fuchsian_crown, report)
        data = json.loads(text)
        assert len(data["arcs"]) == len(fuchsian_crown.arcs)
        assert data["report"]["status"] == "EMBEDDED"
        assert len(data["generators"]) == 3

    def test_refuses_crossing(self, fuchsian_rep, fuchsian_crown):
        from crchains.crowns import EmbeddednessReport

        fake = EmbeddednessReport("CROSSING", None, ("", "fixture"), None, 2)
        with pytest.raises(GeometryError, match="not embedded"):
            export_uniformization(fuchsian_crown, fake)

    def test_stacked_polylines_are_arc_samples(self):
        """The polylines, built in one stacked array, are each arc's own sample."""
        crown = build_crown(triangle_group(TriangleParams(3, 3, 4, 3.25)), "3212", 8)
        data = json.loads(export_uniformization(crown, embeddedness(crown)))
        assert len(data["arcs"]) == len(crown.arcs)
        for (label, arc), entry in zip(crown.arcs, data["arcs"]):
            assert entry["coset"] == label
            assert entry["polyline"] == arc.sample(64, (1e-2, 1e2)).json_points()

    def test_deformed_crown_exports(self, fuchsian_rep):
        # a small phase deformation keeps the crown embedded and exportable
        rep2 = triangle_group(TriangleParams(3, 3, 4, math.pi + 0.02))
        c2 = build_crown(rep2, "3212", 2)
        report = embeddedness(c2)
        assert report.status == "EMBEDDED"
        data = json.loads(export_uniformization(c2, report))
        assert len(data["arcs"]) == len(c2.arcs)


def _per_point_crossings(sample, g, s_range=(0.0, 20.0), grid=2000, tol=1e-10):
    """crossing_detector as it was, with one box-product pair per grid point;
    returns the sign-change brackets and the hits."""
    axis = axis_at_infinity(g)
    rows = _curve_fn_from_sample(sample)
    n_axis = box(axis.start.lift, axis.end.lift)

    def curve(s):
        return PointSet(rows([s]), np.zeros(1, dtype=bool)).points[0]

    def f(s):
        a = curve(-s).lift
        b = curve(s).lift
        chord = box(a, b)
        if chord is None:
            return 0.0
        w = box(chord, n_axis)
        if w is None:
            return 0.0
        return herm_inner(w, w).real / float(
            np.linalg.norm(chord) ** 2 * np.linalg.norm(n_axis) ** 2
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


@pytest.mark.parametrize(
    "moved",
    [
        lambda g: RCircle(g).sample(100),
        lambda g: CurveSample.of(
            [p.apply(g) for p in spiral_curve(0.3).points], closed=False, source="spiral:0.3"
        ),
    ],
    ids=["r-circle", "spiral"],
)
def test_crossing_detector_refuses_a_moved_sample(moved):
    """A sample moved off the curve its tag names is refused, not analysed
    as that curve."""
    sample = moved(random_form_preserving(np.random.default_rng(7)))
    with pytest.raises(GeometryError, match="off the curve"):
        crossing_detector(sample, diagonal_loxodromic(1 + 0.3j, 1.0))


def test_crossing_detector_far_range():
    """s up to 300 puts sample rows near 1e260: no rule overflows."""
    g = diagonal_loxodromic(1 + 0.3j, 1.0)
    assert len(crossing_detector(spiral_curve(0.3), g, s_range=(0.0, 300.0))) >= 3
    control = RCircle.standard().sample(100)
    assert crossing_detector(control, diagonal_loxodromic(1.0, 1.0), s_range=(0.0, 300.0)) == []


def _json_as_it_was(p):
    """BoundaryPoint.to_json as it was, read off one point's row."""
    w, z, e2 = p.row
    return {"z": [z.real, z.imag], "t": w.imag} if e2 else "inf"


@pytest.mark.parametrize("phase", [math.pi, 3.25, 4.2742])
def test_export_matches_per_point_reference(phase):
    """The crown.json text, built again point by point: each polyline from
    one chart point per t, each point through its own JSON form."""
    from test_groups import _per_point_sample

    crown = build_crown(triangle_group(TriangleParams(3, 3, 4, phase)), "3212", 4)
    report = embeddedness(crown)
    metadata = {"note": "kept as given"}
    points = list(crown.limit_sample.points)
    arcs = []
    for label, arc in crown.arcs:
        poly = _per_point_sample(arc, 64, (1e-2, 1e2))
        points += [arc.start, arc.end, *poly]
        arcs.append(
            {
                "coset": label,
                "endpoints": [arc.start.to_json(), arc.end.to_json()],
                "polyline": [_json_as_it_was(p) for p in poly],
            }
        )
    assert all(p.to_json() == _json_as_it_was(p) for p in points)
    bundle = {
        "generators": [
            [[[c.real, c.imag] for c in row] for row in g.matrix] for g in crown.rep.generators
        ],
        "gamma_word": list(crown.core_word),
        "limit_set": [p.to_json() for p in crown.limit_sample.points],
        "arcs": arcs,
        "report": {
            "status": report.status,
            "min_margin": report.min_margin,
            "arcs_tested": report.arcs_tested,
        },
        "metadata": metadata,
    }
    assert export_uniformization(crown, report, metadata) == json.dumps(bundle)


@pytest.mark.parametrize(
    "make",
    [
        lambda: bent_curve(3 * math.pi / 4, n=40),
        lambda: spiral_curve(0.3, n=50),
        lambda: RCircle.standard().sample(30),
        lambda: CurveSample.of(
            [BoundaryPoint(-0.0, -0.0), BoundaryPoint(1e5j, 0).apply(GroupElement(np.eye(3)))],
            closed=False,
            source="far",
        ),
    ],
    ids=["bent", "spiral", "r-circle", "far"],
)
def test_curve_sample_json_matches_per_point_reference(make):
    sample = make()
    ref = {
        "source": sample.source,
        "closed": sample.closed,
        "points": [_json_as_it_was(p) for p in sample.points],
    }
    assert sample.to_json() == json.dumps(ref)
    assert all(p.to_json() == _json_as_it_was(p) for p in sample.points)


def test_points_are_views_made_on_demand(monkeypatch):
    """A point set keeps rows: a crown builds the BoundaryPoints of its arc
    endpoints (and of meeting points it tests), a slimness scan those of its
    witness triple, and no others.  Counted on both ways a point is made:
    its constructor, and `_view` of a row."""
    from crchains import boundary

    made = []
    init, view = BoundaryPoint.__init__, boundary._view

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    def counting_view(*args):
        made.append(args)
        return view(*args)

    monkeypatch.setattr(BoundaryPoint, "__init__", counting_init)
    monkeypatch.setattr(boundary, "_view", counting_view)
    rep = triangle_group(TriangleParams(3, 3, 4, 3.9))
    crown = build_crown(rep, "3212", 4)
    report = embeddedness(crown)
    export_uniformization(crown, report)
    assert 0 < len(made) <= 2 * len(crown.arcs) + report.pairs_exact
    del made[:]
    ls = limit_set(rep, 8)
    sup_cartan(ls)
    assert 0 < len(made) <= 3 < len(ls.rows)

"""Triangle-group representations, word enumeration, limit sets, fixtures."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crchains import groups
from crchains.boundary import BoundaryPoint, INFINITY, lifts
from crchains.circles import Arc, ArcRelation, arcs_intersect
from crchains.crowns import (
    Crown,
    EmbeddednessReport,
    axis_at_infinity,
    build_crown,
    embeddedness,
)
from crchains.groups import (
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
    classify,
    herm_inner,
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
        c = np.array([0.0, 1.0, 0.0])
        m = complex_reflection(c)
        assert np.allclose(m.matrix @ m.matrix, np.eye(3), atol=1e-12)

    def test_preserves_form(self):
        c = np.array([1.0, 0.5 + 0.2j, 0.3])
        assert complex_reflection(c).form_residual() < 1e-10

    def test_unit_determinant(self):
        c = np.array([0.0, 1.0, 0.0])
        assert complex_reflection(c).det == pytest.approx(1.0)

    def test_fixes_polar_line_pointwise(self):
        # the mirror of (0,1,0) is the chain through the origin and infinity
        c = np.array([0.0, 1.0, 0.0])
        m = complex_reflection(c)
        for p in (BoundaryPoint(0, 0), INFINITY, BoundaryPoint(0, 2.0)):
            assert p.apply(m).close_to(p, 1e-10)

    def test_null_mirror_rejected(self):
        with pytest.raises(GeometryError):
            complex_reflection(np.array([1.0, 0.0, 0.0]))


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
                got = herm_inner(rep.mirrors[i], rep.mirrors[j])
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

    def test_word_reads_only_generator_letters(self):
        rep = triangle_group(TriangleParams(3, 3, 4))
        g = rep.generators
        product = g[2].matrix @ g[1].matrix @ g[0].matrix @ g[1].matrix
        assert rep.word("3212").matrix.tobytes() == GroupElement(product).matrix.tobytes()
        assert np.array_equal(rep.word("").matrix, np.eye(3))
        for bad in ("0", "301", "4", "12a", " 1"):
            with pytest.raises(GeometryError, match="not a word"):
                rep.word(bad)


TRIPLES = [(3, 3, 4), (4, 4, 4), (3, 4, 5), (3, 3, 5), (5, 5, 5), (2, 3, 7)]


def _cosines(p, q, r):
    return [math.cos(math.pi / n) for n in (p, q, r)]


def _signature_21(p, q, r, phis):
    """Reference: the eigvalsh signature of the Gram matrix at each phase."""
    grams = np.array([TriangleParams(p, q, r, float(phi)).gram() for phi in phis])
    vals = np.linalg.eigvalsh(np.conj(grams))
    return (vals[:, 0] < 0) & (vals[:, 1] > 0)


@pytest.mark.parametrize("pqr", TRIPLES)
def test_det_rule_matches_eigvalsh_signature(pqr):
    c1, c2, c3 = _cosines(*pqr)
    phis = np.linspace(math.pi, 2 * math.pi, 20001)[:-1]
    det = 1 - c1**2 - c2**2 - c3**2 - 2 * c1 * c2 * c3 * np.cos(phis - math.pi)
    assert np.array_equal(det < 0, _signature_21(*pqr, phis))


@pytest.mark.parametrize("pqr", TRIPLES)
def test_closed_form_trace_matches_matrices(pqr):
    c1, c2, c3 = _cosines(*pqr)
    phis = math.pi + (np.arange(50) + 0.5) * math.pi / 50  # off the singular phases
    phis = phis[_signature_21(*pqr, phis)]
    assert len(phis) >= 10
    for phi in phis.tolist():
        tau = 16 * c1**2 * c2**2 + 4 * c3**2 - 1 + 16 * c1 * c2 * c3 * math.cos(phi - math.pi)
        got = triangle_group(TriangleParams(*pqr, phi)).tau
        assert abs(got - tau) <= 1e-12 * abs(tau)


# phases the root solve over the sampled phase bracket found for (3,3,4)
BRENTQ_PHASES = {4.8: 3.283489708193965, 3.2: 4.274239949800518, 2.5: 4.534678379539577}


@pytest.mark.parametrize("target", [TAU_FUCHSIAN, 4.8, 3.7, 3.2, 3.0, 2.5, 2 + 1e-9])
def test_target_tau_in_closed_form(monkeypatch, target):
    built = []
    monkeypatch.setattr(
        groups, "triangle_group", lambda params: built.append(params) or triangle_group(params)
    )
    rep = triangle_group_at_tau(3, 3, 4, target)
    assert len(built) == 1
    assert abs(rep.tau.real - target) <= 1e-12
    if target in BRENTQ_PHASES:
        assert abs(rep.params.phase - BRENTQ_PHASES[target]) <= 1e-12


@pytest.mark.parametrize("target", [2.0, 2 - 1e-9, 1.0, -3.0, 4.83, 5.0, math.inf, math.nan])
def test_target_tau_outside_family(target):
    with pytest.raises(GeometryError, match=r"interval \(2, 4\.82842712474619\]"):
        triangle_group_at_tau(3, 3, 4, target)


def test_target_tau_whole_circle_interval():
    # for (3,10,10) every phase is admissible: the interval is closed
    c1, c2, c3 = _cosines(3, 10, 10)
    assert 1 - c1**2 - c2**2 - c3**2 + 2 * c1 * c2 * c3 < 0
    lo = 16 * c1**2 * c2**2 + 4 * c3**2 - 1 - 16 * c1 * c2 * c3
    assert triangle_group_at_tau(3, 10, 10, lo).params.phase == pytest.approx(2 * math.pi)
    with pytest.raises(GeometryError, match=r"interval \[-1, 13\.47"):
        triangle_group_at_tau(3, 10, 10, lo - 1e-9)


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
                p = BoundaryPoint.from_lift(fp, tol=1e-4)
            except GeometryError:
                continue
            c = np.concatenate([[w.real, w.imag] for w in p.ball_coords()])
            if any(np.linalg.norm(c - c0) < eps for c0 in coords):
                continue
            coords.append(c)
            pts.append(p)
    return [pts[i] for i in _angular_order(lifts(pts))]


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
        out.append(BoundaryPoint.from_lift(a + mu * b))
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
            assert _point_bits(arc.sample(n, t_range).points) == _point_bits(ref)


def test_limit_set_counters_add_up():
    """Every loxodromic word gives two fixed points: kept, duplicate or rejected."""
    ls = limit_set(triangle_group(TriangleParams(3, 3, 4, math.pi)), 10)
    assert ls.n_words == 403 and len(ls.points) == 236
    n_lox = ls.n_words - ls.n_skipped
    assert 0 < n_lox < ls.n_words
    assert 2 * n_lox == len(ls.points) + ls.n_duplicates + ls.n_rejected


def test_crown_takes_arcs_and_limit_set_from_one_enumeration(monkeypatch):
    from crchains import crowns

    rep = triangle_group(TriangleParams(3, 3, 4, 3.9))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return enumerate_words(*args, **kwargs)

    monkeypatch.setattr(crowns, "enumerate_words", counted)
    crown = build_crown(rep, "3212", 4, limit_length=6)
    assert calls == [6]
    # the arcs come from the length-4 prefix of the length-6 list
    assert list(crown.arcs) == _pairwise_crown_arcs(rep, "3212", enumerate_words(rep, 4))
    assert crown.limit_sample.points == limit_set(rep, 6).points


def _sequential_keep(batches, tol):
    """_Dedup as it was: one candidate at a time against a growing key array."""
    keys, out = [], []
    for batch in batches:
        for variants in batch:
            kept = np.array(keys, dtype=variants.dtype).reshape(-1, variants.shape[1])
            if (np.linalg.norm(kept - variants[:, None, :], axis=-1) < tol).any():
                out.append(False)
                continue
            keys.append(variants[0])
            out.append(True)
    return out


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    n_var=st.integers(1, 3),
    d=st.integers(1, 5),
    cuts=st.lists(st.integers(0, 60), max_size=3),
    complex_keys=st.booleans(),
)
def test_batched_dedup_matches_sequential(seed, n, n_var, d, cuts, complex_keys):
    """Planted near-duplicates, inside a batch and across batches, are kept
    or dropped exactly as the one-at-a-time loop keeps or drops them."""
    from crchains.groups import _Dedup

    tol = 1e-3
    rng = np.random.default_rng(seed)
    dtype = complex if complex_keys else float
    cand = np.empty((n, n_var, d), dtype)
    for k in range(n):
        if k and rng.random() < 0.6:
            # a copy of an earlier variant moved by a fraction of tol,
            # on both sides of tol and of 2 tol
            src = cand[rng.integers(k), rng.integers(n_var)]
            step = rng.normal(size=d) + (1j * rng.normal(size=d) if complex_keys else 0)
            dist = tol * rng.choice([0.0, 0.3, 0.9, 1.1, 1.9, 2.1])
            cand[k] = src + dist * step / np.linalg.norm(step)
        else:
            cand[k] = rng.normal(size=(n_var, d)) * 3 * tol
            if complex_keys:
                cand[k] += 1j * rng.normal(size=(n_var, d)) * 3 * tol
    bounds = [0, *sorted(c % (n + 1) for c in cuts), n]
    batches = [cand[a:b] for a, b in zip(bounds, bounds[1:])]
    dedup = _Dedup(tol)
    got = [bool(k) for batch in batches for k in dedup.keep(batch)]
    assert got == _sequential_keep(batches, tol)


def _edge_batch(rng, tol, d, complex_keys):
    """Candidates planted at tol (1 -+ 1e-9) from earlier ones along a random
    direction and along each coordinate, and rows that tie on a coordinate
    and differ only across it."""
    dtype = complex if complex_keys else float
    base = rng.normal(size=(6, 3, d)) * 20 * tol
    if complex_keys:
        base = base + 1j * rng.normal(size=(6, 3, d)) * 20 * tol
    rows = list(base)
    for src in base[:3]:
        for axis in range(2 * d if complex_keys else d):
            step = np.zeros(d, dtype)
            step[axis % d] = 1j if axis >= d else 1.0
            for f in (1 - 1e-9, 1 + 1e-9):
                rows.append(src + f * tol * step)
        step = rng.normal(size=d) + (1j * rng.normal(size=d) if complex_keys else 0)
        for f in (1 - 1e-9, 1 + 1e-9, 0.5, 2.0):
            rows.append(src + f * tol * step / np.linalg.norm(step))
        # equal on every coordinate but the first or the last, apart there by ~tol
        for f in (0.999, 1.001):
            for axis in (0, -1):
                tied = src.copy()
                tied[:, axis] += f * tol
                rows.append(tied)
    return np.array(rows, dtype)


@pytest.mark.parametrize("complex_keys", [False, True])
@pytest.mark.parametrize("d", [1, 4, 9])
def test_dedup_window_matches_all_pairs(d, complex_keys):
    """The sorted-window prefilter keeps what the one-at-a-time loop keeps: at
    tol (1 -+ 1e-9), for rows tied on the sort coordinate, against keys of
    an earlier batch, and for an empty batch."""
    from crchains.groups import _Dedup

    tol = 1e-3
    rng = np.random.default_rng(d)
    first, second = _edge_batch(rng, tol, d, complex_keys), _edge_batch(rng, tol, d, complex_keys)
    # the second batch also holds first-batch rows moved by tol (1 -+ 1e-9)
    moved = first[: len(second[::3])].copy()
    moved[:, :, 0] += tol * np.where(np.arange(len(moved)) % 2, 1 + 1e-9, 1 - 1e-9)[:, None]
    second[::3] = moved
    batches = [first, first[:0], second]
    dedup = _Dedup(tol)
    got = [dedup.keep(batch).tolist() for batch in batches]
    want = _sequential_keep(batches, tol)
    assert got == [want[: len(first)], [], want[len(first) :]]
    # both batches drop some candidates and keep others
    assert 0 < sum(got[0]) < len(first) and 0 < sum(got[2]) < len(second)


@pytest.mark.parametrize("length, n_words", [(8, 194), (10, 403), (12, 814), (16, 3206)])
def test_word_counts_at_phase_4(length, n_words):
    assert len(enumerate_words(triangle_group(TriangleParams(3, 3, 4, 4.0)), length)) == n_words


def _with_arcs(crown, extra):
    return Crown(
        crown.rep, crown.core_word, crown.arcs + tuple(extra), crown.limit_sample, crown.word_length
    )


def test_embeddedness_screen_matches_per_pair_reference():
    """The batched pair screen reports what the loop over all pairs reported,
    with crossing arcs and arcs on an existing support added."""
    crown = build_crown(triangle_group(TriangleParams(3, 3, 4)), "3212", 4, limit_length=4)
    core = crown.arcs[0][1]
    mid = core.point(1.0)
    chord = Arc(BoundaryPoint(mid.z, mid.t - 1.0), BoundaryPoint(mid.z, mid.t + 1.0))
    crossing = next(c for c in (chord, chord.opposite()) if arcs_intersect(c, core).kind is ArcRelation.CROSS)
    _, arc = crown.arcs[5]
    n = len(crown.arcs)
    cases = {
        "crown": ([], "EMBEDDED"),
        "crossing fixture": ([("fixture", crossing)], "CROSSING"),
        "equal arc": ([("copy", Arc(arc.start, arc.end))], "EMBEDDED"),
        "opposite arc": ([("opposite", arc.opposite())], "CROSSING"),
        "sub-arc": ([("sub", Arc(arc.point(0.5), arc.point(2.0)))], "CROSSING"),
    }
    for name, (extra, status) in cases.items():
        bad = _with_arcs(crown, extra)
        report, ref = embeddedness(bad), _per_pair_embeddedness(bad)
        assert report.status == ref.status == status, name
        assert report == ref, name  # margin, witness and witness point too
        assert report.pairs_exact > 0 or name == "crown", name
        if status == "EMBEDDED":
            total = report.pairs_screened + report.pairs_exact
            assert total == len(bad.arcs) * (len(bad.arcs) - 1) // 2, name
    assert embeddedness(crown).pairs_screened == n * (n - 1) // 2


class TestLimitSet:
    def test_points_are_null(self):
        rep = triangle_group(TriangleParams(3, 3, 4))
        ls = limit_set(rep, 6)
        for p in ls.points:
            assert abs(herm_inner(p.lift, p.lift).real) < 1e-8

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

"""Triangle-group representations, word enumeration and limit-set sampling.

A (p, q, r) reflection triangle group is realized by three complex
reflections of order two whose polar vectors have a prescribed Gram
matrix.  The free phase of the Gram triple product parametrizes the
deformation family; the trace of a fixed test word serves as the
coordinate on it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .boundary import BoundaryPoint
from .hermitian import (
    ElementClass,
    GeometryError,
    GroupElement,
    HVector,
    Model,
    PointType,
    ProjectivePoint,
    TOL_LIFT,
    cayley,
    point_type,
)

# The three central lifts of a projective matrix differ by these scalars.
_CENTRAL = np.array([1.0, cmath.exp(2j * math.pi / 3), cmath.exp(-2j * math.pi / 3)])


@dataclass(frozen=True)
class TriangleParams:
    """Orders (p, q, r) and the Gram phase of a triangle reflection group."""

    p: int
    q: int
    r: int
    phase: float = math.pi

    def __post_init__(self):
        if min(self.p, self.q, self.r) < 2:
            raise GeometryError("triangle orders must be at least 2")
        if 1 / self.p + 1 / self.q + 1 / self.r >= 1:
            raise GeometryError("triangle must be hyperbolic (1/p+1/q+1/r < 1)")

    def gram(self) -> np.ndarray:
        g = np.eye(3, dtype=complex)
        g[0, 1] = -math.cos(math.pi / self.p)
        g[1, 2] = -math.cos(math.pi / self.q)
        g[2, 0] = -math.cos(math.pi / self.r) * cmath.exp(1j * (self.phase - math.pi))
        g[1, 0] = np.conj(g[0, 1])
        g[2, 1] = np.conj(g[1, 2])
        g[0, 2] = np.conj(g[2, 0])
        return g


@dataclass(frozen=True)
class RelatorCheck:
    label: str
    order: int
    defect: float  # distance of the matrix power from a scalar matrix

    @property
    def passed(self) -> bool:
        return self.defect < 1e-8


@dataclass(frozen=True)
class Representation:
    """Generators of a triangle group with relator certification."""

    params: TriangleParams
    generators: tuple[GroupElement, GroupElement, GroupElement]
    mirrors: tuple[ProjectivePoint, ProjectivePoint, ProjectivePoint]
    relator_report: tuple[RelatorCheck, ...]
    tau: complex

    def word(self, letters: str | list[int]) -> GroupElement:
        """Product of generators by 1-based indices, e.g. "3212"."""
        idx = [int(c) - 1 for c in letters] if isinstance(letters, str) else letters
        m = np.eye(3, dtype=complex)
        for i in idx:
            m = m @ self.generators[i].matrix
        return GroupElement(m, Model.SIEGEL)


def complex_reflection(c: ProjectivePoint) -> GroupElement:
    """Order-two complex reflection fixing the line polar to c pointwise."""
    if c.point_type is not PointType.POSITIVE:
        raise GeometryError("reflection mirror must be a positive-type point")
    v = c.representative
    j = v.model.matrix
    e = v.entries
    m = -np.eye(3, dtype=complex) + (2.0 / v.norm2) * np.outer(e, np.conj(e) @ j)
    return GroupElement(m, v.model)


def _scalar_defect(m: np.ndarray) -> float:
    """Distance of m from the nearest scalar matrix, scale-normalized."""
    lam = np.trace(m) / 3.0
    return float(np.linalg.norm(m - lam * np.eye(3)) / max(np.linalg.norm(m), 1e-300))


def _realize_gram(g: np.ndarray) -> list[HVector]:
    """Siegel-model vectors c_i with <c_i, c_j> = G[i, j].

    Columns C of the ball-model solution satisfy C^dagger J_ball C =
    conj(G); eigendecomposition of conj(G) with signature-ordered
    eigenvalues gives C = |Lambda|^(1/2) V^dagger.
    """
    m = np.conj(g)
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(-vals)  # two positive first, negative last
    vals = vals[order]
    vecs = vecs[:, order]
    if not (vals[0] > 0 and vals[1] > 0 and vals[2] < 0):
        raise GeometryError(
            f"Gram matrix signature is not (2,1): eigenvalues {vals}"
        )
    c = np.diag(np.sqrt(np.abs(vals))) @ np.conj(vecs.T)
    out = []
    for k in range(3):
        ball = HVector(c[:, k], Model.BALL)
        out.append(cayley(ball, Model.SIEGEL))
    return out


def triangle_group(params: TriangleParams) -> Representation:
    """Build the reflection representation for the given Gram phase."""
    g = params.gram()
    mirrors_v = _realize_gram(g)
    mirrors = tuple(point_type(v) for v in mirrors_v)
    gens = tuple(complex_reflection(m) for m in mirrors)
    orders = (params.p, params.q, params.r)
    pairs = ((0, 1), (1, 2), (2, 0))
    report = []
    for (i, j), n in zip(pairs, orders):
        prod = gens[i].matrix @ gens[j].matrix
        report.append(
            RelatorCheck(
                f"(i{i + 1} i{j + 1})^{n}",
                n,
                _scalar_defect(np.linalg.matrix_power(prod, n)),
            )
        )
    for i in range(3):
        report.append(
            RelatorCheck(f"i{i + 1}^2", 2, _scalar_defect(gens[i].matrix @ gens[i].matrix))
        )
    w = gens[2].matrix @ gens[1].matrix @ gens[0].matrix @ gens[1].matrix
    tau = complex(np.trace(w))
    return Representation(params, gens, mirrors, tuple(report), tau)


def triangle_group_at_tau(
    p: int,
    q: int,
    r: int,
    target_tau: float,
    phase_bracket: tuple[float, float] | None = None,
    tol: float = 1e-10,
) -> Representation:
    """Representation whose test-word trace has the given real part.

    The trace is monotone in the Gram phase over the admissible bracket;
    the phase is located by 1D root finding.
    """

    def tau_re(phi):
        return triangle_group(TriangleParams(p, q, r, phi)).tau.real - target_tau

    if phase_bracket is None:
        phase_bracket = _admissible_phase_bracket(p, q, r)
    lo, hi = phase_bracket
    f_lo, f_hi = tau_re(lo), tau_re(hi)
    if f_lo * f_hi > 0:
        raise GeometryError(
            f"target trace {target_tau} not bracketed on phase interval "
            f"({lo:.4f}, {hi:.4f}): endpoint values {f_lo + target_tau:.4f}, "
            f"{f_hi + target_tau:.4f}"
        )
    phi = brentq(tau_re, lo, hi, xtol=tol)
    return triangle_group(TriangleParams(p, q, r, phi))


def _admissible_phase_bracket(
    p: int, q: int, r: int, samples: int = 720
) -> tuple[float, float]:
    """Largest phase subinterval of (0, 2 pi) with Gram signature (2,1).

    Restricted to [pi, 2 pi): the family is symmetric under phase
    reflection, so one half suffices.
    """
    phis = np.linspace(math.pi, 2 * math.pi, samples, endpoint=False)
    good = []
    for phi in phis:
        vals = np.linalg.eigvalsh(np.conj(TriangleParams(p, q, r, float(phi)).gram()))
        good.append(vals[0] < 0 < vals[1] and vals[2] > 0)
    if not any(good):
        raise GeometryError("no admissible phase found")
    # longest run of admissible phases
    best_lo = best_hi = None
    i = 0
    while i < len(good):
        if good[i]:
            j = i
            while j < len(good) and good[j]:
                j += 1
            if best_lo is None or j - i > best_hi - best_lo:
                best_lo, best_hi = i, j
            i = j
        else:
            i += 1
    eps = (phis[1] - phis[0]) * 0.5
    return float(phis[best_lo]) + eps, float(phis[best_hi - 1]) - eps


class _Dedup:
    """First-come deduplication of keys under the Euclidean norm.

    Accepted keys live in a growing (K, d) array, so one numpy expression
    answers whether any variant of a candidate lies within tol of a kept
    key.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self._keys: np.ndarray | None = None
        self._n = 0

    def add(self, variants: np.ndarray) -> bool:
        """Keep variants[0] unless some variant is within tol of a kept key."""
        variants = np.atleast_2d(variants)
        if self._keys is None:
            self._keys = np.empty((64, variants.shape[1]), variants.dtype)
        kept = self._keys[: self._n]
        if (np.linalg.norm(kept - variants[:, None, :], axis=-1) < self.tol).any():
            return False
        if self._n == len(self._keys):
            self._keys = np.concatenate([self._keys, np.empty_like(self._keys)])
        self._keys[self._n] = variants[0]
        self._n += 1
        return True


def enumerate_words(
    rep: Representation, length: int, tol_dedup: float = 1e-6
) -> list[tuple[str, GroupElement]]:
    """All reduced words of length <= length, deduplicated projectively.

    Words avoid immediate letter repetition (the generators are
    involutions); the residual relations are caught by matrix
    deduplication over the three central lifts.
    """
    if length < 1:
        raise GeometryError("word length must be at least 1")
    kept = _Dedup(tol_dedup)
    kept.add(np.eye(3, dtype=complex).ravel())
    out: list[tuple[str, GroupElement]] = [("", GroupElement(np.eye(3)))]
    frontier = [("", np.eye(3, dtype=complex))]
    for _ in range(length):
        new_frontier = []
        for word, mat in frontier:
            last = word[-1] if word else ""
            for k in "123":
                if k == last:
                    continue
                m = mat @ rep.generators[int(k) - 1].matrix
                if not kept.add(m.ravel() * _CENTRAL[:, None]):
                    continue
                g = GroupElement(m)
                out.append((word + k, g))
                new_frontier.append((word + k, m))
        frontier = new_frontier
    return out


@dataclass(frozen=True)
class LimitSetSample:
    """Deduplicated attracting fixed points of loxodromic words."""

    points: list[BoundaryPoint]
    word_length: int
    dedup_eps: float


def _angular_order(points: list[BoundaryPoint]) -> list[BoundaryPoint]:
    """Sort by angle in the dominant principal plane of the ball coordinates."""
    if len(points) < 3:
        return points
    coords = np.array([p.ball_coords().view(float) for p in points])
    centered = coords - coords.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    proj = centered @ vt[:2].T
    angles = np.arctan2(proj[:, 1], proj[:, 0])
    return [points[i] for i in np.argsort(angles)]


def limit_set(
    rep: Representation, length: int, eps: float = 1e-3
) -> LimitSetSample:
    """Attracting fixed points of all loxodromic words up to a length."""
    words = enumerate_words(rep, length)
    pts: list[BoundaryPoint] = []
    kept = _Dedup(eps)
    for _, g in words:
        try:
            cls = g.classification
        except GeometryError:
            continue
        if cls.kind is not ElementClass.LOXODROMIC:
            continue
        assert cls.fixed_points is not None
        for fp in cls.fixed_points:
            try:
                p = BoundaryPoint.from_lift(fp.representative, tol=TOL_LIFT)
            except GeometryError:
                continue
            if kept.add(p.ball_coords().view(float)):
                pts.append(p)
    if not pts:
        raise GeometryError("no loxodromic word found up to the given length")
    return LimitSetSample(_angular_order(pts), length, eps)


def heisenberg_translation(w: complex, s: float) -> GroupElement:
    """Heisenberg left translation by [w, s]; parabolic, fixes infinity."""
    m = np.array(
        [
            [1.0, -2.0 * np.conj(w), -abs(w) ** 2 + 1j * s],
            [0.0, 1.0, w],
            [0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )
    return GroupElement(m, Model.SIEGEL)


def screw_parabolic(psi: float, s: float) -> GroupElement:
    """Vertical translation composed with a rotation about the axis."""
    rot = np.diag([1.0, cmath.exp(1j * psi), 1.0])
    return GroupElement(rot @ heisenberg_translation(0.0, s).matrix, Model.SIEGEL)


def diagonal_loxodromic(alpha: complex, s: float) -> GroupElement:
    """One-parameter diagonal subgroup element with exponent alpha.

    Fixes the origin and infinity; loxodromic when Re(alpha) * s != 0.
    """
    a = complex(alpha)
    d = np.array(
        [
            cmath.exp(s * a),
            cmath.exp(s * (np.conj(a) - a)),
            cmath.exp(-s * np.conj(a)),
        ]
    )
    return GroupElement(np.diag(d), Model.SIEGEL)

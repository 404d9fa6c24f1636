"""Triangle-group representations, word enumeration and limit-set sampling.

A (p, q, r) reflection triangle group is realized by three complex
reflections of order two whose polar vectors have a prescribed Gram
matrix.  The free phase of the Gram triple product parametrizes the
deformation family; the trace of a fixed test word serves as the
coordinate on it.

With c_i = cos(pi / n_i) for (n_1, n_2, n_3) = (p, q, r) and psi = phase -
pi, the Gram matrix has det G = 1 - sum c_i^2 - 2 c_1 c_2 c_3 cos psi, and
its signature is (2,1) exactly when det G < 0 (the diagonal is 1 and the
leading 2x2 minor positive).  The test word 3212 = R3 (R2 R1 R2) is a
product of two complex reflections, tr(R_a R_b) = 4 |<a,b>|^2 / (<a,a>
<b,b>) - 1, so its trace is real:

    tau = 16 c_1^2 c_2^2 + 4 c_3^2 - 1 + 16 c_1 c_2 c_3 cos psi.

Over the admissible phases tau fills (2, 2 + 2 sqrt 2] for (3,3,4); the
top end is the R-Fuchsian group at phase pi.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass

import numpy as np

from .boundary import PointSet, ball_rows, point_set
from .hermitian import (
    ElementClass,
    GeometryError,
    GroupElement,
    PointType,
    TOL_DEDUP,
    TOL_LIFT,
    TOL_LIMIT,
    _CAYLEY_INV,
    _H_SIEGEL,
    _classify_rows,
    _herm,
    _null_margin,
    _unit_det,
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
        if not math.isfinite(self.phase):
            raise GeometryError(f"Gram phase {self.phase} is not finite")
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
    mirrors: tuple[np.ndarray, np.ndarray, np.ndarray]  # polar rows
    relator_report: tuple[RelatorCheck, ...]
    tau: complex

    def word(self, letters: str) -> GroupElement:
        """Product of the generators named by the letters 1, 2, 3, e.g. "3212"."""
        m = np.eye(3, dtype=complex)
        for c in letters:
            i = "123".find(c)
            if i < 0:
                raise GeometryError(f"{letters!r} is not a word in the letters 1, 2, 3")
            m = m @ self.generators[i].matrix
        return GroupElement(m)


def complex_reflection(c: np.ndarray) -> GroupElement:
    """Order-two complex reflection fixing the line polar to the row c pointwise."""
    if point_type(c) is not PointType.POSITIVE:
        raise GeometryError("reflection mirror must be a positive-type point")
    scale = 2.0 / _herm(c, c).real
    m = -np.eye(3, dtype=complex) + scale * np.outer(c, np.conj(c) @ _H_SIEGEL)
    return GroupElement(m)


def _scalar_defect(m: np.ndarray) -> float:
    """Distance of m from the nearest scalar matrix, scale-normalized."""
    lam = np.trace(m) / 3.0
    return float(np.linalg.norm(m - lam * np.eye(3)) / max(np.linalg.norm(m), 1e-300))


def _realize_gram(g: np.ndarray) -> list[np.ndarray]:
    """Siegel-model rows c_i with <c_i, c_j> = G[i, j].

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
    return [_CAYLEY_INV @ c[:, k] for k in range(3)]


def triangle_group(params: TriangleParams) -> Representation:
    """Build the reflection representation for the given Gram phase."""
    g = params.gram()
    mirrors = tuple(_realize_gram(g))
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


def triangle_group_at_tau(p: int, q: int, r: int, target_tau: float) -> Representation:
    """Representation whose test-word trace has the given real part.

    Solves the closed-form trace of the module docstring for x = cos psi
    and builds the group once, at phase pi + arccos x.
    """
    TriangleParams(p, q, r)  # rejects non-hyperbolic orders
    c1, c2, c3 = (math.cos(math.pi / n) for n in (p, q, r))
    det_0, c123 = 1 - c1**2 - c2**2 - c3**2, c1 * c2 * c3
    tau_0 = 16 * c1**2 * c2**2 + 4 * c3**2 - 1
    x = (target_tau - tau_0) / (16 * c123)
    # det G = det_0 - 2 c123 x; a det within rounding of 0 is the singular end
    if not (-1 <= x <= 1 and det_0 - 2 * c123 * x < -1e-14):
        x_0 = det_0 / (2 * c123)
        raise GeometryError(
            f"target trace {target_tau} outside the admissible interval "
            f"{'[' if x_0 < -1 else '('}{tau_0 + 16 * c123 * max(x_0, -1):.15g}, "
            f"{tau_0 + 16 * c123:.15g}] of the ({p},{q},{r}) family"
        )
    return triangle_group(TriangleParams(p, q, r, math.pi + math.acos(x)))


class _Dedup:
    """First-come deduplication of keys under the Euclidean norm.

    `keep` takes a whole batch of candidates at once.  No coordinate
    difference exceeds the distance, so the keys within tol of a point lie
    in a window of half-width tol around it on the widest coordinate; after
    one sort on that coordinate the exact norm test runs on the pairs
    inside the windows only.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self._keys: np.ndarray | None = None

    def keep(self, variants: np.ndarray) -> np.ndarray:
        """Mask of the candidates kept, in order, from (N, V, d) variants.

        Candidate n is dropped when one of its variants lies within tol of
        a kept key: one from an earlier batch, or that of a candidate kept
        before n in this batch.  A kept candidate's key is variants[n, 0].
        """
        n_new, n_var, d = variants.shape
        if not n_new:
            return np.ones(0, dtype=bool)
        keys = np.ascontiguousarray(variants[:, 0])
        if self._keys is not None:
            keys = np.concatenate([self._keys, keys])
        n_old = len(keys) - n_new
        flat = variants.reshape(n_new * n_var, d)
        real_keys, real_flat = keys.view(float), flat.view(float)
        axis = int(np.argmax(np.ptp(real_keys, axis=0)))
        order = np.argsort(real_keys[:, axis])
        line, at = real_keys[order, axis], real_flat[:, axis]
        # the slack covers the rounding of the window ends and of the norm
        reach = self.tol + 1e-12 * (self.tol + np.abs(line).max() + np.abs(at).max())
        lo = np.searchsorted(line, at - reach, "left")
        count = np.searchsorted(line, at + reach, "right") - lo
        # every (key, variant) pair of the windows, as flat index arrays
        q = np.repeat(np.arange(len(at)), count)
        k = order[np.arange(len(q)) - np.repeat(np.cumsum(count) - count - lo, count)]
        close = np.linalg.norm(keys[k] - flat[q], axis=-1) < self.tol
        k, n = k[close] - n_old, q[close] // n_var
        kept = np.ones(n_new, dtype=bool)
        kept[n[k < 0]] = False
        # conflicts inside the batch hold only when the earlier one is kept
        later = (k >= 0) & (k < n)
        for m, c in sorted(zip(n[later].tolist(), k[later].tolist())):
            if kept[c]:
                kept[m] = False
        self._keys = np.concatenate([keys[:n_old], keys[n_old:][kept]])
        return kept


def enumerate_words(rep: Representation, length: int) -> list[tuple[str, GroupElement]]:
    """All reduced words of length <= length, deduplicated projectively.

    Words avoid immediate letter repetition (the generators are
    involutions); the residual relations are caught by matrix
    deduplication over the three central lifts.  Each BFS level is one
    batched product and one deduplication, in the order (word, letter).
    """
    if length < 1:
        raise GeometryError("word length must be at least 1")
    gens = np.array([g.matrix for g in rep.generators])
    kept = _Dedup(TOL_DEDUP)
    frontier = np.eye(3, dtype=complex)[None]
    kept.keep(frontier.reshape(1, 1, 9))
    words, last = [""], np.array([-1])
    mats = [frontier]
    for _ in range(length):
        # candidates in (frontier word, letter) order, no letter twice in a row
        parent, letter = np.nonzero(np.arange(3) != last[:, None])
        cand = frontier[parent] @ gens[letter]
        keep = kept.keep(cand.reshape(-1, 1, 9) * _CENTRAL[:, None])
        start = len(words) - len(frontier)
        words += [
            words[start + f] + "123"[k]
            for f, k in zip(parent[keep].tolist(), letter[keep].tolist())
        ]
        frontier, last = cand[keep], letter[keep]
        mats.append(frontier)
    return [
        (word, GroupElement._unit(m))
        for word, m in zip(words, _unit_det(np.concatenate(mats)))
    ]


@dataclass(frozen=True, eq=False)
class LimitSetSample(PointSet):
    """Deduplicated attracting fixed points of loxodromic words.

    Counters: words enumerated; words skipped as not loxodromic or
    indeterminate; fixed points rejected as non-null lifts; fixed points
    dropped as duplicates.  2 (n_words - n_skipped) = len(rows) +
    n_rejected + n_duplicates.
    """

    word_length: int
    dedup_eps: float
    n_words: int
    n_skipped: int
    n_rejected: int
    n_duplicates: int


def _angular_order(rows: np.ndarray) -> np.ndarray:
    """The order of Siegel rows by angle in the dominant principal plane of
    their ball coordinates, as an index array."""
    if len(rows) < 3:
        return np.arange(len(rows))
    coords = ball_rows(rows).view(float)
    centered = coords - coords.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    proj = centered @ vt[:2].T
    return np.argsort(np.arctan2(proj[:, 1], proj[:, 0]))


def _limit_sample(
    words: list[tuple[str, GroupElement]], length: int, eps: float = TOL_LIMIT
) -> LimitSetSample:
    """Limit set from the words of length <= length of an enumeration."""
    words = words[: bisect.bisect_right([len(w) for w, _ in words], length)]
    kinds, _, attracting, repelling, _ = _classify_rows(
        np.array([g.matrix for _, g in words])
    )
    lox = kinds == ElementClass.LOXODROMIC
    # attracting, then repelling fixed point of each word, in word order
    fixed = np.stack([attracting[lox], repelling[lox]], axis=1).reshape(-1, 3)
    null = ~(np.abs(_null_margin(fixed)) > TOL_LIFT)  # others rejected
    pts = point_set(fixed[null], TOL_LIFT)
    keep = _Dedup(eps).keep(ball_rows(pts.rows).view(float)[:, None, :])
    pts = pts[keep]
    if not len(pts.rows):
        raise GeometryError("no loxodromic word found up to the given length")
    pts = pts[_angular_order(pts.rows)]
    return LimitSetSample(
        pts.rows,
        pts.at_infinity,
        length,
        eps,
        n_words=len(words),
        n_skipped=int(len(words) - lox.sum()),
        n_rejected=int(len(null) - null.sum()),
        n_duplicates=int(len(keep) - keep.sum()),
    )


def limit_set(rep: Representation, length: int, eps: float = TOL_LIMIT) -> LimitSetSample:
    """Attracting fixed points of all loxodromic words up to a length."""
    return _limit_sample(enumerate_words(rep, length), length, eps)


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
    return GroupElement(m)


def screw_parabolic(psi: float, s: float) -> GroupElement:
    """Vertical translation composed with a rotation about the axis."""
    rot = np.diag([1.0, cmath.exp(1j * psi), 1.0])
    return GroupElement(rot @ heisenberg_translation(0.0, s).matrix)


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
    return GroupElement(np.diag(d))

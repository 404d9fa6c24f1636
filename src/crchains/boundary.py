"""Boundary points and point sets, and the angular invariant.

A boundary point is stored as one Siegel lift, its `row`: the standard lift
(-|z|^2 + it, z, 1) of a finite point [z, t], or (1, 0, 0) for infinity, an
ordinary point of the sphere.  Every geometric rule, `==`, `hash` and JSON
read the row; the Heisenberg coordinates z and t are read off it.  The flag
at_infinity records that a point was computed from a lift whose last entry
is below 1e-9 of its norm; only `str` and the formulas written in
Heisenberg coordinates read it.

A point set (`PointSet`: curve samples, limit sets, arc polylines) is the
(N, 3) array of those rows with the (N,) at_infinity mask.  The array rules
read the rows; `points` builds BoundaryPoint views only where a caller asks
for points, and a BoundaryPoint's own array rules are the one-row cases.
`cartan`, `chordal` and `apply` take one point or triple at a time, so they
write the same rules out on the stored rows in Python arithmetic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .hermitian import (
    GeometryError,
    GroupElement,
    _CAYLEY,
    _H_SIEGEL,
    _ball_row,
    _is_lift,
    _null_margin,
    _pair,
    _pair_size,
    _tame_row,
)


@dataclass(frozen=True, init=False, slots=True)
class BoundaryPoint:
    """A point of S^3, stored as its Siegel lift `row`; GeometryError unless finite."""

    row: tuple
    at_infinity: bool = field(default=False, compare=False)

    def __init__(self, z: complex = 0.0, t: float = 0.0):
        _set_row(self, _standard_row(z, t))
        _set_at_infinity(self, False)

    z = property(lambda self: self.row[1], doc="Heisenberg z, read off the row.")
    t = property(lambda self: self.row[0].imag, doc="Heisenberg t, read off the row.")

    @property
    def lift(self) -> np.ndarray:
        """The tamed row as a (3,) complex array."""
        return np.array(_tame_row(self.row), dtype=complex)

    @staticmethod
    def infinity() -> "BoundaryPoint":
        return INFINITY

    @staticmethod
    def from_lift(v: np.ndarray, tol: float = 1e-6) -> "BoundaryPoint":
        """The point of a null row v, which must be nonzero and finite.

        The one-row case of `point_set`.
        """
        return point_set(np.asarray(v, dtype=complex).reshape(1, 3), tol).points[0]

    def apply(self, g: GroupElement) -> "BoundaryPoint":
        """The image under an isometry: g times the tamed row, read by the
        rules of `point_set` (the null check, the at-infinity flag and the
        finite check of `standard_rows`) in Python arithmetic."""
        r0, r1, r2 = _tame_row(self.row)
        e0, e1, e2 = e = [m0 * r0 + m1 * r1 + m2 * r2 for m0, m1, m2 in g.matrix.tolist()]
        norm2 = (
            e0.real * e0.real + e0.imag * e0.imag + e1.real * e1.real
            + e1.imag * e1.imag + e2.real * e2.real + e2.imag * e2.imag
        )
        residual = abs(_pair(e, e).real / norm2)
        if residual > 1e-6:
            raise GeometryError(f"lift is not null (relative residual {residual:.2e})")
        at_inf = abs(e2) <= 1e-9 * math.sqrt(norm2)
        # e2 = 0 reads as a NaN point, which `standard_rows` maps to infinity
        z, t = (complex(e1 / e2), (e0 / e2).imag) if e2 else (math.nan, math.nan)
        try:
            row = _standard_row(z, t)
        except GeometryError:
            if not at_inf:
                raise
            return INFINITY
        return _view(*row, at_inf)

    def ball_coords(self) -> np.ndarray:
        """Affine ball-model coordinates (z1, z2) on the unit sphere of C^2."""
        return ball_rows(lifts((self,)))[0]

    def chordal(self, other: "BoundaryPoint") -> float:
        """Euclidean distance between ball-model coordinates; bounded by 2.
        The rule of `ball_rows` on the two rows, in Python arithmetic."""
        (a0, a1), (b0, b1) = _ball_row(self.row), _ball_row(other.row)
        d0, d1 = a0 - b0, a1 - b1
        return math.hypot(d0.real, d0.imag, d1.real, d1.imag)

    def close_to(self, other: "BoundaryPoint", eps: float = 1e-8) -> bool:
        return self.chordal(other) < eps

    def __str__(self) -> str:
        if self.at_infinity:
            return "inf"
        return f"[{complex(self.z):.6g}, {self.t:.6g}]"

    def to_json(self):
        """The one-row case of `PointSet.json_points`."""
        return PointSet.of((self,)).json_points()[0]

    @staticmethod
    def from_json(item) -> "BoundaryPoint":
        """Inverse of `to_json`; GeometryError on anything else."""
        if item == "inf":
            return INFINITY
        try:
            (re, im), t = item["z"], item["t"]
            return BoundaryPoint(complex(re, im), t)
        except (KeyError, TypeError, ValueError) as exc:
            raise GeometryError(f"malformed point {item!r}") from exc


def _standard_row(z: complex, t: float) -> tuple:
    """The row (-|z|^2 + it, z, 1) of [z, t]; GeometryError unless finite.
    The scalar rule of `standard_rows`."""
    try:
        # complex(re, t), not re + 1j * t, keeps a zero t's sign; 0.0 * t keeps
        # re's bits and makes the lift of a non-finite t non-finite
        row = (complex(-abs(z) ** 2 + 0.0 * t, t), z, 1.0)
        finite = cmath.isfinite(row[0])
    except OverflowError:  # |z| above about 1.3e154
        finite = False
    if not finite:
        raise GeometryError(f"[{z}, {t}] has no finite lift")
    return row


# the slots' setters: past the frozen __setattr__, faster than object.__setattr__
_set_row, _set_at_infinity = (
    BoundaryPoint.__dict__[f.name].__set__ for f in fields(BoundaryPoint)
)
INFINITY = object.__new__(BoundaryPoint)
_set_row(INFINITY, (1.0, 0.0, 0.0))
_set_at_infinity(INFINITY, True)


def _view(w: complex, z: complex, e2: complex, at_infinity: bool) -> BoundaryPoint:
    """The BoundaryPoint of a standard row (w, z, e2): INFINITY for (1, 0, 0)."""
    if not e2:  # (1, 0, 0) is the one row with e2 = 0
        return INFINITY
    p = object.__new__(BoundaryPoint)
    _set_row(p, (w, z, 1.0))  # e2 = 1 stored as BoundaryPoint(z, t) stores it
    _set_at_infinity(p, at_infinity)
    return p


@dataclass(frozen=True, eq=False)
class PointSet:
    """Boundary points as one array: `rows`, the (N, 3) standard Siegel rows,
    and the (N,) `at_infinity` mask.

    The array rules read `rows`; `points` builds a BoundaryPoint view of
    each row, and indexing keeps the rows and flags of a subset.
    """

    rows: np.ndarray
    at_infinity: np.ndarray

    @classmethod
    def of(cls, points, *args, **kwargs):
        """The set of a sequence of boundary points; args and kwargs fill the
        fields a subclass adds."""
        points = list(points)
        flags = np.array([p.at_infinity for p in points], dtype=bool)
        return cls(lifts(points), flags, *args, **kwargs)

    def __getitem__(self, index) -> "PointSet":
        return PointSet(self.rows[index], self.at_infinity[index])

    @property
    def points(self) -> list[BoundaryPoint]:
        return [
            _view(*row, flag) for row, flag in zip(self.rows.tolist(), self.at_infinity.tolist())
        ]

    def json_points(self) -> list:
        """JSON form of each point: "inf" for the row (1, 0, 0), else
        {"z": [re, im], "t": t}."""
        return [
            {"z": [z.real, z.imag], "t": w.imag} if e2 else "inf"
            for w, z, e2 in self.rows.tolist()
        ]


def lifts(points) -> np.ndarray:
    """The rows of boundary points, their Siegel lifts: (N, 3)."""
    return np.array([p.row for p in points], dtype=complex).reshape(-1, 3)


def ball_rows(rows: np.ndarray) -> np.ndarray:
    """Ball coordinates of (N, 3) Siegel rows, one `ball_coords` per row: (N, 2)."""
    b = rows @ _CAYLEY.T
    return b[:, :2] / b[:, 2:]


def standard_rows(z, t, at_infinity=False) -> np.ndarray:
    """The rows (-|z|^2 + it, z, 1) of the points [z, t]: the rule of
    `BoundaryPoint(z, t)`, with its bits, on 1-D arrays.

    A row that is not finite raises GeometryError, unless at_infinity flags
    it: then it is infinity's row (1, 0, 0).
    """
    z = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        # hypot and float_power round as Python's abs(z) ** 2 does, numpy's
        # complex abs and square do not; 0.0 * t is NaN where t is not finite
        w = -np.float_power(np.hypot(z.real, z.imag), 2.0) + 0.0 * np.asarray(t, dtype=float)
    rows = np.empty((len(z), 3), dtype=complex)
    rows.real[:, 0], rows.imag[:, 0], rows[:, 1], rows[:, 2] = w, t, z, 1.0
    finite = np.isfinite(w)  # False where |z| > ~1.3e154, or z or t is inf or NaN
    if not finite.all():
        stray = np.flatnonzero(~finite & ~np.asarray(at_infinity))
        if stray.size:
            k = stray[0]
            raise GeometryError(f"[{z[k]}, {rows[k, 0].imag}] has no finite lift")
        rows[~finite] = (1.0, 0.0, 0.0)  # e2 = 0, or within 1e-154 chordal of infinity
    return rows


def point_set(e: np.ndarray, tol: float = 1e-6) -> PointSet:
    """The points of an (N, 3) array of null Siegel lifts.

    Raises unless every row is nonzero, finite and null to within tol
    (relative residual).  The point of a row e is [e1 / e2, Im(e0 / e2)], t
    read off the imaginary part, so a small residual only perturbs, never
    breaks, the inversion.  Rows with |e2| <= 1e-9 |e| are flagged
    at_infinity.
    """
    if not _is_lift(e).all():
        raise GeometryError("a zero or non-finite row is not a lift")
    residual = np.abs(_null_margin(e))
    bad = residual > tol
    if bad.any():
        raise GeometryError(f"lift is not null (relative residual {residual[bad][0]:.2e})")
    norm2 = (np.conj(e)[:, None, :] @ e[:, :, None]).real[:, 0, 0]
    at_inf = np.abs(e[:, 2]) <= 1e-9 * np.sqrt(norm2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # e2 ~ 0
        z, t = e[:, 1] / e[:, 2], (e[:, 0] / e[:, 2]).imag
    return PointSet(standard_rows(z, t, at_inf), at_inf)


@dataclass(frozen=True)
class CartanValue:
    """Angular invariant of a boundary triple, in [-pi/2, pi/2]."""

    angle: float
    degenerate: bool = False

    def __float__(self) -> float:
        return self.angle


def cartan(p: BoundaryPoint, q: BoundaryPoint, r: BoundaryPoint) -> CartanValue:
    """Angular invariant arg(-<p,q><q,r><r,p>) of a boundary triple.

    Zero with the degenerate flag when two of the points coincide: some
    |<v_i, v_j>| is at most 1e-12 times the size of its three terms, a
    test that Heisenberg dilations leave unchanged.  The Gram rule of
    `cartan_lifts` on the three tamed rows, in Python arithmetic.
    """
    a, b, c = _tame_row(p.row), _tame_row(q.row), _tame_row(r.row)
    ab, bc, ca = _pair(a, b), _pair(b, c), _pair(c, a)
    if (
        abs(ab) <= 1e-12 * _pair_size(a, b)
        or abs(bc) <= 1e-12 * _pair_size(b, c)
        or abs(ca) <= 1e-12 * _pair_size(c, a)
    ):
        return CartanValue(0.0, degenerate=True)
    return CartanValue(cmath.phase(-ab * bc * ca))


def cartan_lifts(lifts: np.ndarray) -> np.ndarray:
    """Pairwise Hermitian Gram matrix H[i,j] = <v_i, v_j> of Siegel lifts.

    Input is an (N, 3) complex array of lifts; used by the triple scans.
    """
    return lifts @ _H_SIEGEL @ np.conj(lifts.T)  # H[i, j] = v_j^dagger J v_i


def best_triple(middles, block, sign: int = 1) -> tuple[float, tuple[int, int, int]]:
    """Extremum of a function of index triples i < j < k, with its witness.

    block(j) returns the (j, n - j - 1) array of the values at (i, j, k)
    for i < j < k; the scan reads the blocks of the middle indices j in
    `middles`, ascending.  sign 1 takes the maximum, -1 the minimum.  Ties
    go to the lexicographically first triple.
    """
    best, witness = -math.inf, (0, 1, 2)
    for j in middles:
        vals = sign * block(j)
        i, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[i, k] > best or (vals[i, k] == best and i < witness[0]):
            best, witness = float(vals[i, k]), (int(i), j, j + 1 + int(k))
    return sign * best, witness

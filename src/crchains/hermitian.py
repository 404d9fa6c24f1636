"""Hermitian linear algebra on C^3 for the Siegel form of signature (2,1).

The geometry lives in the Siegel model, with form J = antidiag(1, 2, 1):
every lift is a Siegel lift, a row of three complex numbers, and
`GroupElement` preserves J.  The ball model, with form diag(1, 1, -1), is
only a chart: the fixed matrix `_CAYLEY` carries Siegel lifts to ball
lifts for `boundary.ball_rows`.  The inner product convention is
``<a, b> = b^dagger J a`` (linear in the first slot, antilinear in the
second).  With the conjugate convention every angular invariant computed
downstream flips sign.  The algebra is written once, as an array kernel
on (..., 3) arrays with leading axes broadcast (`_herm`, `_box`,
`_null_margin`, `_proportional`); `herm_inner`, `box`, `det3` and
`point_type` take single rows, (3,) arrays, and are its one-row cases.
The one-point rules of `boundary` read a row stored as a tuple of three
numbers, with the row rules `_pair`, `_pair_size`, `_tame_row` and
`_ball_row`: the same formulas in Python arithmetic, as a numpy call on
a 3-vector costs more than the arithmetic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

# The tolerance table; the CLI writes every TOL_* name into its JSON metadata.
TOL_NULL = 1e-9  # relative null margin of a lift, |<v, v>| / |v|^2
TOL_LOX = 1e-7  # leading eigenvalue modulus above 1 for a loxodromic
TOL_LIFT = 1e-4  # null margin accepted when a computed lift is read as a point
TOL_ARC = 1e-4  # support residual of a meeting point counted on an arc
TOL_ENDPOINT = 1e-7  # chordal distance at which two arc endpoints coincide
TOL_PROPORTIONAL = 1e-9  # |a x b| / (|a| |b|) below which two lifts span one line
TOL_DEDUP = 1e-6  # distance at which two words or two crown axes are one
TOL_LIMIT = 1e-3  # ball-chart distance at which two limit points are one


class GeometryError(Exception):
    """Base class for geometric failures."""


class IndeterminateClassError(GeometryError):
    """Eigenvalue moduli too close to the classification threshold."""


_H_SIEGEL = np.array([[0.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, 0.0]])
_H_SIEGEL_INV = np.linalg.inv(_H_SIEGEL)

# The ball chart: C with C^T diag(1, 1, -1) C = H_SIEGEL, to 4.4e-16 in
# float64 since 1/sqrt(2) rounds; real symmetric, C^2 = diag(1, 2, 1).
# Maps Siegel lifts to ball-model lifts.
_SQ2 = math.sqrt(2.0)
_CAYLEY = np.array(
    [
        [1.0 / _SQ2, 0.0, 1.0 / _SQ2],
        [0.0, _SQ2, 0.0],
        [1.0 / _SQ2, 0.0, -1.0 / _SQ2],
    ]
)
_CAYLEY_INV = np.diag([1.0, 0.5, 1.0]) @ _CAYLEY


class PointType(Enum):
    NEGATIVE = -1
    NULL = 0
    POSITIVE = 1


_ROLL = np.array([1, 2, 0])


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis; bit-identical to np.cross, faster."""
    # roll(a * roll(b) - roll(a) * b); take() is cheaper than a[..., _ROLL]
    return (a * b.take(_ROLL, -1) - a.take(_ROLL, -1) * b).take(_ROLL, -1)


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis: np.linalg.norm(v, axis=-1) bit for
    bit, without its argument handling, which costs as much as the arithmetic
    on one 3-vector."""
    return np.sqrt(np.add.reduce((v.conj() * v).real, -1))


def _proportional(
    a: np.ndarray, b: np.ndarray, tol: float = TOL_PROPORTIONAL
) -> np.ndarray:
    """Rows spanning one complex line: |a x b| < tol |a| |b|."""
    return _norm(_cross3(a, b)) < tol * (_norm(a) * _norm(b))


def _herm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hermitian product <a, b> = b^dagger J a."""
    return (np.conj(b)[..., None, :] @ (_H_SIEGEL @ a[..., None]))[..., 0, 0]


def _pair(a: tuple, b: tuple) -> complex:
    """<a, b> of two rows: the one-row `_herm` in Python arithmetic."""
    return b[0].conjugate() * a[2] + 2.0 * b[1].conjugate() * a[1] + b[2].conjugate() * a[0]


def _pair_size(a: tuple, b: tuple) -> float:
    """The size of `_pair`'s three terms, |b0| |a2| + 2 |b1| |a1| + |b2| |a0|."""
    return abs(b[0]) * abs(a[2]) + 2.0 * abs(b[1]) * abs(a[1]) + abs(b[2]) * abs(a[0])


# The ball chart's entries, for `_ball_row`.
(_C00, _C01, _C02), (_C10, _C11, _C12), (_C20, _C21, _C22) = _CAYLEY.tolist()


def _ball_row(row: tuple) -> tuple[complex, complex]:
    """Ball coordinates of one Siegel row: the one-row `boundary.ball_rows`."""
    r0, r1, r2 = row
    b2 = _C20 * r0 + _C21 * r1 + _C22 * r2
    return (_C00 * r0 + _C01 * r1 + _C02 * r2) / b2, (_C10 * r0 + _C11 * r1 + _C12 * r2) / b2


def _box(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Box product conj(J^-1 (a x b)), orthogonal to a and b."""
    return np.conj(_cross3(a, b) @ _H_SIEGEL_INV.T)


def _null_margin(v: np.ndarray) -> np.ndarray:
    """Signed relative null margin <v, v> / |v|^2: negative at interior points."""
    vc, vv = np.conj(v)[..., None, :], v[..., None]
    return (vc @ (_H_SIEGEL @ vv)).real[..., 0, 0] / (vc @ vv).real[..., 0, 0]


# Rows with an entry above 2^160 are scaled down before a rule multiplies
# them: the products of three Gram entries that the Cartan rules form then
# stay finite (below 2^968) for every point with a finite lift.
_HUGE = 2.0**160


def _tame(v: np.ndarray) -> np.ndarray:
    """Rows of v with an entry above 2^160 scaled by an exact power of two to
    a largest entry in [0.5, 1); v itself, bits kept, when there is none."""
    if not np.maximum.reduce(np.absolute(v), None) > _HUGE:  # faster than .max()
        return v
    big = np.abs(v).max(axis=-1, keepdims=True)
    return v * np.ldexp(1.0, np.where(big > _HUGE, -np.frexp(big)[1], 0))


def _tame_row(row: tuple) -> tuple:
    """The one-row `_tame` on a standard row (w, z, 1) or (1, 0, 0), in Python
    arithmetic: row itself unless an entry is above 2^160.  A standard row's
    largest entry past 1 is w, as |w| >= |z|^2."""
    big = abs(row[0])
    if not big > _HUGE:
        return row
    s = math.ldexp(1.0, -math.frexp(big)[1])
    return (row[0] * s, row[1] * s, row[2] * s)


def herm_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hermitian product <a, b> = b^dagger J a of two rows."""
    return complex(_herm(a, b))


def box(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Box product of two rows: conj(J^-1 (a x b)), orthogonal to a and b.

    Returns None when the inputs are proportional (the cross product
    vanishes and there is no well-defined polar point).
    """
    # the rule of `_proportional` at tol 1e-14 and of `_box`, on one cross product
    cross = _cross3(a, b)
    if _norm(cross) < 1e-14 * (_norm(a) * _norm(b)):
        return None
    return np.conj(cross @ _H_SIEGEL_INV.T)


def det3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> complex:
    """Determinant of the rows as columns; equals <a, b box c>."""
    return complex(np.linalg.det(np.column_stack([a, b, c])))


def _is_lift(v: np.ndarray) -> np.ndarray:
    """Rows of v that are the lift of a point of CP^2: nonzero and finite."""
    return np.isfinite(v).all(-1) & v.any(-1)


def point_type(v: np.ndarray, tol_null: float = TOL_NULL) -> PointType:
    """The sign class of the row v: NULL when its relative null margin
    |<v, v>| / |v|^2 is below tol_null, else the sign of <v, v>.  Read on
    the `_tame`d row, so a huge finite row does not overflow.

    GeometryError on a zero or non-finite row, which is no point.
    """
    if not _is_lift(v):
        raise GeometryError("a zero or non-finite row is not a lift")
    margin = _null_margin(_tame(v))
    if abs(margin) < tol_null:
        return PointType.NULL
    return PointType.NEGATIVE if margin < 0 else PointType.POSITIVE


class ElementClass(Enum):
    LOXODROMIC = "loxodromic"
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"
    IDENTITY = "identity"


def _central_normalize(lam_max: complex) -> complex:
    """Cube root of unity making arg(lam_max) land in (-pi/3, pi/3]."""
    omega = cmath.exp(2j * math.pi / 3)
    for k in range(3):
        cand = lam_max * omega**k
        theta = cmath.phase(cand)
        if -math.pi / 3 < theta <= math.pi / 3 + 1e-15:
            return omega**k
    return 1.0  # pragma: no cover


@dataclass(frozen=True)
class Classification:
    kind: ElementClass
    rotation_factor: float | None = None
    fixed_points: tuple[np.ndarray, np.ndarray] | None = None  # attracting, repelling rows


@dataclass(frozen=True)
class GroupElement:
    """A unit-determinant matrix preserving the Siegel form."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex).reshape(3, 3)
        object.__setattr__(self, "matrix", _unit_det(m))

    @classmethod
    def _unit(cls, m: np.ndarray) -> "GroupElement":
        """Wrap a Siegel-model matrix that `_unit_det` has already normalized."""
        g = object.__new__(cls)
        object.__setattr__(g, "matrix", m)
        return g

    def form_residual(self) -> float:
        m, j = self.matrix, _H_SIEGEL
        return float(np.linalg.norm(m.conj().T @ j @ m - j))

    @property
    def det(self) -> complex:
        return complex(np.linalg.det(self.matrix))

    def inverse(self) -> "GroupElement":
        return GroupElement(np.linalg.inv(self.matrix))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.matrix @ other.matrix)

    @cached_property
    def classification(self) -> Classification:
        return classify(self)


def _unit_det(m: np.ndarray) -> np.ndarray:
    """Scale (..., 3, 3) matrices to determinant one by the principal cube root."""
    return m / (np.linalg.det(m) ** (1.0 / 3.0))[..., None, None]


# Row kinds of _classify_rows by code, 1 to 4 in declaration order; code 0,
# None, is the indeterminate band.
_KINDS = np.array([None, *ElementClass], dtype=object)


def _classify_rows(m: np.ndarray):
    """The classification rules on a (K, 3, 3) stack, with one eig call.

    Returns (kinds, lam, attracting, repelling, r): kinds is an object
    array of ElementClass, None inside the indeterminate band; lam is the
    leading eigenvalue and r its modulus; attracting and repelling (K, 3)
    are the eigenvectors of largest and smallest modulus.
    """
    vals, vecs = np.linalg.eig(m)
    moduli = np.abs(vals)
    rows = np.arange(len(m))
    i_max, i_min = moduli.argmax(axis=-1), moduli.argmin(axis=-1)
    r = moduli[rows, i_max]
    lox = r > 1.0 + TOL_LOX
    band = ~lox & (r > 1.0 + 0.1 * TOL_LOX)
    # All moduli are 1 up to tolerance: elliptic iff diagonalizable, which
    # well separated eigenvalues always are; otherwise test the conditioning
    # of the eigenvector basis.
    gaps = np.abs(vals[:, [0, 0, 1]] - vals[:, [1, 2, 2]]).min(axis=-1)
    diagonal = gaps > 1e-8
    unsure = ~lox & ~band & ~diagonal
    if unsure.any():
        diagonal[unsure] = np.linalg.cond(vecs[unsure]) < 1e6
    code = np.where(diagonal, 3, 2)
    code[band] = 0
    code[lox] = 1
    code[(np.abs(m - np.eye(3)) <= 1e-12).all(axis=(-2, -1))] = 4
    attracting, repelling = vecs[rows, :, i_max], vecs[rows, :, i_min]
    return _KINDS[code], vals[rows, i_max], attracting, repelling, r


def classify(g: GroupElement) -> Classification:
    """Classify a form-preserving element by its eigenvalue moduli.

    Loxodromic elements have eigenvalue moduli (r, 1, 1/r) with r > 1;
    the rotation factor is three times the normalized argument of the
    leading eigenvalue, mapped to (-pi, pi].  The one-row case of
    `_classify_rows`.
    """
    kinds, lam, attracting, repelling, r = _classify_rows(g.matrix[None])
    kind = kinds[0]
    if kind is None:
        raise IndeterminateClassError(
            f"leading modulus {r[0]:.12f} inside the tolerance band"
        )
    if kind is not ElementClass.LOXODROMIC:
        return Classification(kind)
    theta = cmath.phase(lam[0] * _central_normalize(lam[0]))
    rot = 3.0 * theta
    if rot > math.pi:
        rot -= 2.0 * math.pi
    return Classification(ElementClass.LOXODROMIC, rot, (attracting[0], repelling[0]))


def random_form_preserving(rng: np.random.Generator) -> GroupElement:
    """A pseudo-random element of the isometry group, for invariance tests.

    Built from the su(2,1) Lie algebra by the Cayley transform: X with
    X^dagger J = -J X makes (I - X)^-1 (I + X) preserve J.
    """
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = 0.5 * (a - _H_SIEGEL_INV @ a.conj().T @ _H_SIEGEL)
    x -= np.trace(x) / 3.0 * np.eye(3)
    return GroupElement(np.linalg.solve(np.eye(3) - x, np.eye(3) + x))

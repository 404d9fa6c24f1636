"""Hermitian linear algebra on C^3 for the Siegel form of signature (2,1).

The geometry lives in the Siegel model, with form J = antidiag(1, 2, 1):
every lift is a Siegel lift and `GroupElement` preserves J.  The ball
model, with form diag(1, 1, -1), is only a chart: the fixed matrix
`_CAYLEY` carries Siegel lifts to ball lifts for `boundary.ball_rows`.
The inner product convention is ``<a, b> = b^dagger J a`` (linear in the
first slot, antilinear in the second).  With the conjugate convention
every angular invariant computed downstream flips sign.  The algebra is
written once, as an array kernel on (..., 3) arrays with leading axes
broadcast (`_herm`, `_box`, `_null_margin`, `_proportional`); the scalar
API wraps it.
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
TOL_EIGVEC = 1e-6  # null margin of a loxodromic fixed-point eigenvector
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


@dataclass(frozen=True)
class HVector:
    """A nonzero Siegel lift in C^3."""

    entries: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.entries, dtype=complex).reshape(3)
        if not (v[0] or v[1] or v[2]):  # ndarray.any is slower on 3 entries
            raise GeometryError("zero vector is not a valid lift")
        object.__setattr__(self, "entries", v)

    def inner(self, other: "HVector") -> complex:
        return herm_inner(self, other)

    @property
    def norm2(self) -> float:
        """Hermitian square <v, v>; real up to roundoff."""
        return herm_inner(self, self).real

    def scaled(self, factor: complex) -> "HVector":
        return HVector(self.entries * factor)

    def proportional_to(self, other: "HVector", tol: float = TOL_PROPORTIONAL) -> bool:
        """The one-row case of `_proportional`."""
        return bool(_proportional(self.entries, other.entries, tol))


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


def herm_inner(a: HVector, b: HVector) -> complex:
    """Hermitian product <a, b> = b^dagger J a."""
    return complex(_herm(a.entries, b.entries))


def box(a: HVector, b: HVector) -> HVector | None:
    """Box product: the lift conj(J^-1 (a x b)), orthogonal to a and b.

    Returns None when the inputs are proportional (the cross product
    vanishes and there is no well-defined polar point).
    """
    # the rule of `_proportional` at tol 1e-14 and of `_box`, on one cross product
    e, f = a.entries, b.entries
    cross = _cross3(e, f)
    if _norm(cross) < 1e-14 * (_norm(e) * _norm(f)):
        return None
    return HVector(np.conj(cross @ _H_SIEGEL_INV.T))


def det3(a: HVector, b: HVector, c: HVector) -> complex:
    """Determinant of the column lifts; equals <a, b box c>."""
    return complex(np.linalg.det(np.column_stack([a.entries, b.entries, c.entries])))


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of CP^2 with its sign class under the Hermitian form."""

    representative: HVector
    point_type: PointType
    type_margin: float

    def proportional_to(
        self, other: "ProjectivePoint", tol: float = TOL_PROPORTIONAL
    ) -> bool:
        return self.representative.proportional_to(other.representative, tol)


# Row kinds of _point_kinds by code: 0 NEGATIVE, 1 NULL, 2 POSITIVE.
_POINT_KINDS = np.array([*PointType], dtype=object)


def _point_kinds(v: np.ndarray, tol_null: float):
    """PointType and type margin |<v, v>| / |v|^2 of each row of lifts: NULL
    below tol_null, else by the sign of <v, v>, a NaN margin POSITIVE."""
    margin = _null_margin(v)
    code = np.where(np.abs(margin) < tol_null, 1, np.where(margin < 0, 0, 2))
    return _POINT_KINDS[code], np.abs(margin)


def point_type(v: HVector, tol_null: float = TOL_NULL) -> ProjectivePoint:
    """Classify [v] as negative, null or positive: the one-row `_point_kinds`."""
    kind, margin = _point_kinds(v.entries, tol_null)
    return ProjectivePoint(v, kind, float(margin))


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
    fixed_points: tuple[ProjectivePoint, ProjectivePoint] | None = None


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

    def apply(self, v: HVector) -> HVector:
        return HVector(self.matrix @ v.entries)

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
    return Classification(
        ElementClass.LOXODROMIC,
        rot,
        (
            point_type(HVector(attracting[0]), TOL_EIGVEC),
            point_type(HVector(repelling[0]), TOL_EIGVEC),
        ),
    )


def random_form_preserving(rng: np.random.Generator) -> GroupElement:
    """A pseudo-random element of the isometry group, for invariance tests.

    Built from the su(2,1) Lie algebra: X with X^dagger J = -J X
    exponentiates into the unitary group of J.
    """
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = 0.5 * (a - _H_SIEGEL_INV @ a.conj().T @ _H_SIEGEL)
    x -= np.trace(x) / 3.0 * np.eye(3)
    from scipy.linalg import expm

    return GroupElement(expm(x))

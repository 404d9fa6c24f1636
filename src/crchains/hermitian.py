"""Hermitian linear algebra on C^3 for signature (2,1) forms.

Two coordinate models are supported: the ball model with form
diag(1, 1, -1) and the Siegel model with form antidiag(1, 2, 1).
The inner product convention is ``<a, b> = b^dagger J a`` (linear in the
first slot, antilinear in the second).  With the conjugate convention
every angular invariant computed downstream flips sign.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

TOL_NULL = 1e-9
TOL_LOX = 1e-7
TOL_TRACE = 1e-8


class GeometryError(Exception):
    """Base class for geometric failures."""


class ModelMismatchError(GeometryError):
    """Operands live in different Hermitian models."""


class IndeterminateClassError(GeometryError):
    """Eigenvalue moduli too close to the classification threshold."""


_H_BALL = np.diag([1.0, 1.0, -1.0])
_H_SIEGEL = np.array([[0.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, 0.0]])

# Transition matrix C with C^T H_BALL C = H_SIEGEL exactly; real symmetric,
# C^2 = diag(1, 2, 1).  Maps Siegel-model lifts to ball-model lifts.
_SQ2 = math.sqrt(2.0)
_CAYLEY = np.array(
    [
        [1.0 / _SQ2, 0.0, 1.0 / _SQ2],
        [0.0, _SQ2, 0.0],
        [1.0 / _SQ2, 0.0, -1.0 / _SQ2],
    ]
)
_CAYLEY_INV = np.diag([1.0, 0.5, 1.0]) @ _CAYLEY

_H_BALL_INV = np.linalg.inv(_H_BALL)
_H_SIEGEL_INV = np.linalg.inv(_H_SIEGEL)


class Model(Enum):
    """Choice of Hermitian form on C^3."""

    BALL = "ball"
    SIEGEL = "siegel"

    @property
    def matrix(self) -> np.ndarray:
        return _H_BALL if self is Model.BALL else _H_SIEGEL

    @property
    def inverse(self) -> np.ndarray:
        return _H_BALL_INV if self is Model.BALL else _H_SIEGEL_INV


class PointType(Enum):
    NEGATIVE = -1
    NULL = 0
    POSITIVE = 1


@dataclass(frozen=True)
class HVector:
    """A nonzero vector of C^3 tagged with its Hermitian model."""

    entries: np.ndarray
    model: Model = Model.SIEGEL

    def __post_init__(self):
        v = np.asarray(self.entries, dtype=complex).reshape(3)
        if not v.any():
            raise GeometryError("zero vector is not a valid lift")
        object.__setattr__(self, "entries", v)

    def inner(self, other: "HVector") -> complex:
        return herm_inner(self, other)

    @property
    def norm2(self) -> float:
        """Hermitian square <v, v>; real up to roundoff."""
        return herm_inner(self, self).real

    def box(self, other: "HVector") -> "HVector":
        return box(self, other)

    def scaled(self, factor: complex) -> "HVector":
        return HVector(self.entries * factor, self.model)

    def conjugated(self) -> "HVector":
        """Coordinatewise conjugate; form-compatible since J is real."""
        return HVector(np.conj(self.entries), self.model)

    def is_null(self, tol: float = TOL_NULL) -> bool:
        return abs(self.norm2) < tol * float(
            np.vdot(self.entries, self.entries).real
        )

    def proportional_to(self, other: "HVector", tol: float = 1e-9) -> bool:
        c = _cross3(self.entries, other.entries)
        scale = float(np.linalg.norm(self.entries) * np.linalg.norm(other.entries))
        return float(np.linalg.norm(c)) < tol * scale


def _check_models(*vs: HVector) -> Model:
    model = vs[0].model
    for v in vs[1:]:
        if v.model is not model:
            raise ModelMismatchError(
                f"mixed models {model.value} and {v.model.value}"
            )
    return model


_ROLL1 = np.array([1, 2, 0])
_ROLL2 = np.array([2, 0, 1])


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors; bit-identical to np.cross, faster."""
    return a[_ROLL1] * b[_ROLL2] - a[_ROLL2] * b[_ROLL1]


def herm_inner(a: HVector, b: HVector) -> complex:
    """Hermitian product <a, b> = b^dagger J a."""
    model = _check_models(a, b)
    return complex(np.conj(b.entries) @ (model.matrix @ a.entries))


def box(a: HVector, b: HVector) -> HVector | None:
    """Box product: the lift conj(J^-1 (a x b)), orthogonal to a and b.

    Returns None when the inputs are proportional (the cross product
    vanishes and there is no well-defined polar point).
    """
    model = _check_models(a, b)
    cross = _cross3(a.entries, b.entries)
    scale = float(np.linalg.norm(a.entries) * np.linalg.norm(b.entries))
    if np.linalg.norm(cross) < 1e-14 * scale:
        return None
    return HVector(np.conj(model.inverse @ cross), model)


def det3(a: HVector, b: HVector, c: HVector) -> complex:
    """Determinant of the column lifts; equals <a, b box c>."""
    _check_models(a, b, c)
    return complex(np.linalg.det(np.column_stack([a.entries, b.entries, c.entries])))


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of CP^2 with its sign class under the Hermitian form."""

    representative: HVector
    point_type: PointType
    type_margin: float

    @property
    def model(self) -> Model:
        return self.representative.model

    def proportional_to(self, other: "ProjectivePoint", tol: float = 1e-9) -> bool:
        return self.representative.proportional_to(other.representative, tol)


def point_type(v: HVector, tol_null: float = TOL_NULL) -> ProjectivePoint:
    """Classify [v] as negative, null or positive for the ambient form."""
    norm2 = v.norm2
    euc = float(np.vdot(v.entries, v.entries).real)
    margin = abs(norm2) / euc
    if margin < tol_null:
        kind = PointType.NULL
    elif norm2 < 0:
        kind = PointType.NEGATIVE
    else:
        kind = PointType.POSITIVE
    return ProjectivePoint(v, kind, margin)


def cayley(v: HVector, to_model: Model) -> HVector:
    """Move a lift between the Siegel and ball models.

    The fixed transition matrix satisfies C^T H_ball C = H_siegel exactly,
    so inner products and point types are preserved.
    """
    if v.model is to_model:
        return v
    if to_model is Model.BALL:
        return HVector(_CAYLEY @ v.entries, Model.BALL)
    return HVector(_CAYLEY_INV @ v.entries, Model.SIEGEL)


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
    """A unit-determinant matrix preserving the Hermitian form."""

    matrix: np.ndarray
    model: Model = Model.SIEGEL

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex).reshape(3, 3)
        det = np.linalg.det(m)
        # Normalize to determinant one by the principal cube root.
        m = m / det ** (1.0 / 3.0)
        object.__setattr__(self, "matrix", m)

    def form_residual(self) -> float:
        j = self.model.matrix
        return float(
            np.linalg.norm(self.matrix.conj().T @ j @ self.matrix - j)
        )

    @property
    def det(self) -> complex:
        return complex(np.linalg.det(self.matrix))

    def inverse(self) -> "GroupElement":
        return GroupElement(np.linalg.inv(self.matrix), self.model)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if other.model is not self.model:
            raise ModelMismatchError("cannot compose across models")
        return GroupElement(self.matrix @ other.matrix, self.model)

    def apply(self, v: HVector) -> HVector:
        if v.model is not self.model:
            raise ModelMismatchError("vector model differs from element model")
        return HVector(self.matrix @ v.entries, self.model)

    @cached_property
    def classification(self) -> Classification:
        return classify(self)

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


def classify(g: GroupElement, tol_lox: float = TOL_LOX) -> Classification:
    """Classify a form-preserving element by its eigenvalue moduli.

    Loxodromic elements have eigenvalue moduli (r, 1, 1/r) with r > 1;
    the rotation factor is three times the normalized argument of the
    leading eigenvalue, mapped to (-pi, pi].
    """
    if np.allclose(g.matrix, np.eye(3), rtol=0.0, atol=1e-12):
        return Classification(ElementClass.IDENTITY)
    vals, vecs = np.linalg.eig(g.matrix)
    moduli = np.abs(vals)
    i_max = int(np.argmax(moduli))
    i_min = int(np.argmin(moduli))
    r = moduli[i_max]
    if r > 1.0 + tol_lox:
        lam = vals[i_max]
        factor = _central_normalize(lam)
        theta = cmath.phase(lam * factor)
        rot = 3.0 * theta
        if rot > math.pi:
            rot -= 2.0 * math.pi
        attracting = point_type(HVector(vecs[:, i_max], g.model), tol_null=1e-6)
        repelling = point_type(HVector(vecs[:, i_min], g.model), tol_null=1e-6)
        return Classification(
            ElementClass.LOXODROMIC, rot, (attracting, repelling)
        )
    if r > 1.0 + 0.1 * tol_lox:
        raise IndeterminateClassError(
            f"leading modulus {r:.12f} inside the tolerance band"
        )
    # All moduli are 1 up to tolerance: elliptic iff diagonalizable.
    if _is_diagonalizable(g.matrix, vals, vecs):
        return Classification(ElementClass.ELLIPTIC)
    return Classification(ElementClass.PARABOLIC)


def _is_diagonalizable(m: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> bool:
    # Well separated eigenvalues always diagonalize; otherwise test the
    # eigenvector basis conditioning.
    gaps = [abs(vals[i] - vals[j]) for i in range(3) for j in range(i + 1, 3)]
    if min(gaps) > 1e-8:
        return True
    return bool(np.linalg.cond(vecs) < 1e6)


def is_real_loxodromic(g: GroupElement, tol: float = TOL_TRACE) -> bool:
    """True when the centrally normalized unit-determinant trace is real."""
    cls = g.classification
    if cls.kind is not ElementClass.LOXODROMIC:
        raise GeometryError("element is not loxodromic")
    vals = np.linalg.eigvals(g.matrix)
    lam = vals[int(np.argmax(np.abs(vals)))]
    factor = _central_normalize(lam)
    tr = np.trace(g.matrix) * factor
    return bool(abs(tr.imag) < tol * max(1.0, abs(tr)))


def random_form_preserving(
    rng: np.random.Generator, model: Model = Model.SIEGEL
) -> GroupElement:
    """A pseudo-random element of the isometry group, for invariance tests.

    Built from the su(2,1) Lie algebra: X with X^dagger J = -J X
    exponentiates into the unitary group of J.
    """
    j = model.matrix
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    jinv = model.inverse
    x = 0.5 * (a - jinv @ a.conj().T @ j)
    x -= np.trace(x) / 3.0 * np.eye(3)
    from scipy.linalg import expm

    return GroupElement(expm(x), model)

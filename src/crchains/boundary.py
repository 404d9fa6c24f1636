"""Heisenberg coordinates on the boundary sphere and the angular invariant.

A finite boundary point [z, t] has the standard Siegel lift
(-|z|^2 + it, z, 1); the point at infinity lifts to (1, 0, 0).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hermitian import (
    GeometryError,
    GroupElement,
    HVector,
    Model,
    PointType,
    ProjectivePoint,
    _H_SIEGEL,
    _null_margin,
    box,
    cayley,
    herm_inner,
    point_type,
)


@dataclass(frozen=True)
class BoundaryPoint:
    """A point of S^3: finite Heisenberg coordinates [z, t] or infinity."""

    z: complex = 0.0
    t: float = 0.0
    at_infinity: bool = False

    @property
    def lift(self) -> HVector:
        if self.at_infinity:
            return HVector(np.array([1.0, 0.0, 0.0]), Model.SIEGEL)
        return HVector(
            np.array([-abs(self.z) ** 2 + 1j * self.t, self.z, 1.0]),
            Model.SIEGEL,
        )

    @staticmethod
    def infinity() -> "BoundaryPoint":
        return BoundaryPoint(at_infinity=True)

    @staticmethod
    def from_lift(v: HVector, tol: float = 1e-6) -> "BoundaryPoint":
        """Invert the standard lift; the input must be null.

        The relative null residual is checked against `tol`; the t-coordinate
        is read off the imaginary part so a small residual only perturbs,
        never breaks, the inversion.
        """
        e = cayley(v, Model.SIEGEL).entries
        residual = abs(_null_margin(e, _H_SIEGEL))
        if residual > tol:
            raise GeometryError(f"lift is not null (relative residual {residual:.2e})")
        if abs(e[2]) <= 1e-9 * math.sqrt(np.vdot(e, e).real):
            return BoundaryPoint.infinity()
        z = e[1] / e[2]
        t = (e[0] / e[2]).imag
        return BoundaryPoint(complex(z), float(t))

    def apply(self, g: GroupElement) -> "BoundaryPoint":
        return BoundaryPoint.from_lift(g.apply(cayley(self.lift, g.model)))

    def ball_coords(self) -> np.ndarray:
        """Affine ball-model coordinates (z1, z2) on the unit sphere of C^2."""
        v = cayley(self.lift, Model.BALL).entries
        return v[:2] / v[2]

    def chordal(self, other: "BoundaryPoint") -> float:
        """Euclidean distance between ball-model coordinates; bounded by 2."""
        return float(np.linalg.norm(self.ball_coords() - other.ball_coords()))

    def close_to(self, other: "BoundaryPoint", eps: float = 1e-8) -> bool:
        return self.chordal(other) < eps

    def __str__(self) -> str:
        if self.at_infinity:
            return "inf"
        return f"[{self.z:.6g}, {self.t:.6g}]"

    def to_json(self):
        """JSON form: "inf" or {"z": [re, im], "t": t}."""
        if self.at_infinity:
            return "inf"
        return {"z": [self.z.real, self.z.imag], "t": self.t}

    @staticmethod
    def from_json(item) -> "BoundaryPoint":
        if item == "inf":
            return INFINITY
        return BoundaryPoint(complex(item["z"][0], item["z"][1]), item["t"])


INFINITY = BoundaryPoint.infinity()


@dataclass(frozen=True)
class CartanValue:
    """Angular invariant of a boundary triple, in [-pi/2, pi/2]."""

    angle: float
    degenerate: bool = False

    def __float__(self) -> float:
        return self.angle


def cartan(p: BoundaryPoint, q: BoundaryPoint, r: BoundaryPoint) -> CartanValue:
    """Angular invariant arg(-<p,q><q,r><r,p>) of a boundary triple.

    Zero with the degenerate flag when two of the points coincide.
    """
    a, b, c = p.lift, q.lift, r.lift
    prod = -herm_inner(a, b) * herm_inner(b, c) * herm_inner(c, a)
    scale = 1.0
    for v in (a, b, c):
        scale *= float(np.vdot(v.entries, v.entries).real)
    if abs(prod) < 1e-12 * scale:
        return CartanValue(0.0, degenerate=True)
    return CartanValue(cmath.phase(prod))


def lifts(points) -> np.ndarray:
    """Standard Siegel lifts of boundary points, one row each: (N, 3)."""
    return np.array([p.lift.entries for p in points]).reshape(-1, 3)


def cartan_lifts(lifts: np.ndarray) -> np.ndarray:
    """Pairwise Hermitian Gram matrix H[i,j] = <v_i, v_j> of Siegel lifts.

    Input is an (N, 3) complex array of lifts; used by the triple scans.
    """
    j = Model.SIEGEL.matrix
    return lifts @ j @ np.conj(lifts.T)  # H[i, j] = v_j^dagger J v_i


def best_triple(n: int, block, sign: int = 1) -> tuple[float, tuple[int, int, int]]:
    """Extremum of a function of index triples i < j < k, with its witness.

    block(j) returns the (j, n - j - 1) array of the values at (i, j, k)
    for i < j < k; sign 1 takes the maximum, -1 the minimum.  Ties go to
    the lexicographically first triple.
    """
    best, witness = -math.inf, (0, 1, 2)
    for j in range(1, n - 1):
        vals = sign * block(j)
        i, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[i, k] > best or (vals[i, k] == best and i < witness[0]):
            best, witness = float(vals[i, k]), (int(i), j, j + 1 + int(k))
    return sign * best, witness


def hyp_distance(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """Hyperbolic distance between two negative-type points."""
    if p.point_type is not PointType.NEGATIVE or q.point_type is not PointType.NEGATIVE:
        raise GeometryError("distance requires negative-type points")
    a, b = p.representative, q.representative
    num = herm_inner(a, b) * herm_inner(b, a)
    den = herm_inner(a, a) * herm_inner(b, b)
    ratio = (num / den).real
    ratio = max(ratio, 1.0)
    return 2.0 * math.acosh(math.sqrt(ratio))


def project_to_line(x: ProjectivePoint, m: ProjectivePoint) -> ProjectivePoint:
    """Orthogonal projection of x onto the complex line polar to m."""
    if m.point_type is not PointType.POSITIVE:
        raise GeometryError("projection target must be a positive-type point")
    if x.proportional_to(m):
        raise GeometryError("cannot project the polar point itself")
    a, c = x.representative, m.representative
    coef = herm_inner(a, c) / herm_inner(c, c)
    res = a.entries - coef * c.entries
    return point_type(HVector(res, a.model))


def normalizer_to_standard(a: BoundaryPoint, b: BoundaryPoint) -> GroupElement:
    """Form-preserving element sending a to the origin and b to infinity."""
    if a.close_to(b):
        raise GeometryError("normalization requires two distinct points")
    va, vb = a.lift, b.lift
    m = box(va, vb)
    assert m is not None
    # Columns (b', m', a') of the inverse must frame the Siegel form.
    vb_s = vb.scaled(np.conj(1.0 / herm_inner(va, vb)))
    m_s = m.scaled(1.0 / math.sqrt(m.norm2 / 2.0))
    frame = np.column_stack([vb_s.entries, m_s.entries, va.entries])
    return GroupElement(np.linalg.inv(frame), Model.SIEGEL)


def project_star(
    e: BoundaryPoint, a: BoundaryPoint, b: BoundaryPoint
) -> ProjectivePoint:
    """Line-map projection of e onto the complex line through a and b.

    The image is the intersection of the tangent line at e with the line
    through a and b; it always lies outside the closed ball.
    """
    if e.close_to(a) or e.close_to(b):
        raise GeometryError("projection of an endpoint is undefined")
    g = normalizer_to_standard(a, b)
    w = e.apply(g)
    if w.at_infinity:
        raise GeometryError("degenerate configuration")
    z1 = -abs(w.z) ** 2 + 1j * w.t
    res = HVector(np.array([-np.conj(z1), 0.0, 1.0]), Model.SIEGEL)
    back = g.inverse().apply(res)
    return point_type(back)


def project_tangent(e: BoundaryPoint, p: BoundaryPoint) -> ProjectivePoint:
    """Projection onto the tangent line at e: p maps to p box e, e to itself."""
    if e.close_to(p):
        return point_type(e.lift)
    res = box(p.lift, e.lift)
    assert res is not None
    return point_type(res)


def paraboloid_margin(p: BoundaryPoint, alpha: float) -> float:
    """Signed slack tan(alpha)|z|^2 - |t| of the slimness paraboloid region.

    Nonnegative exactly when |A(infinity, origin, p)| <= alpha.
    """
    if not 0.0 <= alpha < math.pi / 2:
        raise GeometryError("cone angle must lie in [0, pi/2)")
    if p.at_infinity:
        raise GeometryError("margin is defined for finite points")
    if p.z == 0 and p.t == 0:
        return 0.0
    return math.tan(alpha) * abs(p.z) ** 2 - abs(p.t)

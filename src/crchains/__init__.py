"""Numerical toolkit for the boundary geometry of the complex hyperbolic plane.

Provides Hermitian linear algebra in the Siegel model (the ball model is
only a chart), the angular invariant of boundary triples, C-circle and arc
predicates, foliations of complements of (bent) curves, triangle-group
representations with limit-set sampling, slimness estimation, and crown
construction with embeddedness certification.
"""

__version__ = "0.1.0"

from .hermitian import (
    PointType,
    GroupElement,
    ElementClass,
    herm_inner,
    box,
    det3,
    point_type,
    GeometryError,
    IndeterminateClassError,
)
from .boundary import (
    BoundaryPoint,
    INFINITY,
    CartanValue,
    cartan,
)
from .circles import (
    CCircle,
    Arc,
    RCircle,
    CurveSample,
    ccircle_through,
    ccircles_intersect,
    arcs_intersect,
    foliation_leaf_rcircle,
    bent_curve,
    bent_certificate,
    bent_leaf,
    spiral_curve,
)
from .groups import (
    TriangleParams,
    Representation,
    LimitSetSample,
    complex_reflection,
    triangle_group,
    triangle_group_at_tau,
    enumerate_words,
    limit_set,
    heisenberg_translation,
    diagonal_loxodromic,
)
from .slimness import (
    SlimnessReport,
    HyperconvexityReport,
    sup_cartan,
    hyperconvexity,
    sweep,
    parabolic_obstruction_demo,
)
from .crowns import (
    Crown,
    EmbeddednessReport,
    axis_at_infinity,
    build_crown,
    embeddedness,
    crossing_detector,
    export_uniformization,
)

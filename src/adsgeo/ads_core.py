"""Ambient geometry of anti-de Sitter 3-space.

The quadric model lives in R^{2,2}: vectors x = (x1, x2, x3, x4) carry the
signature-(2,2) form

    <x, y> = x1 y1 + x2 y2 - x3 y3 - x4 y4,

and the model space is the quadric {<x, x> = -1}.  A 2x2 matrix model is
fixed by

    M(x) = [[x3 + x1, x2 + x4], [x2 - x4, x3 - x1]],    det M(x) = -<x, x>,

with isometries acting as (A, B) . M = A M B^{-1} for unimodular A, B.
Time orientation: the curve s -> (0, 0, cos s, sin s) is future-directed,
i.e. e4 is the future direction at the base point (0, 0, 1, 0).

``bilinear22``, ``future_timelike`` and ``is_future`` act on the last axis
and map over any leading ones.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .batch import components, vector
from .errors import DomainError

# default tolerances; every CLI check echoes the tolerance it used
ON_QUADRIC_TOL = 1e-10
UNIMODULAR_TOL = 1e-10

_Q_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def bilinear22(x, y):
    """Signature-(2,2) bilinear form on R^4, over the last axis.

    Summed term by term in a fixed order, so each point of a batch gets the
    bits of the same call on that point alone.
    """
    x1, x2, x3, x4 = components(x)
    y1, y2, y3, y4 = components(y)
    return x1 * y1 + x2 * y2 - x3 * y3 - x4 * y4


def on_quadric(x, tol: float = ON_QUADRIC_TOL) -> bool:
    return abs(bilinear22(x, x) + 1.0) <= tol


def future_timelike(p):
    """Future-directed timelike tangent field T(p) = (0, 0, -p4, p3).

    Velocity field of the declared future curve; timelike everywhere on the
    quadric since p3^2 + p4^2 >= 1 there.
    """
    _, _, p3, p4 = components(p)
    zero = 0.0 * p3
    return vector(zero, zero, -p4, p3)


def is_future(p, v):
    """True if the timelike tangent v at p points to the future."""
    return bilinear22(v, future_timelike(p)) < 0.0


class TangentClass(enum.Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


def classify_tangent(p, v, tol: float = ON_QUADRIC_TOL) -> TangentClass:
    """Causal class of a tangent vector v at a quadric point p.

    Sign of <v, v> with a dead band of width tol around zero.
    """
    if not on_quadric(p, tol=max(tol, ON_QUADRIC_TOL)):
        raise DomainError(f"point not on quadric: <p,p> = {bilinear22(p, p):.3e}")
    pv = bilinear22(p, v)
    if abs(pv) > max(tol, ON_QUADRIC_TOL):
        raise DomainError(f"vector not tangent: <p,v> = {pv:.3e}")
    vv = bilinear22(v, v)
    if abs(vv) <= tol:
        return TangentClass.LIGHTLIKE
    return TangentClass.SPACELIKE if vv > 0.0 else TangentClass.TIMELIKE


def geodesic_point(p, v, t: float, tol: float = ON_QUADRIC_TOL):
    """Point at parameter t on the geodesic through p with velocity v.

    v must be a unit spacelike / unit timelike / null tangent vector:

        spacelike: cosh(t) p + sinh(t) v
        timelike:  cos(t) p + sin(t) v
        lightlike: p + t v
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    cls = classify_tangent(p, v, tol=tol)
    vv = bilinear22(v, v)
    if cls is TangentClass.LIGHTLIKE:
        return p + t * v
    if abs(abs(vv) - 1.0) > max(tol, 1e-8):
        raise DomainError(f"non-unit, non-null velocity: <v,v> = {vv:.6e}")
    if cls is TangentClass.SPACELIKE:
        return np.cosh(t) * p + np.sinh(t) * v
    return np.cos(t) * p + np.sin(t) * v


def to_matrix_model(x):
    """Linear bijection R^{2,2} -> 2x2 matrices with det M(x) = -<x, x>."""
    x = np.asarray(x, dtype=float)
    return np.array([[x[2] + x[0], x[1] + x[3]],
                     [x[1] - x[3], x[2] - x[0]]])


def from_matrix_model(m):
    m = np.asarray(m, dtype=float)
    return np.array([(m[0, 0] - m[1, 1]) / 2.0,
                     (m[0, 1] + m[1, 0]) / 2.0,
                     (m[0, 0] + m[1, 1]) / 2.0,
                     (m[0, 1] - m[1, 0]) / 2.0])


@dataclass(frozen=True)
class IsometryPair:
    """Ordered pair of unimodular 2x2 matrices acting on the matrix model."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name, m in (("a", self.a), ("b", self.b)):
            m = np.asarray(m, dtype=float)
            if m.shape != (2, 2):
                raise DomainError(f"{name} must be 2x2")
            if abs(np.linalg.det(m) - 1.0) > UNIMODULAR_TOL:
                raise DomainError(f"{name} not unimodular: det = {np.linalg.det(m):.12f}")
            object.__setattr__(self, name, m)

    def compose(self, other: "IsometryPair") -> "IsometryPair":
        return IsometryPair(self.a @ other.a, self.b @ other.b)

    def inverse(self) -> "IsometryPair":
        return IsometryPair(np.linalg.inv(self.a), np.linalg.inv(self.b))


def apply_isometry(g: IsometryPair, x):
    """Action (A, B) . x pulled back through the matrix model."""
    m = to_matrix_model(x)
    return from_matrix_model(g.a @ m @ np.linalg.inv(g.b))


def fuchsian_isometry_pair(m) -> IsometryPair:
    """Diagonal embedding of one Fuchsian element.

    With the action A M B^{-1} the subgroup fixing the totally geodesic
    plane {x4 = 0} consists of the pairs (m, m^{-T}); on that plane it acts
    as the standard hyperbolic isometry Y -> m Y m^T.
    """
    m = np.asarray(m, dtype=float)
    return IsometryPair(m, np.linalg.inv(m).T)

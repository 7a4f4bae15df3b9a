"""Ambient geometry of anti-de Sitter 3-space.

The quadric model lives in R^{2,2}: vectors x = (x1, x2, x3, x4) carry the
signature-(2,2) form

    <x, y> = x1 y1 + x2 y2 - x3 y3 - x4 y4,

and the model space is the quadric {<x, x> = -1}.  Time orientation: the
curve s -> (0, 0, cos s, sin s) is future-directed, i.e. e4 is the future
direction at the base point (0, 0, 1, 0).

``bilinear22``, ``future_timelike`` and ``is_future`` act on the last axis
and map over any leading ones.
"""
from .batch import components, vector


def bilinear22(x, y):
    """Signature-(2,2) bilinear form on R^4, over the last axis.

    Summed term by term in a fixed order, so each point of a batch gets the
    bits of the same call on that point alone.
    """
    x1, x2, x3, x4 = components(x)
    y1, y2, y3, y4 = components(y)
    return x1 * y1 + x2 * y2 - x3 * y3 - x4 * y4


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

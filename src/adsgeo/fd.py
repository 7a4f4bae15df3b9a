"""Central finite differences with optional Richardson extrapolation.

All derivative-taking in the package funnels through these helpers so that
step sizes and extrapolation order are controlled in one place.  Chart
points may carry leading batch axes, ``u`` of shape ``(..., dim)``: the
stencils shift the last axis of the whole array and ``f`` is called once
per stencil point with an array of the shape it was given.

A field that accepts extra leading point axes can instead be called once on
the whole first-difference stencil: ``stencil(u, scheme)`` stacks every
point of it on a new leading axis, and ``stencil_partials`` turns the values
there into ``f(u)`` and the first partials, through the same arithmetic as
``d1`` and so with the same bits.  Stencils nest: ``stencil(stencil(u, s), s)``
holds every point of a difference of a difference, for one call of a field.

Two default step sizes are distinguished:

* ``immersion_step`` differentiates closed-form evaluators (immersions,
  scalar fields given analytically),
* ``field_step`` differentiates fields whose values are themselves produced
  by finite differences (metric fields, shape-operator fields, normals).
  It is larger so that the evaluation noise of the inner layer is not
  amplified by the outer difference quotients.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FDScheme:
    """One finite-difference layer: step plus Richardson switch."""

    step: float = 1e-4
    richardson: bool = True


@dataclass(frozen=True)
class DiffConfig:
    """Step policy for the differentiation layers.

    ``immersion_step2`` is used by second-order stencils on closed-form
    evaluators; the roundoff of a second difference grows like eps/h^2, so
    its optimum sits near 2e-3 with Richardson, well above the first-order
    default.
    """

    immersion_step: float = 5e-4
    immersion_step2: float = 2e-3
    field_step: float = 1.5e-2
    richardson: bool = True

    @property
    def inner(self) -> FDScheme:
        return FDScheme(self.immersion_step, self.richardson)

    @property
    def inner2(self) -> FDScheme:
        return FDScheme(self.immersion_step2, self.richardson)

    @property
    def field(self) -> FDScheme:
        return FDScheme(self.field_step, self.richardson)


DEFAULT_DIFF = DiffConfig()


def _shift(u, i, h):
    v = np.array(u, dtype=float)
    v.T[i] += h        # coordinate i of every point (v[..., i] is slower)
    return v


def _offsets(scheme: FDScheme):
    """Shifts of one coordinate in a first difference: +h, -h, and with
    Richardson also +h/2, -h/2."""
    h = scheme.step
    if not scheme.richardson:
        return (h, -h)
    return (h, -h, h / 2.0, -h / 2.0)


def _d1_combine(values, scheme: FDScheme):
    """First partial from the values of f at the shifts of ``_offsets``."""
    h = scheme.step
    a = (values[0] - values[1]) / (2.0 * h)
    if not scheme.richardson:
        return a
    b = (values[2] - values[3]) / (2.0 * (h / 2.0))
    return (4.0 * b - a) / 3.0


def d1(f, u, i, scheme: FDScheme):
    """First partial of ``f`` (any array-valued callable) at ``u``."""
    return _d1_combine([np.asarray(f(_shift(u, i, s))) for s in _offsets(scheme)],
                       scheme)


def stencil(u, scheme: FDScheme):
    """Every chart point of the first differences at ``u``, in one array.

    The stencil is a new leading axis: the centre ``u``, then for each
    coordinate the shifts of ``_offsets`` (9 points in 2-D with Richardson).
    """
    u = np.asarray(u, dtype=float)
    return np.stack([u] + [_shift(u, i, s) for i in range(u.shape[-1])
                           for s in _offsets(scheme)])


def stencil_partials(values, scheme: FDScheme):
    """``(f(u), d)`` from ``values = f(stencil(u, scheme))``: ``d[i]`` has the
    bits of ``d1(f, u, i, scheme)``."""
    values = np.asarray(values)
    k = len(_offsets(scheme))
    return values[0], np.stack([_d1_combine(values[1 + i * k:1 + (i + 1) * k], scheme)
                                for i in range((len(values) - 1) // k)])


def _d2_plain(f, u, i, j, h, f0=None):
    if i == j:
        if f0 is None:
            f0 = np.asarray(f(np.asarray(u, dtype=float)))
        return (np.asarray(f(_shift(u, i, h))) - 2.0 * f0
                + np.asarray(f(_shift(u, i, -h)))) / (h * h)
    upp = _shift(_shift(u, i, h), j, h)
    upm = _shift(_shift(u, i, h), j, -h)
    ump = _shift(_shift(u, i, -h), j, h)
    umm = _shift(_shift(u, i, -h), j, -h)
    return (np.asarray(f(upp)) - np.asarray(f(upm))
            - np.asarray(f(ump)) + np.asarray(f(umm))) / (4.0 * h * h)


def d2(f, u, i, j, scheme: FDScheme, f0=None):
    """Second partial (i, j) of ``f`` at ``u``; symmetric stencils."""
    h = scheme.step
    a = _d2_plain(f, u, i, j, h, f0=f0)
    if not scheme.richardson:
        return a
    b = _d2_plain(f, u, i, j, h / 2.0, f0=f0)
    return (4.0 * b - a) / 3.0


def gradient(f, u, scheme: FDScheme):
    """Stack of first partials, shape batch + (dim,) + value-shape."""
    u = np.asarray(u, dtype=float)
    return np.stack([d1(f, u, i, scheme) for i in range(u.shape[-1])],
                    axis=u.ndim - 1)


def hessian(f, u, scheme: FDScheme):
    """All second partials, shape batch + (dim, dim) + value-shape."""
    u = np.asarray(u, dtype=float)
    n = u.shape[-1]
    batch = (slice(None),) * (u.ndim - 1)
    f0 = np.asarray(f(u))
    out = np.empty(u.shape[:-1] + (n, n) + f0.shape[u.ndim - 1:], dtype=float)
    for i in range(n):
        for j in range(i, n):
            v = d2(f, u, i, j, scheme, f0=f0)
            out[batch + (i, j)] = v
            out[batch + (j, i)] = v
    return out

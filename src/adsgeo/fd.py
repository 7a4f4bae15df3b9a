"""Central finite differences with optional Richardson extrapolation.

All derivative-taking in the package funnels through these helpers so that
step sizes and extrapolation order are controlled in one place.  Chart
points may carry leading batch axes, ``u`` of shape ``(..., dim)``: the
stencils shift the last axis of the whole array.

A derivative takes three steps: stack the points of a stencil on a new
leading axis, evaluate the callable there, and difference the values.
``evaluate(f, points)`` is the one calling rule for every callable the
package differentiates: one call on the whole stack for a callable that
carries the attribute ``batched = True`` (it maps over leading axes), else
one call per ``(dim,)`` point, in stack order.  No other code reads the
mark.  The difference formulas are elementwise, so every point gets the
bits of the same call on that point alone.

First partials: ``stencil(u, scheme)`` holds the centre ``u`` and the
shifted points of the first differences, and ``stencil_partials`` turns the
values there into ``f(u)`` and the first partials ``d[i]``, on a leading
axis that every caller keeps; ``shift_partials`` does the same from the
shifted points alone, for a caller that has no use for ``f(u)``.  Stencils
nest: ``stencil(stencil(u, s), s)`` holds every point of a difference of a
difference.

Second partials come from one fused stencil: ``jet_stencil(u, scheme)``
holds every distinct point (17 in 2-D, 37 in 3-D with Richardson), where
the second differences share the centre and the axis points of the first,
and ``jet_partials`` turns the values there into ``f(u)`` with all first
and second partials; its first partials are those of ``stencil_partials``.
``jet_stencil`` starts with the points of ``stencil``, so values on a
stencil need only the corners to make a jet.  Each difference formula runs
once, elementwise over all coordinates (or pairs of coordinates); one
helper extrapolates each of them from the steps h and h/2 to (4 b - a) / 3.

Both stencils are built the same way, whatever the batch shape: one copy
of ``u`` per point, then one indexed add of every shift, read from a table
of (point, coordinate, shift) entries that is built once per (dim, scheme,
order) and cached.  Each coordinate of a point gets at most one add, so it
has the bits of a copy of ``u`` shifted in place.

Two default step sizes are distinguished:

* ``immersion_step`` differentiates closed-form evaluators (immersions,
  scalar fields given analytically),
* ``field_step`` differentiates fields whose values are themselves produced
  by finite differences (metric fields, shape-operator fields, normals).
  It is larger so that the evaluation noise of the inner layer is not
  amplified by the outer difference quotients.
"""
from __future__ import annotations

import functools
import math
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

    Second-order stencils on closed-form evaluators (``inner2``) take four
    times ``immersion_step``: the roundoff of a second difference grows like
    eps/h^2, so its optimum sits near 2e-3 with Richardson, well above the
    first-order default.  4 * 5e-4 is 2e-3 in floating point, bit for bit.
    """

    immersion_step: float = 5e-4
    field_step: float = 1.5e-2
    richardson: bool = True

    @property
    def inner(self) -> FDScheme:
        return FDScheme(self.immersion_step, self.richardson)

    @property
    def inner2(self) -> FDScheme:
        return FDScheme(4.0 * self.immersion_step, self.richardson)

    @property
    def field(self) -> FDScheme:
        return FDScheme(self.field_step, self.richardson)


DEFAULT_DIFF = DiffConfig()


def _offsets(scheme: FDScheme):
    """Shifts of one coordinate in a first difference: +h, -h, and with
    Richardson also +h/2, -h/2."""
    h = scheme.step
    if not scheme.richardson:
        return (h, -h)
    return (h, -h, h / 2.0, -h / 2.0)


def _richardson(quotient, values, scheme: FDScheme, *args):
    """The difference quotient a at step h, ``quotient(values, 0, h, *args)``;
    with Richardson, the values go on with the quotient's inputs at h/2, and
    the result is (4 b - a) / 3 with b the quotient at h/2."""
    h = scheme.step
    a = quotient(values, 0, h, *args)
    if not scheme.richardson:
        return a
    b = quotient(values, len(values) // 2, h / 2.0, *args)
    return (4.0 * b - a) / 3.0


def _d1_combine(v, i, t):
    """First difference (f(+t) - f(-t)) / 2t from v[i] = f(+t), v[i + 1] = f(-t)."""
    return (v[i] - v[i + 1]) / (2.0 * t)


def _d2_combine(v, i, t, twice):
    """Second difference (f(+t) - 2 f(u) + f(-t)) / t^2 along one coordinate,
    from v[i] = f(+t), v[i + 1] = f(-t) and ``twice = 2 f(u)``."""
    return (v[i] - twice + v[i + 1]) / (t * t)


def _mixed_combine(v, i, t):
    """Mixed second difference (f++ - f+- - f-+ + f--) / (4 t^2) from the values
    v[i:i + 4] at the corners (+t, +t), (+t, -t), (-t, +t), (-t, -t)."""
    return (v[i] - v[i + 1] - v[i + 2] + v[i + 3]) / (4.0 * t * t)


@functools.lru_cache(maxsize=32)
def _shift_table(dim: int, scheme: FDScheme, order: int):
    """The layout of the stencil of ``order`` 1 or 2 in ``dim`` coordinates,
    built once for each (dim, scheme, order): ``(shifts, rows, cols,
    steps)``.  Point r is ``shifts[r]``, a tuple of (coordinate, shift)
    pairs, and the read-only arrays hold the same pairs as entries: point
    ``rows[e]`` is shifted by ``steps[e]`` in coordinate ``cols[e]``.

    The points are the centre ``()``, then, for each coordinate, the centre
    shifted in it by each shift s of ``_offsets``: these are the points of
    ``stencil``.  The second-order stencil goes on with, for each corner
    (+t, +t), (+t, -t), (-t, +t), (-t, -t) of the step t = h, and with
    Richardson of t = h/2, that corner in each pair of coordinates i < j, in
    row-major order: the point shifted in i, then in j.
    """
    offsets = _offsets(scheme)
    k = len(offsets)
    shifts = ((),) + tuple(((i, s),) for i in range(dim) for s in offsets)
    if order == 2:
        corners = [(offsets[n], offsets[m]) for t in range(0, k, 2)
                   for n, m in ((t, t), (t, t + 1), (t + 1, t), (t + 1, t + 1))]
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        shifts += tuple(((i, a), (j, b)) for a, b in corners for i, j in pairs)
    entries = [(row, i, s) for row, shift in enumerate(shifts) for i, s in shift]
    columns = tuple(np.array(column) for column in zip(*entries))
    for column in columns:
        column.flags.writeable = False
    return (shifts,) + columns


def _points(u, scheme: FDScheme, order: int):
    """Every point of ``_shift_table(dim, scheme, order)`` at ``u``, on a new
    leading axis: one copy of ``u`` per point, then one indexed add of all
    the shifts."""
    u = np.asarray(u, dtype=float)
    shifts, rows, cols, steps = _shift_table(u.shape[-1], scheme, order)
    points = u[None].repeat(len(shifts), axis=0)
    # only the shifted coordinates get an add: adding a zero offset to the
    # others would turn -0.0 into +0.0
    points[rows, ..., cols] += steps.reshape((-1,) + (1,) * (u.ndim - 1))
    return points


def evaluate(f, points):
    """``f`` at every point of a ``(..., dim)`` stack, as a float array with
    the stack's leading axes first: one call on the whole stack when ``f``
    is marked ``batched``, otherwise one call per ``(dim,)`` point, in stack
    order, with the values stacked in the points' layout."""
    points = np.asarray(points, dtype=float)
    if getattr(f, "batched", False) or points.ndim == 1:
        return np.asarray(f(points), dtype=float)
    values = np.array([f(w) for w in points.reshape(-1, points.shape[-1])], dtype=float)
    return values.reshape(points.shape[:-1] + values.shape[1:])


def stencil(u, scheme: FDScheme):
    """Every chart point of the first differences at ``u``, in one array.

    The stencil is a new leading axis: the centre ``u``, then for each
    coordinate the shifts of ``_offsets`` (9 points in 2-D with Richardson).
    These are the first points of ``jet_stencil``.
    """
    return _points(u, scheme, 1)


def shift_partials(values, scheme: FDScheme):
    """First partials ``d[i]`` from the values of f at the shifted points
    ``stencil(u, scheme)[1:]``."""
    values = np.asarray(values)
    k = len(_offsets(scheme))
    # values[n::k] is shift n of every coordinate: one combine for all
    return _richardson(_d1_combine, [values[n::k] for n in range(k)], scheme)


def stencil_partials(values, scheme: FDScheme):
    """``(f(u), d)`` from ``values = f(stencil(u, scheme))``, with the first
    partials ``d[i]`` on a leading axis."""
    values = np.asarray(values)
    return values[0], shift_partials(values[1:], scheme)


def jet_shifts(dim: int, scheme: FDScheme):
    """The points of the second-order stencil in ``dim`` coordinates, each as
    a tuple of (coordinate, shift) pairs, after the centre ``()``.  That is
    1 + k dim^2 points for k shifts per coordinate: 17 in 2-D and 37 in 3-D
    with Richardson, each distinct."""
    return list(_shift_table(dim, scheme, 2)[0])


def jet_stencil(u, scheme: FDScheme):
    """Every point of ``jet_shifts`` at ``u``, on a new leading axis."""
    return _points(u, scheme, 2)


def jet_partials(values, scheme: FDScheme):
    """``(f(u), d, dd)`` from the values of f at ``jet_stencil(u, scheme)``.

    ``d[i]`` has the bits of ``stencil_partials`` on the first values, those
    at the points of ``stencil``, and ``dd[i, j] = dd[j, i]`` is the second
    partial (``_d2_combine`` on the diagonal, ``_mixed_combine`` off it).
    Each formula runs once, elementwise over all coordinates or all pairs.
    """
    values = np.asarray(values)
    k = len(_offsets(scheme))
    dim = math.isqrt((len(values) - 1) // k)
    f0 = values[0]
    # shifted[n]: shift n of every coordinate; corners[m]: corner m of every pair
    shifted = np.swapaxes(values[1:1 + k * dim].reshape((dim, k) + f0.shape), 0, 1)
    corners = values[1 + k * dim:].reshape((2 * k, dim * (dim - 1) // 2) + f0.shape)
    diag = _richardson(_d2_combine, shifted, scheme, 2.0 * f0)
    mixed = iter(_richardson(_mixed_combine, corners, scheme))
    dd = np.empty((dim, dim) + f0.shape)
    for i in range(dim):
        dd[i, i] = diag[i]
        for j in range(i + 1, dim):
            dd[i, j] = dd[j, i] = next(mixed)
    return f0, _richardson(_d1_combine, shifted, scheme), dd

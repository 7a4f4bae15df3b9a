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

Each derivative is one request ``(u, first, second)``: the first partials
at scheme ``first``, and optionally the second partials at scheme
``second``.  A request has one table of points and one difference pass.
``stencil(u, first, second)`` stacks its points on a leading axis that
every caller keeps: the centre ``u``, then the shifted points of the
second partials (each coordinate shifted by each shift of ``_offsets``)
and the corners of their mixed differences, then the shifted points of the
first partials, unless they are those of the second.
``partials(values, first, second)`` turns the values of f there into
``(f(u), d, dd)``.  The jet ``stencil(u, s, s)`` (17 points in 2-D, 37 in
3-D with Richardson) starts with the points of ``stencil(u, s)``, so
values on a stencil need only the corners to make a jet;
``embedding_data_at`` asks for its tangents at one scheme and its second
partials at another on 25 points.  ``shift_partials`` takes the first
partials from the shifted points alone, for a caller that never evaluates
f(u), and ``shifts`` lists the points of a request as (coordinate, shift)
pairs.  Stencils nest: ``stencil(stencil(u, s), s)`` holds every point of
a difference of a difference.

The points of a request are built the same way, whatever the batch shape:
one copy of ``u`` per point, then one indexed add of every shift, read from
a table of (point, coordinate, shift) entries that is built on first use
for each (dim, request) and cached.  Each coordinate of a point gets at
most one add, so it has the bits of a copy of ``u`` shifted in place.

The difference pass forms every numerator as ((A - B) - C) + D, over both
Richardson halves t = h and t = h/2 of every coordinate or pair of
coordinates at once: each operand is one gather of rows, listed in the
table, of the values extended by three rows +0.0, -0.0 and 2 f(u).  A
first difference f(+t) - f(-t) is ((f(+t) - f(-t)) - +0.0) + -0.0, a second
one (f(+t) - 2 f(u)) + f(-t) is ((f(+t) - 2 f(u)) - +0.0) + f(-t) and a
mixed one is ((f++ - f+-) - f-+) + f--.  Subtracting +0.0 and adding -0.0
keep every bit, signed zeros and NaN included.  One division by the
table's divisors 2 t, t t and (4 t) t makes the quotients, and with
Richardson one (4 b - a) / 3 combines the quotient a at h with b at h/2 for
all of them.

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
from typing import NamedTuple

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class FDScheme:
    """One finite-difference layer: step plus Richardson switch."""

    step: float
    richardson: bool


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

    # each scheme is built on first use and kept on the instance
    @functools.cached_property
    def inner(self) -> FDScheme:
        return FDScheme(self.immersion_step, self.richardson)

    @functools.cached_property
    def inner2(self) -> FDScheme:
        return FDScheme(4.0 * self.immersion_step, self.richardson)

    @functools.cached_property
    def field(self) -> FDScheme:
        return FDScheme(self.field_step, self.richardson)


DEFAULT_DIFF = DiffConfig()


def _halves(scheme: FDScheme):
    """The steps t of the difference quotients: h, and with Richardson h/2."""
    h = scheme.step
    return (h, h / 2.0) if scheme.richardson else (h,)


def _offsets(scheme: FDScheme):
    """Shifts of one coordinate in a first difference: +h, -h, and with
    Richardson also +h/2, -h/2."""
    return tuple(s for t in _halves(scheme) for s in (t, -t))


class _Table(NamedTuple):
    """The layout of one request in ``dim`` coordinates."""

    # point r is shifts[r], a tuple of (coordinate, shift) pairs; as
    # read-only entries, point rows[e] is shifted by steps[e] in cols[e]
    shifts: tuple
    rows: np.ndarray
    cols: np.ndarray
    steps: np.ndarray
    # numerator q at half h is ((A - B) - C) + D with A the row A[h, q] of
    # the values extended by the rows +0.0, -0.0 and 2 f(u), numbered from
    # len(shifts) on, and B, C and D likewise
    gather: tuple
    # divisors[half, q] of quotient q: the first partials, then the second
    # ones along each coordinate, then the mixed ones by pair; dd[i, j] is
    # quotient pick[i, j]
    divisors: np.ndarray
    pick: np.ndarray | None


@functools.lru_cache(maxsize=64)
def _table(dim: int, request) -> _Table:
    """The table of ``request = (centre, first, second)``, built once for
    each (dim, request): ``centre`` says whether u is the first point, and
    ``first`` and ``second`` are the schemes of the first and the second
    partials, ``second`` None when no second partials are asked for.

    The second partials take the centre, the shifted points and, for each
    corner (+t, +t), (+t, -t), (-t, +t), (-t, -t) of each half t, that
    corner in each pair of coordinates i < j, in row-major order: the point
    shifted in i, then in j.  First partials at the scheme of the second
    ones read the same shifted points.
    """
    centre, first, second = request
    if second is not None and first.richardson != second.richardson:
        # the quotients of a request share one Richardson step
        raise DomainError("the first and second partials of one request "
                          "need the same Richardson setting")
    shifts = ((),) if centre else ()
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    rows = {}
    for scheme in dict.fromkeys(s for s in (second, first) if s is not None):
        rows[scheme] = len(shifts)
        shifts += tuple(((i, s),) for i in range(dim) for s in _offsets(scheme))
        if scheme == second:
            corners = [(a, b) for t in _halves(scheme) for a in (t, -t) for b in (t, -t)]
            shifts += tuple(((i, a), (j, b)) for a, b in corners for i, j in pairs)
    # the extra rows follow the points; in a block of shifted points from
    # row r, f(+t) and f(-t) in coordinate i at half h are rows r + k i + 2 h
    # and the next one, and the corners of the mixed partials follow the
    # block of the second partials
    plus, minus, twice = range(len(shifts), len(shifts) + 3)
    halves = range(len(_halves(first)))
    k = 2 * len(halves)
    r = rows[first]
    quads = [[(r + k * i + 2 * h, r + k * i + 2 * h + 1, plus, minus) for h in halves]
             for i in range(dim)]
    divisors = [[2.0 * t for t in _halves(first)]] * dim
    pick = None
    if second is not None:
        r = rows[second]
        quads += [[(r + k * i + 2 * h, twice, plus, r + k * i + 2 * h + 1) for h in halves]
                  for i in range(dim)]
        quads += [[tuple(r + k * dim + (4 * h + c) * len(pairs) + p for c in range(4))
                   for h in halves] for p in range(len(pairs))]
        ts = _halves(second)
        pick = np.empty((dim, dim), dtype=int)
        for i in range(dim):
            pick[i, i] = len(divisors) + i
        for q, (i, j) in enumerate(pairs, start=len(divisors) + dim):
            pick[i, j] = pick[j, i] = q
        divisors += [[t * t for t in ts]] * dim + [[4.0 * t * t for t in ts]] * len(pairs)
    entries = [(row, i, s) for row, shift in enumerate(shifts) for i, s in shift]
    columns = tuple(np.array(column) for column in zip(*entries))
    gather = tuple(np.ascontiguousarray(operand) for operand in np.transpose(quads))
    table = _Table(shifts, *columns, gather, np.ascontiguousarray(np.transpose(divisors)), pick)
    for array in (*columns, *gather, table.divisors, pick):
        if array is not None:
            array.flags.writeable = False
    return table


def _points(u, request):
    """Every point of ``request`` at ``u``, on a new leading axis: one copy of
    ``u`` per point, then one indexed add of all the shifts."""
    u = np.asarray(u, dtype=float)
    table = _table(u.shape[-1], request)
    points = u[None].repeat(len(table.shifts), axis=0)
    # only the shifted coordinates get an add: adding a zero offset to the
    # others would turn -0.0 into +0.0
    points[table.rows, ..., table.cols] += table.steps.reshape((-1,) + (1,) * (u.ndim - 1))
    return points


@functools.lru_cache(maxsize=64)
def _dimension(n: int, request, name: str) -> int:
    """The number of coordinates whose table of ``request`` has ``n``
    points; DomainError, naming the count it takes and ``n``, if none has."""
    centre, first, second = request
    k = len(_offsets(first))
    separate = first != second
    dim = max(n - centre, 0) // k
    if second is not None:
        dim = math.isqrt(dim)
    if dim < 1 or centre + k * dim * (separate + (second is not None) * dim) != n:
        terms = ["1"] * centre + [f"{k} dim^2"] * (second is not None) + [f"{k} dim"] * separate
        raise DomainError(f"{name} takes {' + '.join(terms)} values in dim coordinates, "
                          f"got {n}")
    return dim


def _partials(values, request, name: str):
    """``(f(u), d, dd)`` from the values of f at the points of ``request``,
    f(u) or dd None when it does not ask for it: one pass of four gathers
    over all numerators and both halves, one division and one Richardson
    step.  The operands are gathered one at a time, so a large stack holds
    the extended values, the numerators and one operand, not all four
    operands at once."""
    values = np.asarray(values)
    n = len(values)
    dim = _dimension(n, request, name)
    table = _table(dim, request)
    shape = values.shape[1:]
    extended = np.empty((n + 3,) + shape)
    extended[:n] = values
    extended[n] = 0.0
    extended[n + 1] = -0.0
    # 2 f(u), read by the second partials only
    np.multiply(extended[:1], 2.0, out=extended[n + 2:])
    a, b, c, d = table.gather
    numerators = extended.take(a, axis=0)
    numerators -= extended.take(b, axis=0)
    numerators -= extended.take(c, axis=0)
    numerators += extended.take(d, axis=0)
    numerators /= table.divisors.reshape(table.divisors.shape + (1,) * len(shape))
    if len(numerators) == 2:
        quotients = (4.0 * numerators[1] - numerators[0]) / 3.0
    else:
        quotients = numerators[0]
    return (values[0] if request[0] else None,
            quotients[:dim],
            None if table.pick is None else quotients[table.pick])


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


def stencil(u, first: FDScheme, second: FDScheme | None = None):
    """Every point of the request ``(u, first, second)``, on a new leading
    axis: the centre ``u``, then the points of the second partials at
    ``second``, then the shifted points of the first partials at ``first``
    unless they are the second's (9 points in 2-D with Richardson for
    ``first`` alone, 17 for the jet ``stencil(u, s, s)``, 25 for two
    schemes)."""
    return _points(u, (True, first, second))


def partials(values, first: FDScheme, second: FDScheme | None = None):
    """``(f(u), d, dd)`` from ``values = f(stencil(u, first, second))``: the
    first partials ``d[i]`` at ``first`` on a leading axis, and the second
    partials ``dd[i, j] = dd[j, i]`` at ``second``, None without it."""
    return _partials(values, (True, first, second), "partials")


def shift_partials(values, first: FDScheme):
    """First partials ``d[i]`` from the values of f at the shifted points
    ``stencil(u, first)[1:]`` alone, for a caller that never evaluates the
    centre: k dim values for k shifts per coordinate."""
    return _partials(values, (False, first, None), "shift_partials")[1]


def shifts(dim: int, first: FDScheme, second: FDScheme | None = None):
    """The points of ``stencil(u, first, second)`` in ``dim`` coordinates, each
    as a tuple of (coordinate, shift) pairs, the centre ``()`` first."""
    return _table(dim, (True, first, second)).shifts

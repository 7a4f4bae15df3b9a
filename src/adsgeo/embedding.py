"""Embedding data of spacelike surfaces in the quadric model.

A surface is handed to the package as its immersion: the chart evaluator
(u1, u2) -> R^{2,2} landing on the quadric, a plain callable over the chart
box [-1, 1]^2.  First and second fundamental forms are produced by central
differences of the evaluator; curvature and Codazzi residuals differentiate
the resulting fields with a second, coarser step (see ``fd.DiffConfig``).

Conventions fixed here and relied on everywhere else:

* the unit normal n is future-directed (ads_core time orientation);
* II(u, v) = <n, d2 F(u, v)> and B = I^{-1} II, which realizes the shape
  operator B = -grad n of the future normal;
* J is rotation by +pi/2 for I in the chart orientation.

With these choices the umbilic family F_s(y) = (cos(s) y, sin(s)) has
B = tan(s) E; the sign of B on fixtures is recorded, not assumed.

Chart points may carry leading batch axes, u of shape (..., 2): the
built-in evaluators and fields, ``embedding_data_at`` and the curvature,
Christoffel and Codazzi layers map over them and return results with the
same leading axes, each point bit for bit equal to the call on that point
alone.  ``principal_curvatures`` takes the data of one point or of a
batch.

The layers evaluate an immersion once per finite-difference stencil: the
stencil points are stacked on a new leading axis and handed to the
evaluator in one call, by the one calling rule ``fd.evaluate``: an
evaluator that maps over leading axes says so with the attribute
``batched = True`` (the built-in fixture evaluators and ``normal_field``,
the dual immersion, do); any other evaluator, or metric field handed to
``christoffels``, is called one point (2,) at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ads_core
from .batch import (any_of, components, det, eigvalsh, entries, inv, matrix,
                    quadratic_form, vector)
from .errors import ConfigError, ConvexityError, DegenerateDataError, DomainError
from .fd import DEFAULT_DIFF, DiffConfig, evaluate, partials, shift_partials, stencil

MAX_METRIC_CONDITION = 1e6
STRONG_CONVEXITY_TOL = 1e-8
# <n, n> of the unnormalized normal must lie below -NORMAL_FLOOR
NORMAL_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# hyperboloid chart shared by the built-in fixtures

def hyperboloid_point(u):
    """Graph chart of H^2 in R^{2,1}: (u1, u2) -> (u1, u2, sqrt(1+|u|^2))."""
    x, y = components(u)
    return vector(x, y, np.sqrt(1.0 + x * x + y * y))


def hyperbolic_metric(u):
    """Closed-form induced metric of the graph chart (curvature -1)."""
    x, y = components(u)
    w2 = 1.0 + x * x + y * y
    off = -(x * y) / w2
    return matrix(1.0 - x * x / w2, off, off, 1.0 - y * y / w2)


# ---------------------------------------------------------------------------
# immersion fixtures

# an immersion is its chart evaluator, (..., 2) -> (..., 4) when marked
# ``batched`` and (2,) -> (4,) otherwise; the layers call it by ``fd.evaluate``
Immersion = Callable[[np.ndarray], np.ndarray]
# |u|^2 at the corners of the chart box [-1, 1]^2, its largest value there
CHART_CORNER_R2 = 2.0


def family_immersion(s: float = -0.7) -> Immersion:
    """Umbilic equidistant family member at parameter s in (-pi/2, 0].

    F_s(y) = (cos(s) y, sin(s)) over the hyperboloid chart.  Induced metric
    cos(s)^2 g_hyp, shape operator tan(s) E, curvature -1/cos(s)^2.
    """
    if not -np.pi / 2 < s <= 0.0:
        raise DomainError(f"family parameter must lie in (-pi/2, 0], got {s}")
    cs, sn = np.cos(s), np.sin(s)

    def ev(u):
        y1, y2, y3 = components(hyperboloid_point(u))
        return vector(cs * y1, cs * y2, cs * y3, sn + 0.0 * y3)   # sin s per point

    ev.batched = True
    return ev


def require_normal_floor(c2: float, what: str, s: float):
    """Raise unless a normal with <n, n> = -c2^2 / (1 + |u|^2) stays below
    -NORMAL_FLOOR over the chart box, where |u|^2 <= CHART_CORNER_R2.

    That is the unnormalized normal of ``_unit_future_normal`` on the family
    member s, with c2 = cos(s)^2 since I = cos(s)^2 g_hyp, and on its dual
    immersion, with c2 = sin(s)^2 (``constructions.require_family_dual``).
    """
    corner = c2 * c2 / (1.0 + CHART_CORNER_R2)
    if not corner > NORMAL_FLOOR:
        raise DegenerateDataError(f"{what} normal unresolvable at s = {s}: <n, n> = "
                                  f"-{corner:.3e} >= -{NORMAL_FLOOR:g} at the box corners")


def require_family_normal(s: float):
    """Reject a family member too close to the focal end s = -pi/2 for its
    normal to be resolved: cos(s)^4 / (1 + |u|^2) <= NORMAL_FLOOR at the box
    corners, s <= -1.57038 or so."""
    require_normal_floor(np.cos(s) ** 2, "family", s)


def _totally_geodesic() -> Immersion:
    """The plane {x4 = 0}: the family member at s = 0, B = 0."""
    return family_immersion(0.0)


def bump_immersion(amplitude: float = 0.05, width: float = 1.0,
                   base: float = -0.7) -> Immersion:
    """Non-umbilic graph over the family: normal offset by a Gaussian bump.

    F(u) = (cos(t) y(u), sin(t)) with t(u) = base + amplitude
    exp(-|u|^2 / (2 width^2)).  Small amplitudes keep the surface spacelike
    and strongly convex with nonconstant curvature.

    The induced metric is cos(t)^2 g_hyp - dt (x) dt.  It is radially
    symmetric, with eigenvalue cos(t)^2 along circles and cos(t)^2 / (1 + r^2)
    - t'(r)^2 along rays; both must be positive, with condition at most
    MAX_METRIC_CONDITION, for r^2 up to CHART_CORNER_R2: over the chart box.
    The unnormalized normal of ``_unit_future_normal`` has <n, n> = -det I,
    the product of the two, which must stay below -NORMAL_FLOOR there, as
    ``require_normal_floor`` asks of the family: near the focal end
    t = -pi/2 both eigenvalues vanish.
    """
    # comparisons are written so that NaN parameters fail them
    if not width >= 0.2:
        raise DomainError("bump width below 0.2 gives a nearly lightlike graph")
    if not abs(amplitude) <= 0.3:
        raise DomainError("bump amplitude above 0.3 leaves the convex regime")
    if not -np.pi / 2 < base + abs(amplitude) <= 0.0 or not base > -np.pi / 2:
        raise DomainError(f"bump base parameter out of range: {base}")
    # radii spaced 7e-4 apart, far finer than the bump's scale width >= 0.2
    r = np.linspace(0.0, np.sqrt(CHART_CORNER_R2), 2001)
    gauss = amplitude * np.exp(-r * r / (2.0 * width * width))
    slope = -r / (width * width) * gauss
    circle = np.cos(base + gauss) ** 2
    ray = circle / (1.0 + r * r) - slope * slope
    small, big = np.minimum(circle, ray), np.maximum(circle, ray)
    if not ((small > 0.0) & (small * MAX_METRIC_CONDITION >= big)).all():
        worst = int(np.argmin(small / big))
        raise DomainError(
            f"bump parameters give a non-spacelike or ill-conditioned metric: "
            f"eigenvalues {small[worst]:.3e}, {big[worst]:.3e} at r = {r[worst]:.3f}")
    det_i = circle * ray
    if not (det_i > NORMAL_FLOOR).all():
        worst = int(np.argmin(det_i))
        raise DomainError(f"bump normal unresolvable: <n, n> = -{det_i[worst]:.3e} >= "
                          f"-{NORMAL_FLOOR:g} at r = {r[worst]:.3f}")

    def ev(u):
        # y1, y2 are the chart coordinates, split from u once
        y1, y2, y3 = components(hyperboloid_point(u))
        t = base + amplitude * np.exp(-(y1 * y1 + y2 * y2) / (2.0 * width * width))
        c = np.cos(t)
        return vector(c * y1, c * y2, c * y3, np.sin(t))

    ev.batched = True
    return ev


# fixture name -> (constructor, parameter names); parameters left out take
# the constructor's defaults
FIXTURES = {
    "totally_geodesic": (_totally_geodesic, ()),
    "fuchsian_family": (family_immersion, ("s",)),
    "graph_bump": (bump_immersion, ("amplitude", "width", "base")),
}
CATALOG = tuple(FIXTURES)


def make_immersion(name: str, **params) -> Immersion:
    """Built-in fixture catalog, selected by name + parameters."""
    if name not in FIXTURES:
        raise ConfigError(f"unknown fixture: {name!r} (catalog: {', '.join(CATALOG)})")
    build, names = FIXTURES[name]
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ConfigError(f"unknown {name} parameters: {unknown}")
    try:
        return build(**{key: float(value) for key, value in params.items()})
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# pointwise embedding data

@dataclass(frozen=True)
class EmbeddingData:
    """Bundle (I, B, J, n) plus chart point and ambient position, with the
    leading batch axes of the chart points."""

    u: np.ndarray
    point: np.ndarray
    I: np.ndarray
    B: np.ndarray
    J: np.ndarray
    n: np.ndarray

    def __getitem__(self, index):
        """The data at the chart points ``u[index]`` (an index into the
        leading batch axes)."""
        return EmbeddingData(u=self.u[index], point=self.point[index], I=self.I[index],
                             B=self.B[index], J=self.J[index], n=self.n[index])


def complex_structure(I):
    """Rotation by +pi/2 for the metric I in the chart orientation."""
    a, b, _, d = entries(I)
    q = a * d - b * b
    if any_of(q <= 0.0):
        raise DegenerateDataError("metric not positive definite")
    r = np.sqrt(q)
    return matrix(-b / r, -d / r, a / r, b / r)


def _unit_future_normal(point, f1, f2):
    """Future unit normal from Levi-Civita cofactors of (point, dF).

    The cofactors are those of the 3x4 matrix with rows point, f1, f2,
    written out through the 2x2 minors w_ij of (f1, f2).
    """
    p0, p1, p2, p3 = components(point)
    a0, a1, a2, a3 = components(f1)
    c0, c1, c2, c3 = components(f2)
    w01, w02, w03 = a0 * c1 - a1 * c0, a0 * c2 - a2 * c0, a0 * c3 - a3 * c0
    w12, w13, w23 = a1 * c2 - a2 * c1, a1 * c3 - a3 * c1, a2 * c3 - a3 * c2
    # signature signs (+, +, -, -) applied to the cofactor vector
    n = vector(p1 * w23 - p2 * w13 + p3 * w12,
               -(p0 * w23 - p2 * w03 + p3 * w02),
               -(p0 * w13 - p1 * w03 + p3 * w01),
               p0 * w12 - p1 * w02 + p2 * w01)
    nn = ads_core.bilinear22(n, n)
    if any_of(nn >= -NORMAL_FLOOR):
        raise DegenerateDataError("normal direction degenerate or not timelike")
    # unit length, and the sign that makes n future-directed
    scale = np.sqrt(-nn) * (2.0 * ads_core.is_future(point, n) - 1.0)
    return n / np.asarray(scale)[..., None]


def _induced_metric(f1, f2):
    """I = <dF, dF> from the tangents f1 = dF/du1 and f2 = dF/du2."""
    g12 = ads_core.bilinear22(f1, f2)
    return matrix(ads_core.bilinear22(f1, f1), g12, g12, ads_core.bilinear22(f2, f2))


def _require_spacelike(I):
    """Raise unless the symmetric metric I is positive definite with condition
    at most MAX_METRIC_CONDITION (eigenvalues in closed form)."""
    a, b, _, d = entries(I)
    mid = 0.5 * (a + d)
    rad = np.sqrt(0.25 * (a - d) * (a - d) + b * b)
    lo, hi = mid - rad, mid + rad
    if any_of(lo <= 0.0):
        raise DegenerateDataError(
            f"induced metric not spacelike: smallest eigenvalue {np.min(lo):.3e}")
    if any_of(hi > MAX_METRIC_CONDITION * lo):
        raise DegenerateDataError(
            f"induced metric too ill-conditioned: cond = {np.max(hi / lo):.3e}")


def embedding_data_at(immersion: Immersion, u,
                      cfg: DiffConfig = DEFAULT_DIFF) -> EmbeddingData:
    """First/second fundamental data at chart points u, shape (..., 2).

    II is assembled from symmetric stencils, so B = I^{-1} II is
    I-self-adjoint to rounding; raises when any point leaves the quadric
    (|<F, F> + 1| > 1e-8) or has a non-spacelike or ill-conditioned induced
    metric.  One request, ``fd.stencil(u, cfg.inner, cfg.inner2)``, asks
    for the second partials at step ``cfg.inner2`` and the tangents at step
    ``cfg.inner``: one immersion call evaluates its 25 points, the 17 of the
    second-order stencil, whose centre gives the point, then the 8 shifted
    points of the first-order one.
    """
    u = np.asarray(u, dtype=float)
    values = evaluate(immersion, stencil(u, cfg.inner, cfg.inner2))
    point, (f1, f2), dd = partials(values, cfg.inner, cfg.inner2)
    if any_of(np.abs(ads_core.bilinear22(point, point) + 1.0) > 1e-8):
        raise DomainError("immersion leaves the quadric at this chart point")

    I = _induced_metric(f1, f2)
    _require_spacelike(I)
    n = _unit_future_normal(point, f1, f2)

    h12 = ads_core.bilinear22(n, dd[0, 1])
    II = matrix(ads_core.bilinear22(n, dd[0, 0]), h12, h12, ads_core.bilinear22(n, dd[1, 1]))
    return EmbeddingData(u=u, point=point, I=I, B=inv(I) @ II,
                         J=complex_structure(I), n=n)


def metric_and_normal(immersion: Immersion, u, point, scheme):
    """(I, n) of the immersion at chart points u, from one call on the shifted
    points of a first-difference stencil: the induced metric and the future
    unit normal at ``point``, which is the immersion at u."""
    f1, f2 = shift_partials(evaluate(immersion, stencil(u, scheme)[1:]), scheme)
    return _induced_metric(f1, f2), _unit_future_normal(point, f1, f2)


def metric_field(immersion: Immersion, cfg: DiffConfig = DEFAULT_DIFF):
    """Chart metric as a plain callable u -> 2x2 (first derivatives only),
    with one immersion call on the shifted points of the stencil.  It maps
    over leading axes and is marked ``batched``, so ``fd.evaluate`` calls it
    once per stack."""
    sch = cfg.inner

    def g(u):
        return _induced_metric(*shift_partials(evaluate(immersion, stencil(u, sch)[1:]), sch))

    g.batched = True
    return g


def normal_field(immersion: Immersion, cfg: DiffConfig = DEFAULT_DIFF):
    """Future unit normal as a plain callable, with one immersion call on the
    first-order stencil (its centre is the point).  It maps over leading
    axes and is marked ``batched``, like ``metric_field``."""
    sch = cfg.inner

    def nf(u):
        values = evaluate(immersion, stencil(u, sch))
        return _unit_future_normal(values[0], *partials(values, sch)[1])

    nf.batched = True
    return nf


def _brioschi(g, dg, ddg):
    """Gaussian curvature by the Brioschi formula from a chart metric g, its
    first partials dg[i] and second partials ddg[i, j] at the same points.
    The two 3x3 determinants are expanded along their first rows."""
    E, F, _, G = entries(g)
    E_u, F_u, _, G_u = entries(dg[0])
    E_v, F_v, _, G_v = entries(dg[1])
    E_vv = entries(ddg[1, 1])[0]
    G_uu = entries(ddg[0, 0])[3]
    F_uv = entries(ddg[0, 1])[1]

    # m1 = [[a, b, c], [d, E, F], [e, F, G]], m2 = [[0, p, q], [p, E, F], [q, F, G]]
    a = -0.5 * E_vv + F_uv - 0.5 * G_uu
    b, c = 0.5 * E_u, F_u - 0.5 * E_v
    d, e = F_v - 0.5 * G_u, 0.5 * G_v
    p, q = 0.5 * E_v, 0.5 * G_u
    det_g = E * G - F * F
    det_m1 = a * det_g - b * (d * G - F * e) + c * (d * F - E * e)
    det_m2 = -p * (p * G - F * q) + q * (p * F - E * q)
    return (det_m1 - det_m2) / (det_g * det_g)


def gaussian_curvature(immersion: Immersion, u, cfg: DiffConfig = DEFAULT_DIFF, known=None):
    """Curvature of the induced metric (Brioschi on the metric field), with
    the metric field called once on the whole jet ``fd.stencil(u, s, s)``,
    or, bit for bit, on the rest of it given the metric ``known`` from
    ``embedding_data_at`` at its first points (u alone, on a leading axis
    of length 1, or the field-step ``fd.stencil``)."""
    jet = stencil(u, cfg.field, cfg.field)
    g = metric_field(immersion, cfg)(jet if known is None else jet[len(known):])
    if known is not None:
        g = np.concatenate([known, g])
    return _brioschi(*partials(g, cfg.field, cfg.field))


def christoffel_symbols(g_inv, dg):
    """Gamma[..., k, i, j] = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij) in any
    dimension, from the inverse metric and the partials dg[i] = d_i g on the
    leading axis of ``fd.partials``.  The sum over l runs in index
    order."""
    dg = np.moveaxis(np.asarray(dg, dtype=float), 0, -3)
    # t[..., i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    t = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    g_inv = np.asarray(g_inv, dtype=float)
    s = g_inv[..., :, 0, None, None] * t[..., None, :, :, 0]
    for l in range(1, g_inv.shape[-1]):
        s = s + g_inv[..., :, l, None, None] * t[..., None, :, :, l]
    return 0.5 * s


def christoffels(g_field, u, scheme):
    """Christoffel symbols Gamma[..., k, i, j] of a chart metric field, from
    its values on ``fd.stencil(u, scheme)`` (``fd.evaluate``)."""
    g, dg = partials(evaluate(g_field, stencil(u, scheme)), scheme)[:2]
    return christoffel_symbols(inv(g), dg)


def exterior_covariant_derivative(gamma, x, dx):
    """d^D X (d1, d2) = D_1(X d2) - D_2(X d1) of an operator field X.

    ``gamma`` are the Christoffel symbols of D, ``x`` is X at the point and
    ``dx[i]`` its chart partials, on the leading axis.
    """
    vec = dx[0][..., :, 1] - dx[1][..., :, 0]
    for k in range(2):
        vec = vec + (gamma[..., :, 0, k] * x[..., k, 1, None]
                     - gamma[..., :, 1, k] * x[..., k, 0, None])
    return vec


def structure_residuals(immersion: Immersion, u, cfg: DiffConfig = DEFAULT_DIFF):
    """(gauss, codazzi) residuals: K + 1 + det B and |d^D B|_I.

    One embedding-data call on the field-step stencil gives the data at u
    (its centre) and the partials of I and of B, as in
    ``mess_metrics.sharp_frame``.  Its metric values are also the first
    points of the Brioschi jet at the same step, so the metric field is
    called at the corners of the jet only.
    """
    u = np.asarray(u, dtype=float)
    data = embedding_data_at(immersion, stencil(u, cfg.field), cfg=cfg)
    K = gaussian_curvature(immersion, u, cfg, known=data.I)

    centre = data[0]
    d = partials(np.stack([data.I, data.B], axis=-3), cfg.field)[1]
    gamma = christoffel_symbols(inv(centre.I), d[..., 0, :, :])
    vec = exterior_covariant_derivative(gamma, centre.B, d[..., 1, :, :])
    return (K + 1.0 + det(centre.B),
            np.sqrt(np.maximum(quadratic_form(vec, centre.I), 0.0)))


def third_fundamental_form(data: EmbeddingData):
    """III(u, v) = I(B u, B v), as a chart matrix B^T I B."""
    return np.swapaxes(data.B, -1, -2) @ data.I @ data.B


def principal_curvatures(data: EmbeddingData):
    """Eigenvalues of B, ascending along the last axis (real since B is
    I-self-adjoint): those of the pencil (II, I), in closed form."""
    return vector(*eigvalsh(data.I @ data.B, data.I))


def require_strong_convexity(B) -> float:
    """det B, raising ConvexityError unless det B > STRONG_CONVEXITY_TOL
    (strong convexity) at every point of the batch."""
    det_b = det(B)
    if any_of(det_b <= STRONG_CONVEXITY_TOL):
        raise ConvexityError(f"strong convexity required: det B = {np.min(det_b):.3e}")
    return det_b

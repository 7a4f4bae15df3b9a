"""Embedding data of spacelike surfaces in the quadric model.

A surface is handed to the package as an ``Immersion``: a chart evaluator
(u1, u2) -> R^{2,2} landing on the quadric, together with its chart box.
First and second fundamental forms are produced by central differences of
the evaluator; curvature and Codazzi residuals differentiate the resulting
fields with a second, coarser step (see ``fd.DiffConfig``).

Conventions fixed here and relied on everywhere else:

* the unit normal n is future-directed (ads_core time orientation);
* II(u, v) = <n, d2 F(u, v)> and B = I^{-1} II, which realizes the shape
  operator B = -grad n of the future normal;
* J is rotation by +pi/2 for I in the chart orientation.

With these choices the umbilic family F_s(y) = (cos(s) y, sin(s)) has
B = tan(s) E; the sign of B on fixtures is recorded, not assumed.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from . import ads_core
from .errors import ConfigError, ConvexityError, DegenerateDataError, DomainError
from .fd import DEFAULT_DIFF, DiffConfig, d1, d2

MAX_METRIC_CONDITION = 1e6
SELF_ADJOINT_TOL = 1e-7
STRONG_CONVEXITY_TOL = 1e-8


# ---------------------------------------------------------------------------
# hyperboloid chart shared by the built-in fixtures

def hyperboloid_point(u):
    """Graph chart of H^2 in R^{2,1}: (u1, u2) -> (u1, u2, sqrt(1+|u|^2))."""
    u = np.asarray(u, dtype=float)
    return np.array([u[0], u[1], np.sqrt(1.0 + u[0] ** 2 + u[1] ** 2)])


def hyperbolic_metric(u):
    """Closed-form induced metric of the graph chart (curvature -1)."""
    u = np.asarray(u, dtype=float)
    w2 = 1.0 + u[0] ** 2 + u[1] ** 2
    return np.eye(2) - np.outer(u, u) / w2


# ---------------------------------------------------------------------------
# immersion fixtures

@dataclass(frozen=True)
class Immersion:
    """Chart evaluator of a spacelike surface plus its domain box."""

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    domain: tuple = ((-1.0, 1.0), (-1.0, 1.0))
    params: dict = field(default_factory=dict)

    def __call__(self, u):
        return self.evaluator(np.asarray(u, dtype=float))

    def contains(self, u, margin: float = 0.0) -> bool:
        u = np.asarray(u, dtype=float)
        return all(lo + margin <= x <= hi - margin
                   for x, (lo, hi) in zip(u, self.domain))


def _family_evaluator(s: float):
    cs, sn = np.cos(s), np.sin(s)

    def ev(u):
        y = hyperboloid_point(u)
        return np.array([cs * y[0], cs * y[1], cs * y[2], sn])

    return ev


def family_immersion(s: float = -0.7) -> Immersion:
    """Umbilic equidistant family member at parameter s in (-pi/2, 0].

    F_s(y) = (cos(s) y, sin(s)) over the hyperboloid chart.  Induced metric
    cos(s)^2 g_hyp, shape operator tan(s) E, curvature -1/cos(s)^2.
    """
    if not -np.pi / 2 < s <= 0.0:
        raise DomainError(f"family parameter must lie in (-pi/2, 0], got {s}")
    return Immersion("fuchsian_family", _family_evaluator(s), params={"s": s})


def _totally_geodesic() -> Immersion:
    """The plane {x4 = 0}: the family member at s = 0, B = 0."""
    return Immersion("totally_geodesic", _family_evaluator(0.0))


def bump_immersion(amplitude: float = 0.05, width: float = 1.0,
                   base: float = -0.7) -> Immersion:
    """Non-umbilic graph over the family: normal offset by a Gaussian bump.

    F(u) = (cos(t) y(u), sin(t)) with t(u) = base + amplitude
    exp(-|u|^2 / (2 width^2)).  Small amplitudes keep the surface spacelike
    and strongly convex with nonconstant curvature.
    """
    # comparisons are written so that NaN parameters fail them
    if not width >= 0.2:
        raise DomainError("bump width below 0.2 gives a nearly lightlike graph")
    if not abs(amplitude) <= 0.3:
        raise DomainError("bump amplitude above 0.3 leaves the convex regime")
    if not -np.pi / 2 < base + abs(amplitude) <= 0.0 or not base > -np.pi / 2:
        raise DomainError(f"bump base parameter out of range: {base}")

    def ev(u):
        y = hyperboloid_point(u)
        t = base + amplitude * np.exp(-(u[0] ** 2 + u[1] ** 2) / (2.0 * width ** 2))
        return np.array([np.cos(t) * y[0], np.cos(t) * y[1], np.cos(t) * y[2],
                         np.sin(t)])

    return Immersion("graph_bump", ev,
                     params={"amplitude": amplitude, "width": width, "base": base})


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

class ConvexityClass(enum.Enum):
    STRONGLY_PAST_CONVEX = "strongly_past_convex"
    STRONGLY_FUTURE_CONVEX = "strongly_future_convex"
    NOT_STRONGLY_CONVEX = "not_strongly_convex"


@dataclass(frozen=True)
class EmbeddingData:
    """Per-point bundle (I, B, J, n) plus chart point and ambient position."""

    u: np.ndarray
    point: np.ndarray
    I: np.ndarray
    B: np.ndarray
    J: np.ndarray
    n: np.ndarray

    @property
    def second_form(self):
        return self.I @ self.B

    def self_adjointness_residual(self) -> float:
        ib = self.I @ self.B
        return float(np.abs(ib - ib.T).max())


def complex_structure(I):
    """Rotation by +pi/2 for the metric I in the chart orientation."""
    I = np.asarray(I, dtype=float)
    det = I[0, 0] * I[1, 1] - I[0, 1] ** 2
    if det <= 0.0:
        raise DegenerateDataError("metric not positive definite")
    r = np.sqrt(det)
    return np.array([[-I[0, 1], -I[1, 1]], [I[0, 0], I[0, 1]]]) / r


def _unit_future_normal(point, f1, f2):
    """Future unit normal from Levi-Civita cofactors of (point, dF)."""
    rows = np.stack([point, f1, f2])
    m = np.empty(4)
    for b in range(4):
        minor = np.delete(rows, b, axis=1)
        m[b] = ((-1.0) ** b) * np.linalg.det(minor)
    n = np.array([1.0, 1.0, -1.0, -1.0]) * m
    nn = ads_core.bilinear22(n, n)
    if nn >= -1e-14:
        raise DegenerateDataError("normal direction degenerate or not timelike")
    n = n / np.sqrt(-nn)
    if not ads_core.is_future(point, n):
        n = -n
    return n


def embedding_data_at(immersion: Immersion, u, cfg: DiffConfig = DEFAULT_DIFF,
                      quadric_tol: float = 1e-8) -> EmbeddingData:
    """First/second fundamental data at one chart point.

    II is assembled from symmetric stencils, so B = I^{-1} II is
    I-self-adjoint to rounding; raises on non-spacelike or ill-conditioned
    induced metrics.
    """
    u = np.asarray(u, dtype=float)
    f = immersion.evaluator
    point = np.asarray(f(u), dtype=float)
    if abs(ads_core.bilinear22(point, point) + 1.0) > quadric_tol:
        raise DomainError("immersion leaves the quadric at this chart point")

    sch = cfg.inner
    f1 = d1(f, u, 0, sch)
    f2 = d1(f, u, 1, sch)
    I = np.array([[ads_core.bilinear22(f1, f1), ads_core.bilinear22(f1, f2)],
                  [ads_core.bilinear22(f2, f1), ads_core.bilinear22(f2, f2)]])
    eigs = np.linalg.eigvalsh(I)
    if eigs[0] <= 0.0:
        raise DegenerateDataError(f"induced metric not spacelike: eigs = {eigs}")
    if eigs[1] / eigs[0] > MAX_METRIC_CONDITION:
        raise DegenerateDataError(
            f"induced metric too ill-conditioned: cond = {eigs[1] / eigs[0]:.3e}")

    n = _unit_future_normal(point, f1, f2)

    f0 = point
    sch2 = cfg.inner2
    f11 = d2(f, u, 0, 0, sch2, f0=f0)
    f22 = d2(f, u, 1, 1, sch2, f0=f0)
    f12 = d2(f, u, 0, 1, sch2, f0=f0)
    II = np.array([[ads_core.bilinear22(n, f11), ads_core.bilinear22(n, f12)],
                   [ads_core.bilinear22(n, f12), ads_core.bilinear22(n, f22)]])
    B = np.linalg.solve(I, II)
    J = complex_structure(I)
    return EmbeddingData(u=u, point=point, I=I, B=B, J=J, n=n)


def metric_field(immersion: Immersion, cfg: DiffConfig = DEFAULT_DIFF):
    """Chart metric as a plain callable u -> 2x2 (first derivatives only)."""
    f = immersion.evaluator
    sch = cfg.inner

    def g(u):
        f1 = d1(f, u, 0, sch)
        f2 = d1(f, u, 1, sch)
        return np.array([[ads_core.bilinear22(f1, f1), ads_core.bilinear22(f1, f2)],
                         [ads_core.bilinear22(f2, f1), ads_core.bilinear22(f2, f2)]])

    return g


def shape_field(immersion: Immersion, cfg: DiffConfig = DEFAULT_DIFF):
    def bop(u):
        return embedding_data_at(immersion, u, cfg=cfg).B

    return bop


def normal_field(immersion: Immersion, cfg: DiffConfig = DEFAULT_DIFF):
    f = immersion.evaluator
    sch = cfg.inner

    def nf(u):
        point = np.asarray(f(u), dtype=float)
        return _unit_future_normal(point, d1(f, u, 0, sch), d1(f, u, 1, sch))

    return nf


def brioschi_curvature(g_field, u, scheme) -> float:
    """Gaussian curvature of a chart metric field by the Brioschi formula."""
    u = np.asarray(u, dtype=float)
    g0 = np.asarray(g_field(u), dtype=float)
    E, F, G = g0[0, 0], g0[0, 1], g0[1, 1]
    dg = np.stack([d1(g_field, u, 0, scheme), d1(g_field, u, 1, scheme)])
    E_u, E_v = dg[0][0, 0], dg[1][0, 0]
    F_u, F_v = dg[0][0, 1], dg[1][0, 1]
    G_u, G_v = dg[0][1, 1], dg[1][1, 1]
    E_vv = d2(g_field, u, 1, 1, scheme, f0=g0)[0, 0]
    G_uu = d2(g_field, u, 0, 0, scheme, f0=g0)[1, 1]
    F_uv = d2(g_field, u, 0, 1, scheme, f0=g0)[0, 1]

    m1 = np.array([
        [-0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v],
        [F_v - 0.5 * G_u, E, F],
        [0.5 * G_v, F, G],
    ])
    m2 = np.array([
        [0.0, 0.5 * E_v, 0.5 * G_u],
        [0.5 * E_v, E, F],
        [0.5 * G_u, F, G],
    ])
    det_g = E * G - F * F
    return float((np.linalg.det(m1) - np.linalg.det(m2)) / (det_g * det_g))


def gaussian_curvature(immersion: Immersion, u, cfg: DiffConfig = DEFAULT_DIFF) -> float:
    """Curvature of the induced metric (Brioschi on the metric field)."""
    return brioschi_curvature(metric_field(immersion, cfg), u, cfg.field)


def christoffel_symbols(g_inv, dg):
    """Gamma[k, i, j] = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij) in any
    dimension, from the inverse metric and the stack dg[i] = d_i g."""
    n = len(g_inv)
    gamma = np.empty((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                s = 0.0
                for l in range(n):
                    s += g_inv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j])
                gamma[k, i, j] = 0.5 * s
    return gamma


def christoffels(g_field, u, scheme):
    """Christoffel symbols Gamma[k, i, j] of a chart metric field."""
    u = np.asarray(u, dtype=float)
    g = np.asarray(g_field(u), dtype=float)
    dg = np.stack([d1(g_field, u, 0, scheme), d1(g_field, u, 1, scheme)])
    return christoffel_symbols(np.linalg.inv(g), dg)


def exterior_covariant_derivative(gamma, x, dx1, dx2):
    """d^D X (d1, d2) = D_1(X d2) - D_2(X d1) of an operator field X.

    ``gamma`` are the Christoffel symbols of D, ``x`` is X at the point and
    ``dx1``, ``dx2`` its chart partials.
    """
    vec = np.empty(2)
    for m in range(2):
        vec[m] = dx1[m, 1] - dx2[m, 0]
        for k in range(2):
            vec[m] += gamma[m, 0, k] * x[k, 1] - gamma[m, 1, k] * x[k, 0]
    return vec


def codazzi_residual_fields(g_field, b_field, u, scheme) -> float:
    """|d^D B (d1, d2)|_I for arbitrary metric / shape-operator fields."""
    u = np.asarray(u, dtype=float)
    gamma = christoffels(g_field, u, scheme)
    b = np.asarray(b_field(u), dtype=float)
    vec = exterior_covariant_derivative(gamma, b, d1(b_field, u, 0, scheme),
                                        d1(b_field, u, 1, scheme))
    I = np.asarray(g_field(u), dtype=float)
    return float(np.sqrt(max(vec @ I @ vec, 0.0)))


def structure_residuals(immersion: Immersion, u, cfg: DiffConfig = DEFAULT_DIFF):
    """(gauss, codazzi) residuals: K + 1 + det B and |d^D B|_I."""
    data = embedding_data_at(immersion, u, cfg=cfg)
    K = gaussian_curvature(immersion, u, cfg=cfg)
    gauss = K + 1.0 + float(np.linalg.det(data.B))
    codazzi = codazzi_residual_fields(metric_field(immersion, cfg),
                                      shape_field(immersion, cfg), u, cfg.field)
    return gauss, codazzi


def third_fundamental_form(data: EmbeddingData):
    """III(u, v) = I(B u, B v), as a chart matrix B^T I B."""
    return data.B.T @ data.I @ data.B


def principal_curvatures(data: EmbeddingData):
    """Eigenvalues of B, ascending (real since B is I-self-adjoint)."""
    vals = scipy.linalg.eigh(data.second_form, data.I, eigvals_only=True)
    return np.sort(vals)


def require_strong_convexity(B, tol: float = STRONG_CONVEXITY_TOL) -> float:
    """det B, raising ConvexityError unless det B > tol (strong convexity)."""
    det_b = float(np.linalg.det(B))
    if det_b <= tol:
        raise ConvexityError(f"strong convexity required: det B = {det_b:.3e}")
    return det_b


def convexity_class(data: EmbeddingData, tol: float = 1e-10) -> ConvexityClass:
    k1, k2 = principal_curvatures(data)
    if k1 > tol and k2 > tol:
        return ConvexityClass.STRONGLY_PAST_CONVEX
    if k1 < -tol and k2 < -tol:
        return ConvexityClass.STRONGLY_FUTURE_CONVEX
    return ConvexityClass.NOT_STRONGLY_CONVEX

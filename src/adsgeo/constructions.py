"""Spacetime constructions from surface data.

* duality of strongly convex surfaces: the dual point is the future unit
  normal; the dual data is (III, -B^{-1}) and curvature K* = -K / (1 + K);
* the equidistant family (I_s, B_s) generated by one set of embedding data;
* the Lorentzian extension metric -ds^2 + I((cos s E + sin s B) . , same)
  with a finite-difference Riemann tensor check of constant curvature -1;
* the umbilic family fixture and the map picking a constant-curvature
  representative together with the left metric.

Sign conventions follow embedding.py (future normal, B = tan(s) E on the
family); the dual shape operator -B^{-1} is the one fixed by the numerical
involution check, antipodal points being identified in the projective
model.

Duality, equidistant data and the extension metric take data and points
with leading batch axes (see embedding.py); a check that fails at any point
of a batch raises.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import any_of, det, inv, singular_values
from .embedding import (EmbeddingData, Immersion, christoffel_symbols, embedding_data_at,
                        family_immersion, gaussian_curvature, metric_and_normal,
                        normal_field, require_normal_floor, require_strong_convexity,
                        third_fundamental_form)
from .errors import DomainError, FocalPointError
from .fd import DEFAULT_DIFF, DiffConfig, FDScheme, evaluate, partials, shifts, stencil
from .mess_metrics import mess_metric

# ---------------------------------------------------------------------------
# duality

@dataclass(frozen=True)
class DualData:
    point: np.ndarray
    I_star: np.ndarray
    B_star: np.ndarray
    K_star: float


def dual_data_pointwise(data: EmbeddingData, K: float | None = None) -> DualData:
    """Algebraic duality of embedding data, point by point.

    Requires strong convexity (``require_strong_convexity``) with principal
    curvatures of one sign.  I* = III, B* = -B^{-1}; K* = -K/(1+K) from the
    supplied base curvature (measured independently when available; the
    Gauss value -1 - det B is the fallback).
    """
    det_b = require_strong_convexity(data.B)
    if K is None:
        K = -1.0 - det_b
    return DualData(point=data.n.copy(),
                    I_star=third_fundamental_form(data),
                    B_star=-inv(data.B),
                    K_star=-K / (1.0 + K))


def require_family_dual(s: float):
    """Reject a family parameter whose dual immersion has a normal that
    ``embedding._unit_future_normal`` cannot resolve on the chart box.

    On the family B = tan(s) E and I = cos(s)^2 g_hyp, so the unnormalized
    normal of the dual immersion (``embedding.normal_field``) has <n, n> =
    -det III = -det(B)^2 det(I) = -sin(s)^4 / (1 + |u|^2)
    (``embedding.require_normal_floor``).
    """
    family_immersion(s)     # rejects s outside (-pi/2, 0]
    require_normal_floor(np.sin(s) ** 2, "dual", s)


def dual_surface(immersion: Immersion, u, cfg: DiffConfig = DEFAULT_DIFF):
    """Duality with its verification residuals at the chart points u (..., 2).

    Diagnostics returned alongside the dual data:

    * ``metric_vs_third_form``: finite-difference induced metric of the dual
      immersion against III of the base data;
    * ``curvature_consistency``: K* through two independently measured
      routes, -K/(1+K) with K from the curvature of I, against the Gauss
      value -1 - det(B*) with B* from the second fundamental form;
    * ``involution``: dual of the dual against the antipodal base point
      (identical in the projective model).

    The dual immersion F*, the normal field of F, is differenced once, for
    both its induced metric and its normal (the dual of the dual); F*(u) is
    the base normal data.n.
    """
    u = np.asarray(u, dtype=float)
    data = embedding_data_at(immersion, u, cfg=cfg)
    k_measured = gaussian_curvature(immersion, u, cfg, known=data.I[None])
    dual = dual_data_pointwise(data, K=k_measured)

    i_star, ddual_point = metric_and_normal(normal_field(immersion, cfg), u, data.n,
                                            cfg.inner)
    metric_resid = np.abs(i_star - dual.I_star).max(axis=(-2, -1))

    k_star_gauss = -1.0 - det(dual.B_star)
    consistency_resid = np.abs(k_star_gauss - dual.K_star)

    antipode = -data.point
    involution_resid = np.minimum(np.abs(ddual_point - antipode).max(axis=-1),
                                  np.abs(ddual_point + antipode).max(axis=-1))
    return dual, {
        "metric_vs_third_form": metric_resid,
        "curvature_consistency": consistency_resid,
        "involution": involution_resid,
    }


# ---------------------------------------------------------------------------
# equidistant data and the extension metric

def equidistant_data(I, B, s: float):
    """(I_s, B_s) of the equidistant surface generated by (I, B).

    I_s = I(A_s . , A_s . ) and B_s = A_s^{-1} (cos(s) B - sin(s) E) with
    A_s = cos(s) E + sin(s) B; the sign of B_s is the one that keeps the
    Gauss equation satisfied along the umbilic family.  ``s`` is a number
    or an array of the batch shape of I and B.  Raises FocalPointError where
    the smallest singular value of A_s is at most 1e-8 (1 + max |B_ij|).
    """
    I = np.asarray(I, dtype=float)
    B = np.asarray(B, dtype=float)
    cs = np.cos(s)[..., None, None]
    sn = np.sin(s)[..., None, None]
    a = cs * np.eye(2) + sn * B
    scale = 1.0 + np.abs(B).max(axis=(-2, -1))
    focal = singular_values(a)[1] <= 1e-8 * scale
    if any_of(focal):
        first = np.ravel(np.broadcast_to(s, np.shape(focal)))[np.argmax(focal)]
        raise FocalPointError(f"focal point at s = {first}: cos(s) E + sin(s) B singular")
    c = cs * B - sn * np.eye(2)
    return np.swapaxes(a, -1, -2) @ I @ a, inv(a) @ c


# the admissible s of the extension: the interval (-pi/2, 0] of the paper,
# widened past 0 so that difference stencils around s = 0 stay inside
EXTENSION_S_RANGE = (-np.pi / 2, 0.1)


def extension_metric(immersion: Immersion, cfg: DiffConfig = DEFAULT_DIFF):
    """Evaluator (u1, u2, s) -> 3x3 Lorentzian matrix, s in
    ``EXTENSION_S_RANGE``, over leading batch axes of the points: the
    reference of ``extension_curvature``.

    Block form diag(I((cos s E + sin s B) . , same), -1) in coordinates
    (u1, u2, s); restricts to I at s = 0.  Marked ``batched``, so
    ``fd.evaluate`` calls it once per stack, with the bits of one call per
    point.
    """
    lo, hi = EXTENSION_S_RANGE

    def h(p):
        p = np.asarray(p, dtype=float)
        s = p[..., 2]
        inside = (lo < s) & (s <= hi + 1e-12)
        if any_of(~inside):
            raise DomainError(f"extension parameter s = {np.ravel(s)[np.argmin(inside)]} "
                              f"outside {EXTENSION_S_RANGE}")
        data = embedding_data_at(immersion, p[..., :2], cfg=cfg)
        return _extension_block(data.I, data.B, s)

    h.batched = True
    return h


def _extension_block(I, B, s):
    """diag(I_s, -1) from the embedding data (I, B) of the chart points and
    the parameters s, of one batch shape: the one assembly of the
    extension metric."""
    g_s, _ = equidistant_data(I, B, s)
    h = np.zeros(np.shape(s) + (3, 3))
    h[..., :2, :2] = g_s
    h[..., 2, 2] = -1.0
    return h


# the six independent components R_abcd, (a, b) <= (c, d) among the pairs
# (0, 1), (0, 2), (1, 2)
_PAIRS = ((0, 1), (0, 2), (1, 2))
_COMPONENTS = tuple(np.array(ix) for ix in zip(*[
    (a, b, c, d) for k, (a, b) in enumerate(_PAIRS) for (c, d) in _PAIRS[k:]]))


def riemann_constant_curvature_residual(metric, p, scheme: FDScheme):
    """Relative residual of R_abcd + (h_ac h_bd - h_ad h_bc) at points p.

    ``metric`` is any callable p -> 3x3 symmetric matrix, evaluated on the
    jet ``fd.stencil(p, scheme, scheme)`` by ``fd.evaluate``; derivatives
    are taken componentwise by central differences.  The maximum over the
    six independent components is normalized by the squared Frobenius norm
    of h.  Every sum over an index runs in index order.
    """
    h = evaluate(metric, stencil(p, scheme, scheme))
    return _curvature_residual(*partials(h, scheme, scheme))


def _curvature_residual(h, d, dd):
    """The residual of ``riemann_constant_curvature_residual`` from the
    metric's jet ``fd.partials``: h, d[a] = d_a h, dd[a, b] = d_a d_b h."""
    h = np.asarray(h, dtype=float)
    h_inv = np.linalg.inv(h)
    batch = h.ndim - 2
    dh = np.stack(list(d), axis=batch)             # dh[..., a, :, :] = d_a h

    gamma = christoffel_symbols(h_inv, d)          # gamma[..., c, a, b]
    # dgamma[..., e, c, a, b] = d_e Gamma^c_ab, the product rule applied to
    # Gamma = 1/2 h^-1 (dh + dh - dh): d_e h^-1 = -h^-1 (d_e h) h^-1
    dh_inv = -h_inv[..., None, :, :] @ dh @ h_inv[..., None, :, :]
    dgamma = (christoffel_symbols(dh_inv, np.expand_dims(d, -3))
              + christoffel_symbols(h_inv[..., None, :, :], np.moveaxis(dd, 0, -3)))

    # R^rho_{sig mu nu} = d_mu G^rho_{nu sig} - d_nu G^rho_{mu sig}
    #                     + G^rho_{mu lam} G^lam_{nu sig} - G^rho_{nu lam} G^lam_{mu sig}
    r_up = (np.einsum("...ecab->...cbea", dgamma)
            - np.einsum("...ecab->...cbae", dgamma))
    for lam in range(3):
        g_lam = np.swapaxes(gamma[..., lam, :, :], -1, -2)   # [..., sig, nu]
        r_up = (r_up + gamma[..., :, None, :, None, lam] * g_lam[..., None, :, None, :]
                - gamma[..., :, None, None, :, lam] * g_lam[..., None, :, :, None])
    r_low = 0.0
    for lam in range(3):
        r_low = r_low + h[..., :, lam, None, None, None] * r_up[..., lam, None, :, :, :]
    resid = (r_low + h[..., :, None, :, None] * h[..., None, :, None, :]
             - h[..., :, None, None, :] * h[..., None, :, :, None])
    worst = np.abs(resid[(Ellipsis,) + _COMPONENTS]).max(axis=-1)
    return worst / np.sum((h * h).reshape(h.shape[:-2] + (9,)), axis=-1)


def extension_curvature(immersion: Immersion, p, cfg: DiffConfig = DEFAULT_DIFF):
    """Constant-curvature residual of ``extension_metric(immersion, cfg)``
    at interior points, differenced with step 1e-2 and Richardson; errors
    out when the stencil of any point would leave the s-range.

    The metric at each of the 37 points of the 3-D stencil is assembled
    from the embedding data at its chart point (u1, u2).  Those are the 17
    points of the 2-D stencil at u, in one embedding-data call.
    """
    scheme = FDScheme(step=1e-2, richardson=True)
    p = np.asarray(p, dtype=float)
    lo, hi = EXTENSION_S_RANGE
    s = p[..., 2]
    inside = (lo + scheme.step < s) & (s < hi - scheme.step + 1e-15)
    if any_of(~inside):
        raise DomainError(f"stencil of half-width {scheme.step} leaves s-range "
                          f"at s = {np.ravel(s)[np.argmin(inside)]}")
    s_points = stencil(p, scheme, scheme)[..., 2]
    data = embedding_data_at(immersion, stencil(p[..., :2], scheme, scheme), cfg=cfg)
    # each 3-D stencil point sits over the 2-D one with its shifts of u1, u2
    chart = {shift: k for k, shift in enumerate(shifts(2, scheme, scheme))}
    over = [chart[tuple(c for c in shift if c[0] < 2)] for shift in shifts(3, scheme, scheme)]
    h = _extension_block(data.I[over], data.B[over], s_points)
    return _curvature_residual(*partials(h, scheme, scheme))


# ---------------------------------------------------------------------------
# constant-curvature slice selection

def slice_parameter(K: float) -> float:
    """The family parameter s in (-pi/2, 0) of curvature -1/cos(s)^2 = K."""
    if not K < -1.0:
        raise DomainError(f"constant-curvature slice needs K < -1, got K = {K}")
    return -np.arccos(1.0 / np.sqrt(-K))


def phi_k_fuchsian(K: float, u, cfg: DiffConfig = DEFAULT_DIFF):
    """(s, left metric, normalized K-surface metric) of the umbilic family
    member with -1/cos(s)^2 = K, s in (-pi/2, 0), the metrics at chart points
    u; the induced metric is rescaled by |K| to curvature -1.  Both metrics
    coincide with the base hyperbolic metric.
    """
    s = slice_parameter(K)
    data = embedding_data_at(family_immersion(s), u, cfg=cfg)
    return s, mess_metric(data, +1), (-K) * data.I

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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .embedding import (STRONG_CONVEXITY_TOL, EmbeddingData, Immersion,
                        brioschi_curvature, christoffel_symbols,
                        embedding_data_at, family_immersion, gaussian_curvature,
                        metric_field, normal_field, require_strong_convexity,
                        third_fundamental_form)
from .errors import DomainError, FocalPointError
from .fd import DEFAULT_DIFF, DiffConfig, FDScheme, d1, d2

# the umbilic family fixture (constant-curvature equidistants)
fuchsian_family = family_immersion


# ---------------------------------------------------------------------------
# duality

@dataclass(frozen=True)
class DualData:
    point: np.ndarray
    I_star: np.ndarray
    B_star: np.ndarray
    K_star: float


def dual_data_pointwise(data: EmbeddingData, K: float | None = None,
                        tol: float = STRONG_CONVEXITY_TOL) -> DualData:
    """Algebraic duality of one set of embedding data.

    Requires strong convexity: det B > tol with principal curvatures of one
    sign.  I* = III, B* = -B^{-1}; K* = -K/(1+K) from the supplied base
    curvature (measured independently when available; the Gauss value
    -1 - det B is the fallback).
    """
    det_b = require_strong_convexity(data.B, tol)
    if K is None:
        K = -1.0 - det_b
    return DualData(point=data.n.copy(),
                    I_star=third_fundamental_form(data),
                    B_star=-np.linalg.inv(data.B),
                    K_star=-K / (1.0 + K))


def dual_immersion(immersion: Immersion, cfg: DiffConfig = DEFAULT_DIFF) -> Immersion:
    """The dual surface as an immersion: u -> future unit normal of F at u."""
    nf = normal_field(immersion, cfg)
    return Immersion(f"dual({immersion.name})", nf, domain=immersion.domain,
                     params=dict(immersion.params))


def dual_surface(immersion: Immersion, u, cfg: DiffConfig = DEFAULT_DIFF,
                 tol: float = STRONG_CONVEXITY_TOL,
                 independent_curvature: bool = False):
    """Duality with its verification residuals at one chart point.

    Diagnostics returned alongside the dual data:

    * ``metric_vs_third_form``: finite-difference induced metric of the dual
      immersion against III of the base data;
    * ``curvature_consistency``: K* through two independently measured
      routes, -K/(1+K) with K from the curvature of I, against the Gauss
      value -1 - det(B*) with B* from the second fundamental form;
    * ``involution``: dual of the dual against the antipodal base point
      (identical in the projective model);
    * ``curvature_independent`` (optional): Brioschi curvature of the
      twice-differenced dual metric field against the formula.  Three nested
      difference layers cap its accuracy near 1e-3.
    """
    data = embedding_data_at(immersion, u, cfg=cfg)
    k_measured = gaussian_curvature(immersion, u, cfg=cfg)
    dual = dual_data_pointwise(data, K=k_measured, tol=tol)

    fstar = dual_immersion(immersion, cfg)
    gstar = metric_field(fstar, cfg)
    metric_resid = float(np.abs(np.asarray(gstar(u)) - dual.I_star).max())

    k_star_gauss = -1.0 - float(np.linalg.det(dual.B_star))
    consistency_resid = abs(k_star_gauss - dual.K_star)

    ddual_point = normal_field(fstar, cfg)(u)
    antipode = -np.asarray(immersion(u), dtype=float)
    involution_resid = float(min(np.abs(ddual_point - antipode).max(),
                                 np.abs(ddual_point + antipode).max()))
    diagnostics = {
        "metric_vs_third_form": metric_resid,
        "curvature_consistency": consistency_resid,
        "involution": involution_resid,
    }
    if independent_curvature:
        k_dual_measured = brioschi_curvature(gstar, u, cfg.field)
        diagnostics["curvature_independent"] = abs(k_dual_measured - dual.K_star)
    return dual, diagnostics


# ---------------------------------------------------------------------------
# equidistant data and the extension metric

def equidistant_data(I, B, s: float, singular_tol: float = 1e-8):
    """(I_s, B_s) of the equidistant surface generated by (I, B).

    I_s = I(A_s . , A_s . ) and B_s = A_s^{-1} (cos(s) B - sin(s) E) with
    A_s = cos(s) E + sin(s) B; the sign of B_s is the one that keeps the
    Gauss equation satisfied along the umbilic family.
    """
    I = np.asarray(I, dtype=float)
    B = np.asarray(B, dtype=float)
    a = np.cos(s) * np.eye(2) + np.sin(s) * B
    scale = 1.0 + float(np.abs(B).max())
    if np.linalg.svd(a, compute_uv=False)[-1] <= singular_tol * scale:
        raise FocalPointError(f"focal point at s = {s}: cos(s) E + sin(s) B singular")
    c = np.cos(s) * B - np.sin(s) * np.eye(2)
    return a.T @ I @ a, np.linalg.solve(a, c)


@dataclass(frozen=True)
class ExtensionMetric:
    """Evaluator (u1, u2, s) -> 3x3 Lorentzian matrix, s in (-pi/2, 0].

    Block form diag(I((cos s E + sin s B) . , same), -1) in coordinates
    (u1, u2, s); restricts to I at s = 0.
    """

    immersion: Immersion
    cfg: DiffConfig
    s_range: tuple = (-np.pi / 2, 0.0)

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        u, s = p[:2], p[2]
        if not self.s_range[0] < s <= self.s_range[1] + 1e-12:
            raise DomainError(f"extension parameter s = {s} outside {self.s_range}")
        data = embedding_data_at(self.immersion, u, cfg=self.cfg)
        g_s, _ = equidistant_data(data.I, data.B, s)
        h = np.zeros((3, 3))
        h[:2, :2] = g_s
        h[2, 2] = -1.0
        return h


def extension_metric(immersion: Immersion, cfg: DiffConfig = DEFAULT_DIFF,
                     slack: float = 0.0) -> ExtensionMetric:
    """Extension evaluator; ``slack`` widens the admissible s-range so that
    finite-difference stencils near s = 0 stay legal."""
    return ExtensionMetric(immersion=immersion, cfg=cfg,
                           s_range=(-np.pi / 2, slack))


def riemann_constant_curvature_residual(metric, p, scheme: FDScheme) -> float:
    """Relative residual of R_abcd + (h_ac h_bd - h_ad h_bc) at p.

    ``metric`` is any callable p -> 3x3 symmetric matrix; derivatives are
    taken componentwise by central differences.  The maximum over the six
    independent components is normalized by the squared Frobenius norm of h.
    """
    p = np.asarray(p, dtype=float)
    h = np.asarray(metric(p), dtype=float)
    h_inv = np.linalg.inv(h)
    dh = np.stack([d1(metric, p, a, scheme) for a in range(3)])
    ddh = np.empty((3, 3, 3, 3))
    for a in range(3):
        for b in range(a, 3):
            v = d2(metric, p, a, b, scheme, f0=h)
            ddh[a, b] = v
            ddh[b, a] = v

    gamma = christoffel_symbols(h_inv, dh)
    dh_inv = np.stack([-h_inv @ dh[a] @ h_inv for a in range(3)])
    dgamma = np.empty((3, 3, 3, 3))        # dgamma[e, c, a, b] = d_e Gamma^c_ab
    for e in range(3):
        for c in range(3):
            for a in range(3):
                for b in range(3):
                    s = 0.0
                    for dd in range(3):
                        s += dh_inv[e][c, dd] * (dh[a][b, dd] + dh[b][a, dd] - dh[dd][a, b])
                        s += h_inv[c, dd] * (ddh[e, a][b, dd] + ddh[e, b][a, dd]
                                             - ddh[e, dd][a, b])
                    dgamma[e, c, a, b] = 0.5 * s

    def riemann_up(rho, sig, mu, nu):
        s = dgamma[mu, rho, nu, sig] - dgamma[nu, rho, mu, sig]
        for lam in range(3):
            s += gamma[rho, mu, lam] * gamma[lam, nu, sig]
            s -= gamma[rho, nu, lam] * gamma[lam, mu, sig]
        return s

    pairs = [(0, 1), (0, 2), (1, 2)]
    worst = 0.0
    for ia, (a, b) in enumerate(pairs):
        for (c, dd) in pairs[ia:]:
            r = 0.0
            for lam in range(3):
                r += h[a, lam] * riemann_up(lam, b, c, dd)
            resid = r + h[a, c] * h[b, dd] - h[a, dd] * h[b, c]
            worst = max(worst, abs(resid))
    return worst / float(np.sum(h * h))


def extension_curvature(ext: ExtensionMetric, p,
                        scheme: FDScheme | None = None) -> float:
    """Constant-curvature residual of the extension metric at an interior
    point; errors out when the stencil would leave the s-range."""
    scheme = scheme or FDScheme(step=1e-2, richardson=True)
    p = np.asarray(p, dtype=float)
    lo, hi = ext.s_range
    if not lo + scheme.step < p[2] < hi - scheme.step + 1e-15:
        raise DomainError(
            f"stencil of half-width {scheme.step} leaves s-range at s = {p[2]}")
    return riemann_constant_curvature_residual(ext, p, scheme)


# ---------------------------------------------------------------------------
# constant-curvature slice selection

@dataclass(frozen=True)
class PhiKResult:
    s: float
    left_metric: Callable[[np.ndarray], np.ndarray]
    surface_metric: Callable[[np.ndarray], np.ndarray]


def phi_k_fuchsian(K: float, cfg: DiffConfig = DEFAULT_DIFF) -> PhiKResult:
    """Left metric and normalized K-surface metric on the umbilic family.

    Picks s in (-pi/2, 0) with -1/cos(s)^2 = K, returns the left metric of
    the family member and its induced metric rescaled by |K| to curvature
    -1.  Both coincide with the base hyperbolic metric.
    """
    if not K < -1.0:
        raise DomainError(f"constant-curvature slice needs K < -1, got K = {K}")
    s = -np.arccos(1.0 / np.sqrt(-K))
    surface = family_immersion(s)

    def left(u):
        from .mess_metrics import mess_metric
        return mess_metric(embedding_data_at(surface, u, cfg=cfg), +1)

    def normalized(u):
        return (-K) * np.asarray(metric_field(surface, cfg)(u), dtype=float)

    return PhiKResult(s=s, left_metric=left, surface_metric=normalized)

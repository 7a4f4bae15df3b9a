"""Left and right metrics on a spacelike surface and their sharp structure.

The two metrics are I((E +- J B) . , (E +- J B) . ).  Their Levi-Civita
connection, complex structure and curvature are obtained by conjugation
with A = E + J B (never by differentiating the metric itself):

    D#_u v = A^{-1} D_u (A v),    J# = A^{-1} J A,    K# = K / det(A),

valid whenever d^D A = 0, which reduces to the Codazzi equation of B.
For Gauss-Codazzi data det(E + J B) = 1 + det B = -K, so K# = -1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import (EmbeddingData, Immersion, christoffels,
                        codazzi_residual_fields, embedding_data_at,
                        gaussian_curvature, metric_field)
from .errors import DegenerateDataError, TransferPreconditionError
from .fd import DEFAULT_DIFF, DiffConfig, d1

MAX_SHARP_CONDITION = 1e8
TRANSFER_CODAZZI_TOL = 1e-4


def _sharp_factor(data: EmbeddingData, sign: int):
    a = np.eye(2) + float(sign) * (data.J @ data.B)
    if np.linalg.cond(a) > MAX_SHARP_CONDITION:
        raise DegenerateDataError("E + JB too close to singular (near-lightlike data)")
    return a


def mess_metric(data: EmbeddingData, sign: int = +1):
    """I((E +- JB) . , (E +- JB) . ) as a chart matrix; positive definite."""
    a = _sharp_factor(data, sign)
    m = a.T @ data.I @ a
    if np.linalg.eigvalsh(m)[0] <= 0.0:
        raise DegenerateDataError("sharp metric lost positive definiteness")
    return m


def sharp_factor_field(immersion: Immersion, cfg: DiffConfig = DEFAULT_DIFF,
                       sign: int = +1):
    def af(u):
        d = embedding_data_at(immersion, u, cfg=cfg)
        return np.eye(2) + float(sign) * (d.J @ d.B)

    return af


@dataclass(frozen=True)
class SharpData:
    """Sharp structure of the plus metric at one chart point."""

    u: np.ndarray
    I_sharp: np.ndarray
    J_sharp: np.ndarray
    K_sharp: float
    da_sharp: float
    christoffels: np.ndarray        # Gamma#[k, i, j]
    codazzi_residual: float | None  # of E + JB; None when the check is skipped


def sharp_frame(immersion: Immersion, u, cfg: DiffConfig = DEFAULT_DIFF,
                sign: int = +1, check: bool = True) -> SharpData:
    """Connection, complex structure and curvature of the sharp metric.

    Raises TransferPreconditionError when the Codazzi residual of E + JB
    exceeds tolerance (the conjugation formula is then meaningless).
    """
    u = np.asarray(u, dtype=float)
    data = embedding_data_at(immersion, u, cfg=cfg)
    a = _sharp_factor(data, sign)
    a_inv = np.linalg.inv(a)

    g_field = metric_field(immersion, cfg)
    a_field = sharp_factor_field(immersion, cfg, sign)

    codazzi = None
    if check:
        codazzi = codazzi_residual_fields(g_field, a_field, u, cfg.field)
        if codazzi > TRANSFER_CODAZZI_TOL:
            raise TransferPreconditionError(
                f"Codazzi residual of E + JB is {codazzi:.3e} at u = {u}")

    gamma = christoffels(g_field, u, cfg.field)
    da = np.stack([d1(a_field, u, 0, cfg.field), d1(a_field, u, 1, cfg.field)])
    # D#_i (d_j) = A^{-1} [ dA_i . e_j + Gamma_i^k(e_j) A e_k ]
    gamma_sharp = np.empty((2, 2, 2))
    for i in range(2):
        for j in range(2):
            vec = da[i][:, j] + gamma[:, i, :] @ a[:, j]
            gamma_sharp[:, i, j] = a_inv @ vec

    i_sharp = a.T @ data.I @ a
    j_sharp = a_inv @ data.J @ a
    k_base = gaussian_curvature(immersion, u, cfg=cfg)
    k_sharp = k_base / float(np.linalg.det(a))
    da_sharp = float(np.sqrt(np.linalg.det(i_sharp)))
    return SharpData(u=u, I_sharp=i_sharp, J_sharp=j_sharp, K_sharp=k_sharp,
                     da_sharp=da_sharp, christoffels=gamma_sharp,
                     codazzi_residual=codazzi)


def sharp_curvature(immersion: Immersion, u, cfg: DiffConfig = DEFAULT_DIFF,
                    sign: int = +1) -> float:
    """K# = K / det(E + JB) without assembling the full frame."""
    data = embedding_data_at(immersion, u, cfg=cfg)
    a = _sharp_factor(data, sign)
    return gaussian_curvature(immersion, u, cfg=cfg) / float(np.linalg.det(a))


def sharp_metric_derivative_residual(immersion: Immersion, u,
                                     cfg: DiffConfig = DEFAULT_DIFF,
                                     sign: int = +1) -> float:
    """Metric-compatibility residual of D# against the I# field.

    max_k | d_k I#_ij - I#(D#_k d_i, d_j) - I#(d_i, D#_k d_j) |.
    """
    frame = sharp_frame(immersion, u, cfg=cfg, sign=sign, check=False)

    def isf(v):
        return mess_metric(embedding_data_at(immersion, v, cfg=cfg), sign)

    worst = 0.0
    for k in range(2):
        d_is = d1(isf, u, k, cfg.field)
        for i in range(2):
            for j in range(2):
                v = d_is[i, j]
                for m in range(2):
                    v -= frame.christoffels[m, k, i] * frame.I_sharp[m, j]
                    v -= frame.christoffels[m, k, j] * frame.I_sharp[i, m]
                worst = max(worst, abs(v))
    return worst


def sharp_torsion_residual(immersion: Immersion, u,
                           cfg: DiffConfig = DEFAULT_DIFF, sign: int = +1) -> float:
    frame = sharp_frame(immersion, u, cfg=cfg, sign=sign, check=False)
    t = frame.christoffels[:, 0, 1] - frame.christoffels[:, 1, 0]
    return float(np.abs(t).max())


def verify_left_metric_hyperbolic(immersion: Immersion, samples,
                                  cfg: DiffConfig = DEFAULT_DIFF, sign: int = +1):
    """Rows (u, K#, |K# + 1|) over the sample set, plus the max residual."""
    rows = []
    worst = 0.0
    for u in samples:
        ks = sharp_curvature(immersion, u, cfg=cfg, sign=sign)
        resid = abs(ks + 1.0)
        worst = max(worst, resid)
        rows.append((np.asarray(u, dtype=float), ks, resid))
    return rows, worst

"""Left and right metrics on a spacelike surface and their sharp structure.

The two metrics are I((E +- J B) . , (E +- J B) . ).  Their Levi-Civita
connection, complex structure and curvature are obtained by conjugation
with A = E + J B (never by differentiating the metric itself):

    D#_u v = A^{-1} D_u (A v),    J# = A^{-1} J A,    K# = K / det(A),

valid whenever d^D A = 0: the torsion of D# is A^{-1} d^D A, and
d^D A = J d^D B with J an I-isometry, so the precondition is the Codazzi
equation of B, the Codazzi row of ``embedding.structure_residuals``.
For Gauss-Codazzi data det(E + J B) = 1 + det B = -K, so K# = -1.

Every function here takes embedding data or chart points with leading
batch axes (see embedding.py).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import any_of, det, entries, inv, singular_values
from .embedding import (EmbeddingData, Immersion, _curvature_from_known,
                        christoffel_symbols, embedding_data_at)
from .errors import DegenerateDataError
from .fd import DEFAULT_DIFF, DiffConfig, partials, stencil

MAX_SHARP_CONDITION = 1e8


def _sharp_factor(data: EmbeddingData, sign: int):
    jb = data.J @ data.B
    a = np.eye(2) + (jb if sign > 0 else -jb)
    big, small = singular_values(a)
    if any_of(big > MAX_SHARP_CONDITION * small):
        raise DegenerateDataError("E + JB too close to singular (near-lightlike data)")
    return a


def _pull_back(a, I):
    """I(A . , A . ) as a chart matrix A^T I A; positive definite."""
    m = np.swapaxes(a, -1, -2) @ I @ a
    if any_of((entries(m)[0] <= 0.0) | (det(m) <= 0.0)):
        raise DegenerateDataError("sharp metric lost positive definiteness")
    return m


def mess_metric(data: EmbeddingData, sign: int = +1):
    """I((E +- JB) . , (E +- JB) . ) as a chart matrix; positive definite."""
    return _pull_back(_sharp_factor(data, sign), data.I)


@dataclass(frozen=True)
class SharpData:
    """Connection and complex structure of the plus metric at chart points
    u; every field carries the leading batch axes of u.  The curvature K#
    is not part of the frame: ``sharp_curvature`` computes it."""

    u: np.ndarray
    I_sharp: np.ndarray
    J_sharp: np.ndarray
    da_sharp: np.ndarray
    christoffels: np.ndarray        # Gamma#[..., k, i, j]


def sharp_frame(immersion: Immersion, u, cfg: DiffConfig = DEFAULT_DIFF) -> SharpData:
    """Connection, complex structure and area form of the plus metric.

    One embedding-data call on the field-step stencil gives the data at u
    (its centre) and the partials of I and of A = E + JB.  The frame takes
    d^D A = 0 on trust: its torsion is A^{-1} d^D A, and the Codazzi row
    of ``embedding.structure_residuals`` measures |d^D B|_I = |d^D A|_I.
    """
    data = embedding_data_at(immersion, stencil(u, cfg.field), cfg=cfg)
    return _sharp_frame(data, _sharp_factor(data, +1), cfg.field)


def _sharp_frame(data: EmbeddingData, a_stencil, scheme) -> SharpData:
    """``sharp_frame`` at the centre points u = ``data.u[0]`` from the
    embedding data on ``stencil(u, scheme)`` and the factor E + JB formed
    from it (``_sharp_factor(data, +1)``)."""
    centre = data[0]
    a = a_stencil[0]
    d = partials(np.stack([data.I, a_stencil], axis=-3), scheme)[1]
    da = d[..., 1, :, :]
    gamma = christoffel_symbols(inv(centre.I), d[..., 0, :, :])

    # D#_i (d_j) = A^{-1} [ dA_i . e_j + Gamma_i^k(e_j) A e_k ], as vec[k, i, j]
    vec = np.moveaxis(da, 0, -2) + gamma @ a[..., None, :, :]
    gamma_sharp = (inv(a) @ vec.reshape(vec.shape[:-2] + (4,))).reshape(vec.shape)

    i_sharp, j_sharp = _sharp_structure(centre, a)
    return SharpData(u=centre.u, I_sharp=i_sharp, J_sharp=j_sharp,
                     da_sharp=np.sqrt(det(i_sharp)), christoffels=gamma_sharp)


def _sharp_structure(data: EmbeddingData, a):
    """(I#, J#) = (A^T I A, A^{-1} J A) at the points of ``data``, from the
    factor A = E + JB formed there (``_sharp_factor(data, +1)``)."""
    return _pull_back(a, data.I), inv(a) @ data.J @ a


def _sharp_curvature(immersion: Immersion, u, known, a, cfg: DiffConfig):
    """K# = K / det(A) at u, with K from ``_curvature_from_known(immersion,
    u, known, cfg)`` and the factor A = E + JB at u."""
    return _curvature_from_known(immersion, u, known, cfg) / det(a)


def sharp_curvature(immersion: Immersion, u, cfg: DiffConfig = DEFAULT_DIFF):
    """K# = K / det(E + JB) at chart points u, through ``_sharp_curvature``,
    the one implementation of K#."""
    data = embedding_data_at(immersion, u, cfg=cfg)
    return _sharp_curvature(immersion, u, data.I[None], _sharp_factor(data, +1), cfg)


def sharp_metric_derivative_residual(immersion: Immersion, u,
                                     cfg: DiffConfig = DEFAULT_DIFF):
    """Metric-compatibility residual of D# against the I# field.

    max_k | d_k I#_ij - I#(D#_k d_i, d_j) - I#(d_i, D#_k d_j) |, with the
    frame and the partials of I# from one embedding-data call on the
    field-step stencil.
    """
    data = embedding_data_at(immersion, stencil(u, cfg.field), cfg=cfg)
    a_stencil = _sharp_factor(data, +1)
    frame = _sharp_frame(data, a_stencil, cfg.field)
    gamma, i_sharp = frame.christoffels, frame.I_sharp
    # resid[..., k, i, j] = d_k I#_ij, with I# = A^T I A on the stencil
    resid = np.moveaxis(partials(_pull_back(a_stencil, data.I), cfg.field)[1], 0, -3)
    for m in range(2):
        resid = resid - gamma[..., m, :, :, None] * i_sharp[..., None, None, m, :]
        resid = resid - gamma[..., m, :, None, :] * i_sharp[..., None, :, m, None]
    return np.abs(resid).max(axis=(-3, -2, -1))


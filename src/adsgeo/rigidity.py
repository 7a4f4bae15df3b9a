"""The linearized rigidity chain.

Pointwise 2x2 layer: for a strongly convex shape operator B and an
I-self-adjoint variation Bdot, the morphism

    b = (E + J B)^{-1} J Bdot

satisfies tr((E + JB) b) = 0 always and tr((E + (JB)^{-1}) b) = 0 exactly
when the linearized Gauss equation tr(B^{-1} Bdot) = 0 holds; through the
Cayley-Hamilton identity J B = (1 + K) (J B)^{-1} the pair is equivalent
to tr(b) = 0, tr(J B b) = 0.  The layer works on 2x2 entry tuples
(m11, m12, m21, m22) (``batch.mul2``, ``inv2``, ``trace2``) of one pair or
of n pairs, with products written out: no stacked matmul, so pair i of a
stack gets the bits of pair i alone.  ``linearized_chain_batch`` reports
the maxima of ``trace_conditions`` over n random convex pairs.

Field layer: b built from a potential, b = J# (-D# D# mu + mu E), is
traceless by pure algebra and satisfies the sharp Codazzi equation up to
discretization.  A b field is a function of the sharp frame:
``sharp_codazzi_residual`` builds one frame on the field-step stencil and
reads both the field and the connection at its centre from it.  The
operator J B J# is I#-self-adjoint with eigenvalues (-k2, -k1).

Discrete layer: on the umbilic family fixture at parameter s the trace
equation reduces to tan|s| (Laplace - 2) on the genus-2 surface, whose
spectrum is the image -tan|s| (lambda + 2) of the one Laplace solve, with
a trivial-kernel verdict from the smallest magnitudes.
"""
from __future__ import annotations

import dataclasses
import numbers

import numpy as np

from .batch import cholesky2, det2, eigvalsh, entries, inv2, matrix, mul2, trace2, vector
from .embedding import (EmbeddingData, Immersion, complex_structure, embedding_data_at,
                        exterior_covariant_derivative, require_strong_convexity)
from .errors import DomainError
from .fd import (DEFAULT_DIFF, DiffConfig, FDScheme, evaluate, partials, shift_partials,
                 stencil)
from .fuchsian import DiscreteOperators, laplace_eigenvalues, shared_pattern
from .mess_metrics import (SharpData, _sharp_curvature, _sharp_factor, _sharp_frame,
                           _sharp_structure, mess_metric, sharp_frame)


# pairs per chunk of linearized_chain_batch: each temporary of a chunk takes
# 16 KiB, small enough to stay in cache and to be reused from the heap by the
# next chunk instead of being mapped and faulted in afresh
CHAIN_CHUNK = 2048


# ---------------------------------------------------------------------------
# 2x2 algebra in closed form, on entry tuples of one pair or of n pairs

def _plus_identity(m):
    """E + m."""
    a, b, c, d = m
    return 1.0 + a, b, c, 1.0 + d


def _b_of_bdot(J, B, bdot):
    """b = (E + JB)^{-1} J Bdot."""
    return mul2(inv2(_plus_identity(mul2(J, B))), mul2(J, bdot))


def _traces(J, B, b, bdot):
    """tr b, tr(JB b), tr((E + JB) b), tr((E + (JB)^{-1}) b), tr(B^{-1} Bdot)."""
    jb = mul2(J, B)
    return {"tr_b": trace2(b), "tr_jbb": trace2(mul2(jb, b)),
            "tr_first": trace2(mul2(_plus_identity(jb), b)),
            "tr_second": trace2(mul2(_plus_identity(inv2(jb)), b)),
            "tr_binv_bdot": trace2(mul2(inv2(B), bdot))}


def _cayley_hamilton(J, B):
    """Entrywise residual of J B = (1 + K) (J B)^{-1}, K = -1 - det B."""
    jb = mul2(J, B)
    K = -1.0 - det2(B)
    return np.abs(np.array(jb) - (1.0 + K) * np.array(inv2(jb))).max(axis=0)


def b_from_bdot(data: EmbeddingData, bdot):
    """(b, Idot#): b = (E + JB)^{-1} J Bdot and the first variation
    I#(b . , . ) + I#( . , b . ) it induces on the plus metric."""
    b = matrix(*_b_of_bdot(entries(data.J), entries(data.B), entries(bdot)))
    i_sharp = mess_metric(data, +1)
    return b, np.swapaxes(b, -1, -2) @ i_sharp + i_sharp @ b


def trace_conditions(I, B, bdot) -> dict:
    """The residuals of ``linearized_chain_batch``, signed, plus the
    equivalence gap, at one (I, B, Bdot) or at each of a stack, with
    J = ``complex_structure(I)`` as in ``embedding_data_at``: a dict of
    numbers or of arrays of the stack's shape.

    Keys: tr_b, tr_jbb, tr_first = tr((E + JB) b), tr_second =
    tr((E + (JB)^{-1}) b), tr_binv_bdot, cayley_hamilton and
    equivalence_gap.  The gap measures how far the vanishing of the first
    pair is from being equivalent to the vanishing of (tr b, tr JBb): both
    pairs are linear images of each other through JB = (1+K)(JB)^{-1}, so
    the residual pairs are compared directly.
    """
    det_b = require_strong_convexity(B)
    J, B, bdot = entries(complex_structure(I)), entries(B), entries(bdot)
    t = _traces(J, B, _b_of_bdot(J, B, bdot), bdot)
    t["cayley_hamilton"] = _cayley_hamilton(J, B)
    # (b1, b2) = L (b4, b5) with L = [[1, 1], [1, 1/(1+K)]], K < -1
    K = -1.0 - det_b
    mixed = np.array([t["tr_b"] + t["tr_jbb"], t["tr_b"] + t["tr_jbb"] / (1.0 + K)])
    t["equivalence_gap"] = np.abs(mixed - np.array([t["tr_first"],
                                                    t["tr_second"]])).max(axis=0)
    return t


def cayley_hamilton_residual(data: EmbeddingData):
    """Componentwise residual of J B = (1 + K) (J B)^{-1}, K = -1 - det B,
    at one point or at each point of a stack of data."""
    require_strong_convexity(data.B)
    return _cayley_hamilton(entries(data.J), entries(data.B))


def variation_formula_residual(data: EmbeddingData, bdot) -> float:
    """Central t-difference, step 1e-6, of I#_+(B + t Bdot) against
    I#(b.,.) + I#(.,b.)."""
    bdot = np.asarray(bdot, dtype=float)
    dt = 1e-6

    def i_sharp_at(t):
        return mess_metric(dataclasses.replace(data, B=data.B + t * bdot), +1)

    numeric = (i_sharp_at(dt) - i_sharp_at(-dt)) / (2.0 * dt)
    algebraic = b_from_bdot(data, bdot)[1]
    return float(np.abs(numeric - algebraic).max())


def random_convex_pairs(rng, n: int):
    """n random (I, B, Bdot) as (n, 2, 2) stacks: I SPD, B I-self-adjoint
    with principal curvatures uniform on [0.3, 2.5], Bdot I-self-adjoint
    with tr(B^{-1} Bdot) projected to zero.

    One rng call draws an (n, 14) array of standard normals, filled row by
    row; pair i reads row i only, so the first m pairs do not depend on n.
    A row holds a Gaussian 2x2 a, with I = a^T a + E/2; a Gaussian 2-vector
    g, the direction of the first eigenvector of L^T B L^{-T} (L the
    Cholesky factor of I); a Gaussian 2x2 s, with Bdot built from
    I^{-1} (s + s^T); and two pairs of normals z, each giving a curvature
    0.3 + 2.2 exp(-|z|^2 / 2), as exp(-|z|^2 / 2) is uniform on (0, 1].
    """
    z = rng.standard_normal((n, 14))
    a11, a12, a21, a22, g1, g2, s11, s12, s21, s22 = z[:, :10].T
    z1, z2 = z[:, 10:12], z[:, 12:14]
    k1, k2 = (0.3 + 2.2 * np.exp(-0.5 * (z1 * z1 + z2 * z2))).T
    # d = Q diag(k1, k2) Q^T for the rotation Q = [[c, -sn], [sn, c]] whose
    # first column is g / |g| (Gram-Schmidt on g and its quarter turn)
    r = np.sqrt(g1 * g1 + g2 * g2)
    c, sn = g1 / r, g2 / r
    off = (k1 - k2) * c * sn
    d = (k1 * c * c + k2 * sn * sn, off, off, k1 * sn * sn + k2 * c * c)
    i11, i12, i21, i22 = mul2((a11, a21, a12, a22), (a11, a12, a21, a22))
    I = (i11 + 0.5, i12, i21, i22 + 0.5)
    l11, _, l21, l22 = cholesky2(I)
    lt = (l11, l21, 0.0, l22)
    B = mul2(mul2(inv2(lt), d), lt)
    bdot0 = mul2(inv2(I), (s11 + s11, s12 + s21, s21 + s12, s22 + s22))
    half = 0.5 * trace2(mul2(inv2(B), bdot0))
    bdot = tuple(x - half * y for x, y in zip(bdot0, B))
    return matrix(*I), matrix(*B), matrix(*bdot)


def linearized_chain_batch(n: int, seed: int = 0):
    """Max |residual| of each trace identity of ``trace_conditions`` over
    n >= 1 random convex pairs (``random_convex_pairs``), without the
    equivalence gap.

    The pairs are drawn and checked CHAIN_CHUNK at a time from one
    ``default_rng(seed)``: chunked draws continue one stream, so pair i is
    the same as in one draw of n pairs, and the maxima over the chunks are
    those over all n.  Memory stays flat in n.
    """
    if not isinstance(n, numbers.Integral) or n < 1:
        raise DomainError(f"linearized chain needs an integer n >= 1, got {n!r}")
    rng = np.random.default_rng(seed)
    worst = []
    for start in range(0, n, CHAIN_CHUNK):
        residuals = trace_conditions(*random_convex_pairs(rng, min(CHAIN_CHUNK, n - start)))
        del residuals["equivalence_gap"]
        worst.append({k: np.abs(v).max() for k, v in residuals.items()})
    return {k: float(np.max([w[k] for w in worst])) for k in worst[0]}


# ---------------------------------------------------------------------------
# potentials: b = J# (-D# D# mu + mu E)

def _gradient_field(i_sharp, j_sharp, dmu):
    """The vector field v = -J# D# mu from I#, J# and the chart gradient
    dmu, (..., 2)."""
    return (-j_sharp @ np.linalg.solve(i_sharp, dmu[..., None]))[..., 0]


def _chart_point(u):
    """u as one chart point of shape (2,); the sharp identities below are
    checked at a single point and return floats."""
    u = np.asarray(u, dtype=float)
    if u.shape != (2,):
        raise DomainError(f"expected one chart point of shape (2,), got shape {u.shape}")
    return u


def b_from_mu(mu, sharp: SharpData, scheme: FDScheme):
    """b = J# (-D# D# mu + mu E) of a scalar potential at the sharp frame's
    points, with the leading batch axes of the frame.

    The covariant Hessian uses the sharp Christoffel symbols; tr(b) = 0
    holds by algebra (J# composed with an I#-self-adjoint operator).  mu is
    evaluated on the jet ``fd.stencil(u, scheme, scheme)`` around every
    frame point (``fd.evaluate``); each frame point gets the bits of a
    frame of its own.
    """
    mu0, dmu, ddmu = partials(evaluate(mu, stencil(sharp.u, scheme, scheme)), scheme, scheme)
    dmu = np.moveaxis(dmu, 0, -1)
    # Gamma#[..., :, i, j] . dmu for each (i, j), as a stack of (1, 2) @ (2, 1)
    # products: those keep the bits of a 1-D dot, where an elementwise sum
    # or einsum would round differently
    gamma = np.moveaxis(sharp.christoffels, -3, -1)[..., None, :]
    hess = (np.moveaxis(ddmu, (0, 1), (-2, -1))
            - (gamma @ dmu[..., None, None, :, None])[..., 0, 0])
    # the covariant Hessian of a function is symmetric; discarding the
    # finite-difference torsion noise keeps tr(b) = 0 at rounding level
    hess = 0.5 * (hess + np.swapaxes(hess, -1, -2))
    hess_op = np.linalg.solve(sharp.I_sharp, hess)
    return sharp.J_sharp @ (-hess_op + mu0[..., None, None] * np.eye(2))


def b_field_from_mu(immersion: Immersion, mu, cfg: DiffConfig = DEFAULT_DIFF):
    """The b field of a potential as a function of the sharp frame,
    frame -> ``b_from_mu(mu, frame, cfg.inner2)``.  ``immersion`` is not
    read, as the frame holds the surface; it stays in the signature for
    callers that pass ``mu`` and ``cfg`` positionally."""
    return lambda frame: b_from_mu(mu, frame, cfg.inner2)


def sharp_codazzi_residual(immersion: Immersion, b_field, u,
                           cfg: DiffConfig = DEFAULT_DIFF) -> float:
    """| D#_1 (b d2) - D#_2 (b d1) |_{I#} at u for an operator field b, a
    function of the sharp frame (``b_field_from_mu``).

    One sharp frame on the field-step ``fd.stencil(u)`` is handed to the
    field once; its centre is u, so ``frame.christoffels[0]`` and
    ``frame.I_sharp[0]`` hold the bits of a frame at u alone.  u is one
    point of shape (2,); anything else raises DomainError."""
    frame = sharp_frame(immersion, stencil(_chart_point(u), cfg.field), cfg=cfg)
    b, d = partials(b_field(frame), cfg.field)[:2]
    vec = exterior_covariant_derivative(frame.christoffels[0], b, d)
    return float(np.sqrt(max(vec @ frame.I_sharp[0] @ vec, 0.0)))


def exterior_derivative_identities(immersion: Immersion, mu, u,
                                   cfg: DiffConfig = DEFAULT_DIFF):
    """Residuals of the two sharp exterior-derivative identities

        d^{D#}(D# v)(d1, d2) = -K# (J# v) da#,
        d^{D#}(mu J#)(d1, d2) = -(D# mu) da#,

    evaluated for the vector field v = -J# D# mu of the potential, at one
    chart point u of shape (2,) (anything else raises DomainError).

    Both field-step differences come from one embedding-data call on the
    nested stencil ``points = stencil(stencil(u))``: ``points[j, i]`` is
    stencil point j around outer stencil point i, so ``points[0]`` is the
    outer stencil and ``points[0, 0]`` is u.  As ``points`` is also the
    stencil around ``points[0]``, those data give the sharp frame at the
    outer points, I# and J# at every nested point, and K# at u, with the
    metric on the outer stencil as the first points of its Brioschi jet.
    The gradient of the potential at every nested point comes from one
    ``cfg.inner2`` stencil around them all; mu is evaluated
    (``fd.evaluate``) on the shifted points of that stencil and at the
    outer points."""
    u = _chart_point(u)
    points = stencil(stencil(u, cfg.field), cfg.field)
    data = embedding_data_at(immersion, points, cfg=cfg)
    a = _sharp_factor(data, +1)
    fr = _sharp_frame(data, a, cfg.field)
    shifted = stencil(points, cfg.inner2)[1:]
    dmu = np.moveaxis(shift_partials(evaluate(mu, shifted), cfg.inner2), 0, -1)

    v = _gradient_field(*_sharp_structure(data, a), dmu)
    v_out, dv = partials(v, cfg.field)[:2]
    gamma = fr.christoffels
    # D# v: column j is d_j v + Gamma#[:, j, :] v, at each outer point
    dv_op = np.stack([dv[j] + (gamma[:, :, j, :] @ v_out[..., None])[..., 0]
                      for j in range(2)], axis=-1)
    dv_op0, d_dv_op = partials(dv_op, cfg.field)[:2]
    mu_jsharp = evaluate(mu, points[0])[:, None, None] * fr.J_sharp
    mu_jsharp0, d_mu_jsharp = partials(mu_jsharp, cfg.field)[:2]

    v0, j_sharp, da_sharp = v_out[0], fr.J_sharp[0], fr.da_sharp[0]
    k_sharp = _sharp_curvature(immersion, u, data.I[0], a[0, 0], cfg)
    lhs_a = exterior_covariant_derivative(gamma[0], dv_op0, d_dv_op)
    rhs_a = -k_sharp * (j_sharp @ v0) * da_sharp
    resid_a = float(np.abs(lhs_a - rhs_a).max())

    lhs_b = exterior_covariant_derivative(gamma[0], mu_jsharp0, d_mu_jsharp)
    rhs_b = -np.linalg.solve(fr.I_sharp[0], dmu[0, 0]) * da_sharp
    resid_b = float(np.abs(lhs_b - rhs_b).max())
    return resid_a, resid_b


# ---------------------------------------------------------------------------
# the operator J B J#

def jbj_sharp(data: EmbeddingData):
    """(J B J#, eigenvalues ascending, I#-self-adjointness residual), with
    the leading batch axes of the data.

    Eigenvalues are the negated principal curvatures; negative definiteness
    holds exactly on the strongly past-convex side of the paper's lemma.
    They are those of the pencil (I# J B J#, I#), in closed form
    (``batch.eigvalsh``).
    """
    require_strong_convexity(data.B)
    i_sharp, j_sharp = _sharp_structure(data, _sharp_factor(data, +1))
    op = data.J @ data.B @ j_sharp
    s11, s12, s21, s22 = entries(i_sharp @ op)
    # the largest entry of |S - S^T|: NaN, as there, when a diagonal entry
    # is not finite
    selfadj = np.abs(s12 - s21) + ((s11 - s11) + (s22 - s22))
    # the lower triangle of (S + S^T) / 2, all that eigvalsh reads; its
    # diagonal is that of S, bit for bit
    mid = 0.5 * (s21 + s12)
    eigs = vector(*eigvalsh(matrix(s11, mid, mid, s22), i_sharp))
    return op, eigs, selfadj


# ---------------------------------------------------------------------------
# discrete rigidity spectrum on the umbilic fixture

def check_rigidity_parameter(s: float):
    """The rigidity operator needs a strictly convex family member,
    s in (-pi/2, 0)."""
    if not -np.pi / 2 < s < 0.0:
        raise DomainError(f"umbilic fixture needs s in (-pi/2, 0), got {s}")


def rigidity_spectrum(ops: DiscreteOperators, s: float, k: int = 6, seed: int = 0):
    """Smallest-magnitude eigenvalues of tan|s| (-S - 2 M) against the mass
    M, the weak form of the umbilic fixture's trace equation
    tr(J B J# (-D# D# mu + mu E)) = 0 up to a positive factor.  They are
    -tan|s| (lambda + 2) over the Laplace eigenvalues lambda of (S, M), in
    the order of lambda, which is that of their magnitudes."""
    check_rigidity_parameter(s)
    return -np.tan(abs(s)) * (laplace_eigenvalues(ops, k=k, seed=seed) + 2.0)


def kernel_dimension(eigs) -> float:
    """Count of eigenvalues below the dominant magnitude gap.

    The split point with the largest magnitude ratio defines the candidate
    kernel; it only counts when that ratio exceeds 10.  Fewer than two
    eigenvalues, or one that is not finite, leave no gap to measure: the
    count is NaN (inconclusive), so that no bound on it is met.
    """
    mags = np.sort(np.abs(np.asarray(eigs, dtype=float)))
    if len(mags) < 2 or not np.isfinite(mags).all():
        return float("nan")
    floor = 1e-300
    ratios = mags[1:] / np.maximum(mags[:-1], floor)
    best = int(np.argmax(ratios))
    if ratios[best] > 10.0:
        return best + 1
    return 0


def constant_function_check(ops: DiscreteOperators, s: float) -> float:
    """Pointwise weak-form check L(1) = -2 tan|s| against the mass of 1, with
    L = tan|s| (-S - 2 M) assembled for the check on the
    ``fuchsian.shared_pattern`` of S and M."""
    import scipy.sparse
    t = float(np.tan(abs(s)))
    ones = np.ones(ops.n)
    stiffness, mass = shared_pattern(ops)
    op = scipy.sparse.csr_matrix((t * (-stiffness.data - 2.0 * mass.data),
                                  stiffness.indices, stiffness.indptr), shape=stiffness.shape)
    lhs = op @ ones
    rhs = -2.0 * t * (ops.mass @ ones)
    return float(np.abs(lhs - rhs).max() / np.abs(rhs).max())

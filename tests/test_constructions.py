import numpy as np
import pytest
import scipy.linalg

from adsgeo import ads_core as core
from adsgeo import constructions as con
from adsgeo import embedding as emb
from adsgeo.errors import (ConvexityError, DegenerateDataError, DomainError,
                           FocalPointError)
from adsgeo.fd import FDScheme


# ---------------------------------------------------------------------------
# duality

def test_dual_curvature_values():
    F = emb.family_immersion(-np.pi / 4)     # K = -2, self-dual curvature
    d = emb.embedding_data_at(F, [0.3, -0.2])
    dual = con.dual_data_pointwise(d)
    assert dual.K_star == pytest.approx(-2.0, abs=1e-8)
    # K = -5 surface: cos^2 s = 1/5
    s5 = -np.arccos(1.0 / np.sqrt(5.0))
    d5 = emb.embedding_data_at(emb.family_immersion(s5), [0.1, 0.4])
    assert con.dual_data_pointwise(d5).K_star == pytest.approx(-1.25, abs=1e-7)


def test_dual_point_is_future_normal():
    F = emb.family_immersion(-0.7)
    d = emb.embedding_data_at(F, [0.2, 0.3])
    dual = con.dual_data_pointwise(d)
    assert np.allclose(dual.point, d.n)
    assert core.bilinear22(dual.point, dual.point) == pytest.approx(-1.0, abs=1e-10)


def _convexity_sign(data):
    """+1 if both principal curvatures exceed 1e-10 (strongly past
    convex), -1 if both are below -1e-10 (strongly future convex), else 0."""
    k = emb.principal_curvatures(data)
    return int(np.all(k > 1e-10)) - int(np.all(k < -1e-10))


def test_dual_exchanges_convexity():
    # future-convex fixture -> past-convex dual, and vice versa
    F = emb.family_immersion(-0.7)
    d = emb.embedding_data_at(F, [0.2, 0.3])
    assert _convexity_sign(d) == -1
    dual = con.dual_data_pointwise(d)
    dual_data = emb.EmbeddingData(u=d.u, point=dual.point, I=dual.I_star,
                                  B=dual.B_star, J=emb.complex_structure(dual.I_star),
                                  n=-d.point)
    assert _convexity_sign(dual_data) == 1
    # pointwise past-convex input (equidistant-flowed family data)
    I_s, B_s = con.equidistant_data(d.I, d.B, -1.2)
    past = emb.EmbeddingData(u=d.u, point=d.point, I=I_s, B=B_s,
                             J=emb.complex_structure(I_s), n=d.n)
    assert _convexity_sign(past) == 1
    dual2 = con.dual_data_pointwise(past)
    past_dual = emb.EmbeddingData(u=d.u, point=d.point, I=dual2.I_star,
                                  B=dual2.B_star,
                                  J=emb.complex_structure(dual2.I_star), n=d.n)
    assert _convexity_sign(past_dual) == -1


def test_dual_third_form_and_involution(bump, rng):
    for immersion in (emb.family_immersion(-0.7), bump):
        for _ in range(3):
            u = rng.uniform(-0.7, 0.7, 2)
            dual, diag = con.dual_surface(immersion, u)
            assert diag["metric_vs_third_form"] < 1e-8
            assert diag["curvature_consistency"] < 1e-6
            assert diag["involution"] < 1e-8


def test_dual_independent_curvature_route(bump):
    # three stacked difference layers: the fully independent curvature of
    # the dual immersion agrees at its noise-limited tolerance
    u = np.array([0.25, -0.3])
    dual, _ = con.dual_surface(bump, u)
    assert abs(emb.gaussian_curvature(emb.normal_field(bump), u) - dual.K_star) < 5e-3


def test_family_dual_normal_bound():
    # <n, n> = -sin(s)^4 / (1 + |u|^2) for the dual's unnormalized normal
    for s in (-0.7, -0.0005):
        con.require_family_dual(s)
    for s in (0.0, -0.0001, -0.0002):
        with pytest.raises(DegenerateDataError):
            con.require_family_dual(s)
    with pytest.raises(DegenerateDataError):
        con.dual_surface(emb.family_immersion(-0.0001), [0.8, 0.8])


def test_duality_rejects_non_convex():
    F = emb.make_immersion("totally_geodesic")
    d = emb.embedding_data_at(F, [0.1, 0.1])
    with pytest.raises(ConvexityError):
        con.dual_data_pointwise(d)


# ---------------------------------------------------------------------------
# equidistant data

def test_equidistant_identity_at_zero(bump):
    d = emb.embedding_data_at(bump, [0.2, 0.1])
    I0, B0 = con.equidistant_data(d.I, d.B, 0.0)
    assert np.allclose(I0, d.I) and np.allclose(B0, d.B)


def test_equidistant_from_totally_geodesic():
    I = emb.hyperbolic_metric([0.3, -0.2])
    for s in (-0.3, -0.9, -1.4):
        I_s, B_s = con.equidistant_data(I, np.zeros((2, 2)), s)
        assert np.allclose(I_s, np.cos(s) ** 2 * I, atol=1e-14)
        assert np.allclose(B_s, -np.tan(s) * np.eye(2), atol=1e-12)
        gauss = -1.0 - np.linalg.det(B_s) + 1.0 / np.cos(s) ** 2
        assert abs(gauss) < 1e-8


def test_equidistant_gauss_residual_bump(bump):
    # transfer lemma: K_s = K / det(cos s E + sin s B) must satisfy the
    # Gauss equation with det B_s
    u = np.array([0.2, 0.1])
    d = emb.embedding_data_at(bump, u)
    K = emb.gaussian_curvature(bump, u)
    for s in (-0.3, -0.8):
        a = np.cos(s) * np.eye(2) + np.sin(s) * d.B
        I_s, B_s = con.equidistant_data(d.I, d.B, s)
        resid = K / np.linalg.det(a) + 1.0 + np.linalg.det(B_s)
        assert abs(resid) < 1e-6
        # B_s stays I_s-self-adjoint
        sym = I_s @ B_s
        assert np.abs(sym - sym.T).max() < 1e-12


def test_equidistant_groupoid_property(bump):
    d = emb.embedding_data_at(bump, [0.15, -0.25])
    I1, B1 = con.equidistant_data(d.I, d.B, -0.25)
    I2, B2 = con.equidistant_data(I1, B1, -0.2)
    I12, B12 = con.equidistant_data(d.I, d.B, -0.45)
    assert np.abs(I2 - I12).max() < 1e-12
    assert np.abs(B2 - B12).max() < 1e-12


def test_equidistant_focal_point():
    # past-convex data hits a focal point on the far side
    I = emb.hyperbolic_metric([0.0, 0.0])
    B = np.eye(2)
    with pytest.raises(FocalPointError):
        con.equidistant_data(I, B, -np.pi / 4)


# ---------------------------------------------------------------------------
# extension metric

def test_extension_restricts_to_induced_metric(family_07):
    ext = con.extension_metric(family_07)
    u = np.array([0.2, -0.3])
    h = ext(np.array([u[0], u[1], 0.0]))
    d = emb.embedding_data_at(family_07, u)
    assert np.allclose(h[:2, :2], d.I, atol=1e-10)
    assert h[2, 2] == -1.0 and abs(h[0, 2]) == 0.0
    vals = np.linalg.eigvalsh(h)
    assert (vals < 0).sum() == 1 and (vals > 0).sum() == 2   # signature (2,1)


def test_extension_riemann_residual_family(family_07, rng):
    for _ in range(5):
        p = np.array([rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7),
                      rng.uniform(-1.1, -0.15)])
        assert con.extension_curvature(family_07, p) < 1e-4


def test_extension_riemann_residual_bump(bump, rng):
    for _ in range(3):
        p = np.array([rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6),
                      rng.uniform(-1.0, -0.2)])
        assert con.extension_curvature(bump, p) < 1e-3


def test_extension_flat_guess_detector(family_07):
    def frozen(p):
        d = emb.embedding_data_at(family_07, p[:2])
        h = np.zeros((3, 3))
        h[:2, :2] = d.I
        h[2, 2] = -1.0
        return h

    r = con.riemann_constant_curvature_residual(frozen, np.array([0.2, 0.1, -0.4]),
                                                FDScheme(1e-2, True))
    assert r > 1e-2


def test_extension_stencil_range_guard(family_07):
    assert con.EXTENSION_S_RANGE == (-np.pi / 2, 0.1)
    with pytest.raises(DomainError):
        con.extension_curvature(family_07, np.array([0.0, 0.0, 0.095]))
    with pytest.raises(DomainError):
        con.extension_metric(family_07)(np.array([0.0, 0.0, 0.5]))


# ---------------------------------------------------------------------------
# family fixture and phi_K

def test_family_fixture_validation():
    with pytest.raises(DomainError):
        emb.family_immersion(0.3)
    surface = emb.family_immersion(0.0)
    x = surface([0.5, -0.5])
    assert x[3] == 0.0


def test_family_equivariance_under_holonomy():
    from adsgeo.fuchsian import octagon_generators, so21_of_sl2

    s = -0.6
    F = emb.family_immersion(s)
    m = octagon_generators()[0][1]
    g3 = so21_of_sl2(m)
    u = np.array([0.3, 0.2])
    moved_chart = g3 @ emb.hyperboloid_point(u)
    lhs = F(moved_chart[:2])
    # the pair (m, m^-T) acts on R^{2,2} as diag(so21_of_sl2(m), 1)
    rhs = scipy.linalg.block_diag(g3, 1.0) @ F(u)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_phi_k_values(rng):
    s4, _, _ = con.phi_k_fuchsian(-4.0, np.zeros(2))
    assert s4 == pytest.approx(-np.pi / 3, abs=1e-12)
    for K in (-2.0, -4.0):
        for _ in range(3):
            u = rng.uniform(-0.8, 0.8, 2)
            s, left, surface = con.phi_k_fuchsian(K, u)
            assert -1.0 / np.cos(s) ** 2 == pytest.approx(K, abs=1e-12)
            g = emb.hyperbolic_metric(u)
            assert np.abs(left - g).max() < 1e-6
            assert np.abs(surface - g).max() < 1e-6


def test_phi_k_limit_towards_totally_geodesic():
    s, _, _ = con.phi_k_fuchsian(-1.0 - 1e-8, np.zeros(2))
    assert abs(s) < 2e-4


def test_phi_k_rejects_bad_curvature():
    with pytest.raises(DomainError):
        con.phi_k_fuchsian(-0.5, np.zeros(2))

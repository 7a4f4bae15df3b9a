import numpy as np
import pytest

from adsgeo import ads_core as core
from adsgeo import embedding as emb
from adsgeo.errors import ConfigError, DegenerateDataError, DomainError
from adsgeo.fd import DiffConfig, stencil
from conftest import codazzi_on_stencil


def test_hyperboloid_chart_metric_closed_form():
    u = np.array([0.4, -0.3])
    y = emb.hyperboloid_point(u)
    assert y[0] ** 2 + y[1] ** 2 - y[2] ** 2 == pytest.approx(-1.0)
    g = emb.hyperbolic_metric(u)
    assert np.linalg.det(g) == pytest.approx(1.0 / (1.0 + u @ u))


def test_family_image_on_quadric():
    F = emb.family_immersion(-0.9)
    for u in ([0, 0], [0.7, -0.5], [-1, 1]):
        x = F(u)
        assert core.bilinear22(x, x) == pytest.approx(-1.0, abs=1e-14)


def test_catalog_selection_and_rejection():
    # each name gives its constructor's evaluator, at the given parameters
    # and the constructor's defaults for the rest
    u = np.random.default_rng(0).uniform(-1.0, 1.0, (5, 2))
    for name, params, want in (
            ("totally_geodesic", {}, emb.family_immersion(0.0)),
            ("fuchsian_family", {"s": -0.3}, emb.family_immersion(-0.3)),
            ("fuchsian_family", {}, emb.family_immersion(-0.7)),
            ("graph_bump", {"amplitude": 0.02}, emb.bump_immersion(0.02, 1.0, -0.7)),
            ("graph_bump", {}, emb.bump_immersion(0.05, 1.0, -0.7))):
        assert emb.make_immersion(name, **params)(u).tobytes() == want(u).tobytes()
    with pytest.raises(ConfigError):
        emb.make_immersion("no_such_surface")
    with pytest.raises(ConfigError):
        emb.make_immersion("fuchsian_family", s=0.2)
    with pytest.raises(ConfigError):
        emb.make_immersion("fuchsian_family", wrong=1.0)
    with pytest.raises(ConfigError):
        emb.make_immersion("graph_bump", width=float("nan"))


def test_bump_rejects_non_spacelike_parameters():
    # cos(t)^2 / (1 + r^2) - t'(r)^2 < 0 near r = width: the radial direction
    # of the induced metric is timelike there
    with pytest.raises(DomainError):
        emb.bump_immersion(amplitude=-0.3, width=0.2, base=-1.2)
    with pytest.raises(ConfigError):
        emb.make_immersion("graph_bump", amplitude=-0.3, width=0.2, base=-1.2)
    bump = emb.bump_immersion()
    emb.structure_residuals(bump, [[0.7, 0.7], [-0.1, 0.2]])


def test_totally_geodesic_plane():
    F = emb.make_immersion("totally_geodesic")
    d = emb.embedding_data_at(F, [0.2, 0.5])
    assert np.abs(d.B).max() < 1e-10
    assert np.allclose(d.I, emb.hyperbolic_metric([0.2, 0.5]), atol=1e-11)
    K = emb.gaussian_curvature(F, [0.2, 0.5])
    assert K == pytest.approx(-1.0, abs=1e-6)
    gauss, codazzi = emb.structure_residuals(F, [0.2, 0.5])
    assert abs(gauss) < 1e-7 and codazzi < 1e-8


def test_family_embedding_data_recorded_sign():
    # future-normal convention makes B = tan(s) E on the family; at
    # s = -pi/4 the data is umbilic with det B = 1 and K = -2
    s = -np.pi / 4
    F = emb.family_immersion(s)
    d = emb.embedding_data_at(F, [0.3, -0.2])
    assert np.allclose(d.B, np.tan(s) * np.eye(2), atol=1e-8)
    assert np.linalg.det(d.B) == pytest.approx(1.0, abs=1e-8)
    assert emb.gaussian_curvature(F, [0.3, -0.2]) == pytest.approx(-2.0, abs=1e-6)


def test_family_curvature_scaling(rng):
    for s in (-0.2, -0.7, -1.2):
        F = emb.family_immersion(s)
        u = rng.uniform(-0.8, 0.8, 2)
        K = emb.gaussian_curvature(F, u)
        assert K == pytest.approx(-1.0 / np.cos(s) ** 2, abs=1e-6)


def test_family_normal_is_unit_future():
    F = emb.family_immersion(-0.6)
    d = emb.embedding_data_at(F, [0.4, 0.1])
    assert core.bilinear22(d.n, d.n) == pytest.approx(-1.0, abs=1e-12)
    assert core.is_future(d.point, d.n)
    # closed form: n = (-sin(s) y, cos(s))
    y = emb.hyperboloid_point([0.4, 0.1])
    expected = np.array([*(np.sin(0.6) * y), np.cos(0.6)])
    assert np.allclose(d.n, expected, atol=1e-10)


def test_bump_self_adjointness_and_complex_structure(bump, rng):
    for _ in range(5):
        u = rng.uniform(-0.8, 0.8, 2)
        d = emb.embedding_data_at(bump, u)
        ib = d.I @ d.B
        assert np.abs(ib - ib.T).max() < 1e-7
        assert np.abs(d.J @ d.J + np.eye(2)).max() < 1e-10
        assert np.abs(d.J.T @ d.I @ d.J - d.I).max() < 1e-10


def test_structure_residuals_family_batch(rng):
    for s in (-0.2, -1.2):
        F = emb.family_immersion(s)
        for _ in range(5):
            u = rng.uniform(-0.8, 0.8, 2)
            gauss, codazzi = emb.structure_residuals(F, u)
            assert abs(gauss) < 1e-6
            assert codazzi < 1e-6


@pytest.mark.parametrize("cfg", [DiffConfig(), DiffConfig(field_step=0.08, richardson=False)],
                         ids=["default", "coarse"])
@pytest.mark.parametrize("surface", ["bump", "family_07"])
def test_curvature_from_known_is_gaussian_curvature(request, surface, cfg):
    # structure_residuals, sharp_curvature and exterior_derivative_identities
    # take K this way: the metric known at u, or on the field-step stencil,
    # stands in for the first points of the Brioschi jet, bit for bit
    imm = request.getfixturevalue(surface)
    for u in np.random.default_rng(8).uniform(-0.7, 0.7, (3, 2)):
        want = np.asarray(emb.gaussian_curvature(imm, u, cfg)).tobytes()
        at_u = emb.embedding_data_at(imm, u, cfg).I[None]
        on_stencil = emb.embedding_data_at(imm, stencil(u, cfg.field), cfg).I
        for known in (at_u, on_stencil):
            got = emb._curvature_from_known(imm, u, known, cfg)
            assert np.asarray(got).tobytes() == want


def test_codazzi_detector_fires_on_perturbed_field(bump):
    u = np.array([0.3, -0.1])
    scheme = DiffConfig().field
    w = stencil(u, scheme)
    data = emb.embedding_data_at(bump, w)
    noise = 0.05 * np.stack([np.sin(3.0 * w[:, 0]), 0.4 * w[:, 1],
                             0.1 * w[:, 0] * w[:, 1], np.cos(2.0 * w[:, 1])],
                            axis=-1).reshape(-1, 2, 2)

    clean = codazzi_on_stencil(data.I, data.B, scheme)
    broken = codazzi_on_stencil(data.I, data.B + noise, scheme)
    assert clean < 1e-6
    assert broken > 1e-4    # orders above tolerance: the detector fires


def test_gauss_residual_convergence_order():
    # plain central differences: residual O(h^2), order measured >= 1.9
    F = emb.family_immersion(-0.7)
    u = np.array([0.35, 0.15])
    errs = []
    for factor in (1.0, 0.5):
        cfg = DiffConfig(immersion_step=1e-3 * factor, field_step=0.12 * factor,
                         richardson=False)
        gauss, _ = emb.structure_residuals(F, u, cfg=cfg)
        errs.append(abs(gauss))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_third_fundamental_form_cases(bump):
    d = emb.embedding_data_at(bump, [0.1, 0.2])
    zero = emb.EmbeddingData(u=d.u, point=d.point, I=d.I, B=np.zeros((2, 2)),
                             J=d.J, n=d.n)
    assert np.abs(emb.third_fundamental_form(zero)).max() == 0.0
    ident = emb.EmbeddingData(u=d.u, point=d.point, I=d.I, B=np.eye(2),
                              J=d.J, n=d.n)
    assert np.allclose(emb.third_fundamental_form(ident), d.I)
    umb = emb.EmbeddingData(u=d.u, point=d.point, I=d.I, B=0.7 * np.eye(2),
                            J=d.J, n=d.n)
    assert np.allclose(emb.third_fundamental_form(umb), 0.49 * d.I)


def test_convexity_classification(bump):
    d = emb.embedding_data_at(bump, [0.1, 0.2])

    def with_b(b):
        return emb.EmbeddingData(u=d.u, point=d.point, I=d.I, B=b, J=d.J, n=d.n)

    # strongly past convex: both principal curvatures positive; future:
    # both negative; a saddle: one of each
    assert np.all(emb.principal_curvatures(with_b(np.eye(2))) > 1e-10)
    assert np.all(emb.principal_curvatures(with_b(-np.eye(2))) < -1e-10)
    k1, k2 = emb.principal_curvatures(with_b(np.diag([1.0, -1.0])))
    assert k1 < -1e-10 and k2 > 1e-10


def test_convexity_invariant_under_chart_change(bump):
    u0 = np.array([0.25, -0.15])
    m = np.array([[1.1, 0.3], [-0.2, 0.9]])   # orientation preserving
    assert np.linalg.det(m) > 0

    def reparam(w):
        return bump(m @ np.asarray(w))

    d1 = emb.embedding_data_at(bump, m @ u0)
    d2 = emb.embedding_data_at(reparam, u0)
    k1 = emb.principal_curvatures(d1)
    k2 = emb.principal_curvatures(d2)
    assert np.allclose(k1, k2, atol=1e-8)


def test_degenerate_metric_fails_loudly():
    # both evaluators lie on the quadric, so the raise is the metric check's
    def flat(u):
        # rank-deficient tangent map: d/du2 vanishes, I = diag(1, 0)
        return np.array([np.sinh(u[0]), 0.0, np.cosh(u[0]), 0.0])

    def squeezed(u):
        # the hyperboloid chart with u2 scaled by 1e-4: I ~ diag(0.99, 1e-8)
        return np.append(emb.hyperboloid_point(np.array([u[0], 1e-4 * u[1]])), 0.0)

    with pytest.raises(DegenerateDataError, match="induced metric not spacelike"):
        emb.embedding_data_at(flat, [0.1, 0.0])
    with pytest.raises(DegenerateDataError,
                       match=r"too ill-conditioned: cond = 9\.901e\+07"):
        emb.embedding_data_at(squeezed, [0.1, 0.0])


def test_off_quadric_immersion_rejected():
    with pytest.raises(DomainError):
        emb.embedding_data_at(lambda u: np.array([u[0], u[1], 1.1, 0.0]), [0.0, 0.0])

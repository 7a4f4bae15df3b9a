import hashlib

import numpy as np
import pytest

from adsgeo import embedding as emb
from adsgeo import mess_metrics as mm
from adsgeo.batch import inv
from adsgeo.errors import DegenerateDataError
from adsgeo.fd import DEFAULT_DIFF, DiffConfig, partials, stencil
from adsgeo.rigidity import exterior_derivative_identities


def test_zero_shape_operator_gives_base_metric():
    F = emb.make_immersion("totally_geodesic")
    d = emb.embedding_data_at(F, [0.2, -0.4])
    for sign in (+1, -1):
        assert np.allclose(mm.mess_metric(d, sign), d.I, atol=1e-12)


def test_mess_metric_rejects_degenerate_data():
    # hand-made data at one point: J is the rotation of the metric E
    d = emb.embedding_data_at(emb.make_immersion("totally_geodesic"), [0.2, -0.4])
    flip, J = np.diag([1.0, -1.0]), emb.complex_structure(np.eye(2))
    lightlike = emb.EmbeddingData(u=d.u, point=d.point, I=np.eye(2), B=flip, J=J, n=d.n)
    with pytest.raises(DegenerateDataError, match=r"E \+ JB too close to singular"):
        mm.mess_metric(lightlike)       # E + JB = [[1, 1], [1, 1]]
    indefinite = emb.EmbeddingData(u=d.u, point=d.point, I=flip, B=np.zeros((2, 2)),
                                   J=J, n=d.n)
    with pytest.raises(DegenerateDataError, match="sharp metric lost positive definiteness"):
        mm.mess_metric(indefinite)      # A = E, so I# = I


def test_family_left_metric_is_base_hyperbolic(rng):
    # I#_+ = I((E + tan(s) J)., same) cancels the cos^2 factor exactly
    for s in (-0.2, -0.7, -1.2):
        F = emb.family_immersion(s)
        u = rng.uniform(-0.8, 0.8, 2)
        d = emb.embedding_data_at(F, u)
        g = emb.hyperbolic_metric(u)
        assert np.abs(mm.mess_metric(d, +1) - g).max() < 1e-8
        assert np.abs(mm.mess_metric(d, -1) - g).max() < 1e-8


def test_family_left_equals_right(rng):
    F = emb.family_immersion(-0.5)
    u = rng.uniform(-0.8, 0.8, 2)
    d = emb.embedding_data_at(F, u)
    assert np.abs(mm.mess_metric(d, +1) - mm.mess_metric(d, -1)).max() < 1e-9


def test_plus_minus_differ_iff_umbilic(bump):
    # umbilic: B commutes with J, the two metrics coincide
    F = emb.family_immersion(-0.7)
    d = emb.embedding_data_at(F, [0.3, 0.2])
    assert np.abs(mm.mess_metric(d, +1) - mm.mess_metric(d, -1)).max() < 1e-9
    db = emb.embedding_data_at(bump, [0.3, 0.2])
    assert np.abs(mm.mess_metric(db, +1) - mm.mess_metric(db, -1)).max() > 1e-4


def test_surface_independence_across_family(rng):
    fa = emb.family_immersion(-0.2)
    fb = emb.family_immersion(-1.2)
    for _ in range(5):
        u = rng.uniform(-0.8, 0.8, 2)
        a = mm.mess_metric(emb.embedding_data_at(fa, u), +1)
        b = mm.mess_metric(emb.embedding_data_at(fb, u), +1)
        assert np.abs(a - b).max() < 1e-6


def test_sharp_frame_trivial_when_b_zero():
    F = emb.make_immersion("totally_geodesic")
    u = np.array([0.25, 0.1])
    frame = mm.sharp_frame(F, u)
    d = emb.embedding_data_at(F, u)
    assert np.allclose(frame.I_sharp, d.I, atol=1e-10)
    assert np.allclose(frame.J_sharp, d.J, atol=1e-10)
    assert mm.sharp_curvature(F, u) == pytest.approx(-1.0, abs=1e-6)
    gamma_base = emb.christoffels(emb.metric_field(F), u, DiffConfig().field)
    assert np.abs(frame.christoffels - gamma_base).max() < 1e-8


# sha256 of the float64 bytes of each sharp-frame field as the frame that
# carried K# produced them: at one point, and on the nested field-step
# stencil around (0.2, 0.15); "K_sharp" is now read from sharp_curvature at
# the same points
PINNED_FRAMES = {
    "point": {
        "I_sharp": "2120a27df02cc2f3b5dc3b2cb97eaaeb0f1743f49d926ed96bb2537a65cad004",
        "J_sharp": "2c32ce3ed5a331f022fe9b16b65df6f6e98e14bce720586b7fb49e99b2d23cb2",
        "christoffels": "cb1d114f62e9cdccd951aa1b941d3bd09609ab5ffe039f943dd3e2b0045d8f4b",
        "da_sharp": "7a120d680db9514d7d56728aa93b8e855a0a372801947413a5ff43bbbaf07de4",
        "K_sharp": "bb78a0dad1309a9829ab59c2425f0b34c2db71d678a735a87bcad0224673793b",
    },
    "nested": {
        "I_sharp": "6c6890f3c0336122c093aa2d893c1d0653a29340f9eca51cda3af44140103612",
        "J_sharp": "4ed700ad9d4a40b2b0be8f30c3be28c9dcc28e663f7b054de8aa7f5eed71a82e",
        "christoffels": "fa8a1a6a3a2f09f51549bf307e6df2d16b006396eabcb878301140a482a4dc64",
        "da_sharp": "69958e266206cc93f9d098b00c80cd8c96f8bbd32b0427c74a2168147da3e4fb",
        "K_sharp": "8e4d8dccc44119fd0ac40c9192f9d3578f5ac62b1fdd10bfdeddb954d5295cb7",
    },
}


def _digest(x):
    return hashlib.sha256(np.ascontiguousarray(x, dtype=float).tobytes()).hexdigest()


def test_sharp_frame_pinned(bump):
    nested = stencil(stencil(np.array([0.2, 0.15]), DEFAULT_DIFF.field), DEFAULT_DIFF.field)
    frames = {"point": mm.sharp_frame(bump, [0.2, -0.3]),
              "nested": mm.sharp_frame(bump, nested)}
    for name, frame in frames.items():
        digests = {key: _digest(getattr(frame, key))
                   for key in ("I_sharp", "J_sharp", "christoffels", "da_sharp")}
        digests["K_sharp"] = _digest(mm.sharp_curvature(bump, frame.u))
        assert digests == PINNED_FRAMES[name], name


def test_sharp_curvature_minus_one(bump, rng):
    for immersion, tol in ((emb.family_immersion(-0.7), 1e-6), (bump, 1e-5)):
        K = mm.sharp_curvature(immersion, rng.uniform(-0.8, 0.8, size=(10, 2)))
        assert np.abs(K + 1.0).max() < tol


def test_sharp_curvature_totally_geodesic_plane(rng):
    # B = 0 makes det(E + JB) exactly 1, so K# inherits only the curvature
    # measurement error of the difference scheme
    F = emb.make_immersion("totally_geodesic")
    K = mm.sharp_curvature(F, rng.uniform(-0.8, 0.8, (5, 2)))
    assert np.abs(K + 1.0).max() < 1e-6


def test_sharp_frame_family_j_preserved(rng):
    # E + tan(s) J commutes with J, so J# = J on the family
    F = emb.family_immersion(-0.9)
    u = rng.uniform(-0.8, 0.8, 2)
    frame = mm.sharp_frame(F, u)
    d = emb.embedding_data_at(F, u)
    assert np.abs(frame.J_sharp - d.J).max() < 1e-9


def test_sharp_structure_identities(bump):
    frame = mm.sharp_frame(bump, [0.2, -0.3])
    j = frame.J_sharp
    assert np.abs(j @ j + np.eye(2)).max() < 1e-10
    assert np.abs(j.T @ frame.I_sharp @ j - frame.I_sharp).max() < 1e-10
    assert frame.da_sharp == pytest.approx(np.sqrt(np.linalg.det(frame.I_sharp)))


def _torsion(frame):
    """T#(d1, d2) = D#_1 d2 - D#_2 d1 from the frame's Christoffel symbols."""
    return frame.christoffels[..., :, 0, 1] - frame.christoffels[..., :, 1, 0]


def test_sharp_connection_metric_and_torsion_free(bump):
    for u in ([0.25, -0.4], [0.0, 0.3]):
        assert mm.sharp_metric_derivative_residual(bump, u) < 1e-6
        assert np.abs(_torsion(mm.sharp_frame(bump, u))).max() < 1e-6


def test_sharp_torsion_is_codazzi_of_a(bump):
    # T# = A^{-1} d^D A with A = E + JB: the frame is torsion-free exactly
    # where A satisfies Codazzi, which is why the frame needs no guard
    scheme = DEFAULT_DIFF.field
    for u in ([0.25, -0.4], [0.0, 0.3], [-0.5, 0.1]):
        u = np.array(u)
        data = emb.embedding_data_at(bump, stencil(u, scheme))
        a_stencil = np.eye(2) + data.J @ data.B
        d = partials(np.stack([data.I, a_stencil], axis=-3), scheme)[1]
        gamma = emb.christoffel_symbols(inv(data.I[0]), d[:, 0])
        codazzi = inv(a_stencil[0]) @ emb.exterior_covariant_derivative(
            gamma, a_stencil[0], d[:, 1])
        assert np.abs(_torsion(mm.sharp_frame(bump, u)) - codazzi).max() < 1e-15


def test_sharp_connection_residual_convergence(bump):
    u = np.array([0.15, 0.05])
    errs = []
    for factor in (1.0, 0.5):
        cfg = DiffConfig(field_step=0.1 * factor, richardson=False)
        errs.append(mm.sharp_metric_derivative_residual(bump, u, cfg=cfg))
    assert np.log2(errs[0] / errs[1]) > 1.7


def crooked(u):
    """A pointwise evaluator (one chart point (2,) per call): the fixture
    evaluator perturbed off the quadric-compatible family."""
    y = emb.hyperboloid_point(u)
    t = -0.5 + 0.2 * np.sin(2.0 * u[0]) * np.sin(2.0 * u[1])
    return np.array([np.cos(t) * y[0], np.cos(t) * y[1], np.cos(t) * y[2],
                     np.sin(t)])


def test_transfer_precondition_detector():
    # the connection transfer needs Codazzi for E + JB, which is Codazzi for
    # B: the crooked surface satisfies it, and the structure residual says so
    assert emb.structure_residuals(crooked, np.array([0.1, 0.2]))[1] < 1e-4


def test_pointwise_evaluator_through_exterior_identities():
    # the nested stencil reaches a pointwise evaluator one point at a time
    # (it used to get the whole (9, 9, 2) stack and fail to broadcast)
    def mu(w):
        return 0.3 * np.sin(1.3 * w[0]) * np.cos(0.9 * w[1]) + 0.1 * w[0] * w[1]

    ra, rb = exterior_derivative_identities(crooked, mu,
                                            [0.2, 0.15])
    assert ra < 1e-5 and rb < 1e-5

import dataclasses
import inspect
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from adsgeo import embedding as emb
from adsgeo import fuchsian as fu
from adsgeo import mess_metrics as mm
from adsgeo import rigidity as rig
from adsgeo.batch import eigvalsh, inv
from adsgeo.errors import ConvexityError, DegenerateDataError, DomainError
from adsgeo.fd import DiffConfig, FDScheme
from adsgeo.mess_metrics import sharp_frame


def smooth_mu(seed, batched=False):
    """A smooth potential of points (..., 2); with ``batched`` it is marked
    as mapping over leading axes, so each stack is one call."""
    rng = np.random.default_rng(seed)
    a, b, c, d, e = rng.uniform(-1.0, 1.0, 5)

    def mu(w):
        x, y = w[..., 0], w[..., 1]
        return (0.4 * a * np.sin(1.0 + b + 1.3 * x) * np.cos(0.9 * y + c)
                + 0.2 * d * x * y + 0.1 * e)

    mu.batched = batched
    return mu


def counted(mu, shapes):
    """mu, with the shape of every call's points appended to ``shapes``."""
    def spy(w):
        shapes.append(np.shape(w))
        return mu(w)

    spy.batched = mu.batched
    return spy


def convex_pair(rng):
    """One random (I, B, Bdot), the n = 1 case of random_convex_pairs."""
    return [m[0] for m in rig.random_convex_pairs(rng, 1)]


# ---------------------------------------------------------------------------
# pointwise trace identities

def test_b_from_bdot_zero():
    d = emb.embedding_data_at(emb.family_immersion(-0.7), [0.1, 0.2])
    b, idot_sharp = rig.b_from_bdot(d, np.zeros((2, 2)))
    assert np.abs(b).max() == 0.0
    assert np.abs(idot_sharp).max() == 0.0


@pytest.mark.parametrize("points", [[[0.1, 0.2], [0.3, -0.1]],
                                    [[0.1, 0.2], [0.3, -0.1], [-0.4, 0.25]]],
                         ids=["2", "3"])
def test_b_from_bdot_stack_matches_points(points):
    # the transposes act on the matrix axes only, so each member of a stack
    # gets the bits of its own single-point call
    F = emb.family_immersion(-0.7)
    bdot = np.array([[0.3, 0.1], [0.1, -0.2]])
    b, idot_sharp = rig.b_from_bdot(emb.embedding_data_at(F, points), bdot)
    singles = [rig.b_from_bdot(emb.embedding_data_at(F, u), bdot) for u in points]
    assert b.tobytes() == np.stack([s[0] for s in singles]).tobytes()
    assert idot_sharp.tobytes() == np.stack([s[1] for s in singles]).tobytes()
    residuals = [rig.variation_formula_residual(emb.embedding_data_at(F, u), bdot)
                 for u in points]
    assert rig.variation_formula_residual(emb.embedding_data_at(F, points),
                                          bdot) == max(residuals)


@pytest.mark.parametrize("surface", ["family_07", "bump"])
def test_trace_conditions_stack_matches_points(request, surface):
    # each member of a stack gets the bits of its own single-point call
    F = request.getfixturevalue(surface)
    points = [[0.1, 0.2], [0.3, -0.1], [-0.4, 0.25]]
    bdot = np.array([[0.3, 0.1], [0.1, -0.2]])
    data = emb.embedding_data_at(F, points)
    singles = [emb.embedding_data_at(F, u) for u in points]
    stacked = rig.trace_conditions(data.I, data.B, bdot)
    each = [rig.trace_conditions(d.I, d.B, bdot) for d in singles]
    for key, values in stacked.items():
        assert values.tobytes() == np.array([t[key] for t in each]).tobytes()
    assert rig.cayley_hamilton_residual(data).tobytes() == np.array(
        [rig.cayley_hamilton_residual(d) for d in singles]).tobytes()


def test_umbilic_fixture_trace_example():
    # diag(eps, -eps) is I-self-adjoint at the chart center and satisfies
    # the linearized Gauss equation, so all four traces vanish
    F = emb.family_immersion(-np.pi / 4)
    d = emb.embedding_data_at(F, [0.0, 0.0])
    tc = rig.trace_conditions(d.I, d.B, np.diag([1e-3, -1e-3]))
    assert abs(tc["tr_b"]) < 1e-10
    assert abs(tc["tr_jbb"]) < 1e-10
    assert abs(tc["tr_first"]) < 1e-10
    assert abs(tc["tr_second"]) < 1e-10
    assert abs(tc["tr_binv_bdot"]) < 1e-12
    # synthetic umbilic data with B = +E behaves identically
    tc2 = rig.trace_conditions(d.I, np.eye(2), np.diag([1e-3, -1e-3]))
    assert max(abs(tc2[k]) for k in ("tr_b", "tr_jbb", "tr_first", "tr_second")) < 1e-10


def test_linearized_gauss_detector():
    # Bdot = eps E violates the linearized Gauss equation on umbilic data
    F = emb.family_immersion(-np.pi / 4)
    d = emb.embedding_data_at(F, [0.0, 0.0])
    eps = 1e-3
    tc = rig.trace_conditions(d.I, d.B, eps * np.eye(2))
    k = np.tan(-np.pi / 4)
    expected = -2.0 * k * eps / (1.0 + k * k)
    assert tc["tr_jbb"] == pytest.approx(expected, rel=1e-6)
    assert abs(tc["tr_jbb"]) > 1e-4
    assert tc["tr_binv_bdot"] == pytest.approx(2.0 * eps / k, rel=1e-6)


def test_linearized_chain_batch_small():
    worst = rig.linearized_chain_batch(2000, seed=42)
    assert worst["tr_b"] < 1e-9
    assert worst["tr_jbb"] < 1e-9
    assert worst["tr_first"] < 1e-9
    assert worst["tr_second"] < 1e-9
    assert worst["cayley_hamilton"] < 1e-10
    assert worst["tr_binv_bdot"] < 1e-12


def test_linearized_chain_batch_pinned():
    # values of the one-draw sampler and the closed-form 2x2 algebra on
    # entry tuples; a change to either moves these bits and re-pins them on
    # purpose
    assert rig.linearized_chain_batch(10000, seed=7) == {
        'tr_b': 2.1316282072803006e-14, 'tr_jbb': 2.842170943040401e-14,
        'tr_first': 2.842170943040401e-14, 'tr_second': 7.105427357601002e-14,
        'tr_binv_bdot': 7.105427357601002e-15,
        'cayley_hamilton': 6.394884621840902e-14}


@pytest.mark.parametrize("n", [1, rig.CHAIN_CHUNK - 1, rig.CHAIN_CHUNK, rig.CHAIN_CHUNK + 1,
                               2 * rig.CHAIN_CHUNK + 1])
def test_linearized_chain_batch_chunks_are_one_draw(n):
    # chunks drawn in turn from one rng continue its stream: the maxima are
    # those of trace_conditions over one unchunked draw of n pairs
    residuals = rig.trace_conditions(*rig.random_convex_pairs(np.random.default_rng(5), n))
    worst = {k: float(np.abs(v).max()) for k, v in residuals.items()
             if k != "equivalence_gap"}
    got = rig.linearized_chain_batch(n, 5)
    assert list(got) == list(worst) and got == worst


@pytest.mark.parametrize("n", [0, -1, 2.5])
def test_linearized_chain_batch_needs_a_pair(n):
    # n = 0 used to pass every bound with no pair checked
    with pytest.raises(DomainError):
        rig.linearized_chain_batch(n)


def test_first_trace_vanishes_for_any_self_adjoint_variation(rng):
    # tr((E + JB) b) = tr(J Bdot) needs only self-adjointness of Bdot, not
    # the linearized Gauss equation; the second trace then tracks it
    for _ in range(50):
        I, B, _ = convex_pair(rng)
        s = rng.standard_normal((2, 2))
        bdot = np.linalg.solve(I, s + s.T)        # unprojected
        tc = rig.trace_conditions(I, B, bdot)
        assert abs(tc["tr_first"]) < 1e-12
        assert tc["cayley_hamilton"] < 1e-10
        # the unprojected pair still satisfies the equivalence identity
        assert tc["equivalence_gap"] < 1e-9


def test_cayley_hamilton_on_fixture(rng):
    F = emb.family_immersion(-0.9)
    for _ in range(5):
        d = emb.embedding_data_at(F, rng.uniform(-0.8, 0.8, 2))
        assert rig.cayley_hamilton_residual(d) < 1e-10


def test_variation_formula(bump, rng):
    for _ in range(5):
        d = emb.embedding_data_at(bump, rng.uniform(-0.7, 0.7, 2))
        s = rng.standard_normal((2, 2))
        bdot = np.linalg.solve(d.I, s + s.T)
        assert rig.variation_formula_residual(d, bdot) < 1e-8


def test_trace_conditions_require_convexity():
    F = emb.make_immersion("totally_geodesic")
    d = emb.embedding_data_at(F, [0.0, 0.0])
    with pytest.raises(ConvexityError):
        rig.trace_conditions(d.I, d.B, np.eye(2))
    # a convex B on an indefinite I: J of the metric does not exist
    with pytest.raises(DegenerateDataError, match="metric not positive definite"):
        rig.trace_conditions(np.diag([1.0, -1.0]), np.eye(2), np.eye(2))


# ---------------------------------------------------------------------------
# potentials and the sharp Codazzi equation

def test_b_from_constant_mu(bump):
    frame = sharp_frame(bump, [0.2, -0.1])
    b = rig.b_from_mu(lambda w: 0.75, frame, FDScheme(2e-3, True))
    assert np.abs(b - 0.75 * frame.J_sharp).max() < 1e-9
    assert abs(np.trace(b)) < 1e-12
    bf = rig.b_field_from_mu(bump, lambda w: 0.75)
    assert rig.sharp_codazzi_residual(bump, bf, [0.2, -0.1]) < 1e-7


def test_b_from_mu_traceless_pointwise(bump, rng):
    frame = sharp_frame(bump, [0.3, 0.1])
    for seed in range(5):
        b = rig.b_from_mu(smooth_mu(seed), frame, FDScheme(2e-3, True))
        assert abs(np.trace(b)) < 1e-12


def test_sharp_codazzi_from_codazzi_variations(bump):
    # constant multiples of E and of B are Codazzi variations of B
    u = np.array([0.3, -0.2])
    for mk in (lambda dd: 0.25 * np.eye(2),
               lambda dd: 0.4 * dd.B,
               lambda dd: 0.2 * np.eye(2) - 0.3 * dd.B):
        def bf(frame, mk=mk):
            dd = emb.embedding_data_at(bump, frame.u)
            return rig.b_from_bdot(dd, mk(dd))[0]

        assert rig.sharp_codazzi_residual(bump, bf, u) < 1e-6


def test_sharp_codazzi_from_mu_small(bump):
    bf = rig.b_field_from_mu(bump, smooth_mu(3))
    assert rig.sharp_codazzi_residual(bump, bf, [0.3, -0.2]) < 1e-4


def test_sharp_codazzi_detector_unstructured(bump):
    shapes = []

    def junk(frame):
        shapes.append(np.shape(frame.u))
        x, y = frame.u[..., 0], frame.u[..., 1]
        return np.stack([np.stack([np.sin(3.0 * x), 0.5 + y], axis=-1),
                         np.stack([0.2 * x, np.cos(2.0 * y)], axis=-1)], axis=-2)

    assert rig.sharp_codazzi_residual(bump, junk, [0.3, -0.2]) > 1e-3
    # the field gets one frame on the field stencil: u, then its 8 shifted
    # points
    assert shapes == [(9, 2)]


def test_sharp_codazzi_convergence_order(bump):
    u = np.array([0.3, -0.2])
    mu = smooth_mu(7)
    errs = []
    for fs in (0.08, 0.04):
        cfg = DiffConfig(field_step=fs, richardson=False)
        bf = rig.b_field_from_mu(bump, mu, cfg)
        errs.append(rig.sharp_codazzi_residual(bump, bf, u, cfg))
    assert np.log2(errs[0] / errs[1]) >= 1.9


def test_sharp_codazzi_residuals_pinned(bump):
    # float.hex of the single-point evaluation (one sharp frame and one b
    # call per stencil point); the stacked field must reproduce every bit
    pinned = {3: ("0x1.816c3a429a94cp-9", "0x1.82d28464b55e0p-11"),
              4: ("0x1.4c21b04789a81p-9", "0x1.4cad380444368p-11"),
              5: ("0x1.4f93d653dbb8ap-11", "0x1.52a57d737845fp-13"),
              6: ("0x1.15eedd09f2fe5p-11", "0x1.176e28d8c3602p-13"),
              7: ("0x1.066ba3fc99641p-11", "0x1.0757e9ffbcd32p-13")}
    u = np.array([0.3, -0.2])
    for seed, values in pinned.items():
        for fs, value in zip((0.08, 0.04), values):
            cfg = DiffConfig(field_step=fs, richardson=False)
            bf = rig.b_field_from_mu(bump, smooth_mu(seed), cfg)
            assert rig.sharp_codazzi_residual(bump, bf, u, cfg).hex() == value


def test_sharp_codazzi_residuals_pinned_default_steps(bump):
    # float.hex at the default DiffConfig (field step 0.015, Richardson on):
    # the centre of the frame on the field stencil has the bits of a frame
    # at u alone
    u = np.array([0.3, -0.2])
    for seed, value in ((3, "0x1.0b8da5763d57cp-20"), (7, "0x1.9bbc0b434e668p-22")):
        bf = rig.b_field_from_mu(bump, smooth_mu(seed))
        assert rig.sharp_codazzi_residual(bump, bf, u).hex() == value


def test_b_from_mu_stacked_frame_bits(bump):
    pts = np.random.default_rng(4).uniform(-0.7, 0.7, (3, 4, 2))
    scheme = FDScheme(2e-3, True)
    mu = smooth_mu(9)
    b = rig.b_from_mu(mu, sharp_frame(bump, pts), scheme)
    assert b.shape == (3, 4, 2, 2)
    for idx in np.ndindex(3, 4):
        b1 = rig.b_from_mu(mu, sharp_frame(bump, pts[idx]), scheme)
        assert b[idx].tobytes() == b1.tobytes()


def test_potential_called_pointwise_one_frame_per_field(bump, monkeypatch):
    cfg = DiffConfig(field_step=0.08, richardson=False)
    shapes, frames = [], []

    def counted_frame(*args, **kwargs):
        frames.append(1)
        return sharp_frame(*args, **kwargs)

    monkeypatch.setattr(rig, "sharp_frame", counted_frame)
    bf = rig.b_field_from_mu(bump, counted(smooth_mu(7), shapes), cfg)
    rig.sharp_codazzi_residual(bump, bf, [0.3, -0.2], cfg)
    # 9 jet points around each of the 5 points of the field stencil
    assert shapes == [(2,)] * 45
    # one frame on the field stencil, for the field and for its centre u
    assert len(frames) == 1

    # a potential marked batched gets the whole (9, 5, 2) jet in one call,
    # with the bits of the pinned single-point evaluation
    shapes.clear()
    bf = rig.b_field_from_mu(bump, counted(smooth_mu(7, batched=True), shapes), cfg)
    assert rig.sharp_codazzi_residual(bump, bf, [0.3, -0.2], cfg).hex() \
        == "0x1.066ba3fc99641p-11"
    assert shapes == [(9, 5, 2)]


def test_exterior_derivative_identities(bump):
    ra, rb = rig.exterior_derivative_identities(bump, smooth_mu(11), [0.2, 0.15])
    assert ra < 1e-6
    assert rb < 1e-6


def test_exterior_derivative_identities_convergence(bump):
    mu = smooth_mu(13)
    errs_a, errs_b = [], []
    for fs in (0.08, 0.04):
        cfg = DiffConfig(field_step=fs, richardson=False)
        ra, rb = rig.exterior_derivative_identities(bump, mu, [0.2, 0.15], cfg=cfg)
        errs_a.append(ra)
        errs_b.append(rb)
    assert np.log2(errs_a[0] / errs_a[1]) >= 1.7
    assert np.log2(errs_b[0] / errs_b[1]) >= 1.7


def test_exterior_derivative_identities_pinned(bump):
    # values of the single-point evaluation (one sharp frame per stencil
    # point); one embedding-data call on the nested stencil must reproduce
    # every bit
    assert rig.exterior_derivative_identities(bump, smooth_mu(11), [0.2, 0.15]) \
        == (7.618537696540972e-09, 1.010196114259454e-08)
    pinned = {0.08: (0.001507056130315071, 0.00043253684696009653),
              0.04: (0.00037786634200223657, 0.00010815127523206014)}
    for fs, values in pinned.items():
        cfg = DiffConfig(field_step=fs, richardson=False)
        assert rig.exterior_derivative_identities(bump, smooth_mu(13), [0.2, 0.15],
                                                  cfg=cfg) == values
    # float.hex at the default steps, with the potential's calls counted
    pinned = {(11, 0.2, 0.15): ("0x1.05c55dc400000p-27", "0x1.5b19ca3800000p-27"),
              (5, -0.35, 0.3): ("0x1.f32ec58800000p-26", "0x1.4b2b024c00000p-27")}
    for (seed, *u), values in pinned.items():
        shapes = []
        got = rig.exterior_derivative_identities(bump, counted(smooth_mu(seed), shapes), u)
        assert tuple(r.hex() for r in got) == values
        # 8 gradient points around each of the 81 nested-stencil points,
        # and mu itself at the 9 outer points
        assert shapes == [(2,)] * 657
        # a marked potential: one call on each of those two stacks
        shapes.clear()
        got = rig.exterior_derivative_identities(
            bump, counted(smooth_mu(seed, batched=True), shapes), u)
        assert tuple(r.hex() for r in got) == values
        assert shapes == [(8, 9, 9, 2), (9, 2)]


@pytest.mark.parametrize("u, shape", [([[0.1, 0.2], [0.3, -0.1]], "(2, 2)"),
                                      ([[0.1, 0.2]], "(1, 2)"),
                                      ([0.1, 0.2, 0.3], "(3,)"),
                                      (0.1, "()")],
                         ids=["stack", "one_row", "three", "scalar"])
def test_sharp_identities_need_one_point(bump, u, shape):
    # both return floats of one point; a stack used to give silently wrong
    # exterior residuals and a numpy error from the Codazzi residual
    mu = smooth_mu(11)
    message = re.escape(f"got shape {shape}")
    with pytest.raises(DomainError, match=message):
        rig.exterior_derivative_identities(bump, mu, u)
    with pytest.raises(DomainError, match=message):
        rig.sharp_codazzi_residual(bump, rig.b_field_from_mu(bump, mu), u)


def test_exterior_identities_one_embedding_data_call(bump, monkeypatch):
    data_shapes, frames, evals = [], [], []
    data_at = emb.embedding_data_at

    def counted_data(immersion, u, cfg=DiffConfig()):
        data_shapes.append(np.shape(u))
        return data_at(immersion, u, cfg=cfg)

    def counted(name, fn):
        def spy(*args, **kwargs):
            data = inspect.signature(fn).bind(*args, **kwargs).arguments.get("data")
            frames.append((name, None if data is None else data.u.shape))
            return fn(*args, **kwargs)
        return spy

    for module in (emb, mm, rig):
        monkeypatch.setattr(module, "embedding_data_at", counted_data)
    for name in ("sharp_frame", "sharp_structure", "sharp_curvature"):
        spy = counted(name, getattr(mm, name))
        monkeypatch.setattr(rig, name, spy)
        monkeypatch.setattr(mm, name, spy)

    def ev(u):
        evals.append(np.shape(u)[:-1])
        return bump(u)

    ev.batched = True
    got = rig.exterior_derivative_identities(ev, smooth_mu(11), [0.2, 0.15])
    assert tuple(r.hex() for r in got) == ("0x1.05c55dc400000p-27", "0x1.5b19ca3800000p-27")
    # the data on the nested stencil serve the frame at the outer points,
    # I# and J# at all 81 points and K# at u, with the Brioschi jet's first
    # 9 points, each through its public function
    assert data_shapes == [(9, 9, 2)]
    assert frames == [("sharp_frame", (9, 9, 2)), ("sharp_structure", (9, 9, 2)),
                      ("sharp_curvature", (9, 9, 2))]
    # 25 points around each of the 81 nested points, then the metric field
    # on the 8 shifted points around each of the 8 jet points off the outer
    # stencil: 2,025 + 64
    assert len(evals) == 2
    assert sum(int(np.prod(shape)) for shape in evals) == 2089


# ---------------------------------------------------------------------------
# J B J#

def test_jbj_umbilic_closed_form():
    F = emb.family_immersion(-np.pi / 4)
    d = emb.embedding_data_at(F, [0.3, -0.2])
    op, eigs, selfadj = rig.jbj_sharp(d)
    k = np.tan(-np.pi / 4)
    assert np.abs(op - (-k) * np.eye(2)).max() < 1e-8
    assert np.allclose(eigs, [-k, -k], atol=1e-8)
    assert selfadj < 1e-12


def test_jbj_conjugation_identity(bump):
    d = emb.embedding_data_at(bump, [0.4, 0.1])
    a = np.eye(2) + d.J @ d.B
    conj = np.linalg.solve(a, d.J @ d.B @ d.J @ a)
    op, _, _ = rig.jbj_sharp(d)
    assert np.abs(op - conj).max() < 1e-12


def test_jbj_eigenvalues_negated_principal_curvatures(bump, rng):
    for _ in range(10):
        d = emb.embedding_data_at(bump, rng.uniform(-0.8, 0.8, 2))
        _, eigs, selfadj = rig.jbj_sharp(d)
        k = emb.principal_curvatures(d)
        assert np.abs(np.sort(eigs) - np.sort(-k)).max() < 1e-8
        assert selfadj < 1e-10


def ref_jbj_sharp(data):
    """``jbj_sharp`` in matmul form: the residual is the largest entry of
    |S - S^T| and the pencil (S + S^T) / 2, for S = I# J B J#."""
    a = np.eye(2) + 1.0 * (data.J @ data.B)
    op = data.J @ data.B @ ((inv(a) @ data.J) @ a)
    i_sharp = np.swapaxes(a, -1, -2) @ data.I @ a
    sym = i_sharp @ op
    sym_t = np.swapaxes(sym, -1, -2)
    return (np.abs(sym - sym_t).max(axis=(-2, -1)),
            np.stack(eigvalsh(0.5 * (sym + sym_t), i_sharp), axis=-1))


def test_jbj_matches_matmul_reference(bump, rng):
    # the entry form keeps the bits of the matmul form, one point or a batch
    u = rng.uniform(-0.8, 0.8, (6, 2))
    for data in [emb.embedding_data_at(bump, u)] + [emb.embedding_data_at(bump, w) for w in u]:
        _, eigs, selfadj = rig.jbj_sharp(data)
        ref_selfadj, ref_eigs = ref_jbj_sharp(data)
        assert np.asarray(selfadj).tobytes() == np.asarray(ref_selfadj).tobytes()
        assert eigs.tobytes() == ref_eigs.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field, index", [("I", (0, 0)), ("B", (1, 1)), ("J", (0, 1))])
def test_jbj_non_finite_data_gives_nan_residual(bump, field, index, bad):
    # a non-finite entry that passes the guards reaches S = I# J B J#; its
    # self-adjointness residual must then be NaN, which fails every
    # tolerance, as the largest entry of |S - S^T| is
    data = emb.embedding_data_at(bump, np.array([[0.3, -0.2], [-0.1, 0.4]]))
    m = getattr(data, field).copy()
    m[(0,) + index] = bad
    broken = dataclasses.replace(data, **{field: m})
    with np.errstate(all="ignore"):
        try:
            _, _, selfadj = rig.jbj_sharp(broken)
        except (ConvexityError, DegenerateDataError):
            return
        assert np.isnan(selfadj[0]) and np.isnan(ref_jbj_sharp(broken[0])[0])
    assert not selfadj[0] <= 1.0
    # the other point of the batch keeps the bits of its own call
    assert selfadj[1].tobytes() == rig.jbj_sharp(data[1])[2].tobytes()


def test_jbj_diagonal_overflow_gives_nan_residual(monkeypatch):
    # an I# so large that S = I# J B J# overflows on its diagonal alone:
    # |S - S^T| is NaN there, so the residual must be NaN, not |s12 - s21|
    data = emb.embedding_data_at(emb.family_immersion(-1.4), [0.3, -0.2])
    op = rig.jbj_sharp(data)[0]                 # -tan(-1.4) E = 5.8 E
    assert abs(op[0, 0]) > 2.0 > abs(op[0, 1])
    scale = 0.5 * np.finfo(float).max
    monkeypatch.setattr(mm, "_pull_back", lambda a, I: np.diag([scale, 1.0]))
    with np.errstate(all="ignore"):
        sym = np.diag([scale, 1.0]) @ op
        assert np.isfinite(sym[0, 1]) and not np.isfinite(sym[0, 0])
        assert np.isnan(rig.jbj_sharp(data)[2])


def test_jbj_negative_definite_on_past_convex():
    # past-convex synthetic data: trace of JBJ# = -(k1 + k2) < 0
    rng = np.random.default_rng(5)
    I, B, _ = convex_pair(rng)                  # B has positive eigenvalues
    d = emb.EmbeddingData(u=np.zeros(2), point=np.zeros(4), I=I, B=B,
                          J=emb.complex_structure(I), n=np.zeros(4))
    op, eigs, _ = rig.jbj_sharp(d)
    k = np.sort(np.linalg.eigvals(B).real)
    assert np.trace(op) == pytest.approx(-(k[0] + k[1]), rel=1e-10)
    assert np.trace(op) < 0.0
    assert eigs[1] < 0.0                        # negative definite


# ---------------------------------------------------------------------------
# the discrete operator

def pencil(ops, s):
    """The weak form tan|s| (-S - 2 M) of tan|s| (Laplace - 2), assembled
    directly as a reference for ``rigidity_spectrum``."""
    return (np.tan(abs(s)) * (-ops.stiffness - 2.0 * ops.mass)).tocsr()


def test_rigidity_operator_constant_function():
    ops = fu.discrete_operators(fu.genus2_mesh(2))
    assert rig.constant_function_check(ops, -0.7) < 1e-12


@pytest.mark.parametrize("change", ["extra", "moved"])
def test_constant_function_check_rejects_operators_on_two_patterns(change):
    # the check combines S and M entry by entry on S's pattern: S with one
    # more stored entry in row 0, or with its last row-0 entry moved to a
    # column that row does not reach (row sums and nnz unchanged)
    ops = fu.discrete_operators(fu.genus2_mesh(3))
    s = ops.stiffness
    j = np.setdiff1d(np.arange(ops.n), s.indices[s.indptr[0]:s.indptr[1]])[0]
    if change == "extra":
        stiffness = s + scipy.sparse.csr_matrix(([1e-3], ([0], [j])), shape=s.shape)
        assert stiffness.nnz == s.nnz + 1
    else:
        stiffness = s.copy()
        stiffness.indices[s.indptr[1] - 1] = j
        assert stiffness.nnz == s.nnz
    with pytest.raises(DomainError, match="do not share one sparsity pattern"):
        rig.constant_function_check(dataclasses.replace(ops, stiffness=stiffness), -0.7)


def test_rigidity_operator_rejects_bad_parameter():
    ops = fu.discrete_operators(fu.genus2_mesh(1))
    with pytest.raises(DomainError):
        rig.rigidity_spectrum(ops, 0.0)
    with pytest.raises(DomainError):
        rig.rigidity_spectrum(ops, -2.0)


def test_rigidity_spectrum_and_kernel():
    t = np.tan(0.7)
    for level in (2, 3):
        spectrum = rig.rigidity_spectrum(fu.discrete_operators(fu.genus2_mesh(level)),
                                         -0.7, k=6)
        assert rig.kernel_dimension(spectrum) == 0
        assert np.min(np.abs(spectrum)) / t >= 2.0 * 0.9
        # the constant eigenfunction sits at exactly -2 tan|s|
        assert np.min(np.abs(spectrum)) == pytest.approx(2.0 * t, rel=1e-10)


@pytest.mark.parametrize("level", range(5))
def test_rigidity_spectrum_matches_dense_pencil(level):
    # reference: the dense generalized eigenproblem of the pencil itself;
    # levels 0 and 1 (n = 2 and 14) are the sizes where ARPACK's ncv is n
    ops = fu.discrete_operators(fu.genus2_mesh(level))
    spectrum = rig.rigidity_spectrum(ops, -0.7, k=6)
    ref = scipy.linalg.eigh(pencil(ops, -0.7).toarray(), ops.mass.toarray(),
                            eigvals_only=True)
    ref = ref[np.argsort(np.abs(ref), kind="stable")][:min(6, ops.n - 1)]
    assert spectrum.shape == ref.shape
    assert np.abs(spectrum - ref).max() <= 1e-12 * np.abs(ref).max()


def test_rigidity_spectrum_sparse_path():
    ops = fu.discrete_operators(fu.genus2_mesh(5))
    spectrum = rig.rigidity_spectrum(ops, -0.7, k=6, seed=2)
    # reference: scipy's own shift-invert of the pencil about 0, COLAMD order
    v0 = np.random.default_rng(2).standard_normal(ops.n)
    ref = scipy.sparse.linalg.eigsh(pencil(ops, -0.7), k=6, M=ops.mass, sigma=0.0,
                                    v0=v0, return_eigenvectors=False)
    ref = ref[np.argsort(np.abs(ref), kind="stable")]
    assert np.abs(spectrum - ref).max() <= 1e-12 * np.abs(ref).max()


def test_kernel_dimension_rule():
    assert rig.kernel_dimension([2.0, 5.0, 7.0]) == 0
    assert rig.kernel_dimension([1e-13, 2.0, 5.0]) == 1
    assert rig.kernel_dimension([1e-13, 5e-13, 2.0]) == 2
    assert rig.kernel_dimension([0.5, 1.0, 2.0]) == 0
    assert np.isnan(rig.kernel_dimension([2.0]))
    # a spectrum with a value that is not finite has no gap to read
    assert np.isnan(rig.kernel_dimension([np.nan, -2.5, -9.0, -9.1, -9.2, -12.0]))
    assert np.isnan(rig.kernel_dimension([-1e-9, np.nan, -9.0, -9.1, -9.2, -12.0]))
    assert np.isnan(rig.kernel_dimension([np.inf, -2.5, -9.0]))


def test_laplace_positivity_by_parts(rng):
    # <Laplace u, u> = -energy <= 0 forces the (Laplace - 2) kernel empty:
    # discrete integration by parts against the mass inner product
    ops = fu.discrete_operators(fu.genus2_mesh(2))
    matrix, t = pencil(ops, -0.7), np.tan(0.7)
    for _ in range(10):
        x = rng.standard_normal(ops.n)
        quad = x @ (matrix @ x)
        energy = x @ (ops.stiffness @ x)
        massq = x @ (ops.mass @ x)
        assert quad == pytest.approx(-t * (energy + 2.0 * massq), rel=1e-10)
        assert quad < 0.0


def test_spectral_gap_drift_under_refinement():
    spec2 = rig.rigidity_spectrum(fu.discrete_operators(fu.genus2_mesh(2)), -0.7, k=2)
    spec3 = rig.rigidity_spectrum(fu.discrete_operators(fu.genus2_mesh(3)), -0.7, k=2)
    gap2 = np.sort(np.abs(spec2))[1]
    gap3 = np.sort(np.abs(spec3))[1]
    assert abs(gap2 - gap3) / gap3 < 0.10

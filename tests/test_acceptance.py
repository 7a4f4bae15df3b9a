"""Acceptance suite: one test per criterion, each printing a verdict line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, not computed.
"""
import time

import numpy as np
import pytest

from adsgeo import constructions as con
from adsgeo import embedding as emb
from adsgeo import fuchsian as fu
from adsgeo import mess_metrics as mes
from adsgeo import rigidity as rig
from adsgeo.fd import DiffConfig


def _verdict(n, ok, detail, t0, budget):
    elapsed = time.time() - t0
    line = f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}: {detail} [{elapsed:.1f}s]"
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {n} exceeded {budget}s ({elapsed:.1f}s)"


def _samples(seed, n, box=0.8):
    return np.random.default_rng(seed).uniform(-box, box, size=(n, 2))


def test_criterion_01_gauss_codazzi_residuals():
    t0 = time.time()
    worst_g = worst_c = 0.0
    for s in (-0.2, -0.7, -1.2):
        surface = emb.family_immersion(s)
        gauss, codazzi = emb.structure_residuals(surface, _samples(1, 100))
        worst_g = max(worst_g, float(np.abs(gauss).max()))
        worst_c = max(worst_c, float(codazzi.max()))
    ok = worst_g < 1e-6 and worst_c < 1e-6
    _verdict(1, ok, f"gauss {worst_g:.2e} < 1e-6, codazzi {worst_c:.2e} < 1e-6",
             t0, 10.0)


def test_criterion_02_left_metric_hyperbolicity():
    t0 = time.time()
    worst_family = np.abs(mes.sharp_curvature(emb.family_immersion(-0.7),
                                              _samples(2, 100)) + 1.0).max()
    worst_bump = np.abs(mes.sharp_curvature(emb.bump_immersion(),
                                            _samples(3, 100)) + 1.0).max()
    ok = worst_family < 1e-6 and worst_bump < 1e-5
    _verdict(2, ok, f"|K#+1| family {worst_family:.2e} < 1e-6, "
                    f"bump {worst_bump:.2e} < 1e-5", t0, 10.0)


def test_criterion_03_left_metric_surface_independence():
    t0 = time.time()
    fa = emb.family_immersion(-0.2)
    fb = emb.family_immersion(-1.2)
    pts = _samples(4, 50)
    a = mes.mess_metric(emb.embedding_data_at(fa, pts), +1)
    b = mes.mess_metric(emb.embedding_data_at(fb, pts), +1)
    worst = float(np.abs(a - b).max())
    _verdict(3, worst < 1e-6,
             f"I#+ at s=-0.2 vs s=-1.2 componentwise {worst:.2e} < 1e-6", t0, 5.0)


def test_criterion_04_duality():
    t0 = time.time()
    worst_k = worst_m = worst_inv = 0.0
    for surface in (emb.family_immersion(-0.7), emb.bump_immersion()):
        _, diag = con.dual_surface(surface, _samples(5, 25, box=0.7))
        worst_k = max(worst_k, float(diag["curvature_consistency"].max()))
        worst_m = max(worst_m, float(diag["metric_vs_third_form"].max()))
        worst_inv = max(worst_inv, float(diag["involution"].max()))
    ok = worst_k < 1e-6 and worst_m < 1e-8 and worst_inv < 1e-8
    _verdict(4, ok, f"K* {worst_k:.2e} < 1e-6, I*=III {worst_m:.2e} < 1e-8, "
                    f"involution {worst_inv:.2e} < 1e-8", t0, 10.0)


def test_criterion_05_equidistant_extension_is_ads():
    t0 = time.time()
    rng = np.random.default_rng(6)
    worst = {}
    for name, surface, tol in (("fuchsian", emb.family_immersion(-0.7), 1e-4),
                               ("bump", emb.bump_immersion(), 1e-3)):
        # the draws of one point follow each other, as in a per-point loop
        p = np.array([[rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7),
                       rng.uniform(-1.1, -0.15)] for _ in range(50)])
        worst[name] = (float(con.extension_curvature(surface, p).max()), tol)
    ok = all(w < tol for w, tol in worst.values())
    detail = ", ".join(f"{k} {w:.2e} < {tol:g}" for k, (w, tol) in worst.items())
    _verdict(5, ok, "Riemann residual " + detail, t0, 60.0)


def test_criterion_06_linearized_chain():
    t0 = time.time()
    worst = rig.linearized_chain_batch(10000, seed=7)
    traces = max(worst["tr_b"], worst["tr_jbb"], worst["tr_first"],
                 worst["tr_second"])
    ok = traces < 1e-9 and worst["cayley_hamilton"] < 1e-10
    _verdict(6, ok, f"traces {traces:.2e} < 1e-9, "
                    f"Cayley-Hamilton {worst['cayley_hamilton']:.2e} < 1e-10",
             t0, 10.0)


def test_criterion_07_sharp_codazzi_convergence():
    t0 = time.time()
    surface = emb.bump_immersion()
    u = np.array([0.3, -0.2])
    rng = np.random.default_rng(8)
    orders = []
    for _ in range(5):
        a, b, c, d, e = rng.uniform(-1.0, 1.0, 5)

        def mu(w, a=a, b=b, c=c, d=d, e=e):
            return (0.4 * a * np.sin(1.0 + b + 1.3 * w[0]) * np.cos(0.9 * w[1] + c)
                    + 0.2 * d * w[0] * w[1] + 0.1 * e)

        errs = []
        for fs in (0.08, 0.04):
            cfg = DiffConfig(field_step=fs, richardson=False)
            b_field = rig.b_field_from_mu(surface, mu, cfg)
            errs.append(rig.sharp_codazzi_residual(surface, b_field, u, cfg))
        orders.append(np.log2(errs[0] / errs[1]))
    ok = all(o >= 1.9 for o in orders)
    _verdict(7, ok, "d^{D#}b convergence orders " +
             ", ".join(f"{o:.2f}" for o in orders) + " all >= 1.9", t0, 30.0)


def test_criterion_08_jbj_sharp_spectrum():
    t0 = time.time()
    data = emb.embedding_data_at(emb.bump_immersion(), _samples(9, 100))
    _, eigs, selfadj = rig.jbj_sharp(data)
    k = emb.principal_curvatures(data)
    worst_eig = float(np.abs(np.sort(eigs, axis=-1) - np.sort(-k, axis=-1)).max())
    worst_adj = float(selfadj.max())
    ok = worst_eig < 1e-8 and worst_adj < 1e-10
    _verdict(8, ok, f"eigenvalues {worst_eig:.2e} < 1e-8, "
                    f"self-adjointness {worst_adj:.2e} < 1e-10", t0, 5.0)


def test_criterion_09_kernel_triviality():
    t0 = time.time()
    relator = max(fu.relator_residuals(*fu.octagon_generators()))
    checks = [relator < 1e-8]
    details = [f"relator {relator:.2e} < 1e-8"]
    for level in (2, 3):
        mesh = fu.genus2_mesh(level)
        spectrum = rig.rigidity_spectrum(fu.discrete_operators(mesh), -0.7, k=6)
        dim = rig.kernel_dimension(spectrum)
        min_abs = float(np.min(np.abs(spectrum))) / np.tan(0.7)
        checks += [dim == 0, min_abs >= 2.0 * 0.9,
                   mesh.euler_characteristic() == -2]
        details.append(f"L{level}: dim {dim}, min|eig| {min_abs:.3f} >= 1.8, "
                       f"chi {mesh.euler_characteristic()}")
        if level == 3:
            rel_area = abs(mesh.area_elementwise() / (4.0 * np.pi) - 1.0)
            checks.append(rel_area < 1e-2)
            details.append(f"area within {rel_area:.2%} of 4pi")
    _verdict(9, all(checks), "; ".join(details), t0, 300.0)


def test_criterion_10_phi_k_on_family():
    t0 = time.time()
    worst_metric = worst_param = 0.0
    for K in (-2.0, -4.0):
        pts = _samples(10, 10)
        s, left, surface = con.phi_k_fuchsian(K, pts)
        worst_param = max(worst_param, abs(-1.0 / np.cos(s) ** 2 - K))
        g = emb.hyperbolic_metric(pts)
        worst_metric = max(worst_metric, float(np.abs(left - g).max()),
                           float(np.abs(surface - g).max()))
    ok = worst_metric < 1e-6 and worst_param < 1e-12
    _verdict(10, ok, f"metrics {worst_metric:.2e} < 1e-6, "
                     f"parameter {worst_param:.2e} < 1e-12", t0, 5.0)

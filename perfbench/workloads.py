"""Workload definitions, correctness gate and reference values.

A workload is a list of operations built from the benchmark seed.  Every
operation returns an ``OpResult``: the rows it verified (value, tolerance,
direction), the bytes it produced (the CLI report, or a repr of the library
result) and its exit status.  Input generation happens in ``build``, before
the first timed call; ``ref_err`` runs after the timed window.
"""
from __future__ import annotations

import io
import math
import statistics
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from adsgeo import cli
from adsgeo import embedding as emb
from adsgeo import fuchsian as fuc
from adsgeo import mess_metrics as mes
from adsgeo import rigidity as rig
from adsgeo.fd import DiffConfig

# max_margin comes from one untimed pass at this seed and ref_err from inputs
# drawn with it, so that both compare across runs whatever the run's seed.
REFERENCE_SEED = 0

# Bolza surface (regular-octagon genus-2 surface), first nonzero Laplace
# eigenvalue and its multiplicity.  Strohmaier & Uski, "An algorithm for the
# computation of eigenvalues, spectral zeta functions and zeta-determinants
# on hyperbolic surfaces", Comm. Math. Phys. 317 (2013).
BOLZA_LAMBDA1 = 3.8388872588
BOLZA_LAMBDA1_MULTIPLICITY = 3

# Closed forms of the umbilic family F_s(y) = (cos s y, sin s) (PAPER.md,
# embedding.family_immersion): K = -1/cos^2 s and B = tan s E.
def family_curvature(s: float) -> float:
    return -1.0 / math.cos(s) ** 2


def family_shape_operator(s: float) -> np.ndarray:
    return math.tan(s) * np.eye(2)


# Tolerances of the library rows; each is the bound the Tier-1 tests fix.
TRACE_TOL = 1e-9             # tr b, tr JBb, tr((E+JB)b), tr((E+(JB)^-1)b)
CAYLEY_HAMILTON_TOL = 1e-10
JBJ_EIG_TOL = 1e-8
JBJ_SELFADJ_TOL = 1e-10
MIN_CONVERGENCE_ORDER = 1.9  # sharp Codazzi residual, field steps 0.08 / 0.04
EXTERIOR_DERIVATIVE_TOL = 1e-6

# Evaluator calls (embedding.hyperboloid_point) per operation at this
# commit: 530 per check point, 225 per mess point, 379 per dual point,
# 1,225 per extension row, 50,197 per exterior-derivative point.  The traced
# run compares its counts with these to show that the tracer sees every call.
KNOWN_EVALS = {
    "check --fixture graph_bump --samples 100": 53000,
    "check --fixture fuchsian_family --s -1.2 --samples 100": 53000,
    "mess --fixture graph_bump --samples 100": 22500,
    "dual --fixture graph_bump --samples 50": 18950,
    "extend --fixture graph_bump --points 20": 73500,
    "exterior_derivative_identities": 2 * 50197,
}

# Rows whose verdict is value >= tolerance (the CLI's min_abs_eigenvalue).
LOWER_BOUND_CHECKS = frozenset({"min_abs_eigenvalue"})


@dataclass
class Row:
    check: str
    value: float
    tol: float
    lower: bool = False      # verdict is value >= tol instead of |value| <= tol
    passed: bool | None = None

    def __post_init__(self):
        self.value = float(self.value)
        if self.passed is None:
            self.passed = (self.value >= self.tol if self.lower
                           else abs(self.value) <= self.tol)

    @property
    def margin(self) -> float:
        """|value| / tolerance, inverted for lower-bound rows; 0 for
        informational rows with infinite tolerance."""
        if math.isinf(self.tol):
            return 0.0
        if self.lower:
            return self.tol / abs(self.value) if self.value else math.inf
        if self.tol == 0.0:
            return 0.0 if self.value == 0.0 else math.inf
        return abs(self.value) / self.tol


@dataclass
class OpResult:
    rows: list
    payload: bytes
    exit_code: int = 0
    identities: int = 0      # verified rows, or identities for library calls

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and all(r.passed for r in self.rows)


@dataclass
class Op:
    name: str
    run: Callable[[], OpResult]
    cli: bool = False        # True when the result is a cli.main report


# ---------------------------------------------------------------------------
# CLI operations: in-process cli.main(argv), report captured from stdout

class _Capture:
    """Stand-in for sys.stdout: cli.main writes the report to ``.buffer``."""

    def __init__(self):
        self.buffer = io.BytesIO()

    def write(self, text: str):
        self.buffer.write(text.encode("utf-8"))

    def flush(self):
        pass


def parse_table(payload: bytes) -> list:
    """Rows of a ``table`` report: check, location, value, tolerance, verdict."""
    rows = []
    lines = payload.decode("utf-8").splitlines()
    header = next(i for i, ln in enumerate(lines) if ln.startswith("check "))
    for ln in lines[header + 2:]:
        if ln.startswith("summary:"):
            break
        check, _loc, value, tol, verdict = ln.split()
        rows.append(Row(check, float(value), float(tol),
                        lower=check in LOWER_BOUND_CHECKS,
                        passed=verdict == "pass"))
    return rows


def cli_op(argv: list) -> Op:
    def run() -> OpResult:
        saved = sys.stdout
        sys.stdout = cap = _Capture()
        try:
            code = cli.main(list(argv))
            payload = cap.buffer.getvalue()
        finally:
            sys.stdout = saved
        rows = parse_table(payload) if code in (0, 1) else []
        return OpResult(rows=rows, payload=payload, exit_code=code,
                        identities=len(rows))

    return Op(" ".join(argv[:-2]), run, cli=True)


def surface_fd_ops(seed: int) -> list:
    tail = ["--seed", str(seed)]
    return [cli_op(a + tail) for a in (
        ["check", "--fixture", "graph_bump", "--samples", "100"],
        ["check", "--fixture", "fuchsian_family", "--s", "-1.2", "--samples", "100"],
        ["mess", "--fixture", "graph_bump", "--samples", "100"],
        ["mess", "--fixture", "fuchsian_family", "--s", "-0.2", "--s2", "-1.2",
         "--samples", "100"],
        ["dual", "--fixture", "graph_bump", "--samples", "50"],
        ["extend", "--fixture", "graph_bump", "--points", "20"],
    )]


def genus2_fem_ops(seed: int) -> list:
    tail = ["--seed", str(seed)]
    return [cli_op(a + tail) for a in (
        ["rigidity", "--mesh-level", "3"],
        ["fuchsian", "--mesh-level", "3"],
        ["rigidity", "--mesh-level", "6"],
        ["fuchsian", "--mesh-level", "6"],
    )]


# ---------------------------------------------------------------------------
# library operations of the linearized chain

def smooth_potential(coeffs):
    """Scalar potential of the Tier-1 sharp-Codazzi tests, coefficients in [-1, 1]."""
    a, b, c, d, e = (float(x) for x in coeffs)

    def mu(w):
        return (0.4 * a * np.sin(1.0 + b + 1.3 * w[0]) * np.cos(0.9 * w[1] + c)
                + 0.2 * d * w[0] * w[1] + 0.1 * e)

    return mu


def _payload(values) -> bytes:
    return repr([float(v) for v in values]).encode("ascii")


def linearized_chain_ops(seed: int) -> list:
    rng = np.random.default_rng(seed)
    batch_seed = int(rng.integers(2 ** 31))
    jbj_points = rng.uniform(-0.8, 0.8, size=(100, 2))
    codazzi_point = np.array([0.3, -0.2])
    codazzi_mus = [smooth_potential(rng.uniform(-1.0, 1.0, 5)) for _ in range(5)]
    ext_points = rng.uniform(-0.5, 0.5, size=(2, 2))
    ext_mus = [smooth_potential(rng.uniform(-1.0, 1.0, 5)) for _ in range(2)]
    bump = emb.bump_immersion()
    n_pairs = 10000

    def batch() -> OpResult:
        worst = rig.linearized_chain_batch(n_pairs, seed=batch_seed)
        rows = [Row(k, worst[k], TRACE_TOL)
                for k in ("tr_b", "tr_jbb", "tr_first", "tr_second")]
        rows.append(Row("cayley_hamilton", worst["cayley_hamilton"],
                        CAYLEY_HAMILTON_TOL))
        return OpResult(rows=rows, payload=_payload(worst[k] for k in sorted(worst)),
                        identities=len(rows) * n_pairs)

    def jbj() -> OpResult:
        rows = []
        for u in jbj_points:
            data = emb.embedding_data_at(bump, u)
            _, eigs, selfadj = rig.jbj_sharp(data)
            k = emb.principal_curvatures(data)
            rows.append(Row("jbj_eigenvalues",
                            float(np.abs(np.sort(eigs) - np.sort(-k)).max()),
                            JBJ_EIG_TOL))
            rows.append(Row("jbj_self_adjoint", selfadj, JBJ_SELFADJ_TOL))
            rows.append(Row("cayley_hamilton", rig.cayley_hamilton_residual(data),
                            CAYLEY_HAMILTON_TOL))
        return OpResult(rows=rows, payload=_payload(r.value for r in rows),
                        identities=len(rows))

    def sharp_codazzi() -> OpResult:
        rows, values = [], []
        for mu in codazzi_mus:
            errs = []
            for step in (0.08, 0.04):
                cfg = DiffConfig(field_step=step, richardson=False)
                b_field = rig.b_field_from_mu(bump, mu, cfg)
                errs.append(rig.sharp_codazzi_residual(bump, b_field,
                                                       codazzi_point, cfg))
            values += errs
            rows.append(Row("sharp_codazzi_order", math.log2(errs[0] / errs[1]),
                            MIN_CONVERGENCE_ORDER, lower=True))
        return OpResult(rows=rows, payload=_payload(values), identities=len(rows))

    def exterior() -> OpResult:
        rows = []
        for u, mu in zip(ext_points, ext_mus):
            ra, rb = rig.exterior_derivative_identities(bump, mu, u)
            rows.append(Row("d_sharp_dv", ra, EXTERIOR_DERIVATIVE_TOL))
            rows.append(Row("d_sharp_mu_jsharp", rb, EXTERIOR_DERIVATIVE_TOL))
        return OpResult(rows=rows, payload=_payload(r.value for r in rows),
                        identities=len(rows))

    return [Op("linearized_chain_batch", batch), Op("jbj_sharp", jbj),
            Op("sharp_codazzi_order", sharp_codazzi),
            Op("exterior_derivative_identities", exterior)]


def build(workload: str, seed: int) -> list:
    return {"surface_fd": surface_fd_ops, "genus2_fem": genus2_fem_ops,
            "linearized_chain": linearized_chain_ops}[workload](seed)


# ---------------------------------------------------------------------------
# references, computed outside the timed window

def ref_err(workload: str) -> float:
    """Error against an independent reference, at inputs fixed by
    REFERENCE_SEED.  FD errors are summarized by their median over the
    points: the largest one is set by roundoff and moves by tens of percent
    whenever the order of operations changes."""
    points = np.random.default_rng(REFERENCE_SEED).uniform(-0.8, 0.8, size=(100, 2))
    if workload == "surface_fd":
        errs = []
        for s in (-1.2, -0.2):
            surface = emb.make_immersion("fuchsian_family", s=s)
            k_exact, b_exact = family_curvature(s), family_shape_operator(s)
            for u in points:
                k = emb.gaussian_curvature(surface, u)
                b = emb.embedding_data_at(surface, u).B
                errs.append(max(abs(k - k_exact) / abs(k_exact),
                                float(np.abs(b - b_exact).max()) / abs(b_exact[0, 0])))
        return statistics.median(errs)
    if workload == "genus2_fem":
        ops = fuc.discrete_operators(fuc.genus2_mesh(6))
        vals = fuc.laplace_eigenvalues(ops, k=6, seed=REFERENCE_SEED)
        cluster = vals[1:1 + BOLZA_LAMBDA1_MULTIPLICITY]
        if np.ptp(cluster) > 1e-2 * BOLZA_LAMBDA1:
            raise ValueError(f"first nonzero eigenvalue cluster split: {cluster}")
        return abs(float(vals[1]) - BOLZA_LAMBDA1) / BOLZA_LAMBDA1
    # linearized_chain: K# = -1 exactly for Gauss-Codazzi data (PAPER.md),
    # through the sharp structure the chain is built on
    bump = emb.bump_immersion()
    return statistics.median(abs(mes.sharp_curvature(bump, u) + 1.0) for u in points)

"""adsgeo benchmark: one closed-loop caller in one process.

    python3 perfbench/run.py --workload surface_fd --seed 1 --seconds 25 --trace 0

Operations of the workload run back to back (no arrival rate): a pass is
one call of every operation, timed with ``perf_counter`` around in-process
calls of ``cli.main(argv)`` or of the public library functions.  One
untimed pass at the reference seed runs first (warm-up and ``max_margin``);
timed passes at ``--seed`` follow until ``--seconds`` have elapsed, and
every run of an operation must reproduce the bytes of its first run.
``--trace 1`` interleaves untraced passes with passes traced by
``tracer.Tracer`` and reports the per-layer numbers instead of the
end-to-end ones.

The last line of stdout is one JSON object ``{correct, attempted, failed,
metrics}``; the lines before it are a readable record of the machine, the
gate and every metric.  See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS/OpenMP pool size, at most nproc; set before numpy is imported, and
# inherited by the set-up probes through the environment
THREADS = 1
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
MIN_TIMED_PASSES = 3

# Machine-speed calibration.  On a shared machine the speed of small-array
# numpy code switches between regimes up to 1.8x apart, for seconds to
# minutes at a time, and raw wall times of whole runs spread by up to 37%.
# So a short calibration kernel of the same kind (2x2 linear algebra on small
# arrays) samples the machine's speed every SAMPLE_PERIOD_S while timed
# operations run (``SpeedSampler``).  Their times are reported in reference
# seconds: wall seconds x KERNEL_REF_S / kernel seconds, i.e. seconds on a
# machine where the kernel takes KERNEL_REF_S.  Raw wall seconds go to the
# record lines.
KERNEL_REF_S = 0.002
SAMPLE_PERIOD_S = 0.1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("surface_fd", "genus2_fem", "linearized_chain"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import and build the inputs, then exit (set-up timing)")
    return p.parse_args(argv)


def machine_record() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model or platform.processor(),
            "caches": caches, "blas_threads": THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def calibration_kernel(n: int = 120) -> float:
    import numpy as np

    a = np.array([[2.0, 0.3], [0.3, 1.5]])
    acc = 0.0
    for i in range(n):
        v = np.array([1.0 + 1e-6 * i, 0.5, 0.25])
        m = a + 1e-9 * i
        acc += (float(np.linalg.det(m)) + float(v @ v)
                + float(np.linalg.solve(m, v[:2])[0]))
    return acc


def calibrate() -> float:
    """Wall seconds of one calibration kernel."""
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def reference_seconds(wall, kernel_s):
    return wall * KERNEL_REF_S / kernel_s


class Clock:
    """``measure(fn)`` calls ``fn`` and keeps its wall seconds in ``wall``
    and ``ref`` (no calibration)."""

    def measure(self, fn):
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.wall = self.ref = time.perf_counter() - start


class SpeedSampler(Clock):
    """A clock that times the calibration kernel every SAMPLE_PERIOD_S from
    a SIGALRM handler while active (``with``).  ``wall`` excludes the
    handler's time; ``ref`` is ``wall`` in reference seconds at the mean
    kernel time sampled during the call, or at the last sample if the call
    was too short to be sampled."""

    def __init__(self):
        self.samples = []
        self.last = calibrate()

    def _handler(self, _signum, _frame):
        self.samples.append(calibrate())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, fn):
        self.samples.clear()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            wall = time.perf_counter() - start - sum(self.samples)
            if self.samples:
                self.last = statistics.fmean(self.samples)
            self.wall, self.ref = wall, reference_seconds(wall, self.last)


# ---------------------------------------------------------------------------
# running passes

class Gate:
    """Counts attempted and failed operation runs and remembers why.

    A run fails on an exception, a nonzero exit code, a FAIL row, or output
    bytes that differ from the first run of the same operation."""

    def __init__(self):
        self.reference = {}            # id(op) -> payload of its first run
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def fail(self, name, reason):
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(f"{name}: {reason}")

    def record(self, op, result, error) -> bool:
        self.attempted += 1
        if error is not None:
            reason = f"{type(error).__name__}: {error}"
        elif result.exit_code != 0:
            reason = f"exit code {result.exit_code}"
        elif not result.ok:
            bad = sorted({r.check for r in result.rows if not r.passed})
            reason = f"FAIL rows ({', '.join(bad)})"
        elif self.reference.setdefault(id(op), result.payload) != result.payload:
            reason = "output bytes differ from the first run at this seed"
        else:
            return True
        self.fail(op.name, reason)
        return False


def run_pass(ops, gate, clock, tracer=None, op_times=None):
    """One call of every operation, each timed by ``clock``.  Returns (wall
    seconds of the operations, their reference seconds, results, verified
    rows); appends each operation's wall time to ``op_times[name]`` if given."""
    results, verified, wall, ref = [], 0, 0.0, 0.0
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        result = error = None
        try:
            result = clock.measure(op.run)
        except Exception as exc:       # a failing operation does not abort the run
            error = exc
        wall += clock.wall
        ref += clock.ref
        if op_times is not None:
            op_times.setdefault(op.name, []).append(clock.wall)
        if gate.record(op, result, error):
            verified += result.identities
        results.append(result)
    return wall, ref, results, verified


def measure_setup(args) -> list:
    """Wall seconds of fresh processes that import adsgeo, numpy and scipy
    and build the inputs.  Not calibrated: set-up is mostly reading and
    unmarshalling modules and loading shared libraries, whose speed the
    kernel does not track (calibrating made the spread worse)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    probes = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        probes.append(time.perf_counter() - start)
    return probes


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics

def end_to_end(args, workloads, ops, reference, gate, out):
    setup = measure_setup(args)
    passes, throughput, op_times = [], [], {}   # passes: (wall, reference)
    start = time.perf_counter()
    with SpeedSampler() as clock:
        while len(passes) < MIN_TIMED_PASSES or time.perf_counter() - start < args.seconds:
            wall, ref_s, _, verified = run_pass(ops, gate, clock, op_times=op_times)
            passes.append((wall, ref_s))
            throughput.append(verified / ref_s)
    pass_ref = [r for _, r in passes]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # accuracy at the fixed reference inputs, outside the timed window
    try:
        ref = workloads.ref_err(args.workload)
    except Exception as exc:
        gate.attempted += 1
        gate.fail("ref_err", f"{type(exc).__name__}: {exc}")
        ref = None
    rows = [r for res in reference if res is not None for r in res.rows]
    worst = max(rows, key=lambda r: r.margin, default=None)
    if worst is not None:
        out(f"max_margin row at seed {workloads.REFERENCE_SEED}: {worst.check} "
            f"{worst.value:.6e} / tolerance {worst.tol!r}")
    traces = [r.value for r in rows if r.check.startswith("tr_")]
    if traces:
        out(f"largest trace-identity residual at seed {workloads.REFERENCE_SEED}: "
            f"{max(traces):.6e}")

    out(f"set-up probes, wall s: {', '.join(f'{t:.4f}' for t in setup)}")
    out(f"timed passes, wall/reference s: "
        f"{', '.join(f'{w:.4f}/{r:.4f}' for w, r in passes)}")
    out(f"raw wall pass_s.p50 = {statistics.median(w for w, _ in passes):.4f} s")
    for name, times in op_times.items():
        out(f"  median wall {statistics.median(times):.4f} s  {name}")
    n_p90 = len(passes) - math.ceil(0.9 * len(passes))
    if n_p90 >= 10:
        out(f"pass_s.p90 = {statistics.quantiles(pass_ref, n=10)[-1]:.6f} s "
            f"(n = {len(passes)})")
    else:
        out(f"pass_s.p90 not reported: {n_p90} samples beyond it (n = {len(passes)}, "
            "needs 10)")
    out(f"fail_share = {gate.failed}/{gate.attempted}")
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "pass_s.p50": metric(statistics.median(pass_ref), "s"),
        "rows_per_s": metric(statistics.median(throughput), "1/s"),
        "max_margin": metric(worst.margin if worst else None, "ratio"),
        "ref_err": metric(ref, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics

# Per-layer metrics.  Times are shares of the traced pass wall time in %
# (".pct" inclusive, ".self_pct" exclusive of wrapped callees); counts are
# per pass.  Span names of Genus2Mesh methods drop the class in the metric.
INCLUSIVE = (
    "rigidity.linearized_chain_batch", "rigidity.jbj_sharp",
    "rigidity.sharp_codazzi_residual", "rigidity.exterior_derivative_identities",
    "rigidity.rigidity_spectrum", "fuchsian.genus2_mesh",
    "fuchsian.discrete_operators", "fuchsian.generalized_eigs",
    "fuchsian.Genus2Mesh.area_angle_defect", "fuchsian.Genus2Mesh.area_elementwise",
    "fuchsian.Genus2Mesh.euler_characteristic", "report.emit_report",
)
SELF = (
    "embedding.embedding_data_at", "embedding.brioschi_curvature",
    "embedding.codazzi_residual_fields", "mess_metrics.sharp_frame",
    "mess_metrics.sharp_curvature", "constructions.dual_surface",
    "constructions.riemann_constant_curvature_residual",
    "rigidity.rigidity_operator",
)
CALLS = {
    "fd.d1": "fd.d1.calls", "fd.d2": "fd.d2.calls",
    "ads_core.bilinear22": "ads_core.bilinear22.calls",
    "embedding.hyperboloid_point": "embedding.evals",
    "embedding.embedding_data_at": "embedding.embedding_data_at.calls",
    "embedding.christoffels": "embedding.christoffels.calls",
    "mess_metrics.sharp_frame": "mess_metrics.sharp_frame.calls",
    "constructions.ExtensionMetric.__call__": "constructions.extension_metric.evals",
    "fuchsian.hyp_dist": "fuchsian.hyp_dist.calls",
}
LAYERS = ("cli", "fd", "embedding", "mess_metrics", "constructions", "rigidity",
          "fuchsian")


def traced(args, workloads, tracer_mod, ops, gate, out):
    operators = {"unknowns": 0, "nnz": 0, "bytes": 0}

    def operator_sizes(result):
        # computed from the CSR arrays of the largest assembled pair (S, M)
        if result.n > operators["unknowns"]:
            mats = (result.stiffness, result.mass)
            operators.update(unknowns=result.n, nnz=sum(m.nnz for m in mats),
                             bytes=sum(m.data.nbytes + m.indices.nbytes
                                       + m.indptr.nbytes for m in mats))

    tracer = tracer_mod.Tracer(hooks={"fuchsian.discrete_operators": operator_sizes})
    # untraced and traced passes alternate, untraced first, so the gate
    # compares every traced output with the untraced bytes of the same op
    plain, with_trace, clock = [], [], Clock()
    start = time.perf_counter()
    while (len(with_trace) < 2 or len(with_trace) < len(plain)
           or time.perf_counter() - start < args.seconds):
        if len(with_trace) < len(plain):
            tracer.install()
            try:
                dt, _, results, _ = run_pass(ops, gate, clock, tracer)
            finally:
                tracer.uninstall()
            with_trace.append(dt)
        else:
            dt, _, _, _ = run_pass(ops, gate, clock)
            plain.append(dt)

    n = len(with_trace)
    wall = sum(with_trace)
    stats = tracer.self_times()
    per_pass_calls = {name: sum(tracer.calls_by_op(name).values()) // n for name in CALLS}
    rows_per_pass = sum(len(r.rows) for r in results if r is not None)

    def pct(seconds):
        return 100.0 * seconds / wall

    def layer_self(layer):
        return sum(v[2] for k, v in stats.items() if k.split(".", 1)[0] == layer)

    metrics = {}
    for name, key in CALLS.items():
        metrics[key] = metric(per_pass_calls[name], "count")
    metrics["embedding.evals_per_row"] = metric(
        per_pass_calls["embedding.hyperboloid_point"] / rows_per_pass, "evals/row")
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = metric(pct(layer_self(layer)), "%")
    for name in SELF:
        metrics[f"{name}.self_pct"] = metric(pct(stats[name][2]), "%")
    for name in INCLUSIVE:
        stem = name.replace("Genus2Mesh.", "")
        metrics[f"{stem}.pct"] = metric(pct(stats[name][1]), "%")
    metrics["fuchsian.unknowns"] = metric(operators["unknowns"], "count")
    metrics["fuchsian.nnz"] = metric(operators["nnz"], "count")
    metrics["fuchsian.operator_bytes"] = metric(operators["bytes"], "bytes")
    metrics["report.bytes"] = metric(
        sum(len(r.payload) for op, r in zip(ops, results) if r is not None and op.cli),
        "bytes")
    metrics["trace.overhead"] = metric(
        statistics.median(with_trace) / statistics.median(plain), "ratio")

    # the tracer must see every evaluator call the program is known to make
    evals = tracer.calls_by_op("embedding.hyperboloid_point")
    counts_ok = True
    for op in ops:
        expected = workloads.KNOWN_EVALS.get(op.name)
        if expected is not None:
            got = evals.get(op.name, 0) / n
            counts_ok &= got == expected
            out(f"evaluator calls {op.name}: {got:g} per pass (known {expected})")
    out(f"trace count check: {'ok' if counts_ok else 'MISMATCH'}")
    out(f"passes: {len(plain)} untraced, {n} traced")
    for name, (calls, total, own) in sorted(stats.items(), key=lambda kv: -kv[1][2])[:15]:
        out(f"  {name}: calls {calls // n}, s {total / n:.4f}, self_s {own / n:.4f}")

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}.json")
    return metrics


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(THREADS)
    if not (SRC / "adsgeo" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: adsgeo sources not found under {SRC}\n")
        return 2
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads                    # imports adsgeo, numpy and scipy
    reference_ops = workloads.build(args.workload, workloads.REFERENCE_SEED)
    ops = workloads.build(args.workload, args.seed)
    if args.setup_probe:
        return 0
    inproc_setup = time.perf_counter() - t0
    import tracer as tracer_mod

    def out(line):
        print(f"# {line}", flush=True)

    out(f"machine {json.dumps(machine_record(), sort_keys=True)}")
    out(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
        f"trace {args.trace}; closed loop, 1 caller, in-process set-up "
        f"{inproc_setup:.4f} s")

    # untimed first pass at the reference seed: warms lazy imports and
    # gives the seed-independent accuracy numbers
    gate = Gate()
    _, _, reference, _ = run_pass(reference_ops, gate, Clock())
    if args.trace:
        metrics = traced(args, workloads, tracer_mod, ops, gate, out)
    else:
        metrics = end_to_end(args, workloads, ops, reference, gate, out)
    for reason in gate.reasons:
        out(f"FAILED {reason}")
    for name, m in metrics.items():
        out(f"{name} = {m['value']!r} {m['unit']}")
    correct = gate.failed == 0
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness running the verification suites.

``COMMANDS`` declares each command once: its runner, its help line and
the ``RunConfig`` fields it takes as flags.  Options come from an optional
flat key=value config file plus command-line flags (flags win).  Each flag
and config key is one ``RunConfig`` field, typed by its annotation.
Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from . import constructions as con
from . import embedding as emb
from . import fuchsian as fuc
from . import mess_metrics as mes
from . import rigidity as rig
from .errors import AdsGeoError, ConfigError
from .fd import DiffConfig
from .report import FORMATS, CheckReport, emit_report

# default tolerances per check family; --tolerance overrides all of them
DEFAULT_TOLS = {
    "gauss_residual": 1e-6,
    "codazzi_residual": 1e-6,
    "left_curvature": 1e-6,
    "left_curvature_bump": 1e-5,
    "metric_match": 1e-6,
    "dual_curvature": 1e-6,
    "dual_metric_third_form": 1e-8,
    "dual_involution": 1e-8,
    "extension_riemann": 1e-4,
    "extension_riemann_bump": 1e-3,
    "relator_residual": 1e-8,
    "generator_trace": 1e-9,
    "euler_characteristic": 0.0,
    "octagon_area": 1e-10,
    "element_area": 1e-2,
    "kernel_dimension": 0.0,
    "min_abs_eigenvalue": 1.8,
    "constant_image": 1e-10,
    "phi_k_metric": 1e-6,
    "phi_k_parameter": 1e-12,
}
# the most rows a surface command makes: --samples, or --points per extend s value
MAX_ROWS = 100000


@dataclass
class RunConfig:
    command: str = ""
    fixture: str = "fuchsian_family"
    s: float = -0.7
    s2: float | None = None
    amplitude: float = 0.05
    width: float = 1.0
    base: float = -0.7
    samples: int = 100
    points: int = 20
    s_list: str = "-1.2,-0.7,-0.2"
    mesh_level: int = 3
    k_curvature: float = -2.0
    seed: int = 0
    tolerance: float | None = None
    fd_step: float | None = None
    output: str = "table"
    out_file: str | None = None
    export_mesh: str | None = None

    def validate(self) -> emb.Immersion:
        """Check every option; return the fixture's immersion, built once."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if not self.k_curvature < -1.0:
            raise ConfigError(f"K must be < -1, got {self.k_curvature}")
        # an unknown fixture name is reported by make_immersion
        _, names = emb.FIXTURES.get(self.fixture, (None, ()))
        immersion = emb.make_immersion(self.fixture,
                                       **{name: getattr(self, name) for name in names})
        # the family members whose normal the command resolves, by flag
        members = []
        if "fixture" in COMMANDS[self.command][2] and self.fixture == "fuchsian_family":
            members.append(("--s", self.s))
        if self.s2 is not None:
            members.append(("--s2", self.s2))
        if self.command == "phik":
            members.append(("--k", con.slice_parameter(self.k_curvature)))
        try:
            emb.family_immersion(self.s)
            if self.s2 is not None:
                emb.family_immersion(self.s2)
            if self.command == "rigidity":
                rig.check_rigidity_parameter(self.s)
            if self.command == "dual" and self.fixture != "graph_bump":
                # the umbilic fixtures have B = tan(s) E, with s = 0 on the plane
                con.require_family_dual(self.s if self.fixture == "fuchsian_family"
                                        else 0.0)
        except AdsGeoError as exc:
            raise ConfigError(f"{self.command}: {exc}") from exc
        for flag, s in members:
            try:
                emb.require_family_normal(s)
            except AdsGeoError as exc:
                raise ConfigError(f"{self.command} {flag}: {exc}") from exc
        if self.s2 is not None and self.fixture != "fuchsian_family":
            raise ConfigError("s2 applies to the fuchsian_family fixture only")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.samples <= MAX_ROWS:
            raise ConfigError(f"samples must lie in [1, {MAX_ROWS}], got {self.samples}")
        if not 1 <= self.points <= 10000:
            raise ConfigError(f"points must lie in [1, 10000], got {self.points}")
        if not 0 <= self.mesh_level <= fuc.MAX_MESH_LEVEL:
            raise ConfigError(f"mesh-level must lie in [0, {fuc.MAX_MESH_LEVEL}]")
        if self.tolerance is not None and not self.tolerance > 0.0:
            raise ConfigError("tolerance must be positive")
        if self.fd_step is not None and not 1e-6 <= self.fd_step <= 0.1:
            raise ConfigError("fd-step must lie in [1e-6, 0.1]")
        if self.output not in FORMATS:
            raise ConfigError(f"output must be one of {FORMATS}")
        for name in ("out_file", "export_mesh"):
            if getattr(self, name) == "":
                raise ConfigError(f"{name.replace('_', '-')} must name a file, got an empty path")
        return immersion

    def tol(self, name: str) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return DEFAULT_TOLS[name]

    def diff(self) -> DiffConfig:
        if self.fd_step is None:
            return DiffConfig()
        return DiffConfig(immersion_step=self.fd_step)

    def provenance(self) -> dict:
        out = {"version": __version__, "command": self.command}
        for f in fields(self):
            if f.name in ("command", "out_file"):
                continue
            out[f.name.replace("_", "-")] = str(getattr(self, f.name))
        return out


_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - {"command"}
_KINDS = {"int": int, "float": float, "str": str}


def parse_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment; unknown keys rejected."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def _kind(name: str):
    """int, float or str: the type of RunConfig field ``name``, from its
    annotation; it parses both the config-file value and the flag."""
    kind = {f.name: f.type for f in fields(RunConfig)}[name]
    return _KINDS[kind.removesuffix(" | None")]


# ---------------------------------------------------------------------------
# command implementations; each surface command makes one batched call per
# layer over its whole sample set

def _sample_points(rng, n, box=0.8):
    return rng.uniform(-box, box, size=(n, 2))


# row location of a chart point (u1, u2) and of an extension point (u1, u2, s)
_LOCATION = {2: "u=({:+.4f},{:+.4f})", 3: "(u1,u2,s)=({:+.3f},{:+.3f},{:+.3f})"}


def _chart_locations(pts) -> np.ndarray:
    """The row location of each point of an (n, 2) or (n, 3) array, in order."""
    template = _LOCATION[pts.shape[-1]]
    return np.array([template.format(*p) for p in pts.tolist()])


def _write_file(path: str, what: str, payload: bytes):
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise AdsGeoError(f"cannot write {what} file {path}: {exc}") from exc


def run_check(cfg: RunConfig, report: CheckReport, immersion: emb.Immersion):
    rng = np.random.default_rng(cfg.seed)
    pts = _sample_points(rng, cfg.samples)
    checks = ["gauss_residual", "codazzi_residual"]
    residuals = emb.structure_residuals(immersion, pts, cfg=cfg.diff())
    report.add(checks, _chart_locations(pts)[:, None],
               np.stack(residuals, axis=-1), [cfg.tol(c) for c in checks])


def run_mess(cfg: RunConfig, report: CheckReport, immersion: emb.Immersion):
    rng = np.random.default_rng(cfg.seed)
    diff = cfg.diff()
    tol_name = ("left_curvature_bump" if cfg.fixture == "graph_bump"
                else "left_curvature")
    pts = _sample_points(rng, cfg.samples)
    locations = _chart_locations(pts)
    # one embedding-data call serves K# and I#
    data = emb.embedding_data_at(immersion, pts, cfg=diff)
    k_sharp = mes.sharp_curvature(immersion, pts, diff, data=data)
    report.add("left_curvature", locations, np.abs(k_sharp + 1.0), cfg.tol(tol_name))
    if cfg.s2 is not None:
        other = emb.make_immersion("fuchsian_family", s=cfg.s2)
        a = mes.mess_metric(data, +1)
        b = mes.mess_metric(emb.embedding_data_at(other, pts, cfg=diff), +1)
        report.add("metric_match", locations, np.abs(a - b).max(axis=(-2, -1)),
                   cfg.tol("metric_match"))


def run_dual(cfg: RunConfig, report: CheckReport, immersion: emb.Immersion):
    rng = np.random.default_rng(cfg.seed)
    pts = _sample_points(rng, cfg.samples)
    _, diag = con.dual_surface(immersion, pts, cfg=cfg.diff())
    checks = ["dual_curvature", "dual_metric_third_form", "dual_involution"]
    values = [diag["curvature_consistency"], diag["metric_vs_third_form"],
              diag["involution"]]
    report.add(checks, _chart_locations(pts)[:, None],
               np.stack(values, axis=-1), [cfg.tol(c) for c in checks])


def run_extend(cfg: RunConfig, report: CheckReport, immersion: emb.Immersion):
    rng = np.random.default_rng(cfg.seed)
    try:
        s_values = [float(x) for x in cfg.s_list.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad s-list: {cfg.s_list!r}") from exc
    if not s_values:
        raise ConfigError(f"s-list names no extension parameter: {cfg.s_list!r}")
    for sv in s_values:
        if not -np.pi / 2 + 0.05 < sv <= 0.0:
            raise ConfigError(f"extension sample s={sv} outside (-pi/2+0.05, 0]")
    rows = len(s_values) * cfg.points
    if rows > MAX_ROWS:
        raise ConfigError(f"s-list times points makes {rows} rows, more than {MAX_ROWS}")
    tol_name = ("extension_riemann_bump" if cfg.fixture == "graph_bump"
                else "extension_riemann")
    # rows ordered by s, then by point; each s value takes the next
    # cfg.points draws
    u = _sample_points(rng, rows, box=0.7)
    pts = np.column_stack([u, np.repeat(s_values, cfg.points)])
    report.add("extension_riemann", _chart_locations(pts),
               con.extension_curvature(immersion, pts, cfg.diff()), cfg.tol(tol_name))


def run_rigidity(cfg: RunConfig, report: CheckReport):
    ops = fuc.discrete_operators(fuc.genus2_mesh(cfg.mesh_level))
    loc = f"level={cfg.mesh_level},s={cfg.s:+.4f}"
    spectrum = rig.rigidity_spectrum(ops, cfg.s, k=6, seed=cfg.seed)
    report.add(np.char.add("eigenvalue_", np.arange(spectrum.size).astype(str)), loc,
               spectrum, np.inf)
    report.add("kernel_dimension", loc, rig.kernel_dimension(spectrum),
               cfg.tol("kernel_dimension"))
    min_abs = np.min(np.abs(spectrum)) / np.tan(abs(cfg.s))
    report.add("min_abs_eigenvalue", loc, min_abs, cfg.tol("min_abs_eigenvalue"),
               passed=min_abs >= cfg.tol("min_abs_eigenvalue"))
    report.add("constant_image", loc, rig.constant_function_check(ops, cfg.s),
               cfg.tol("constant_image"))


def run_fuchsian(cfg: RunConfig, report: CheckReport):
    side_pairings, quadruple = fuc.octagon_generators()
    report.add("relator_residual", ["commutator", "octagon_word"],
               fuc.relator_residuals(side_pairings, quadruple), cfg.tol("relator_residual"))
    report.add("generator_trace", ["a1", "b1", "a2", "b2"],
               np.abs([np.trace(m) for m in quadruple]) - fuc.GENERATOR_TRACE,
               cfg.tol("generator_trace"))
    mesh = fuc.genus2_mesh(cfg.mesh_level)
    loc = f"level={cfg.mesh_level}"
    report.add("euler_characteristic", loc, mesh.euler_characteristic() + 2,
               cfg.tol("euler_characteristic"))
    area = mesh.area_angle_defect()
    report.add("octagon_area", loc, area / (4.0 * np.pi) - 1.0,
               cfg.tol("octagon_area"))
    report.add("element_area", loc, mesh.area_elementwise() / (4.0 * np.pi) - 1.0,
               cfg.tol("element_area"))
    if cfg.export_mesh:
        _write_file(cfg.export_mesh, "mesh", fuc.export_mesh(mesh).encode("utf-8"))


def run_phi_k(cfg: RunConfig, report: CheckReport):
    """phi_K rows: the slice parameter of curvature K, and the left and
    normalized surface metrics against the hyperbolic metric."""
    pts = _sample_points(np.random.default_rng(cfg.seed), max(cfg.samples // 10, 3))
    s, left, surface = con.phi_k_fuchsian(cfg.k_curvature, pts, cfg=cfg.diff())
    report.add("phi_k_parameter", f"K={cfg.k_curvature}",
               -1.0 / np.cos(s) ** 2 - cfg.k_curvature, cfg.tol("phi_k_parameter"))
    g = emb.hyperbolic_metric(pts)
    locations = _chart_locations(pts)
    gaps = [np.abs(left - g).max(axis=(-2, -1)), np.abs(surface - g).max(axis=(-2, -1))]
    report.add("phi_k_metric", np.stack([locations, np.char.add(locations, "/surface")], -1),
               np.stack(gaps, axis=-1), cfg.tol("phi_k_metric"))


# ---------------------------------------------------------------------------
# argument handling: each command's flags are RunConfig fields, in help order

_FIXTURE = ("fixture", "s", "amplitude", "width", "base")
_COMMON = ("tolerance", "fd_step", "seed", "output", "out_file")
# command -> (runner, help line, flags); each runner adds its rows to the
# report it is given, and "fixture" runners also take the immersion
COMMANDS = {
    "check": (run_check, "Gauss and Codazzi residuals",
              _FIXTURE + ("samples",) + _COMMON),
    "mess": (run_mess, "left/right metric checks",
             _FIXTURE + ("samples", "s2") + _COMMON),
    "dual": (run_dual, "duality checks", _FIXTURE + ("samples",) + _COMMON),
    "extend": (run_extend, "equidistant extension curvature checks",
               _FIXTURE + ("s_list", "points") + _COMMON),
    "rigidity": (run_rigidity, "discrete kernel verdict",
                 ("s", "mesh_level") + _COMMON),
    "fuchsian": (run_fuchsian, "octagon group and mesh checks",
                 ("mesh_level", "export_mesh") + _COMMON),
    "phik": (run_phi_k, "constant-curvature slice map on the family",
             ("k_curvature", "samples") + _COMMON),
    "version": (None, "print version and exit", ()),
}
_FLAG_HELP = {
    "s2": "second family parameter for surface-independence rows",
    "s_list": "comma-separated extension parameters",
    "tolerance": "override every check tolerance",
    "fd_step": "immersion differentiation step",
}
_CHOICES = {"fixture": emb.CATALOG, "output": FORMATS}
_FLAG_NAMES = {"k_curvature": "--k"}     # every other flag is --field-name


def run(cfg: RunConfig) -> CheckReport:
    """Dispatch a validated configuration to its command, which adds its
    rows to the one report made here."""
    immersion = cfg.validate()
    runner, _, names = COMMANDS[cfg.command]
    report = CheckReport(provenance=cfg.provenance())
    if "fixture" in names:
        runner(cfg, report, immersion)
    else:
        runner(cfg, report)
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adsgeo",
        description="verification harness for spacelike-surface geometry in AdS3")
    parser.add_argument("--config", help="flat key=value configuration file")
    sub = parser.add_subparsers(dest="command")
    for command, (_, help_line, names) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for name in names:
            p.add_argument(_FLAG_NAMES.get(name, "--" + name.replace("_", "-")),
                           dest=name, type=_kind(name), default=None,
                           choices=_CHOICES.get(name), help=_FLAG_HELP.get(name))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on first use: parsing leaves the parser as it
    was, so every call of ``main`` shares it."""
    return build_parser()


# glibc's mallopt parameters (malloc.h) and the values main sets: numpy
# temporaries below 4 MiB come from the heap, and up to 64 MiB of freed heap
# top stays mapped, so a repeated layer call reuses pages it already touched
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_POLICY = ((M_MMAP_THRESHOLD, 4 << 20), (M_TRIM_THRESHOLD, 64 << 20))


@functools.cache
def _malloc_policy() -> bool:
    """Set MALLOC_POLICY once per process, on glibc only; True when set.

    glibc's default mmap threshold follows the largest freed mapped block
    and its trim threshold is twice that, so the pages of freed temporaries
    go back to the OS and every later call faults them in again.  Elsewhere,
    or when mallopt refuses a value, nothing is set."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (ValueError, OSError):       # no such name off glibc
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, value) for param, value in MALLOC_POLICY)


def main(argv=None) -> int:
    _malloc_policy()
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.command == "version":
        sys.stdout.write(f"adsgeo {__version__}\n")
        return 0

    try:
        cfg = RunConfig(command=args.command)
        if args.config:
            for key, raw in parse_config_file(args.config).items():
                try:
                    setattr(cfg, key, _kind(key)(raw))
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key}: {raw!r}") from exc
        for key, value in vars(args).items():
            if key in ("config", "command") or value is None:
                continue
            setattr(cfg, key, value)
        report = run(cfg)
        payload = emit_report(report, cfg.output)
        if cfg.out_file:
            _write_file(cfg.out_file, "report", payload)
    except ConfigError as exc:
        sys.stderr.write(f"adsgeo: config error: {exc}\n")
        return 2
    except AdsGeoError as exc:
        sys.stderr.write(f"adsgeo: error: {exc}\n")
        return 2

    if cfg.out_file:
        sys.stdout.write(f"report written to {cfg.out_file}: {report.summary}\n")
    else:
        sys.stdout.buffer.write(payload)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

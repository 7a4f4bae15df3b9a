import json
import os
import platform
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import adsgeo
from adsgeo import cli
from adsgeo import embedding as emb
from adsgeo import rigidity as rig
from adsgeo.errors import ConfigError, DegenerateDataError
from adsgeo.fd import DiffConfig
from adsgeo.report import CheckReport, emit_report
from test_golden import CASES as GOLDEN_CASES
from test_golden import GOLDEN, SEED


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version(capsys):
    code, out, _ = run_cli(capsys, "version")
    assert code == 0
    assert out.startswith("adsgeo ")


def test_check_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--fixture", "fuchsian_family",
                           "--s", "-0.7", "--samples", "4")
    assert code == 0
    assert "summary: PASS" in out
    assert "gauss_residual" in out and "codazzi_residual" in out


def test_unknown_fixture_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("fixture = nonexistent\n")
    code, _, err = run_cli(capsys, "--config", str(cfgfile), "check")
    assert code == 2
    assert "unknown fixture" in err


def test_missing_config_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "--config", "/no/such/file.cfg", "check")
    assert code == 2
    assert "config" in err


def test_config_file_roundtrip(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("fixture = fuchsian_family\ns = -0.3\nsamples = 3\n"
                       "# comment line\nseed = 7\ntolerance = 0.5\n")
    code, out, _ = run_cli(capsys, "--config", str(cfgfile), "check")
    assert code == 0
    assert "s = -0.3" in out
    assert "seed = 7" in out
    assert "tolerance = 0.5" in out


def test_config_file_unknown_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("mystery = 12\n")
    assert cli.main(["--config", str(cfgfile), "check"]) == 2


def test_config_file_bad_value(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    for text in ("samples = not_a_number\n", "output = xml\n", "samples 3\n"):
        cfgfile.write_text(text)
        assert cli.main(["--config", str(cfgfile), "check"]) == 2


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("samples = 3\nseed = 1\n")
    code, out, _ = run_cli(capsys, "--config", str(cfgfile), "check",
                           "--samples", "2")
    assert code == 0
    assert "samples = 2" in out


def test_out_of_range_values_exit_2():
    assert cli.main(["check", "--s", "0.5"]) == 2
    assert cli.main(["check", "--samples", "0"]) == 2
    assert cli.main(["rigidity", "--mesh-level", "99"]) == 2
    assert cli.main(["check", "--tolerance", "-1.0"]) == 2
    assert cli.main(["phik", "--k", "-0.5"]) == 2
    assert cli.main(["check", "--seed", "-1"]) == 2
    assert cli.main(["check", "--fixture", "graph_bump", "--width", "nan"]) == 2
    assert cli.main(["check", "--tolerance", "inf"]) == 2
    assert cli.main(["extend", "--points", "0"]) == 2
    assert cli.main(["check", "--fd-step", "1"]) == 2
    assert cli.main(["check", "--fixture", "graph_bump", "--amplitude", "0.5"]) == 2
    assert cli.main(["check", "--fixture", "graph_bump", "--base", "-1.6"]) == 2
    assert cli.main([]) == 2        # no command: the usage line


def test_fd_step_sets_the_immersion_step(capsys):
    argv = ["check", "--fixture", "graph_bump", "--samples", "3", "--seed", "3",
            "--output", "csv"]
    code, out, _ = run_cli(capsys, *argv, "--fd-step", "1e-3")
    assert code == 0
    pts = cli._sample_points(np.random.default_rng(3), 3)
    gauss, codazzi = emb.structure_residuals(emb.bump_immersion(), pts,
                                             cfg=DiffConfig(immersion_step=1e-3))
    values = [line.split(",")[2] for line in out.splitlines()[1:-1]]
    assert values == [f"{v:.9e}" for v in np.stack([gauss, codazzi], axis=-1).ravel()]
    assert run_cli(capsys, *argv)[1] != out


@pytest.mark.parametrize("argv", [
    ["dual", "--fixture", "totally_geodesic"],
    ["dual", "--fixture", "fuchsian_family", "--s", "0"],
    ["mess", "--fixture", "graph_bump", "--s2", "-1.0"],
    ["check", "--fixture", "graph_bump", "--width", "0.2", "--amplitude", "-0.3",
     "--base", "-1.2", "--samples", "5"],
    ["dual", "--fixture", "fuchsian_family", "--s=-0.0001"],
    ["dual", "--fixture", "fuchsian_family", "--s=-0.0002"],
], ids=["dual_plane", "dual_family_s0", "mess_bump_s2", "check_bump_lightlike",
        "dual_family_s1e-4", "dual_family_s2e-4"])
def test_precondition_is_a_config_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("adsgeo: config error:")


def test_dual_family_small_s_still_reports(capsys):
    # just above the dual-normal bound the run completes with a report
    code, out, _ = run_cli(capsys, "dual", "--fixture", "fuchsian_family",
                           "--s=-0.0005", "--samples", "3")
    assert code in (0, 1)
    assert "summary:" in out


def test_rigidity_command(capsys):
    code, out, _ = run_cli(capsys, "rigidity", "--s", "-0.7",
                           "--mesh-level", "2")
    assert code == 0
    assert "kernel_dimension" in out
    assert "min_abs_eigenvalue" in out


def test_rigidity_single_eigenvalue_is_inconclusive(capsys):
    # level 0 glues to two vertices, leaving one eigenvalue and no gap
    code, out, _ = run_cli(capsys, "rigidity", "--mesh-level", "0")
    assert code == 1
    row = next(ln for ln in out.splitlines() if ln.startswith("kernel_dimension"))
    assert row.split()[2:] == ["nan", "0.0", "FAIL"]


def test_rigidity_nan_eigenvalue_fails(monkeypatch, capsys):
    # an eigenvalue row has an infinite tolerance, which every finite value
    # meets and NaN does not
    spectrum = rig.rigidity_spectrum

    def with_nan(*args, **kwargs):
        eigs = spectrum(*args, **kwargs)
        eigs[0] = np.nan
        return eigs

    monkeypatch.setattr(rig, "rigidity_spectrum", with_nan)
    code, out, _ = run_cli(capsys, "rigidity", "--mesh-level", "2")
    assert code == 1
    row = next(ln for ln in out.splitlines() if ln.startswith("eigenvalue_0"))
    assert row.split()[2:] == ["nan", "inf", "FAIL"]
    # and the spectrum has no gap to count a kernel by
    row = next(ln for ln in out.splitlines() if ln.startswith("kernel_dimension"))
    assert row.split()[2:] == ["nan", "0.0", "FAIL"]


def test_fuchsian_command_with_export(tmp_path, capsys):
    target = tmp_path / "mesh.txt"
    code, out, _ = run_cli(capsys, "fuchsian", "--mesh-level", "2",
                           "--export-mesh", str(target), "--tolerance", "0.05")
    assert code == 0
    text = target.read_text()
    assert text.splitlines()[1].startswith("vertices ")
    assert "gluings" in text


def test_non_utf8_config_file_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_bytes(b"samples = 3\n\xff\xfe\n")
    code, out, err = run_cli(capsys, "--config", str(cfgfile), "check")
    assert code == 2 and out == ""
    assert err.startswith("adsgeo: config error: cannot read config file")
    assert err.count("\n") == 1


def test_unwritable_out_file_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(capsys, "check", "--samples", "2", "--out-file", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"adsgeo: error: cannot write report file {target}:")
    assert err.count("\n") == 1


def test_unwritable_export_mesh_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "mesh.txt"
    code, out, err = run_cli(capsys, "fuchsian", "--mesh-level", "1",
                             "--export-mesh", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"adsgeo: error: cannot write mesh file {target}:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["check", "--samples", "1", "--out-file", ""],
    ["fuchsian", "--mesh-level", "0", "--export-mesh", ""],
], ids=["out_file", "export_mesh"])
def test_empty_path_flag_is_a_config_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("adsgeo: config error:") and "empty path" in err


@pytest.mark.parametrize("command,key", [("check", "out_file"), ("fuchsian", "export_mesh")])
def test_empty_path_config_key_is_a_config_error(tmp_path, capsys, command, key):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"samples = 1\nmesh_level = 0\n{key} =\n")
    code, out, err = run_cli(capsys, "--config", str(cfgfile), command)
    assert code == 2 and out == ""
    assert err.startswith("adsgeo: config error:") and "empty path" in err


@pytest.mark.parametrize("argv,builds", [
    (["check", "--fixture", "graph_bump", "--samples", "2"], 1),
    (["mess", "--fixture", "graph_bump", "--samples", "2"], 1),
    (["mess", "--s", "-0.2", "--s2", "-1.2", "--samples", "2"], 2),
    (["dual", "--fixture", "graph_bump", "--samples", "2"], 1),
    (["extend", "--fixture", "graph_bump", "--points", "2"], 1),
], ids=lambda x: str(x))
def test_immersion_built_once_per_command(monkeypatch, capsys, argv, builds):
    # validate builds the fixture's immersion and run hands it on; only the
    # second surface of mess --s2 is another build
    calls = []
    make = emb.make_immersion

    def counted(name, **params):
        calls.append(name)
        return make(name, **params)

    monkeypatch.setattr(emb, "make_immersion", counted)
    assert run_cli(capsys, *argv)[0] == 0
    assert len(calls) == builds


def test_report_determinism(capsys):
    args = ["mess", "--fixture", "fuchsian_family", "--s", "-0.7",
            "--samples", "3", "--seed", "11", "--output", "records"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_file_bytes_identical(tmp_path, capsys):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        code, _, _ = run_cli(capsys, "dual", "--fixture", "graph_bump",
                             "--samples", "2", "--seed", "3",
                             "--output", "csv", "--out-file", str(f))
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_failing_row_exits_1(capsys):
    # an impossibly tight tolerance forces residual rows to fail
    code, out, _ = run_cli(capsys, "check", "--samples", "2",
                           "--tolerance", "1e-300")
    assert code == 1
    assert "FAIL" in out


def test_extend_command(capsys):
    code, out, _ = run_cli(capsys, "extend", "--fixture", "fuchsian_family",
                           "--s", "-0.7", "--s-list", "-0.5",
                           "--points", "2")
    assert code == 0
    assert "extension_riemann" in out


def test_extend_rejects_bad_slist():
    assert cli.main(["extend", "--s-list", "spam"]) == 2
    assert cli.main(["extend", "--s-list", "-1.6"]) == 2
    # an empty list used to pass with no row checked
    for empty in ("", ",", " "):
        assert cli.main(["extend", f"--s-list={empty}"]) == 2


def test_extend_rejects_more_rows_than_samples(monkeypatch, capsys):
    # 11 s values of 10,000 points each would be 110,000 rows
    def no_sampling(*args, **kwargs):
        raise AssertionError("extend sampled points before checking its row count")

    monkeypatch.setattr(cli, "_sample_points", no_sampling)
    s_list = ",".join(["-0.5"] * 11)
    code, _, err = run_cli(capsys, "extend", f"--s-list={s_list}", "--points", "10000")
    assert code == 2
    assert "makes 110000 rows, more than 100000" in err


def test_mess_surface_independence_rows(capsys):
    code, out, _ = run_cli(capsys, "mess", "--fixture", "fuchsian_family",
                           "--s", "-0.2", "--s2", "-1.2", "--samples", "3")
    assert code == 0
    assert "metric_match" in out


def test_emit_formats_and_empty_report():
    report = CheckReport(provenance={"version": "x"})
    for fmt in ("table", "records", "csv"):
        payload = emit_report(report, fmt)
        assert isinstance(payload, bytes) and len(payload) > 0
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def test_report_summary_semantics():
    report = CheckReport()
    report.add("a", "x", 1e-9, 1e-6)
    assert report.passed
    report.add("b", "y", 5.0, 1e-6)
    assert not report.passed
    assert "FAIL" in report.summary
    # a verdict override broadcasts like the other arguments
    report = CheckReport()
    report.add(["a", "b"], [["x"], ["y"]], 5.0, 1e-6, passed=[True, False])
    assert report.checks == ["a", "b", "a", "b"]
    assert report.locations == ["x", "x", "y", "y"]
    assert report.verdicts == [True, False, True, False]
    assert report.summary == "FAIL (2/4 checks)"
    # shapes that do not broadcast raise and add no row
    for args, passed in (((["a", "b", "c"], "z", [1.0, 2.0], 1e-6), None),
                         (("a", "z", [1.0, 2.0], [1e-6, 1e-6, 1e-6]), None),
                         (("a", "z", [1.0, 2.0], 1e-6), [True, False, True])):
        with pytest.raises(ValueError):
            report.add(*args, passed=passed)
    assert len(report.verdicts) == 4
    # a NaN value FAILs its row and the summary in every format, even against
    # an infinite tolerance: no vacuous pass
    report = CheckReport()
    report.add("a", ["x", "y"], [1e-9, np.nan], [1e-6, np.inf])
    assert not report.passed
    assert report.summary == "FAIL (1/2 checks)"
    table, records, csv = (emit_report(report, fmt).decode().splitlines()
                           for fmt in ("table", "records", "csv"))
    assert table[-2].endswith(" FAIL") and table[-1] == "summary: FAIL (1/2 checks)"
    assert [json.loads(line)["passed"] for line in records[-3:]] == [True, False, False]
    assert csv[-2].endswith(",FAIL") and csv[-1] == "summary,,,,FAIL"


def test_tolerances_echoed_in_all_formats():
    report = CheckReport()
    report.add("a", "x", 1e-9, 1e-6)
    for fmt in ("table", "records", "csv"):
        assert b"1e-06" in emit_report(report, fmt)
    # one add with 2 check ids and (n, 1) locations emits the bytes of the
    # scalar adds in point-major order
    locations = ["u=(+0.1000,-0.2000)", "u=(+0.3000,+0.4000)", "s,t"]
    values = np.array([[1e-9, -2.0], [np.nan, 3e-8], [0.0, -0.0]])
    block, rows = CheckReport(), CheckReport()
    block.add(["a", "b"], np.array(locations)[:, None], values, [1e-6, 1e-7])
    for loc, (va, vb) in zip(locations, values):
        rows.add("a", loc, va, 1e-6)
        rows.add("b", loc, vb, 1e-7)
    for fmt in ("table", "records", "csv"):
        payload = emit_report(block, fmt)
        assert b"1e-06" in payload and b"1e-07" in payload
        assert payload == emit_report(rows, fmt)


# evaluator calls (embedding.hyperboloid_point, which every built-in fixture
# calls once per evaluation) and points evaluated (the leading batch sizes
# passed to it) per command at the benchmark's sizes: one call per stacked
# stencil
EVALUATOR_CALLS = [
    (["check", "--fixture", "graph_bump", "--samples", "100"], 2, 28900),
    (["check", "--fixture", "fuchsian_family", "--s", "-1.2", "--samples", "100"], 2, 28900),
    (["mess", "--fixture", "graph_bump", "--samples", "100"], 2, 15300),
    (["mess", "--fixture", "fuchsian_family", "--s", "-0.2", "--s2", "-1.2",
      "--samples", "100"], 3, 17800),
    (["dual", "--fixture", "graph_bump", "--samples", "50"], 3, 11250),
    (["extend", "--fixture", "graph_bump", "--points", "20"], 1, 25500),
]


@pytest.mark.parametrize("argv,calls,points", EVALUATOR_CALLS, ids=lambda x: str(x))
def test_evaluator_calls_per_command(monkeypatch, capsys, argv, calls, points):
    count = [0, 0]
    point = emb.hyperboloid_point

    def counted(u):
        count[0] += 1
        count[1] += int(np.prod(np.shape(u)[:-1]))
        return point(u)

    monkeypatch.setattr(emb, "hyperboloid_point", counted)
    assert cli.main(argv + ["--seed", "1"]) == 0
    assert count == [calls, points]


def test_parser_built_once_and_reused(monkeypatch, capsys):
    # check, mess, check with different options: the reports of a shared
    # parser are those of a parser built for each call
    runs = [["check", "--fixture", "graph_bump", "--samples", "2", "--output", "csv"],
            ["mess", "--s", "-0.3", "--samples", "3", "--seed", "4"],
            ["check", "--samples", "2", "--tolerance", "1e-300", "--output", "records"]]
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    builds = [0]
    build = cli.build_parser

    def counted():
        builds[0] += 1
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert [run_cli(capsys, *argv) for argv in runs] == fresh
    finally:
        cli._parser.cache_clear()
    assert builds[0] == 1
    assert [code for code, _, _ in fresh] == [0, 0, 1]


@pytest.mark.parametrize("page", ["top", *cli.COMMANDS])
def test_help_pages_pinned(monkeypatch, capsys, page):
    # the parser built from COMMANDS prints tests/golden/help_<page>.txt
    # byte for byte
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        cli.main(([] if page == "top" else [page]) + ["--help"])
    assert done.value.code == 0
    golden = (Path(__file__).parent / "golden" / f"help_{page}.txt").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden


@pytest.mark.parametrize("argv,message", [
    (["check", "--samples", "x"], "argument --samples: invalid int value: 'x'"),
    (["phik", "--k", "y"], "argument --k: invalid float value: 'y'"),
], ids=["int", "float"])
def test_bad_flag_value_names_its_type(capsys, argv, message):
    with pytest.raises(SystemExit) as done:
        cli.main(argv)
    assert done.value.code == 2
    assert message in capsys.readouterr().err


def test_negative_value_in_exponent_form(capsys):
    # argparse takes "-1e-3" for a flag, not for a negative number: the
    # value is written "--s=-1e-3" or "--s -0.001" (README "Command line")
    with pytest.raises(SystemExit) as done:
        cli.main(["check", "--s", "-1e-3", "--samples", "2"])
    assert done.value.code == 2
    assert "argument --s: expected one argument" in capsys.readouterr().err
    joined = run_cli(capsys, "check", "--s=-1e-3", "--samples", "2")
    assert joined[0] == 0
    assert joined == run_cli(capsys, "check", "--s", "-0.001", "--samples", "2")


def test_command_flags_are_the_config_keys():
    # every RunConfig field but command is a flag of some command and a
    # config key, declared once
    flags = {name for _, _, names in cli.COMMANDS.values() for name in names}
    assert flags == {f.name for f in fields(cli.RunConfig)} - {"command"}


def test_every_command_has_a_golden_case():
    # a new command lands with its report bytes pinned (and, through
    # test_help_pages_pinned, its help page)
    covered = {argv[0] for _, argv, _ in GOLDEN_CASES}
    assert covered == set(cli.COMMANDS) - {"version"}


SURFACE_COMMANDS = [
    ["check", "--fixture", "graph_bump", "--samples", "2"],
    ["mess", "--s", "-0.2", "--s2", "-1.2", "--samples", "2"],
    ["dual", "--fixture", "graph_bump", "--samples", "2"],
    ["extend", "--fixture", "graph_bump", "--points", "2"],
]

NO_SCIPY = """
import contextlib, io, json, sys
import adsgeo
from adsgeo import cli
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
sys.modules["scipy"] = None          # any scipy import now fails
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    out.flush()
    runs.append([code, out.buffer.getvalue().decode()])
print(json.dumps({"loaded": loaded, "runs": runs}))
"""


def test_surface_commands_load_no_scipy(capsys):
    # scipy serves the genus-2 mesh and its eigensolve only; blocking it
    # changes no byte of the surface reports
    env = dict(os.environ, PYTHONPATH=str(Path(adsgeo.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(SURFACE_COMMANDS)],
                          capture_output=True, text=True, env=env, check=True)
    got = json.loads(done.stdout)
    assert got["loaded"] == []
    assert got["runs"] == [[0, run_cli(capsys, *argv)[1]] for argv in SURFACE_COMMANDS]


@pytest.mark.parametrize("argv,flag", [
    (["check", "--fixture", "fuchsian_family", "--s", "-1.5707"], "--s"),
    (["mess", "--fixture", "fuchsian_family", "--s", "-1.5707"], "--s"),
    (["dual", "--fixture", "fuchsian_family", "--s", "-1.5707"], "--s"),
    (["extend", "--fixture", "fuchsian_family", "--s", "-1.5707"], "--s"),
    (["mess", "--s2", "-1.5707"], "--s2"),
    (["phik", "--k=-2e7"], "--k"),
    (["phik", "--k=-1e32"], "--k"),
], ids=["check_s", "mess_s", "dual_s", "extend_s", "mess_s2", "phik_k2e7", "phik_k1e32"])
def test_family_focal_end_is_a_config_error(capsys, argv, flag):
    # <n, n> = -cos(s)^4 / (1 + |u|^2) of the family's unnormalized normal
    # is above -NORMAL_FLOOR at the box corners: rejected before any row,
    # naming the flag that set s
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"adsgeo: config error: {argv[0]} {flag}: family normal ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("params", [
    ["--base", "-1.5707", "--amplitude", "0.0001"],
    ["--base", "-1.5706", "--amplitude", "-0.0001"],
], ids=["amplitude_up", "amplitude_down"])
def test_bump_focal_end_is_a_config_error(monkeypatch, capsys, params):
    # <n, n> = -det I of the bump's unnormalized normal is above
    # -NORMAL_FLOOR somewhere on its radial grid: rejected before any row
    def no_rows(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(emb, "structure_residuals", no_rows)
    code, out, err = run_cli(capsys, "check", "--fixture", "graph_bump", *params,
                             "--samples", "2")
    assert code == 2 and out == ""
    assert err.startswith("adsgeo: config error: bump normal unresolvable: <n, n> = -")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["check", "--s", "-1.57037", "--samples", "5"],
    ["mess", "--s", "-0.2", "--s2", "-1.57037", "--samples", "5"],
    ["extend", "--s", "-1.57037", "--points", "2"],
    ["phik", "--k=-5.7e6", "--samples", "30"],
    ["rigidity", "--s", "-1.5707963", "--mesh-level", "1"],
], ids=["check_s", "mess_s2", "extend_s", "phik_k", "rigidity_s"])
def test_family_just_inside_focal_bound_reports(capsys, argv):
    # the whole accepted range makes its report; rigidity takes s only
    # through tan|s|, so its range runs up to -pi/2
    code, out, _ = run_cli(capsys, *argv)
    assert code in ((0,) if argv[0] == "rigidity" else (0, 1))
    assert "summary:" in out


@pytest.mark.parametrize("s,fails", [(-1.5703, False), (-1.57045, True)])
def test_family_normal_bound_is_where_the_normal_fails(s, fails):
    # the bound at the box corner (1, 1) agrees with the normal that
    # embedding_data_at resolves there
    surface = emb.family_immersion(s)
    for check in (lambda: emb.require_family_normal(s),
                  lambda: emb.embedding_data_at(surface, [1.0, 1.0])):
        if fails:
            with pytest.raises(DegenerateDataError):
                check()
        else:
            check()


def readme_command_lines():
    """The argv of each line of README's "Command line" sh block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert all(argv[0] == "adsgeo" for argv in lines)
    return [argv[1:] for argv in lines]


@pytest.mark.parametrize("argv", readme_command_lines(), ids=lambda argv: argv[0])
def test_readme_command_lines_run(tmp_path, monkeypatch, capsys, argv):
    # every documented command line parses and makes its report
    monkeypatch.chdir(tmp_path)
    try:
        code = cli.main(argv)
    except SystemExit as exc:       # argparse rejects the line
        code = exc.code
    assert code in (0, 1), capsys.readouterr().err


# ---------------------------------------------------------------------------
# the malloc policy that cli.main sets

ON_GLIBC = platform.libc_ver()[0] == "glibc"

MALLOPT_CALLS = """
import ctypes, importlib, io, pkgutil, sys
calls = []

class Spy(ctypes.CDLL):
    def __getattr__(self, name):
        calls.append(name)
        return super().__getattr__(name)

ctypes.CDLL = Spy
import adsgeo
for module in pkgutil.iter_modules(adsgeo.__path__):
    importlib.import_module("adsgeo." + module.name)
on_import = calls.count("mallopt")
from adsgeo import cli
sys.stdout = io.StringIO()
for _ in range(3):
    cli.main(["version"])
sys.stdout = sys.__stdout__
print(on_import, calls.count("mallopt"), cli._malloc_policy())
"""


def _python(script):
    """The words that ``script`` prints, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(adsgeo.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    return done.stdout.split()


def test_malloc_policy_once_per_process_and_never_on_import():
    on_import, after_main, applied = _python(MALLOPT_CALLS)
    assert on_import == "0"
    assert after_main == ("1" if ON_GLIBC else "0")
    assert applied == str(ON_GLIBC)


@pytest.fixture
def fresh_policy():
    cli._malloc_policy.cache_clear()
    yield
    cli._malloc_policy.cache_clear()


@pytest.mark.parametrize("confstr", [None, ValueError, OSError],
                         ids=["unset", "unknown_name", "error"])
def test_malloc_policy_off_glibc_is_a_no_op(fresh_policy, monkeypatch, tmp_path, confstr):
    def no_glibc(name):
        if confstr is not None:
            raise confstr(name)
        return None

    def no_libc(*args, **kwargs):
        raise AssertionError("libc loaded off glibc")

    monkeypatch.setattr(os, "confstr", no_glibc)
    monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
    assert cli._malloc_policy() is False
    target = tmp_path / "check_bump.table"
    argv = ["check", "--fixture", "graph_bump", "--samples", "3", "--seed", SEED,
            "--out-file", str(target)]
    assert cli.main(argv) == 0
    assert target.read_bytes() == (GOLDEN / "check_bump.table").read_bytes()


CHECK_FAULTS = """
import io, resource, sys
from adsgeo import cli
argv = ["check", "--fixture", "graph_bump", "--samples", "100"]
sys.stdout = io.TextIOWrapper(io.BytesIO())
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cli.main(argv)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
sys.stdout = sys.__stdout__
print(*faults)
"""


@pytest.mark.skipif(not ON_GLIBC, reason="the policy is set on glibc only")
def test_malloc_policy_keeps_freed_temporaries_mapped():
    # glibc's default trims the freed temporaries of each layer call, about
    # 540 minor faults per check at 100 samples; under the policy a warm
    # check reuses pages it already touched
    faults = [int(f) for f in _python(CHECK_FAULTS)]
    assert sum(faults[2:]) / 3 < 100, faults

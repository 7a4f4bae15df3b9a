"""Byte contract of the reports: every command, every output format.

Each case runs ``adsgeo <argv> --seed 3 --output FMT --out-file F`` and
compares F with ``tests/golden/<name>.<FMT>`` byte for byte, along with
the exit code.  A deliberate change in printed digits rewrites the golden
files with the same command line and is recorded in CHANGES.md.
"""
from pathlib import Path

import pytest

from adsgeo import cli
from adsgeo.report import FORMATS

GOLDEN = Path(__file__).parent / "golden"
SEED = "3"

# (name, argv, expected exit code)
CASES = [
    ("check_family", ["check", "--fixture", "fuchsian_family", "--s", "-0.7",
                      "--samples", "3"], 0),
    ("check_bump", ["check", "--fixture", "graph_bump", "--samples", "3"], 0),
    ("mess_bump", ["mess", "--fixture", "graph_bump", "--samples", "3"], 0),
    ("mess_s2", ["mess", "--fixture", "fuchsian_family", "--s", "-0.2",
                 "--s2", "-1.2", "--samples", "3"], 0),
    ("dual_bump", ["dual", "--fixture", "graph_bump", "--samples", "2"], 0),
    ("extend_family", ["extend", "--fixture", "fuchsian_family", "--s", "-0.7",
                       "--s-list=-1.1,-0.5", "--points", "2"], 0),
    ("extend_bump", ["extend", "--fixture", "graph_bump", "--s-list=-0.5",
                     "--points", "2"], 0),
    ("rigidity", ["rigidity", "--s", "-0.7", "--mesh-level", "2"], 0),
    ("fuchsian", ["fuchsian", "--mesh-level", "2"], 1),
    ("phik", ["phik", "--k", "-4", "--samples", "30"], 0),
]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_report(tmp_path, name, argv, code, fmt):
    target = tmp_path / f"{name}.{fmt}"
    argv = argv + ["--seed", SEED, "--output", fmt, "--out-file", str(target)]
    assert cli.main(argv) == code
    assert target.read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()

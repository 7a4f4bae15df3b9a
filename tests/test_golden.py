"""Byte contract of the reports: every command, every output format.

Each golden case runs ``adsgeo <argv> --seed 3 --output FMT --out-file F``
and compares F with ``tests/golden/<name>.<FMT>`` byte for byte, along with
the exit code.  A deliberate change in printed digits rewrites the golden
files with the same command line and is recorded in CHANGES.md.

Reports too large for a golden file are pinned by their sha256 in
``DIGESTS``: the benchmark's command lines at full size, the mesh levels
above 2 and the level-7 mesh export.  The ``linearized_chain`` benchmark
operations are library calls, so their payload bytes at seed 1 are pinned
in ``PAYLOAD_DIGESTS``.  A deliberate change re-pins the digest with the
``sha256sum`` of the bytes the case writes and is recorded in CHANGES.md.
"""
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from adsgeo import cli
from adsgeo.report import FORMATS

GOLDEN = Path(__file__).parent / "golden"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
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


# (name, argv, expected exit code, sha256 of the report); the golden files
# stop at mesh level 2 and at 2-3 sample points per surface command
DIGESTS = [
    # the largest mesh levels; levels 3 and 6 with a parameter and seed off
    # the defaults, levels 0 and 1 the smallest symmetry-reduced pencils,
    # with 2 and 10 unknowns.  Level 0 has one eigenvalue, so its
    # kernel_dimension row is NaN and it exits 1.
    ("fuchsian7", ["fuchsian", "--mesh-level", "7"], 0,
     "ce3f94497a41311d1e7d0e727e80d3595a96c69190ddd8b673dd2dfdb6f11400"),
    ("fuchsian6", ["fuchsian", "--mesh-level", "6"], 0,
     "3405421e59bc69606860569a297ef381f3f66f9965401f2a2d4fbe880c1d7ebb"),
    ("fuchsian3.records", ["fuchsian", "--mesh-level", "3", "--output", "records"], 0,
     "828e69c49aec353a16763d0499c7aedcdddbde12c28371658f5a77287c3591f4"),
    ("rigidity5", ["rigidity", "--mesh-level", "5"], 0,
     "4ab70f206ec58a0e7757c18aabc4ed9e223981785a615f178b73d0960335427a"),
    ("rigidity7", ["rigidity", "--mesh-level", "7"], 0,
     "90f3485253a2c186b97e4aa7e56b8434d8699dee1f24f09ebf0b6660cbd13733"),
    ("rigidity6", ["rigidity", "--mesh-level", "6", "--s", "-1.3", "--seed", "5"], 0,
     "09fc1b202e94cc27ef328e929ce7b279f45f5c9880fe57d65b138999095193f7"),
    ("rigidity4", ["rigidity", "--mesh-level", "4", "--seed", "1"], 0,
     "875c677513121a2ba67658bc761f53339ec40b28020274bd25a18d0437150fc1"),
    ("rigidity3.records", ["rigidity", "--mesh-level", "3", "--s", "-1.3", "--seed", "5",
                           "--output", "records"], 0,
     "da4c878c401bf232c8dce3ecc008ce1927bef18d23f5396a75836dd68bc830ee"),
    ("rigidity1", ["rigidity", "--mesh-level", "1"], 0,
     "a9be7a153f07e6737f1d89fe0021d551b8da11f19d141e1ba7f32fee4c82371d"),
    ("rigidity0", ["rigidity", "--mesh-level", "0"], 1,
     "433a8b0a3af5b065c81865e7a4d1fa76b1311383da8d6102c1c151e7a371709d"),
    # the benchmark's surface_fd command lines at seed 1, and the records
    # and csv emitters at full size
    ("check_bump", ["check", "--fixture", "graph_bump", "--samples", "100", "--seed", "1"], 0,
     "52e07e33feb1abf6e16fb697844a0ac5ddcd5a3c9e7f44b1500cdf60e99e24aa"),
    ("check_family", ["check", "--fixture", "fuchsian_family", "--s", "-1.2",
                      "--samples", "100", "--seed", "1"], 0,
     "b4efe4f9c6eb0332422f6871ed996dfab4053efb35d20bbd8aea55e0667ecedc"),
    ("mess_bump", ["mess", "--fixture", "graph_bump", "--samples", "100", "--seed", "1"], 0,
     "48e1fc43b4da7b40b4aa6dc2758d19daa8ac67a2a42150bce60982f1ecbe0edd"),
    ("mess_s2", ["mess", "--fixture", "fuchsian_family", "--s", "-0.2", "--s2", "-1.2",
                 "--samples", "100", "--seed", "1"], 0,
     "53ac6412a7cdfbc4ecefec4b5a5e13fd8383478ca66315a3cc13d5a4c80c4753"),
    ("dual_bump", ["dual", "--fixture", "graph_bump", "--samples", "50", "--seed", "1"], 0,
     "66b7395c68c81cca764b2714850b4c76d71a7eced492f4589387993b681615c0"),
    ("extend_bump", ["extend", "--fixture", "graph_bump", "--points", "20", "--seed", "1"], 0,
     "ee68b4418a1264fbe432107e5620cde657bdcbf2ed964efef36846457539145d"),
    ("check_bump.records", ["check", "--fixture", "graph_bump", "--samples", "100",
                            "--output", "records", "--seed", "1"], 0,
     "c2526a0b727187a0055762b4f96ee1658e01ef8a8d128144861ce86f0c13021d"),
    ("dual_bump.csv", ["dual", "--fixture", "graph_bump", "--samples", "50",
                       "--output", "csv", "--seed", "1"], 0,
     "84099704af87c16bde114a3d698f62c192ed5e62be522dc5c32a53f6bebbc536"),
    ("phik.records", ["phik", "--output", "records", "--seed", "1"], 0,
     "403c0fe6cb1e2ce48096c2463a77eb27ace26b5826b05baebcf699e553e68033"),
    ("rigidity5.csv", ["rigidity", "--mesh-level", "5", "--output", "csv", "--seed", "1"], 0,
     "9ca52539f8a406814c4064290d8c7a709baefb3b6334230fcda512b5c39b0eb6"),
    # the benchmark's genus2_fem command lines at seed 1
    ("bench_rigidity3", ["rigidity", "--mesh-level", "3", "--seed", "1"], 0,
     "c5e5d2e996b4cce24adfe864683252019d5b4cd5888e9b8916b00622ac4118b3"),
    ("bench_fuchsian3", ["fuchsian", "--mesh-level", "3", "--seed", "1"], 0,
     "8d3d2986530e9e22427a180c69a1e2a9dab1ae93da93d82533ffecbaaabb69fe"),
    ("bench_rigidity6", ["rigidity", "--mesh-level", "6", "--seed", "1"], 0,
     "6cc6308f2bfdbf74054d81b3efbe1b386e35430512894ad5c99b4cab104c7b7d"),
    ("bench_fuchsian6", ["fuchsian", "--mesh-level", "6", "--seed", "1"], 0,
     "5b550a31f5286c2eac6a2629ec0e60d791bb0f196ef153088e64d4471a8ecbcb"),
]

MESH7_DIGEST = "86aa4cffcbc53679a3061e9a0ed5e0d6cd8f72683e1d81ef204152d38eb14ee8"

PAYLOAD_DIGESTS = {
    "linearized_chain_batch": "78e64543f0b6acaa4a4a48ae1fc8f43b3183906d18038d78897956ea3892313d",
    "jbj_sharp": "d7d71cd525f3e182b8cb6545350ee447b0185a0033e5c4c02cba83f4a11f29ab",
    "sharp_codazzi_order": "237f7651505b250f62d31106f27da58dd973ab8b948850bdee91087cb7d10714",
    "exterior_derivative_identities":
        "791aa12f7846ec1a3f1a1242727104f3278aad07cd6f6256f51e7ee63b42f7ec",
}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("name,argv,code,digest", DIGESTS, ids=[c[0] for c in DIGESTS])
def test_report_digest(tmp_path, name, argv, code, digest):
    target = tmp_path / name
    assert cli.main(argv + ["--out-file", str(target)]) == code
    assert sha256(target) == digest


def test_mesh_export_digest(tmp_path):
    # the largest mesh level the CLI accepts; test_mesh_pinned stops at 5
    mesh = tmp_path / "mesh7.txt"
    argv = ["fuchsian", "--mesh-level", "7", "--export-mesh", str(mesh),
            "--out-file", str(tmp_path / "report")]
    assert cli.main(argv) == 0
    assert sha256(mesh) == MESH7_DIGEST


def test_linearized_chain_payload_digests(monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    seen = {}
    for op in workloads.build("linearized_chain", 1):
        result = op.run()
        assert result.exit_code == 0, op.name
        seen[op.name] = hashlib.sha256(result.payload).hexdigest()
    assert seen == PAYLOAD_DIGESTS

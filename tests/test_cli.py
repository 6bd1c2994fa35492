"""Command-line entry points: exit codes, report timing and output pins."""

import hashlib
import json
import time

import pytest

from artgallery import docio
from artgallery.cli import main
from artgallery.gallery import Gallery, SkeletalGallery
from artgallery.geom.polygon import PolygonWithHoles
from artgallery.rational import rat


def test_check_generator_with_quantitative_family(tmp_path):
    out = tmp_path / "report.json"
    argv = ["check", "--generator", "star", "--theorem", "disc", "--threshold", "1/4",
            "--budget", "1", "-o", str(out)]
    assert main(argv) == 0
    det = json.loads(out.read_text())["deterministic"]
    assert det["config"]["family"] == "disc"
    assert det["classification"] != "THEOREM_VIOLATION_CANDIDATE"


def test_check_batch_timing_is_per_report(tmp_path):
    out = tmp_path / "batch.json"
    t0 = time.monotonic()
    assert main(["check", "--generator", "star", "--budget", "3", "--timing", "-o", str(out)]) == 0
    wall = time.monotonic() - t0
    reports = json.loads(out.read_text())["reports"]
    assert len(reports) == 3
    seconds = [r["timing"]["seconds"] for r in reports]
    assert all(s > 0 for s in seconds)
    assert sum(seconds) <= wall


# Output pins for vis, kernel and render on one gallery of each kind
# (polygonal star-0, pinched fig1, skeletal spider): sha256 of the -o file,
# of the --svg file (None where none is written) and of stdout.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
OUTPUT_PINS = {
    ("star", "vis", ("0", "0")): (
        "139c6676349c48ab6cc7c7faa574aff1d62141a8c432b565b64a375c9c64b3f8",
        "83a4942746b4b1a8414537499ac7f52640adb7fa912eebacab24117a8f02fb57",
        EMPTY,
    ),
    ("fig1", "vis", ("7", "6")): (
        "bcc421b9ab8fca22202899bbe4429a08cbc7b5df860ae8bd76e3115506c9f431",
        "e03271b35f1626975d288c6b40a44a56446a9972ec48a9f36298e2854b95c8c6",
        EMPTY,
    ),
    ("spider", "vis", ("5", "31/10")): (
        "9b549076bfb957cf935e6604db29496ee0756966e18e1009ab5e275b88e330ac",
        "180af04fe34be366afefaab1828030fb0e27c41b4016d013e9cd8715491759b2",
        EMPTY,
    ),
    ("star", "kernel", ()): (
        "21f48a728a0a7c5818c7c98316297490410fea043c38ce800c1c4846d7a86288",
        "2779a0ad9bf925e5ba0e7607d2ed0798a9b2abd2b174e9b69e0ad22337daa78c",
        "ca0292f59401b93caf37374cb0cc0b6f5d2858517fa9e1e85584699f8c07ce9c",
    ),
    ("fig1", "kernel", ()): (
        "994573223e1a6871c9df9cf071035effa92e417612265486512fb8c8aad89e76",
        None,
        "a3395601ed5265fe3f97da9dcdd9e5cae777dbc2bd32e2c2c066c66613eee499",
    ),
    ("star", "render", ("--overlay", "classes")): (
        "d1ad1565718726831e3fab20f989040a58657faebbb748b4b6e5bd529e5aece4", None, EMPTY,
    ),
    ("fig1", "render", ("--overlay", "classes")): (
        "5d3af94cf459eda663be57ff6b1faaf6579b12a1e96d5f84bc596581bbe25bd4", None, EMPTY,
    ),
    ("spider", "render", ("--overlay", "classes")): (
        "c8c4623c196b4acc7988cc07f8c80b9d799c43bfe1c74ea8d5fced053ae00bc6", None, EMPTY,
    ),
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


@pytest.mark.parametrize("case", sorted(OUTPUT_PINS), ids=lambda c: f"{c[0]}-{c[1]}")
def test_command_output_is_pinned(case, tmp_path, capsys):
    example, command, extra = case
    gallery, out, svg = tmp_path / "g.json", tmp_path / "out", tmp_path / "out.svg"
    assert main(["generate", "--example", example, "-o", str(gallery)]) == 0
    argv = [command, str(gallery), *extra, "-o", str(out)]
    if command != "render":
        argv += ["--svg", str(svg)]
    capsys.readouterr()
    assert main(argv) == 0
    stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (_sha(out), _sha(svg), stdout) == OUTPUT_PINS[case]


def test_kernel_area_past_the_int_str_digit_limit(tmp_path, capsys):
    side = rat(3**9000 + 1, 3**9000)
    square = PolygonWithHoles([(0, 0), (side, 0), (side, side), (0, side)])
    path = tmp_path / "big.json"
    path.write_text(docio.dumps(docio.gallery_to_document(Gallery(square, name="big"))))
    assert main(["kernel", str(path)]) == 0
    assert capsys.readouterr().out == "area ~1 (exact rational has 17179 digits; use -o)\n"


# A skeletal gallery has no kernel: every command that needs one exits 2
# with one message, never 1 with "internal error".
def _plus_gallery(path):
    plus = SkeletalGallery([((-1, 0), (1, 0)), ((0, -1), (0, 1))], name="plus")
    path.write_text(docio.dumps(docio.gallery_to_document(plus)), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["check", "--theorem", "classic"],
    ["check", "--theorem", "vwidth-segment", "--threshold", "1"],
    ["kernel"],
    ["render", "--overlay", "kernel"],
], ids=lambda a: "-".join(a[:3:2]))
def test_skeletal_gallery_kernel_commands_exit_2(argv, tmp_path, capsys):
    gallery = _plus_gallery(tmp_path / "plus.json")
    assert main([argv[0], gallery, *argv[1:], "-o", str(tmp_path / "out")]) == 2
    assert "kernel is defined for areal galleries only" in capsys.readouterr().err


# Malformed gallery documents exit 2 with an "error:" line, never 1 with
# "internal error".
TRIANGLE = [["0", "0"], ["1", "0"], ["0", "1"]]


@pytest.mark.parametrize("doc", [
    {"format_version": 1, "kind": "polygonal"},
    {"format_version": 1, "kind": "polygonal", "outer": TRIANGLE, "holes": 5},
    {"format_version": 1, "kind": "pinched", "components": 7},
    {"format_version": 1, "kind": "polygonal", "outer": TRIANGLE, "name": 7},
    {"format_version": 1, "kind": "polygonal", "outer": [["0", "0"], ["1/0", "0"], ["0", "1"]]},
    {"format_version": True, "kind": "polygonal", "outer": TRIANGLE},
    {"format_version": 1.0, "kind": "polygonal", "outer": TRIANGLE},
], ids=["no-outer", "holes-not-a-list", "components-not-a-list", "name-not-a-string",
        "zero-denominator", "format-version-true", "format-version-float"])
def test_malformed_gallery_document_exits_2(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["kernel", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err


# A disc ring too coarse for the spikes is a bad parameter, not an internal
# error. (At --n 4 --disc-poly-verts 8 the same check fires after about 100 s
# of tuple search; these parameters reach it in well under a second.)
@pytest.mark.parametrize("argv", [
    ["--n", "2", "--disc-poly-verts", "7", "--budget", "1"],
    ["--n", "1", "--disc-poly-verts", "3", "--budget", "1"],
], ids=["every-vertex-in-a-spike", "spikes-interleave"])
def test_spiked_with_too_few_disc_vertices_exits_2(argv, tmp_path, capsys):
    assert main(["generate", "--example", "spiked", *argv, "-o", str(tmp_path / "g.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "disc_poly_verts" in err


def test_check_k_below_the_theorem_is_no_violation(tmp_path):
    donut = Gallery(
        PolygonWithHoles([(0, 0), (6, 0), (6, 6), (0, 6)], [[(2, 2), (2, 4), (4, 4), (4, 2)]]),
        name="donut",
    )
    path, out = tmp_path / "donut.json", tmp_path / "report.json"
    path.write_text(docio.dumps(docio.gallery_to_document(donut)), encoding="utf-8")
    assert main(["check", str(path), "--k", "1", "-o", str(out)]) == 0
    det = json.loads(out.read_text())["deterministic"]
    assert det["classification"] == "CONSISTENT_WITH_CLAIM"
    assert det["preconditions"] == [["tuple-size>=3", False]]

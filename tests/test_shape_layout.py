"""One layout for every shape, whatever the gallery kind.

A report witness is {"type": t, ...}. The same shape written as a file of
its own (`vis -o`, `kernel -o`) is {"format_version": 1, "kind": t, ...}
with the same remaining keys; a region witness already wraps a complete
region document, which is its file. The `--svg` of `vis` and the
`render --overlay vis:X,Y` picture come from one painter, for every kind.
"""

import json

import pytest

from artgallery import checkers, docio
from artgallery.cli import main
from artgallery.geom.primitives import Point2
from artgallery.rational import rat

VIEWPOINTS = {"star": ("0", "0"), "fig1": ("7", "6"), "spider": ("5", "31/10")}


def standalone(witness: dict) -> dict:
    if witness["type"] == "region":
        return witness["region"]
    rest = {key: value for key, value in witness.items() if key != "type"}
    return {"format_version": 1, "kind": witness["type"], **rest}


def witness_document(shape) -> dict:
    return json.loads(docio.dumps(docio.shape_to_document(shape)))


def generated(example, tmp_path):
    path = tmp_path / f"{example}.json"
    assert main(["generate", "--example", example, "-o", str(path)]) == 0
    return path


@pytest.mark.parametrize("example", sorted(VIEWPOINTS))
def test_vis_file_and_pictures_follow_the_shape(example, tmp_path):
    path = generated(example, tmp_path)
    x, y = VIEWPOINTS[example]
    out, svg, overlay = tmp_path / "vis.json", tmp_path / "vis.svg", tmp_path / "overlay.svg"
    assert main(["vis", str(path), x, y, "-o", str(out), "--svg", str(svg)]) == 0
    assert main(["render", str(path), "--overlay", f"vis:{x},{y}", "-o", str(overlay)]) == 0

    vis = docio.load_gallery(path).common_visibility([Point2(rat(x), rat(y))])
    assert json.loads(out.read_text()) == standalone(witness_document(vis))
    picture = svg.read_text()
    assert picture.startswith("<svg") and '"#7fb2ff"' in picture  # the region colour
    assert overlay.read_text() == picture


def test_kernel_file_follows_the_shape(tmp_path):
    path = generated("star", tmp_path)
    out = tmp_path / "kernel.json"
    assert main(["kernel", str(path), "-o", str(out)]) == 0
    verdict, witness, _, _ = checkers.kernel_status(docio.load_gallery(path))
    assert verdict == "holds"
    doc = json.loads(out.read_text())
    assert doc == standalone(witness_document(witness))
    assert doc["kind"] == "polygon"

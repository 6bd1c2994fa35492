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
from artgallery.gallery import Gallery
from artgallery.galleries import gen_claim22, gen_fig1, gen_spider
from artgallery.geom.polygon import PolygonWithHoles
from artgallery.geom.primitives import Point2
from artgallery.rational import rat
from artgallery.visibility import Cover

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
    verdict, witness, _ = checkers.kernel_status(docio.load_gallery(path))
    assert verdict == "holds"
    doc = json.loads(out.read_text())
    assert doc == standalone(witness_document(witness))
    assert doc["kind"] == "polygon"


# The layout of every common visibility each kind returns; a polygonal
# gallery returns a region, a skeletal or pinched one a `Cover`, laid out
# by whether it has pieces.
PROTOCOL = {
    "donut": (lambda: Gallery(
        PolygonWithHoles([(0, 0), (6, 0), (6, 6), (0, 6)], [[(2, 2), (2, 4), (4, 4), (4, 2)]]),
        name="donut",
    ), "region"),
    "spider": (gen_spider, "skeletal-visibility"),
    "fig1": (gen_fig1, "pinched-visibility"),
    "claim22": (lambda: gen_claim22(3, (3, 3, 3), 0), "skeletal-visibility"),
}


def test_a_shape_with_no_layout_raises():
    with pytest.raises(TypeError, match="no document layout for object"):
        docio.shape_to_document(object())


@pytest.mark.parametrize("name", sorted(PROTOCOL))
def test_every_kind_writes_its_common_visibility(name):
    make, kind = PROTOCOL[name]
    g = make()
    points = [p for p, _ in g.structural_points()]
    for tup in (points[:2], points[:1]):
        assert witness_document(g.common_visibility(tup))["type"] == kind


def test_cover_layout_is_decided_by_its_pieces():
    fig1 = gen_fig1()
    red = fig1.class_points("red")
    empty = fig1.common_visibility([red[0], red[1]])
    assert empty.is_empty() and empty.pieces
    assert witness_document(empty) == {
        "type": "pinched-visibility", "components": [], "segments": [], "points": [],
    }
    spider = gen_spider()
    points = [p for p, _ in spider.structural_points()]
    for tup in (points[:1], points[:2], points[:3], [points[0], points[-1]]):
        doc = witness_document(spider.common_visibility(tup))
        assert doc["type"] == "skeletal-visibility" and "components" not in doc


def test_cover_area_is_that_of_its_whole_pieces():
    common = gen_fig1().common_visibility([(7, 6), (7, 3)])
    assert isinstance(common, Cover)
    assert 0 < len(common.full) < len(common.pieces)
    assert common.area() == rat(69, 22)

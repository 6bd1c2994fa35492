"""What `visibility_polygon` returns: the closed two-dimensional visibility
region of a viewpoint in a polygonal gallery.

Three checks hold it to that contract:

* against pairwise `sees` on seeded sweeps: every point of the region is
  seen, and a seen point outside it lies on a line through the viewpoint and
  a gallery vertex, the only place where a one-dimensional piece of the
  visibility set (seen along a ray through two collinear reflex corners) can
  be, and such pieces are not represented;
* the common visibility of a star polygon's vertices is its kernel;
* a pinned digest of the region documents over the sweep.
"""

import hashlib
import json
import random

import pytest
from boolean_oracle import region_equal

from artgallery import docio
from artgallery.gallery import Gallery
from artgallery.galleries import gen_simple, gen_star
from artgallery.geom.polygon import PolygonWithHoles, locate_in_polygon, point_in_region, region_bbox
from artgallery.geom.primitives import Point2, orient
from artgallery.kernel import kernel_simple
from artgallery.rational import rat
from artgallery.visibility import common_visibility, sees, visibility_polygon


def donut():
    return Gallery(
        PolygonWithHoles([(0, 0), (6, 0), (6, 6), (0, 6)], [[(2, 2), (2, 4), (4, 4), (4, 2)]]),
        name="donut",
    )


def two_holes():
    """From (0, 3) the ray y = 3 grazes the bottom of one hole and then the
    top of the other, so past x = 7 it sees the segment to (9, 3) and no
    area around it."""
    return Gallery(
        PolygonWithHoles(
            [(0, 0), (9, 0), (9, 6), (0, 6)],
            [[(2, 3), (2, 5), (4, 5), (4, 3)], [(5, 1), (5, 3), (7, 3), (7, 1)]],
        ),
        name="two-holes",
    )


GALLERIES = {
    "simple-0": lambda: Gallery(gen_simple(0, 12)),
    "simple-1": lambda: Gallery(gen_simple(1, 12)),
    "simple-2": lambda: Gallery(gen_simple(2, 12)),
    "donut": donut,
    "two-holes": two_holes,
}


def viewpoints(g):
    """Every fourth structural point, then two seeded random points."""
    structural = [p for p, _ in g.structural_points()][::4]
    return list(dict.fromkeys(structural + g.random_points(random.Random("viewpoints"), 2)))


@pytest.fixture(scope="module")
def sweep():
    """name -> (gallery, [(viewpoint, its visibility region)])."""
    out = {}
    for name in sorted(GALLERIES):
        g = GALLERIES[name]()
        out[name] = g, [(x, visibility_polygon(g, x)) for x in viewpoints(g)]
    return out


def targets(g):
    """Gallery points of a 6 x 6 grid over the bounding box, shifted by a
    seeded offset, then the gallery's structural points."""
    (x0, y0), (x1, y1) = region_bbox(g.polygon)
    rng = random.Random("targets")
    ox, oy = rat(rng.randrange(1, 64), 64), rat(rng.randrange(1, 64), 64)
    grid = [
        Point2(x0 + (x1 - x0) * (i + ox) / 6, y0 + (y1 - y0) * (j + oy) / 6)
        for i in range(6)
        for j in range(6)
    ]
    grid = [p for p in grid if locate_in_polygon(p, g.polygon) != "out"]
    return list(dict.fromkeys(grid + [p for p, _ in g.structural_points()]))


def on_vertex_line(g, x, y) -> bool:
    """y is collinear with x and some gallery vertex other than x."""
    return any(v != x and orient(x, v, y) == 0 for ring in g.polygon.rings() for v in ring)


def test_region_is_the_seen_set_up_to_vertex_lines(sweep):
    checks = lines = 0
    for name, (g, regions) in sweep.items():
        ys = targets(g)
        for x, vis in regions:
            for y in ys:
                inside, seen = point_in_region(y, vis), sees(g, x, y)
                assert seen or not inside, (name, x, y)
                if seen and not inside:
                    assert on_vertex_line(g, x, y), (name, x, y)
                    lines += 1
                checks += 1
    assert checks > 1500
    assert lines > 0  # the sweep reaches a piece that the region leaves out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_star_common_visibility_of_vertices_is_the_kernel(seed):
    poly = gen_star(seed, 8)
    g = Gallery(poly)
    kernel = kernel_simple(g)
    assert kernel.area() > 0
    assert region_equal(common_visibility(g, poly.vertices), kernel)


# sha256 of the region documents over the sweep, recorded while
# visibility_polygon still ran a second ray scan for one-dimensional pieces.
REGION_PIN = "719a64d928e07c380b5a63426b2d7e6e8a92f921f33f0cd3ac920ac289bae78f"


def test_region_documents_are_pinned(sweep):
    docs = {name: [docio.shape_to_document(vis) for _, vis in regions]
            for name, (_, regions) in sweep.items()}
    text = json.dumps(docs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REGION_PIN

"""region_boolean against the ray-casting classifier it replaced.

Every case runs all three operations in both operand orders and asks for the
exact same Region (same rings, same vertex order, same component order).
"""

import random

from boolean_oracle import ray_cast_boolean

from artgallery.galleries import gen_simple
from artgallery.gallery import Gallery
from artgallery.geom.boolean import region_boolean
from artgallery.geom.polygon import PolygonWithHoles, Region, SimplePolygon, as_region
from artgallery.rational import rat
from artgallery.visibility import visibility_polygon

OPS = ("union", "intersect", "difference")


def assert_matches_oracle(a, b):
    for x, y in ((a, b), (b, a)):
        for op in OPS:
            assert region_boolean(op, x, y) == ray_cast_boolean(op, x, y), (op, x, y)


def rect(x0, y0, x1, y1, transpose=False):
    corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
    if transpose:
        corners = tuple((y, x) for x, y in reversed(corners))
    return SimplePolygon(corners)


def grid_operand(rng):
    """A box on the 0-5 grid, or two boxes split at x = xm that touch along an
    edge, at a corner or not at all, kept as two components."""
    transpose = rng.random() < 0.5
    if rng.random() < 0.4:
        (x0, x1), (y0, y1) = sorted(rng.sample(range(6), 2)), sorted(rng.sample(range(6), 2))
        return as_region(rect(x0, y0, x1, y1, transpose))
    x0, xm, x1 = sorted(rng.sample(range(6), 3))
    (ya0, ya1), (yb0, yb1) = sorted(rng.sample(range(6), 2)), sorted(rng.sample(range(6), 2))
    return Region((rect(x0, ya0, xm, ya1, transpose), rect(xm, yb0, x1, yb1, transpose)))


def test_grid_boxes_match_oracle():
    rng = random.Random(41)
    for _ in range(24):
        assert_matches_oracle(grid_operand(rng), grid_operand(rng))


def test_gen_simple_pairs_match_oracle():
    for seed in range(3):
        assert_matches_oracle(gen_simple(2 * seed, 8), gen_simple(2 * seed + 1, 8))


def test_donut_visibility_regions_match_oracle():
    donut = PolygonWithHoles([(0, 0), (6, 0), (6, 6), (0, 6)], [[(2, 2), (2, 4), (4, 4), (4, 2)]])
    gallery = Gallery(polygon=donut, classes=(), name="donut")

    def vis(x, y):
        return visibility_polygon(gallery, (rat(x), rat(y)))

    pair = region_boolean("intersect", vis(0, 0), vis(5, 1))
    triple = region_boolean("intersect", pair, vis(rat(1, 2), 5))
    with_hole = region_boolean("union", vis(0, 0), vis(4, 4))
    pinched = region_boolean("union", vis(1, 3), vis(4, 3))
    assert len(pinched.components) == 2 and with_hole.components[0].holes
    cases = [
        (vis(0, 0), vis(5, 1)),
        (vis(2, 1), vis(2, 5)),
        (pair, vis(rat(1, 2), 5)),
        (triple, vis(6, 3)),
        (triple, pair),
        (with_hole, vis(3, 1)),
        (with_hole, as_region(donut)),
        (pinched, vis(3, 5)),
        (pinched, with_hole),
    ]
    for a, b in cases:
        assert_matches_oracle(a, b)


def test_collinear_vertex_inside_shared_edge_matches_oracle():
    """A vertex whose two edges both end on the other operand's edge, so only
    the collinear pairs that share an endpoint can cut that edge there."""
    a = SimplePolygon(((0, 0), (1, 0), (2, 0), (2, 2), (0, 2)))
    for b in (((0, 0), (2, 0), (2, -1), (0, -1)), ((0, 0), (2, 0), (2, 1), (0, 1))):
        assert_matches_oracle(a, SimplePolygon(b))

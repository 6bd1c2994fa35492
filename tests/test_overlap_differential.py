"""The fast tuple scan against the slow path it replaces.

* `regions_overlap(a, b)` against `not region_boolean("intersect", a, b)
  .is_empty()`, on hand-made pairs and on every pair of visibility regions
  of five galleries; its two witnesses (a shared wall, an overlay
  subsegment with a side in both operands) are checked on their own too.
* A polygonal gallery's `common_visibility_is_empty` and cached
  `common_visibility`, fed tuples in `combinations` and `product` order
  through one `ViewCache`, against the uncached `common_visibility`.
"""

import itertools

import pytest

from artgallery.galleries import gen_simple
from artgallery.gallery import Gallery, ViewCache
from artgallery.geom.boolean import _overlay_overlaps, _shared_wall, region_boolean, regions_overlap
from artgallery.geom.polygon import PolygonWithHoles, Region, SimplePolygon, as_region
from artgallery.rational import rat
from artgallery.visibility import common_visibility, visibility_polygon


def rect(x0, y0, x1, y1):
    return as_region(SimplePolygon(((x0, y0), (x1, y0), (x1, y1), (x0, y1))))


def rects(*boxes):
    return Region(tuple(rect(*box).components[0] for box in boxes))


def donut():
    return Gallery(
        PolygonWithHoles([(0, 0), (6, 0), (6, 6), (0, 6)], [[(2, 2), (2, 4), (4, 4), (4, 2)]]),
        name="donut",
    )


def two_holes():
    return Gallery(
        PolygonWithHoles(
            [(0, 0), (9, 0), (9, 6), (0, 6)],
            [[(2, 3), (2, 5), (4, 5), (4, 3)], [(5, 1), (5, 3), (7, 3), (7, 1)]],
        ),
        name="two-holes",
    )


GALLERIES = {
    "donut": donut,
    "two-holes": two_holes,
    "simple-0": lambda: Gallery(gen_simple(0, 12)),
    "simple-1": lambda: Gallery(gen_simple(1, 12)),
    "simple-2": lambda: Gallery(gen_simple(2, 12)),
}

DONUT = donut().polygon
HALF = rat(1, 2)

HAND_MADE = {
    # name: (a, b, whether the intersection has area)
    "shared-edge-same-way": (rect(0, 0, 2, 1), rect(0, 0, 1, 2), True),
    "shared-edge-opposite-ways": (rect(0, 0, 1, 1), rect(1, 0, 2, 1), False),
    "single-point-contact": (rect(0, 0, 1, 1), rect(1, 1, 2, 2), False),
    "crossing-boxes": (rect(0, 0, 2, 2), rect(1, 1, 3, 3), True),
    "containment": (rect(0, 0, 4, 4), rect(1, 1, 2, 2), True),
    "inside-the-hole": (as_region(DONUT), rect(2 + HALF, 2 + HALF, 3, 3), False),
    "filling-the-hole": (as_region(DONUT), rect(2, 2, 4, 4), False),
    "across-the-hole": (as_region(DONUT), rect(1, 3, 5, 3 + HALF), True),
    "multi-component-touching": (rects((0, 0, 1, 1), (3, 0, 4, 1)), rect(1, 0, 3, 1), False),
    "multi-component-overlap": (
        rects((0, 0, 1, 1), (3, 0, 4, 1)),
        rects((1, 1, 2, 2), (3 + HALF, HALF, 5, 2)),
        True,
    ),
    "empty-operand": (Region.empty(), rect(0, 0, 1, 1), False),
}


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_regions_overlap_on_hand_made_pairs(name):
    a, b, expected = HAND_MADE[name]
    for x, y in ((a, b), (b, a)):
        assert (not region_boolean("intersect", x, y).is_empty()) == expected
        assert regions_overlap(x, y) == expected


def assert_witnesses_agree(a, b, label):
    expected = not region_boolean("intersect", a, b).is_empty()
    assert regions_overlap(a, b) == expected, label
    assert _overlay_overlaps(a, b) == expected, label
    assert not _shared_wall(a, b) or expected, label  # a shared wall proves overlap
    return _shared_wall(a, b)


@pytest.mark.parametrize("name", sorted(GALLERIES))
def test_regions_overlap_on_every_visibility_pair(name):
    g = GALLERIES[name]()
    regions = [visibility_polygon(g, p) for p, _ in g.structural_points()]
    pairs = list(itertools.combinations(range(len(regions)), 2))
    walls = sum(assert_witnesses_agree(regions[i], regions[j], (name, i, j)) for i, j in pairs)
    assert walls > 0


def scan_points(g):
    """Every second structural point from the last, nine at most: edge
    midpoints first, which give empty tuples and empty prefixes on every
    gallery here."""
    return list(dict.fromkeys(p for p, _ in g.structural_points()))[::-2][:9]


def product_tuples(points):
    """Three overlapping classes in `product` order, repeats dropped as the
    colorful scan drops them."""
    classes = (points[0:3], points[2:5], points[4:8])
    return [tuple(dict.fromkeys(tup)) for tup in itertools.product(*classes)]


@pytest.mark.parametrize("name", sorted(GALLERIES))
def test_cached_tuple_scan_matches_uncached(name):
    g = GALLERIES[name]()
    points = scan_points(g)
    orders = {
        "combinations": list(itertools.combinations(points, 3)),
        "product": product_tuples(points),
    }
    empties = empty_heads = 0
    for order, tuples in orders.items():
        cache = ViewCache()
        for tup in tuples:
            reference = common_visibility(g, tup)
            assert g.common_visibility_is_empty(tup, cache) == reference.is_empty(), (order, tup)
            assert len(cache.prefix) <= len(tup) - 1
            assert g.common_visibility(tup, cache) == reference, (order, tup)
            assert len(cache.prefix) <= len(tup) - 1
            empties += reference.is_empty()
            empty_heads += bool(cache.prefix) and cache.prefix[-1][1].is_empty()
        assert set(cache) <= set(points)
        assert all(cache[p] == visibility_polygon(g, p) for p in cache)
    assert empties > 0 and empty_heads > 0  # both early exits ran

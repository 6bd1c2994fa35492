"""Region booleans: union, intersection, difference, with holes and splits."""

import random

import pytest

from boolean_oracle import region_equal

from artgallery.geom.boolean import region_boolean
from artgallery.geom.polygon import (
    Region,
    SimplePolygon,
    as_region,
    point_in_region,
)
from artgallery.geom.primitives import pt
from artgallery.rational import rat


def box(x0, y0, x1, y1):
    return as_region(SimplePolygon((pt((x0, y0)), pt((x1, y0)), pt((x1, y1)), pt((x0, y1)))))


def test_overlapping_squares_exact_areas():
    a = box(0, 0, 4, 4)
    b = box(2, 2, 6, 6)
    assert region_boolean("union", a, b).area() == 28
    assert region_boolean("intersect", a, b).area() == 4
    assert region_boolean("difference", a, b).area() == 12


def test_unknown_op_raises():
    a = box(0, 0, 1, 1)
    with pytest.raises(ValueError):
        region_boolean("xor", a, a)


def test_difference_creates_hole():
    outer = box(0, 0, 4, 4)
    inner = box(1, 1, 3, 3)
    diff = region_boolean("difference", outer, inner)
    assert len(diff.components) == 1
    assert len(diff.components[0].holes) == 1
    assert diff.area() == 12
    # Closed region: the hole's rim belongs to the set, its interior does not.
    assert not point_in_region(pt((2, 2)), diff)
    assert point_in_region(pt((1, 1)), diff)
    assert point_in_region(pt((rat(1, 2), 2)), diff)


def test_difference_splits_into_components():
    bar = box(0, 0, 6, 2)
    cut = box(2, -1, 4, 3)
    diff = region_boolean("difference", bar, cut)
    assert len(diff.components) == 2
    assert diff.area() == 8


def test_disjoint_intersection_is_empty():
    a = box(0, 0, 1, 1)
    b = box(5, 5, 6, 6)
    inter = region_boolean("intersect", a, b)
    assert inter.area() == 0
    assert not inter.components


def test_region_equal():
    a = box(0, 0, 4, 4)
    b = as_region(SimplePolygon((pt((4, 0)), pt((4, 4)), pt((0, 4)), pt((0, 0)))))
    assert region_equal(a, b)
    assert not region_equal(a, box(0, 0, 4, 3))


def test_union_with_hole_then_fill():
    outer = box(0, 0, 4, 4)
    inner = box(1, 1, 3, 3)
    ring = region_boolean("difference", outer, inner)
    filled = region_boolean("union", ring, as_region(SimplePolygon(
        (pt((1, 1)), pt((3, 1)), pt((3, 3)), pt((1, 3))))))
    assert region_equal(filled, outer)


def test_inclusion_exclusion_random_boxes():
    """|A| + |B| = |A u B| + |A n B| holds exactly for every pair."""
    rng = random.Random(17)
    for _ in range(30):
        x0, y0 = rng.randrange(0, 6), rng.randrange(0, 6)
        a = box(x0, y0, x0 + rng.randrange(1, 5), y0 + rng.randrange(1, 5))
        x1, y1 = rng.randrange(0, 6), rng.randrange(0, 6)
        b = box(x1, y1, x1 + rng.randrange(1, 5), y1 + rng.randrange(1, 5))
        u = region_boolean("union", a, b).area()
        i = region_boolean("intersect", a, b).area()
        assert a.area() + b.area() == u + i


def test_difference_then_union_restores_superset():
    rng = random.Random(29)
    for _ in range(20):
        a = box(0, 0, 8, 8)
        x0, y0 = rng.randrange(0, 7), rng.randrange(0, 7)
        b = box(x0, y0, x0 + rng.randrange(1, 8), y0 + rng.randrange(1, 8))
        d = region_boolean("difference", a, b)
        i = region_boolean("intersect", a, b)
        back = region_boolean("union", d, i)
        assert region_equal(back, a)

"""Exact predicates on points and segments."""

import random

from exact_oracle import cross, line_intersection

from artgallery.geom.primitives import (
    angle_less,
    direction_class,
    on_segment,
    orient,
    pt,
    same_direction,
    segments_intersect,
    sort_directions,
)
from artgallery.rational import rat


def test_orient_signs():
    o = pt((0, 0))
    assert orient(o, pt((1, 0)), pt((2, 1))) == 1
    assert orient(o, pt((1, 0)), pt((2, -1))) == -1
    assert orient(o, pt((1, 0)), pt((2, 0))) == 0


def test_orient_is_exact_near_collinear():
    # A float cross product would misjudge these; rationals cannot.
    eps = rat(1, 10**30)
    o, a = pt((0, 0)), pt((1, 1))
    assert orient(o, a, pt((2, 2 + eps))) == 1
    assert orient(o, a, pt((2, 2 - eps))) == -1
    assert orient(o, a, pt((2, 2))) == 0


def test_on_segment():
    a, b = pt((0, 0)), pt((4, 4))
    assert on_segment(pt((2, 2)), a, b)
    assert on_segment(a, a, b)
    assert on_segment(b, a, b)
    assert not on_segment(pt((5, 5)), a, b)
    assert not on_segment(pt((2, 3)), a, b)


def test_segments_intersect_cases():
    a, b = pt((0, 0)), pt((4, 4))
    kind = segments_intersect(a, b, pt((0, 4)), pt((4, 0)))
    assert kind == ("point", pt((2, 2)))
    # Endpoint touching counts (closed segments).
    assert segments_intersect(a, b, pt((2, 2)), pt((5, 2)))[0] == "point"
    assert segments_intersect(a, b, pt((5, 5)), pt((6, 6))) is None
    over = segments_intersect(a, b, pt((2, 2)), pt((6, 6)))
    assert over == ("overlap", pt((2, 2)), pt((4, 4)))


def test_line_intersection():
    p = line_intersection(pt((0, 0)), pt((2, 2)), pt((0, 2)), pt((2, 0)))
    assert p == pt((1, 1))
    assert line_intersection(pt((0, 0)), pt((1, 0)), pt((0, 1)), pt((1, 1))) is None


def test_direction_class_and_angle_order():
    # Class 0 is the upper half plane starting at +x, class 1 the rest.
    assert direction_class(pt((1, 0))) == 0
    assert direction_class(pt((0, 1))) == 0
    assert direction_class(pt((-1, 0))) == 1
    assert direction_class(pt((0, -1))) == 1
    assert angle_less(pt((1, 0)), pt((1, 1)))
    assert not angle_less(pt((1, 1)), pt((1, 0)))


def test_sort_directions_full_turn():
    dirs = [pt((0, -1)), pt((1, 0)), pt((-1, 0)), pt((0, 1))]
    assert sort_directions(dirs) == [pt((1, 0)), pt((0, 1)), pt((-1, 0)), pt((0, -1))]


def test_same_direction():
    assert same_direction(pt((2, 4)), pt((1, 2)))
    assert not same_direction(pt((2, 4)), pt((-1, -2)))
    assert not same_direction(pt((2, 4)), pt((2, 3)))


def test_cross_matches_orient():
    rng = random.Random(11)
    for _ in range(100):
        o = pt((rng.randrange(-5, 6), rng.randrange(-5, 6)))
        a = pt((rng.randrange(-5, 6), rng.randrange(-5, 6)))
        b = pt((rng.randrange(-5, 6), rng.randrange(-5, 6)))
        c = cross(o, a, b)
        s = orient(o, a, b)
        assert (c > 0) == (s == 1) and (c < 0) == (s == -1) and (c == 0) == (s == 0)


def test_random_segment_pairs_agree_with_float_screen():
    """Exact intersect vs a float bounding screen: exact result may only
    disagree where floats are inconclusive, never on clear cases."""
    rng = random.Random(23)
    for _ in range(200):
        ps = [pt((rat(rng.randrange(-8, 9)), rat(rng.randrange(-8, 9)))) for _ in range(4)]
        a, b, c, d = ps
        got = segments_intersect(a, b, c, d)
        # Disjoint bounding boxes certainly cannot intersect.
        if max(min(a.x, b.x), min(c.x, d.x)) > min(max(a.x, b.x), max(c.x, d.x)):
            assert got is None
        if max(min(a.y, b.y), min(c.y, d.y)) > min(max(a.y, b.y), max(c.y, d.y)):
            assert got is None

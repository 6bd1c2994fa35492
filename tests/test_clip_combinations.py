"""`clip_combinations` against one `clip_convex` per combination.

The generator clips a convex polygon by every r-combination of half-plane
groups and reuses the clip of each shared leading run of groups. Every ring
it yields must be the polygon that a fresh `clip_convex` by the
combination's concatenated groups returns, in `itertools.combinations`
order: for r = 1 and r = the number of groups, for groups that empty the
ring at the first prefix or only at the last step, and for rings that
collapse to a segment or a point.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from artgallery.galleries import _apex, cone_halfplanes, disc_polygon
from artgallery.geom import convex
from artgallery.geom.convex import ConvexPolygon, HalfPlane, clip_combinations, clip_convex, convex_hull
from artgallery.geom.primitives import Point2, from_homogeneous, pt


def _assert_matches(poly, groups, r):
    combos = list(itertools.combinations(range(len(groups)), r))
    rings = list(clip_combinations(poly, groups, r))
    assert len(rings) == len(combos)
    sizes = set()
    for combo, ring in zip(combos, rings):
        want = clip_convex(poly, [h for k in combo for h in groups[k]])
        assert ConvexPolygon([from_homogeneous(v) for v in ring]) == want, (combo, groups)
        sizes.add(min(len(want.vertices), 3))
    return sizes


def _cones(verts, count):
    bprime = disc_polygon(verts, area=1)
    return [cone_halfplanes(_apex(2.0 * math.pi * k / count), bprime) for k in range(count)]


@pytest.mark.parametrize("verts, count", [(8, 5), (24, 7), (96, 6)])
def test_matches_clip_convex_on_spike_cones(verts, count):
    mdisc = disc_polygon(verts, radius=2)
    groups = _cones(verts, count)
    for r in range(count + 1):
        assert _assert_matches(mdisc, groups, r) == {3}


SQUARE = ConvexPolygon([(0, 0), (4, 0), (4, 4), (0, 4)])


def _x_at_most(c):
    return HalfPlane(Fraction(1), Fraction(0), Fraction(c))


def _x_at_least(c):
    return HalfPlane(Fraction(-1), Fraction(0), Fraction(-c))


def test_groups_that_empty_the_ring_first_or_last():
    away = (_x_at_most(-1),)  # misses the square: empty at the first prefix
    left, right = (_x_at_most(1),), (_x_at_least(3),)  # empty only together
    groups = [away, left, (_x_at_most(2),), right, (_x_at_least(1),)]
    for r in range(1, len(groups) + 1):
        assert 0 in _assert_matches(SQUARE, groups, r)
    # the prefix (left) is non-empty and the last group empties it
    assert list(clip_combinations(SQUARE, [left, right], 2)) == [()]
    assert list(clip_combinations(SQUARE, [away, left, right], 1))[0] == ()


def test_rings_that_collapse_to_a_segment_or_a_point():
    u, v = Point2(Fraction(4), Fraction(0)), Point2(Fraction(4), Fraction(4))
    to_edge = (HalfPlane.left_of_edge(v, u),)  # x >= 4: the right edge
    to_corner = (HalfPlane(Fraction(0), Fraction(1), Fraction(0)),)  # y <= 0
    through = (HalfPlane(Fraction(1), Fraction(1), Fraction(6)),)  # x + y <= 6
    groups = [to_edge, through, to_corner, (_x_at_most(4),)]
    sizes = set()
    for r in range(len(groups) + 1):
        sizes |= _assert_matches(SQUARE, groups, r)
    assert {1, 2} <= sizes
    # a segment and a point as the input polygon
    for poly in (ConvexPolygon([(0, 0), (4, 4)]), ConvexPolygon([(1, 1)])):
        for r in range(len(groups) + 1):
            _assert_matches(poly, groups, r)


def _random_groups(rng, hull):
    """1 to 6 groups of 1 to 3 half-planes, each through a point near the hull."""
    xs = [p[0] for p in hull.vertices]
    ys = [p[1] for p in hull.vertices]
    groups = []
    for _ in range(rng.randrange(1, 7)):
        group = []
        for _ in range(rng.randrange(1, 4)):
            a, b = Fraction(rng.randrange(-5, 6)), Fraction(rng.randrange(-5, 6))
            if a == 0 and b == 0:
                b = Fraction(1)
            x = Fraction(rng.randrange(int(min(xs)) - 1, int(max(xs)) + 2))
            y = Fraction(rng.randrange(int(min(ys)) - 1, int(max(ys)) + 2))
            group.append(HalfPlane(a, b, a * x + b * y))
        groups.append(tuple(group))
    return groups


def test_matches_clip_convex_on_random_hulls():
    rng = random.Random(13)
    sizes = set()
    for _ in range(80):
        points = [pt((rng.randrange(-8, 9), rng.randrange(-8, 9))) for _ in range(rng.randrange(3, 10))]
        hull = convex_hull(points)
        groups = _random_groups(rng, hull)
        for r in range(len(groups) + 1):
            sizes |= _assert_matches(hull, groups, r)
    assert sizes == {0, 1, 2, 3}


def test_each_prefix_is_clipped_once(monkeypatch):
    """Count 9, n 4: the 126 tuples need 6 + 21 + 56 + 126 group clips of two
    half-planes each, 418 passes (1,008 without reuse), 6 of them on the
    full disc ring."""
    groups = _cones(96, 9)
    rings = []
    clip_ring = convex._clip_ring

    def counting(ring, h):
        rings.append(ring)
        return clip_ring(ring, h)

    monkeypatch.setattr(convex, "_clip_ring", counting)
    assert sum(1 for _ in clip_combinations(disc_polygon(96, radius=2), groups, 4)) == 126
    assert len(rings) == 418
    assert sum(ring is rings[0] for ring in rings) == 6  # the disc ring itself

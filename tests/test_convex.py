"""Convex polygons, hulls, clipping and intersection."""

import random

from artgallery.geom.convex import (
    ConvexPolygon,
    HalfPlane,
    clip_convex,
    convex_hull,
    convex_intersect,
)
from artgallery.geom.primitives import pt
from artgallery.rational import rat


def square(side=2):
    s = rat(side)
    return ConvexPolygon(tuple(pt(p) for p in [(0, 0), (s, 0), (s, s), (0, s)]))


def test_area_and_containment():
    sq = square()
    assert sq.area() == 4
    assert sq.contains(pt((1, 1)))
    assert sq.contains(pt((2, 1)))  # boundary is inside (closed)
    assert not sq.contains(pt((3, 1)))


def test_convex_hull_drops_interior_and_collinear():
    pts = [pt(p) for p in [(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 0)]]
    hull = convex_hull(pts)
    assert hull.vertices == (pt((0, 0)), pt((2, 0)), pt((2, 2)), pt((0, 2)))
    assert hull.area() == 4


def test_convex_intersect():
    sq = square()
    tri = ConvexPolygon((pt((1, -1)), pt((3, 1)), pt((1, 3))))
    inter = convex_intersect(sq, tri)
    assert inter.area() == 2
    assert inter.vertices == (pt((1, 0)), pt((2, 0)), pt((2, 2)), pt((1, 2)))


def test_halfplane_convention():
    # HalfPlane(a, b, c) keeps ax + by <= c.
    hp = HalfPlane(rat(1), rat(0), rat(1))
    assert hp.contains(pt((0, 0)))
    assert hp.contains(pt((1, 5)))
    assert not hp.contains(pt((2, 0)))
    p = pt((0, 0))
    assert hp.c - (hp.a * p[0] + hp.b * p[1]) == 1


def test_left_of_edge_matches_ccw_interior():
    sq = square()
    verts = sq.vertices
    for i in range(4):
        hp = HalfPlane.left_of_edge(verts[i], verts[(i + 1) % 4])
        assert hp.contains(pt((1, 1)))


def test_clip_convex():
    sq = square()
    clipped = clip_convex(sq, [HalfPlane(rat(1), rat(0), rat(1))])  # x <= 1
    assert clipped.area() == 2
    gone = clip_convex(sq, [HalfPlane(rat(1), rat(0), rat(-1))])  # x <= -1
    assert gone.is_empty()


def test_intersection_commutes_and_is_subset():
    rng = random.Random(9)
    for _ in range(20):
        a = convex_hull([pt((rng.randrange(0, 9), rng.randrange(0, 9))) for _ in range(7)])
        b = convex_hull([pt((rng.randrange(0, 9), rng.randrange(0, 9))) for _ in range(7)])
        if a.is_empty() or b.is_empty():
            continue
        i1 = convex_intersect(a, b)
        i2 = convex_intersect(b, a)
        assert i1.area() == i2.area()
        assert i1.area() <= min(a.area(), b.area())
        for v in i1.vertices:
            assert a.contains(v) and b.contains(v)

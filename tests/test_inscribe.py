"""Inscribed witnesses: boxes, discs, ellipses, longest segments."""

import math
import random

from artgallery.geom.convex import ConvexPolygon, convex_hull
from artgallery.geom.polygon import Region
from artgallery.geom.primitives import pt
from artgallery.inscribe import (
    Box2,
    Disc,
    PolytopeNormBall,
    _as_convex,
    _unit_normals,
    contains_box,
    contains_box_of_area,
    contains_box_of_axis_sum,
    erode_convex_by_box,
    longest_norm_segment,
    longest_vwidth_segment,
    max_inscribed_disc,
    mvie,
)
from artgallery.rational import rat


def disc_contained(shape, disc: Disc, margin: float = 1e-9, samples: int = 720) -> bool:
    """Sampled boundary containment of a disc in a convex shape."""
    rows = _unit_normals(_as_convex(shape))
    for t in range(samples):
        ang = 2.0 * math.pi * t / samples
        px = disc.cx + disc.r * math.cos(ang)
        py = disc.cy + disc.r * math.sin(ang)
        for a, b, cc in rows:
            if a * px + b * py - cc > margin:
                return False
    return True


def unit_square():
    return ConvexPolygon(tuple(pt(p) for p in [(0, 0), (1, 0), (1, 1), (0, 1)]))


def l1_ball():
    return PolytopeNormBall(ConvexPolygon(tuple(pt(p) for p in [(1, 0), (0, 1), (-1, 0), (0, -1)])))


def test_max_inscribed_disc_square():
    d = max_inscribed_disc(unit_square())
    assert d.r == rat(1, 2)
    assert (d.cx, d.cy) == (rat(1, 2), rat(1, 2))


def test_disc_contained():
    sq = unit_square()
    assert disc_contained(sq, Disc(rat(1, 2), rat(1, 2), rat(1, 2)))
    assert not disc_contained(sq, Disc(rat(1, 2), rat(1, 2), rat(3, 5)))
    assert not disc_contained(sq, Disc(rat(0), rat(0), rat(1, 4)))


def test_contains_box():
    sq = unit_square()
    assert contains_box(sq, Box2(rat(0), rat(0), rat(1), rat(1)))
    assert not contains_box(sq, Box2(rat(0), rat(0), rat(2), rat(1)))
    assert not contains_box(sq, Box2(rat(1, 2), rat(1, 2), rat(1), rat(1)))


def test_contains_box_of_area():
    sq = unit_square()
    b = contains_box_of_area(sq, rat(1, 2))
    assert b is not None
    assert b.w * b.h >= rat(1, 2)
    assert contains_box(sq, b)
    assert contains_box_of_area(sq, rat(2)) is None


def test_contains_box_of_axis_sum():
    sq = unit_square()
    b = contains_box_of_axis_sum(sq, rat(3, 2))
    assert b is not None
    assert b.w + b.h >= rat(3, 2)
    assert contains_box(sq, b)
    # w + h > 2 cannot fit in a unit square.
    assert contains_box_of_axis_sum(sq, rat(21, 10)) is None


def test_erode_square_by_half_box():
    sq = unit_square()
    er = erode_convex_by_box(sq, rat(1, 2), rat(1, 2))
    assert er.area() == rat(1, 4)
    # Every erosion point is a valid lower-left corner.
    for v in er.vertices:
        assert contains_box(sq, Box2(v.x, v.y, rat(1, 2), rat(1, 2)))


def test_mvie_unit_square_is_inscribed_disc():
    e = mvie(unit_square())
    assert abs(float(e.center[0]) - 0.5) < 1e-6
    assert abs(float(e.center[1]) - 0.5) < 1e-6
    assert abs(float(e.a11) - 0.5) < 1e-6
    assert abs(float(e.a22) - 0.5) < 1e-6
    assert abs(float(e.a12)) < 1e-6


def test_mvie_right_triangle_area():
    tri = ConvexPolygon(tuple(pt(p) for p in [(0, 0), (1, 0), (0, 1)]))
    e = mvie(tri)
    area = math.pi * abs(float(e.a11) * float(e.a22) - float(e.a12) ** 2)
    assert abs(area - math.pi / (6 * math.sqrt(3))) < 1e-5


def test_mvie_satisfies_john_area_bound():
    """John in the plane: the best inscribed ellipse has at least a quarter
    of the body's area (ellipse area is pi * det of the shape matrix)."""
    rng = random.Random(41)
    for _ in range(5):
        hull = convex_hull([pt((rng.randrange(0, 12), rng.randrange(0, 12))) for _ in range(9)])
        if hull.is_empty() or hull.area() == 0:
            continue
        e = mvie(hull)
        det = float(e.a11) * float(e.a22) - float(e.a12) ** 2
        assert det > 0
        assert math.pi * det >= float(hull.area()) / 4 - 1e-6


def test_longest_vwidth_segment_square():
    sq = unit_square()
    sw = longest_vwidth_segment(sq, pt((1, 0)))
    assert sw.value == 1
    assert sw.certified


def test_longest_vwidth_segment_diagonal_direction():
    sq = unit_square()
    sw = longest_vwidth_segment(sq, pt((1, 1)))
    # max <x - y, (1,1)> over the square is attained corner to corner.
    assert sw.value == 2
    assert sw.certified


def test_longest_vwidth_segment_nonconvex_searches_every_component():
    left = [(0, 0), (1, 0), (1, 1), (0, 1)]
    right = [(5, 0), (9, 0), (9, 1), (5, 1)]
    sw = longest_vwidth_segment(Region((left, right)), pt((1, 0)), convex_hint=False)
    assert sw.value == 4
    assert not sw.certified


def test_longest_norm_segment_l1():
    sq = unit_square()
    sw = longest_norm_segment(sq, l1_ball())
    assert sw.value == 2
    assert sw.certified
    assert {sw.a, sw.b} == {pt((0, 0)), pt((1, 1))}


def test_norm_ball_gauge():
    ball = l1_ball()
    assert ball.norm(pt((1, 1))) == 2
    assert ball.norm(pt((rat(1, 2), 0))) == rat(1, 2)
    assert ball.norm(pt((0, 0))) == 0

"""Visibility semantics on polygonal, skeletal and pinched galleries.

Visibility is closed: the connecting segment may run along the boundary
and may graze reflex corners.
"""

import random

from kernel_oracle import convex_visibility

from artgallery.gallery import Gallery, PinchedGallery, SkeletalGallery
from artgallery.galleries import gen_fig1, gen_star
from artgallery.geom.polygon import (
    PolygonWithHoles,
    locate_in_polygon,
    locate_in_region,
    point_in_region,
)
from artgallery.geom.primitives import Segment2, pt
from artgallery.rational import rat
from artgallery.visibility import (
    common_visibility,
    pinched_common_visibility,
    pinched_sees,
    sees,
    skeletal_common_visibility,
    skeletal_sees,
    skeletal_visibility,
    visibility_polygon,
)


def l_gallery():
    return Gallery(
        polygon=PolygonWithHoles([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], []),
        classes=(),
        name="L",
    )


def test_sees_in_l_shape():
    g = l_gallery()
    assert sees(g, pt((0, 0)), pt((2, 1)))
    assert not sees(g, pt((2, 1)), pt((1, 2)))
    # Across the notch: blocked.
    assert not sees(g, pt((2, rat(1, 2))), pt((rat(1, 2), 2)))
    # Grazing the reflex corner (1,1) exactly is allowed (closed visibility).
    assert sees(g, pt((rat(3, 2), rat(1, 2))), pt((rat(1, 2), rat(3, 2))))
    # Along the boundary.
    assert sees(g, pt((0, 0)), pt((2, 0)))


def test_visibility_polygon_l_corner():
    g = l_gallery()
    vr = visibility_polygon(g, pt((2, 1)))
    # From (2,1) the upper arm is hidden behind the reflex corner except for
    # the zero-width sliver along y = 1.
    assert vr.area() == 2
    assert point_in_region(pt((0, 0)), vr)
    assert not point_in_region(pt((rat(1, 2), rat(3, 2))), vr)


def test_visibility_polygon_matches_sees_on_grid():
    """Membership in the computed region agrees with pairwise sees."""
    g = l_gallery()
    x = pt((rat(1, 4), rat(1, 4)))
    vr = visibility_polygon(g, x)
    for i in range(9):
        for j in range(9):
            p = pt((rat(i, 4), rat(j, 4)))
            if locate_in_polygon(p, g.polygon) == "out":
                continue
            expected = sees(g, x, p)
            got = locate_in_region(p, vr) != "out"
            assert got == expected, (i, j)


def test_convex_visibility_is_whole_polygon():
    g = Gallery(polygon=PolygonWithHoles([(0, 0), (3, 0), (3, 2), (0, 2)], []), classes=(), name="box")
    cv = convex_visibility(g, pt((1, 1)))
    assert cv.area() == 6


def test_common_visibility_two_corners():
    g = l_gallery()
    cr = common_visibility(g, [pt((2, 0)), pt((0, 2))])
    # Each corner sees its own arm fully; the common part is the square
    # [0,1]^2 plus slivers that carry no area.
    assert cr.area() == 2


def test_star_visibility_from_kernel_point_is_everything():
    poly = gen_star(seed=5, n_vertices=10)
    g = Gallery(polygon=PolygonWithHoles(poly.vertices, []), classes=(), name="star")
    vr = visibility_polygon(g, pt((0, 0)))
    assert vr.area() == g.polygon.area()


def t_skeleton():
    return SkeletalGallery(
        segments=(Segment2(pt((0, 0)), pt((2, 0))), Segment2(pt((1, 0)), pt((1, 2)))),
        classes=(),
        name="T",
    )


def test_skeletal_sees():
    sk = t_skeleton()
    assert skeletal_sees(sk, pt((0, 0)), pt((2, 0)))
    assert skeletal_sees(sk, pt((1, 0)), pt((1, 2)))
    # Bent path through the junction is not a straight segment.
    assert not skeletal_sees(sk, pt((0, 0)), pt((1, 2)))


def test_skeletal_visibility_from_arm():
    sk = t_skeleton()
    segs = skeletal_visibility(sk, pt((1, 1)))
    assert segs == (Segment2(pt((1, 0)), pt((1, 2))),)


def test_skeletal_common_visibility():
    sk = t_skeleton()
    lone, segs = skeletal_common_visibility(sk, [pt((0, 0)), pt((2, 0))])
    assert lone == ()
    assert segs == (Segment2(pt((0, 0)), pt((2, 0))),)


def test_pinched_pairs():
    g = gen_fig1()
    cls = dict(g.classes)
    red, blue = cls["red"], cls["blue"]
    assert pinched_sees(g, red[0], blue[0])
    assert not pinched_sees(g, red[0], red[1])
    pc = pinched_common_visibility(g, [red[0], blue[0]])
    assert not pc.is_empty()
    assert pc.full  # they share a full component
    assert pc.area() > 0
    empty = pinched_common_visibility(g, [red[0], red[1]])
    assert empty.is_empty()
    assert empty.area() == 0


def test_polygon_with_hole_blocks_sight():
    g = Gallery(
        polygon=PolygonWithHoles(
            [(0, 0), (6, 0), (6, 6), (0, 6)],
            [[(2, 2), (2, 4), (4, 4), (4, 2)]],
        ),
        classes=(),
        name="donut",
    )
    assert not sees(g, pt((1, 3)), pt((5, 3)))
    assert sees(g, pt((1, 1)), pt((5, 1)))
    # Touching the hole corner exactly is allowed.
    assert sees(g, pt((0, 0)), pt((4, 4))) is False  # segment passes through hole interior
    assert sees(g, pt((2, 0)), pt((6, 4)))  # grazes hole corner (4,2)? stays outside

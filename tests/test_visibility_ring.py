"""The sweep in `visibility_polygon` builds one ring per viewpoint, and that
ring never repeats a point, so the region is one simple polygon.

The raw ring is read with a spy on `merge_collinear`, the first step that
takes it (already rotated to its least vertex). Galleries and viewpoints are
chosen where a repeat would come from, if one could: the galleries of the
rational-sweep differential (random simple polygons, the donut and the
two-hole room, whose viewpoints on a hole's boundary see past both of its
sides), and orthogonal galleries whose vertices share their rows and
columns, so many sector rays run through two or more collinear vertices at
once. Viewpoints are vertices, edge midpoints, points a third of the way
along hole edges and every half-integer grid point in the gallery.
"""

import pytest
import test_visibility_differential

from artgallery import visibility
from artgallery.gallery import Gallery
from artgallery.geom.polygon import PolygonWithHoles, locate_in_polygon, region_bbox
from artgallery.geom.primitives import Point2
from artgallery.rational import Q


def hole_grid():
    """An 8 x 8 room with four 2 x 2 pillars on a grid: each pillar edge
    lies on one line with an edge of another pillar."""
    holes = [[(x, y), (x, y + 2), (x + 2, y + 2), (x + 2, y)] for x in (1, 5) for y in (1, 5)]
    return Gallery(PolygonWithHoles([(0, 0), (8, 0), (8, 8), (0, 8)], holes))


def double_comb():
    """A corridor 1 high with five teeth 2 deep below it and five above, the
    upper teeth over the lower ones: the reflex corners line up in two rows
    of nine, and in columns of two."""
    ring = []
    for i in range(5):
        ring += [(2 * i, 0), (2 * i + 1, 0), (2 * i + 1, 2), (2 * i + 2, 2)]
    ring += [(10, 3)]
    for i in range(4, -1, -1):
        ring += [(2 * i + 1, 3), (2 * i + 1, 5), (2 * i, 5)] + ([(2 * i, 3)] if i else [])
    return Gallery(PolygonWithHoles(ring))


GALLERIES = dict(test_visibility_differential.GALLERIES, **{"hole-grid": hole_grid, "double-comb": double_comb})


def viewpoints(g):
    rings = list(g.polygon.rings())
    out = [p for p, _ in g.structural_points()]  # vertices and edge midpoints
    for hole in rings[1:]:
        for a, b in zip(hole, hole[1:] + hole[:1]):
            out.append(Point2(a[0] + (b[0] - a[0]) / 3, a[1] + (b[1] - a[1]) / 3))
    (x0, y0), (x1, y1) = region_bbox(g.polygon)
    for i in range(int(2 * x0), int(2 * x1) + 1):
        for j in range(int(2 * y0), int(2 * y1) + 1):
            p = Point2(Q(i, 2), Q(j, 2))
            if locate_in_polygon(p, g.polygon) != "out":
                out.append(p)
    return list(dict.fromkeys(out))


@pytest.mark.parametrize("name", sorted(GALLERIES))
def test_raw_ring_never_repeats_a_point(name, monkeypatch):
    rings = []
    merge_collinear = visibility.merge_collinear

    def spy(ring):
        rings.append(list(ring))
        return merge_collinear(ring)

    monkeypatch.setattr(visibility, "merge_collinear", spy)
    g = GALLERIES[name]()
    points = viewpoints(g)
    for x in points:
        before = len(rings)
        region = visibility.visibility_polygon(g, x)
        assert len(rings) == before + 1, (name, x)
        ring = rings[-1]
        assert len(set(ring)) == len(ring), (name, x, ring)
        assert ring[0] == min(ring)
        assert len(region.components) == 1, (name, x)
    assert len(rings) == len(points)

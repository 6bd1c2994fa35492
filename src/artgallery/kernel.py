"""Kernels: the set of points that see the whole gallery.

For a hole-free simple polygon the kernel is exactly the intersection of the
inner half-planes of its edges, which this module computes exactly (the kernel
may be empty, a point, a segment, or a convex polygon). A gallery with a hole
has an empty kernel; `Gallery.kernel_status` decides that case without this
module.
"""

from __future__ import annotations

from typing import Tuple

from artgallery.gallery import as_polygon
from artgallery.geom.primitives import Point2
from artgallery.geom.polygon import Region, region_bbox
from artgallery.geom.convex import ConvexPolygon, HalfPlane, clip_convex


def kernel_halfplanes(gallery) -> Tuple[HalfPlane, ...]:
    """Inner half-planes of every edge of a hole-free gallery (CCW outer ring)."""
    poly = as_polygon(gallery)
    if poly.holes:
        raise ValueError("half-plane kernel form requires a hole-free gallery")
    vs = poly.outer.vertices
    n = len(vs)
    return tuple(HalfPlane.left_of_edge(vs[i], vs[(i + 1) % n]) for i in range(n))


def kernel_simple(gallery) -> ConvexPolygon:
    """Exact kernel of a hole-free simple polygon.

    Returns a ConvexPolygon; empty when the polygon is not star-shaped, and
    possibly degenerate (a segment or a point) when it barely is.
    """
    poly = as_polygon(gallery)
    hps = kernel_halfplanes(poly)
    (x0, y0), (x1, y1) = region_bbox(Region((poly,)))
    seed = (Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1))
    return clip_convex(seed, hps)

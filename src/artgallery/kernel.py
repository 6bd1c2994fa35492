"""Kernels: the set of points that see the whole gallery.

For a hole-free simple polygon the kernel is exactly the intersection of the
inner half-planes of its edges, which this module computes exactly (the kernel
may be empty, a point, a segment, or a convex polygon). When it is empty,
Helly names three of those half-planes that miss each other
(`_helly_violating_edges`), the certificate `Gallery.kernel_status` returns.
A gallery with a hole has an empty kernel; `Gallery.kernel_status` decides
that case without this module.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

from artgallery.gallery import as_polygon
from artgallery.geom.primitives import Point2, meet
from artgallery.geom.polygon import PolygonWithHoles, Region, region_bbox
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


def halfplane_triple_empty(l1, l2, l3) -> bool:
    """Exact emptiness of the intersection of three closed half-planes, each
    given as its integer line (A, B, C) for A*x + B*y <= C (`HalfPlane.line`).

    Nonempty intersections with no parallel pair always expose a feasible
    pairwise line crossing (a pointed 2D polyhedron has a vertex), so testing
    the crossings plus antiparallel slabs decides emptiness. A crossing is one
    homogeneous line meet (X, Y, W), W > 0, and lies in a half-plane when
    A*X + B*Y <= C*W.
    """
    lines = (l1, l2, l3)
    crossings = []
    for p, q in itertools.combinations(lines, 2):
        v = meet(p, q)
        if v[2]:
            crossings.append(v)
            continue
        (a1, b1, c1), (a2, b2, c2) = p, q
        if a1 * a2 + b1 * b2 < 0:
            # antiparallel: (a2, b2) = -t (a1, b1) with t = |a2|/|a1| (or
            # |b2|/|b1|) > 0; a gap between them when t*c1 + c2 < 0
            s1, s2 = (abs(a1), abs(a2)) if a1 else (abs(b1), abs(b2))
            if s2 * c1 + s1 * c2 < 0:
                return True
    for x, y, w in crossings:
        if all(a * x + b * y <= c * w for a, b, c in lines):
            return False
    return bool(crossings)


def _helly_violating_edges(poly: PolygonWithHoles) -> Optional[Tuple[int, int, int]]:
    """Indices of three edges whose inner half-planes have empty intersection.

    Exists whenever the kernel of a hole-free polygon is empty (Helly in the
    plane, finite family).
    """
    lines = [hp.line() for hp in kernel_halfplanes(poly)]
    for combo in itertools.combinations(range(len(lines)), 3):
        if halfplane_triple_empty(*(lines[i] for i in combo)):
            return combo
    return None

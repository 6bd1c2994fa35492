"""Test oracles for kernels: pointwise kernel membership, a grid scan, and
the outer bound from convex hulls of visibility regions.

`kernel_simple` intersects edge half-planes; these oracles reach the kernel
another way (triangle containment, visibility hulls), so agreement between
them checks the half-plane route.
"""

from typing import List, Optional

from artgallery.gallery import as_polygon
from artgallery.geom.boolean import region_boolean
from artgallery.geom.convex import ConvexPolygon, convex_hull, convex_intersect
from artgallery.geom.polygon import Region, locate_in_polygon, region_bbox
from artgallery.geom.primitives import Point2, orient, pt
from artgallery.kernel import kernel_halfplanes
from artgallery.rational import rat
from artgallery.visibility import segment_in_polygon, visibility_polygon


def vertex_set(region) -> tuple:
    """Distinct vertices of a region's rings, in ring order."""
    return tuple(dict.fromkeys(v for ring in region.rings() for v in ring))


def convex_visibility(gallery, x) -> ConvexPolygon:
    """Convex hull of the exact visibility region of x: of its ring vertices
    and x.

    It still bounds a positive-area kernel from outside, although the region
    leaves out the one-dimensional pieces of what x sees. The kernel lies in
    what x sees; the interior of a positive-area kernel is open, and a finite
    union of segments contains no open set, so that interior lies in the
    closed region, and so does its closure, the kernel.
    """
    x = pt(x)
    return convex_hull(list(vertex_set(visibility_polygon(gallery, x))) + [x])


def point_in_kernel(gallery, x, method: str = "auto") -> bool:
    """Exact kernel membership test.

    method:
      * "halfplanes" -- all inner edge half-planes contain x (hole-free only);
      * "triangles"  -- for every boundary edge (u, v) the triangle (x, u, v)
        is contained in the gallery (works with holes; collinear triples fall
        back to segment containment);
      * "auto"       -- half-planes when hole-free, triangles otherwise.
    """
    poly = as_polygon(gallery)
    x = pt(x)
    if method not in ("auto", "halfplanes", "triangles"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "halfplanes" if not poly.holes else "triangles"
    if method == "halfplanes":
        return all(hp.contains(x) for hp in kernel_halfplanes(poly))
    if locate_in_polygon(x, poly) == "out":
        return False
    gallery_region = Region((poly,))
    for u, v in poly.boundary_edges():
        if orient(x, u, v) == 0:
            if not (segment_in_polygon(poly, x, u) and segment_in_polygon(poly, x, v)):
                return False
            continue
        tri = Region(((x, u, v),))
        if not region_boolean("difference", tri, gallery_region).is_empty():
            return False
    return True


def kernel_conv_characterization(gallery, points) -> ConvexPolygon:
    """Intersection of conv(V_x) over the given viewpoints.

    Always a superset of the kernel; over finite viewpoint sets it can be a
    strict superset, so it serves as an outer bound, not as a kernel
    computation.
    """
    acc: Optional[ConvexPolygon] = None
    for p in points:
        hull = convex_visibility(gallery, p)
        acc = hull if acc is None else convex_intersect(acc, hull)
        if acc.is_empty():
            return acc
    if acc is None:
        raise ValueError("need at least one viewpoint")
    return acc


def kernel_brute(gallery, resolution: int = 20) -> List[Point2]:
    """Grid oracle: all bbox lattice points (resolution x resolution cells)
    that lie in the gallery and pass the exact kernel membership test."""
    poly = as_polygon(gallery)
    (x0, y0), (x1, y1) = region_bbox(Region((poly,)))
    out = []
    for i in range(resolution + 1):
        for j in range(resolution + 1):
            p = Point2(
                x0 + (x1 - x0) * rat(i, resolution),
                y0 + (y1 - y0) * rat(j, resolution),
            )
            if locate_in_polygon(p, poly) == "out":
                continue
            if point_in_kernel(poly, p):
                out.append(p)
    return out

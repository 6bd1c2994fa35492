"""Test oracles for kernels and visibility polygons: pointwise kernel
membership, a grid scan, the outer bound from convex hulls of visibility
regions, and the rational angular sweep.

`kernel_simple` intersects edge half-planes; these oracles reach the kernel
another way (triangle containment, visibility hulls), so agreement between
them checks the half-plane route.

`rational_visibility_polygon` is the sweep `visibility.visibility_polygon`
ran before it read the gallery as integer homogeneous images: every ray
parameter is a `Fraction` (or `mpq`) division, points are located by the
rational `exact_oracle.locate_in_ring`, and collinear vertices are merged by
`exact_oracle.merge_collinear`, so a mismatch points at the integer code.
It still splits its ring at repeated points with `_split_pinched`, the
splitter `visibility` carried before it built one ring per viewpoint, so a
ring that pinched would show up as a difference.

`first_crossing` is the 2-opt crossing search `galleries.gen_simple` ran
before it rescanned only the rows its last move changed: every pair of
non-adjacent edges, in row-major order, after every move.

`_trace`, `_merge` and `_cover` are the skeletal and pinched interval cover
`visibility` ran before it cut each convex piece with the convex clipper:
the piece's trace on a line is a t-interval of rational ray parameters, each
a `Fraction` division, with the piece's type picking the formula.
"""

from typing import List, Optional, Tuple

import exact_oracle

from artgallery.gallery import as_polygon
from artgallery.geom.boolean import region_boolean
from artgallery.geom.convex import ConvexPolygon, convex_hull, convex_intersect
from artgallery.geom.polygon import (
    PolygonWithHoles,
    Region,
    SimplePolygon,
    locate_in_polygon,
    region_bbox,
    ring_signed_area,
)
from artgallery.geom.primitives import (
    Point2,
    Segment2,
    homogeneous,
    orient,
    pt,
    same_direction,
    segments_meet,
    sort_directions,
)
from artgallery.kernel import kernel_halfplanes
from artgallery.rational import rat
from artgallery.visibility import NotInGallery, segment_in_polygon, visibility_polygon


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


# ---------------------------------------------------------------------------
# Visibility polygon over rationals


def _locate(p, poly) -> str:
    where = exact_oracle.locate_in_ring(p, poly.outer.vertices)
    if where != "in":
        return where
    for h in poly.holes:
        inside_hole = exact_oracle.locate_in_ring(p, h.vertices)
        if inside_hole == "on":
            return "on"
        if inside_hole == "in":
            return "out"
    return "in"


def _ray_events(x, u, edges):
    """Sorted (t, edge) boundary touches of the ray x + t*u, t > 0 (exact)."""
    evs = {}
    ux, uy = u
    for a, b in edges:
        ex, ey = b[0] - a[0], b[1] - a[1]
        den = ux * ey - uy * ex
        wx, wy = a[0] - x[0], a[1] - x[1]
        if den != 0:
            t = (wx * ey - wy * ex) / den
            s = (wx * uy - wy * ux) / den
            if t > 0 and 0 <= s <= 1:
                evs.setdefault(t, (a, b))
        else:
            if wx * uy - wy * ux != 0:
                continue
            uu = ux * ux + uy * uy
            for p in (a, b):
                t = ((p[0] - x[0]) * ux + (p[1] - x[1]) * uy) / uu
                if t > 0:
                    evs.setdefault(t, (a, b))
    return sorted(evs.items())


def _visible_radius(poly, edges, x, u):
    """Largest t with [x, x + t*u] inside the closed polygon, with the edge
    whose touch ends visibility (None when t is 0 or the walk is degenerate)."""
    evs = _ray_events(x, u, edges)
    prev = rat(0)
    prev_edge = None
    for t, e in evs:
        tm = (prev + t) / 2
        q = Point2(x[0] + tm * u[0], x[1] + tm * u[1])
        if _locate(q, poly) == "out":
            return prev, prev_edge
        prev, prev_edge = t, e
    q = Point2(x[0] + (prev + 1) * u[0], x[1] + (prev + 1) * u[1])
    if _locate(q, poly) == "out":
        return prev, prev_edge
    raise RuntimeError("ray escapes a bounded gallery; invalid polygon")


def _ray_line_point(x, u, a, b) -> Point2:
    """Point where ray x + t*u meets line(a, b); endpoint fallback if parallel."""
    hit = exact_oracle.line_intersection(x, Point2(x[0] + u[0], x[1] + u[1]), a, b)
    if hit is not None:
        return hit
    for p in (a, b):
        w = (p[0] - x[0], p[1] - x[1])
        if (w[0] or w[1]) and same_direction(w, u):
            return p
    raise RuntimeError("blocking edge collinear with sector ray")


def _key(p):
    """A rational point's four integer parts: equal exactly when the points
    are (rationals are kept normalised), and cheaper to hash."""
    return p[0].numerator, p[0].denominator, p[1].numerator, p[1].denominator


def _split_pinched(ring: List[Point2]) -> List[List[Point2]]:
    """Split a weakly simple ring (repeated pinch vertices) into simple rings."""
    k = min(range(len(ring)), key=lambda i: (ring[i][0], ring[i][1]))
    ring = ring[k:] + ring[:k]
    out: List[List[Point2]] = []
    stack: List[Point2] = []
    pos = {}
    for p in ring:
        key = _key(p)
        if key in pos:
            i = pos[key]
            loop = stack[i:]
            for q in loop[1:]:
                pos.pop(_key(q), None)
            del stack[i + 1 :]
            if len(loop) >= 3:
                out.append(loop)
        else:
            pos[key] = len(stack)
            stack.append(p)
    if len(stack) >= 3:
        out.append(stack)
    return out


def rational_visibility_polygon(gallery, x) -> Region:
    """Exact visibility region of viewpoint x, by the angular sweep over
    rationals."""
    poly = as_polygon(gallery)
    x = pt(x)
    if _locate(x, poly) == "out":
        raise NotInGallery(f"viewpoint {x} not in gallery")
    edges = list(poly.boundary_edges())

    dirs = [(1, 0), (0, 1), (-1, 0), (0, -1)]  # keep every sector under pi/2
    for ring in poly.rings():
        for v in ring:
            if v != x:
                dirs.append((v[0] - x[0], v[1] - x[1]))
    dirs = sort_directions([(rat(a), rat(b)) for a, b in dirs])
    m = len(dirs)

    ring_pts: List[Point2] = []
    for i in range(m):
        ua = dirs[i]
        ub = dirs[(i + 1) % m]
        t, edge = _visible_radius(poly, edges, x, (ua[0] + ub[0], ua[1] + ub[1]))
        if t == 0 or edge is None:
            piece = (x,)
        else:
            piece = (_ray_line_point(x, ua, *edge), _ray_line_point(x, ub, *edge))
        for p in piece:
            if not ring_pts or ring_pts[-1] != p:
                ring_pts.append(p)
    while len(ring_pts) > 1 and ring_pts[0] == ring_pts[-1]:
        ring_pts.pop()

    comps = []
    if len(ring_pts) >= 3:
        for loop in _split_pinched(ring_pts):
            loop = exact_oracle.merge_collinear(loop)
            if len(loop) >= 3 and ring_signed_area(loop) != 0:
                comps.append(PolygonWithHoles(SimplePolygon(tuple(loop))))
    return Region(tuple(comps))


def _trace(piece, x, d, lo=None, hi=None):
    """Exact {t in [lo, hi] : x + t*d in piece} as (t0, t1), or None if empty.

    `piece` is a Segment2 or a ConvexPolygon and d is nonzero; a bound of
    None leaves that side open (the piece is bounded, so the trace is not).
    A segment that crosses the line traces its single crossing point.
    """
    lows = [] if lo is None else [lo]
    highs = [] if hi is None else [hi]
    if isinstance(piece, Segment2):
        wa = (piece.a[0] - x[0], piece.a[1] - x[1])
        wb = (piece.b[0] - x[0], piece.b[1] - x[1])
        ca = d[0] * wa[1] - d[1] * wa[0]  # sides of the line that a and b lie on
        cb = d[0] * wb[1] - d[1] * wb[0]
        if ca == 0 and cb == 0:
            dd = d[0] * d[0] + d[1] * d[1]
            ta = (wa[0] * d[0] + wa[1] * d[1]) / dd
            tb = (wb[0] * d[0] + wb[1] * d[1]) / dd
            lows.append(min(ta, tb))
            highs.append(max(ta, tb))
        elif ca * cb > 0:
            return None
        else:
            t = (wa[0] * wb[1] - wa[1] * wb[0]) / (cb - ca)
            lows.append(t)
            highs.append(t)
    else:
        for hp in piece.halfplanes():
            num = hp.c - (hp.a * x[0] + hp.b * x[1])
            den = hp.a * d[0] + hp.b * d[1]
            if den > 0:
                highs.append(num / den)
            elif den < 0:
                lows.append(num / den)
            elif num < 0:
                return None
    t0, t1 = max(lows), min(highs)
    return (t0, t1) if t0 <= t1 else None


def _merge(intervals):
    """Disjoint closed intervals, in order, whose union is that of `intervals`."""
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _cover(pieces, a, b):
    """Merged traces of the pieces on [a, b], as t-intervals of [0, 1] along
    a + t*(b - a); for a == b, the trace of the point a, at t = 0."""
    d, hi = ((b[0] - a[0], b[1] - a[1]), 1) if a != b else ((1, 0), 0)
    return _merge(iv for piece in pieces if (iv := _trace(piece, a, d, 0, hi)) is not None)


def first_crossing(ring) -> Optional[Tuple[int, int]]:
    """First pair (i, j), i < j, of non-adjacent ring edges that meet."""
    hs = [homogeneous(p) for p in ring]
    n = len(hs)
    for i in range(n):
        a, b = hs[i], hs[(i + 1) % n]
        for j in range(i + 1, n):
            if (j + 1) % n == i or (i + 1) % n == j:
                continue
            if segments_meet(a, b, hs[j], hs[(j + 1) % n]):
                return i, j
    return None

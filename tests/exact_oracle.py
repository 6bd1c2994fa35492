"""Test oracles for the exact predicates and for convex clipping: the
rational-arithmetic versions that the integer homogeneous code replaced.

Every quantity here is a rational (`Fraction` or `mpq`) built by ordinary
arithmetic, as before signs and clip vertices moved to integers:
- `cross` is the signed area, and `convex_contains` and `convex_hull` test
  its sign;
- `segments_intersect` finds its crossing point as c + t(d - c), and
  `line_intersection` the meet of two lines as p1 + t(p2 - p1);
- `clip_convex` is Sutherland-Hodgman on rational vertices;
- `locate_in_ring` divides to find each crossing's x;
- `halfplane_triple_empty` divides to find each pairwise crossing of three
  `HalfPlane`s and tests it with `HalfPlane.contains`;
- `merge_collinear` tests `cross` and rescans the ring from its start after
  every deletion;
- `tangent_vertices` scans every disc vertex, testing the sign of `cross`
  against the extreme so far;
- `ring_is_simple` builds the intersection of every pair of edges with
  `segments_intersect` and accepts only the shared endpoint of adjacent
  edges.

They share nothing with the library but `Point2`, `pt`, `ConvexPolygon`'s
canonical form and `HalfPlane.contains` (a rational comparison), so a
mismatch points at the integer code.

Two more are the disc and ellipse certificates that the exact per-edge
inequalities of `inscribe` replaced. Both are one-way: a True says the body
lies in the shape (up to the sampled margin, for the ellipse), a False says
nothing.
- `disc_polygon_certificate` puts a rational 96-gon, its apothem checked
  exactly to be at least r, around the disc and tests it with an exact
  `region_boolean` difference;
- `sampled_ellipse_contained` tests 720 boundary points of the ellipse
  against every edge line with a 1e-9 margin.
"""

import math

import numpy as np

from artgallery.geom.boolean import region_boolean
from artgallery.geom.convex import ConvexPolygon
from artgallery.geom.polygon import Region, as_region
from artgallery.geom.primitives import Point2, pt
from artgallery.rational import rat, rationalize


def cross(o, a, b):
    """Signed parallelogram area of (a-o) x (b-o)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def sign(v) -> int:
    return (v > 0) - (v < 0)


def on_segment(p, a, b) -> bool:
    if cross(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_intersect(a, b, c, d):
    d1 = cross(a, b, c)
    d2 = cross(a, b, d)
    d3 = cross(c, d, a)
    d4 = cross(c, d, b)

    if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
        return None
    if (d3 > 0 and d4 > 0) or (d3 < 0 and d4 < 0):
        return None

    if d1 == 0 and d2 == 0:
        if a[0] != b[0]:
            key = 0
        elif a[1] != b[1]:
            key = 1
        else:
            return ("point", Point2(a[0], a[1])) if on_segment(a, c, d) else None
        lo1, hi1 = (a, b) if a[key] <= b[key] else (b, a)
        if c[key] <= d[key]:
            lo2, hi2 = c, d
        else:
            lo2, hi2 = d, c
        lo = lo1 if lo1[key] >= lo2[key] else lo2
        hi = hi1 if hi1[key] <= hi2[key] else hi2
        if lo[key] > hi[key]:
            return None
        if lo[key] == hi[key] and lo[1 - key] == hi[1 - key]:
            return ("point", Point2(lo[0], lo[1]))
        return ("overlap", Point2(lo[0], lo[1]), Point2(hi[0], hi[1]))

    denom = d1 - d2
    if denom == 0:
        for p in (c, d):
            if on_segment(p, a, b):
                return ("point", Point2(p[0], p[1]))
        for p in (a, b):
            if on_segment(p, c, d):
                return ("point", Point2(p[0], p[1]))
        return None
    t = d1 / denom
    px = c[0] + t * (d[0] - c[0])
    py = c[1] + t * (d[1] - c[1])
    p = Point2(px, py)
    if on_segment(p, a, b) and on_segment(p, c, d):
        return ("point", p)
    return None


def line_intersection(p1, p2, p3, p4):
    """Intersection point of lines p1p2 and p3p4, or None if parallel."""
    d1x, d1y = p2[0] - p1[0], p2[1] - p1[1]
    d2x, d2y = p4[0] - p3[0], p4[1] - p3[1]
    denom = d1x * d2y - d1y * d2x
    if denom == 0:
        return None
    t = ((p3[0] - p1[0]) * d2y - (p3[1] - p1[1]) * d2x) / denom
    return Point2(p1[0] + t * d1x, p1[1] + t * d1y)


def clip_ring(ring, hp):
    """Sutherland-Hodgman clip of a convex ring by a closed half-plane."""
    if not ring:
        return ()
    a, b, c = hp.a, hp.b, hp.c
    slacks = [c - (a * p[0] + b * p[1]) for p in ring]
    if all(s >= 0 for s in slacks):
        return tuple(ring)
    out = []
    n = len(ring)
    for i in range(n):
        p, q = ring[i], ring[(i + 1) % n]
        sp, sq = slacks[i], slacks[(i + 1) % n]
        if sp >= 0:
            out.append(p)
        if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
            t = sp / (sp - sq)
            out.append(Point2(p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    dedup = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return tuple(dedup)


def clip_convex(convex, halfplanes) -> ConvexPolygon:
    ring = convex.vertices if isinstance(convex, ConvexPolygon) else tuple(pt(p) for p in convex)
    for hp in halfplanes:
        ring = clip_ring(ring, hp)
        if not ring:
            return ConvexPolygon(())
    return ConvexPolygon(ring)


def locate_in_ring(p, ring) -> str:
    p = pt(p)
    px, py = p
    n = len(ring)
    crossings = 0
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        if on_segment(p, a, b):
            return "on"
        ay, by = a[1], b[1]
        if (ay > py) != (by > py):
            xint = a[0] + (py - ay) * (b[0] - a[0]) / (by - ay)
            if xint > px:
                crossings += 1
    return "in" if crossings % 2 == 1 else "out"


def convex_contains(poly: ConvexPolygon, p) -> bool:
    vs = poly.vertices
    if not vs:
        return False
    if len(vs) == 1:
        return pt(p) == vs[0]
    if len(vs) == 2:
        return on_segment(pt(p), vs[0], vs[1])
    n = len(vs)
    return all(cross(vs[i], vs[(i + 1) % n], p) >= 0 for i in range(n))


def convex_hull(points) -> ConvexPolygon:
    ps = sorted({pt(p) for p in points})
    if len(ps) <= 2:
        return ConvexPolygon(ps)

    def half(points_iter):
        chain = []
        for p in points_iter:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    ring = half(ps)[:-1] + half(reversed(ps))[:-1]
    if len(ring) < 3:
        return ConvexPolygon((ps[0], ps[-1]))
    return ConvexPolygon(ring)


def halfplane_triple_empty(h1, h2, h3) -> bool:
    hs = (h1, h2, h3)
    crossings = []
    for i in range(3):
        for j in range(i + 1, 3):
            p, q = hs[i], hs[j]
            det = p.a * q.b - p.b * q.a
            if det == 0:
                if p.a * q.a + p.b * q.b < 0:
                    t = (-q.a / p.a) if p.a != 0 else (-q.b / p.b)
                    if t * p.c + q.c < 0:
                        return True  # antiparallel with a gap
                continue
            x = (p.c * q.b - p.b * q.c) / det
            y = (p.a * q.c - p.c * q.a) / det
            crossings.append(Point2(x, y))
    for v in crossings:
        if all(h.contains(v) for h in hs):
            return False
    return bool(crossings)


def merge_collinear(ring):
    out = list(ring)
    changed = True
    while changed and len(out) > 2:
        changed = False
        n = len(out)
        for i in range(n):
            a, b, c = out[(i - 1) % n], out[i], out[(i + 1) % n]
            if cross(a, b, c) == 0:
                del out[i]
                changed = True
                break
    return out


def tangent_vertices(apex, disc: ConvexPolygon):
    """Extreme disc vertices as seen from an exterior apex: a linear scan
    that keeps the first vertex reaching each extreme."""
    lo = hi = disc.vertices[0]
    for v in disc.vertices[1:]:
        if cross(apex, hi, v) > 0:
            hi = v
        if cross(apex, lo, v) < 0:
            lo = v
    return lo, hi


def ring_is_simple(ring) -> bool:
    """Exact simplicity: edges meet only at shared endpoints of adjacent edges."""
    n = len(ring)
    if n < 3:
        return False
    if len(set(ring)) != n:
        return False
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        if a == b:
            return False
        for j in range(i + 1, n):
            c, d = ring[j], ring[(j + 1) % n]
            hit = segments_intersect(a, b, c, d)
            if hit is None:
                continue
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            if not adjacent:
                return False
            if hit[0] != "point":
                return False
            shared = b if j == i + 1 else a
            if hit[1] != shared:
                return False
    return True


def disc_polygon_certificate(shape, center, r) -> bool:
    """A rational 96-gon around the disc lies in shape: its vertices round
    the circumradius polygon with `rationalize`, so a disc below a radius of
    about 1e-9 never certifies, and the polygon's margin keeps a disc that
    touches the boundary from certifying."""
    cx, cy = rat(center[0]), rat(center[1])
    r = rat(r)
    n = 96
    R = float(r) / math.cos(math.pi / n) * (1.0 + 1e-9)
    poly = ConvexPolygon([
        Point2(cx + rationalize(R * math.cos(2 * math.pi * k / n)),
               cy + rationalize(R * math.sin(2 * math.pi * k / n)))
        for k in range(n)
    ])
    if poly.degenerate:
        return False
    for hp in poly.halfplanes():
        slack = hp.c - (hp.a * cx + hp.b * cy)
        if slack < 0 or slack * slack < r * r * (hp.a * hp.a + hp.b * hp.b):
            return False  # apothem dipped below r
    return region_boolean("difference", Region((poly.vertices,)), as_region(shape)).is_empty()


def sampled_ellipse_contained(c: ConvexPolygon, ell) -> bool:
    """Each of 720 boundary points of the ellipse lies within 1e-9 of every
    edge half-plane of c (unit normals, in floats)."""
    t = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    A = np.array([[ell.a11, ell.a12], [ell.a12, ell.a22]], dtype=float)
    pts = (A @ np.stack([np.cos(t), np.sin(t)]) + np.array(ell.center, dtype=float)[:, None]).T
    for hp in c.halfplanes():
        a, b, h = float(hp.a), float(hp.b), float(hp.c)
        n = math.hypot(a, b)
        if np.max(pts[:, 0] * (a / n) + pts[:, 1] * (b / n) - h / n) > 1e-9:
            return False
    return True

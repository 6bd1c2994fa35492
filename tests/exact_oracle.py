"""Test oracles for the exact predicates and for convex clipping: the
rational-arithmetic versions that the integer homogeneous code replaced.

Every quantity here is a rational (`Fraction` or `mpq`) built by ordinary
arithmetic, as before signs and clip vertices moved to integers:
- `cross` is the signed area, and `convex_contains` and `convex_hull` test
  its sign;
- `segments_intersect` finds its crossing point as c + t(d - c);
- `clip_convex` is Sutherland-Hodgman on rational vertices;
- `locate_in_ring` divides to find each crossing's x.

They share nothing with the library but `Point2`, `pt` and
`ConvexPolygon`'s canonical form, so a mismatch points at the integer code.
"""

from artgallery.geom.convex import ConvexPolygon
from artgallery.geom.primitives import Point2, pt


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

"""Exact planar primitives: points, segments, orientation, intersection.

The predicates here are the trust base for everything above them. They take
rational coordinates and return exact answers; there are no tolerances.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from artgallery.rational import rat


class Point2(NamedTuple):
    """Exact point. Coordinates are rationals (any rat()-convertible input)."""

    x: object
    y: object

    def __repr__(self):
        return f"Point2({self.x}, {self.y})"


class Segment2(NamedTuple):
    a: Point2
    b: Point2


def pt(p) -> Point2:
    """Coerce a pair-like into an exact Point2."""
    if isinstance(p, Point2) and not isinstance(p.x, float):
        return p
    return Point2(rat(p[0]), rat(p[1]))


def cross(o, a, b):
    """Signed parallelogram area of (a-o) x (b-o)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def orient(p, q, r) -> int:
    """Orientation sign: +1 if p->q->r turns counterclockwise, -1 clockwise, 0 collinear."""
    c = cross(p, q, r)
    if c > 0:
        return 1
    if c < 0:
        return -1
    return 0


def on_segment(p, a, b) -> bool:
    """Exact: p lies on the closed segment [a, b]."""
    if cross(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_intersect(a, b, c, d):
    """Exact intersection of closed segments [a,b] and [c,d].

    Returns:
        None                      -- disjoint
        ("point", P)              -- single intersection point
        ("overlap", P, Q)         -- collinear overlap from P to Q (P may equal Q)
    """
    d1 = cross(a, b, c)
    d2 = cross(a, b, d)
    d3 = cross(c, d, a)
    d4 = cross(c, d, b)

    if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
        return None
    if (d3 > 0 and d4 > 0) or (d3 < 0 and d4 < 0):
        return None

    if d1 == 0 and d2 == 0:
        # Collinear: overlap along the common line, possibly empty or a point.
        if a[0] != b[0]:
            key = 0
        elif a[1] != b[1]:
            key = 1
        else:
            # [a,b] degenerate to a point
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

    # Proper or endpoint-touching intersection of non-parallel lines.
    denom = d1 - d2  # == cross of directions, nonzero here unless parallel touch
    if denom == 0:
        # Parallel non-collinear with a zero somewhere: only endpoint grazing possible.
        for p in (c, d):
            if on_segment(p, a, b):
                return ("point", Point2(p[0], p[1]))
        for p in (a, b):
            if on_segment(p, c, d):
                return ("point", Point2(p[0], p[1]))
        return None
    t = d1 / denom  # position of the crossing along [c,d]
    px = c[0] + t * (d[0] - c[0])
    py = c[1] + t * (d[1] - c[1])
    p = Point2(px, py)
    if on_segment(p, a, b) and on_segment(p, c, d):
        return ("point", p)
    return None


def line_intersection(p1, p2, p3, p4) -> Optional[Point2]:
    """Intersection point of lines p1p2 and p3p4, or None if parallel."""
    d1x, d1y = p2[0] - p1[0], p2[1] - p1[1]
    d2x, d2y = p4[0] - p3[0], p4[1] - p3[1]
    denom = d1x * d2y - d1y * d2x
    if denom == 0:
        return None
    t = ((p3[0] - p1[0]) * d2y - (p3[1] - p1[1]) * d2x) / denom
    return Point2(p1[0] + t * d1x, p1[1] + t * d1y)


def direction_class(v) -> int:
    """Half-plane index for angular sorting: 0 for angles in [0, pi), 1 for [pi, 2pi)."""
    x, y = v[0], v[1]
    if y > 0 or (y == 0 and x > 0):
        return 0
    return 1


def angle_less(u, v) -> bool:
    """Exact CCW angular order starting at the positive x-axis. u, v nonzero vectors."""
    cu, cv = direction_class(u), direction_class(v)
    if cu != cv:
        return cu < cv
    c = u[0] * v[1] - u[1] * v[0]
    return c > 0


def same_direction(u, v) -> bool:
    """Exact: u and v are positive multiples of each other."""
    if u[0] * v[1] - u[1] * v[0] != 0:
        return False
    return u[0] * v[0] + u[1] * v[1] > 0


def sort_directions(dirs):
    """Sort nonzero direction vectors CCW from the positive x-axis, removing duplicates."""
    import functools

    def cmp(u, v):
        if same_direction(u, v):
            return 0
        return -1 if angle_less(u, v) else 1

    out = sorted(dirs, key=functools.cmp_to_key(cmp))
    dedup = []
    for d in out:
        if dedup and same_direction(dedup[-1], d):
            continue
        dedup.append(d)
    return dedup

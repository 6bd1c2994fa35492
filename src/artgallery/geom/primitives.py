"""Exact planar primitives: points, segments, orientation, intersection.

The predicates here are the trust base for everything above them. They take
rational coordinates and return exact answers; there are no tolerances.

Signs and constructed points are computed on integer homogeneous
coordinates: a point (x, y) is read as (X, Y, W) through `numerator` and
`denominator` alone (see :func:`homogeneous`), which serves
`fractions.Fraction` and `gmpy2.mpq` alike. An orientation is then the sign
of one integer determinant, with no gcd and no rational temporaries, and a
crossing point is one integer line meet, normalised once per coordinate.
Callers that test many predicates on the same points (convex clipping,
point location, the visibility sweep, the 2-opt untangling of random
polygons) read each point's image once and work on the images.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from artgallery.rational import Q, rat


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


def homogeneous(p):
    """Integer homogeneous coordinates (X, Y, W) of the rational point p, W > 0.

    (x, y) = (X/W, Y/W) with X = x.numerator * y.denominator,
    Y = y.numerator * x.denominator and W = x.denominator * y.denominator.
    No gcd is taken, so W need not be the smallest common denominator.
    """
    x, y = p[0], p[1]
    xd, yd = x.denominator, y.denominator
    return x.numerator * yd, y.numerator * xd, xd * yd


def det3(p, q, r):
    """Determinant of three homogeneous points (rows X, Y, W).

    With every W > 0 its sign is the sign of the cross product (q - p) x (r - p).
    """
    px, py, pw = p
    qx, qy, qw = q
    rx, ry, rw = r
    return px * (qy * rw - qw * ry) - py * (qx * rw - qw * rx) + pw * (qx * ry - qy * rx)


def between(p, a, b) -> bool:
    """For collinear homogeneous points: p lies on the closed segment [a, b].

    That is (p - a) . (p - b) <= 0, scaled by the positive pw^2 * aw * bw.
    """
    px, py, pw = p
    ax, ay, aw = a
    bx, by, bw = b
    return (px * aw - ax * pw) * (px * bw - bx * pw) + (py * aw - ay * pw) * (py * bw - by * pw) <= 0


def segments_meet(a, b, c, d) -> bool:
    """For homogeneous points: the closed segments [a, b] and [c, d] share a
    point. Decided by orientation signs alone; no point is built."""
    d1, d2 = det3(a, b, c), det3(a, b, d)
    if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
        return False
    d3, d4 = det3(c, d, a), det3(c, d, b)
    if (d3 > 0 and d4 > 0) or (d3 < 0 and d4 < 0):
        return False
    if d1 == 0 and d2 == 0:  # on one line: an end of one lies on the other
        return between(c, a, b) or between(d, a, b) or between(a, c, d) or between(b, c, d)
    return True


def join(p, q):
    """Integer line (A, B, C), A*x + B*y = C, through homogeneous points p != q."""
    px, py, pw = p
    qx, qy, qw = q
    return py * qw - pw * qy, pw * qx - px * qw, py * qx - px * qy


def meet(l, m):
    """Homogeneous point (X, Y, W), W > 0, where integer lines l and m cross;
    they must not be parallel."""
    a1, b1, c1 = l
    a2, b2, c2 = m
    w = a1 * b2 - a2 * b1
    x = c1 * b2 - c2 * b1
    y = a1 * c2 - a2 * c1
    return (x, y, w) if w > 0 else (-x, -y, -w)


def from_homogeneous(p) -> Point2:
    """The rational point of homogeneous p: one normalisation per coordinate."""
    x, y, w = p
    return Point2(Q(x, w), Q(y, w))


def orient(p, q, r) -> int:
    """Orientation sign: +1 if p->q->r turns counterclockwise, -1 clockwise, 0 collinear."""
    d = det3(homogeneous(p), homogeneous(q), homogeneous(r))
    return (d > 0) - (d < 0)


def on_segment(p, a, b) -> bool:
    """Exact: p lies on the closed segment [a, b]."""
    p, a, b = homogeneous(p), homogeneous(a), homogeneous(b)
    return det3(a, b, p) == 0 and between(p, a, b)


def segments_intersect(a, b, c, d):
    """Exact intersection of closed segments [a,b] and [c,d].

    Returns:
        None                      -- disjoint
        ("point", P)              -- single intersection point
        ("overlap", P, Q)         -- collinear overlap from P to Q (P may equal Q)
    """
    ha, hb, hc, hd = homogeneous(a), homogeneous(b), homogeneous(c), homogeneous(d)
    d1 = det3(ha, hb, hc)
    d2 = det3(ha, hb, hd)
    d3 = det3(hc, hd, ha)
    d4 = det3(hc, hd, hb)

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
            # [a,b] degenerate to a point, collinear with c and d (d3 == d4 == 0)
            return ("point", Point2(a[0], a[1])) if between(ha, hc, hd) else None
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

    # c and d lie on opposite closed sides of line ab, not both on it, and a
    # and b on opposite sides of line cd. Parallel lines would give d1 == d2,
    # so the lines cross, and their one meet lies on both segments.
    return ("point", from_homogeneous(meet(join(ha, hb), join(hc, hd))))


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

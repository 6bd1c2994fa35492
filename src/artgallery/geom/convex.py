"""Convex polygon machinery: hulls, clipping and intersections.

Everything is exact over rationals. Degenerate convex sets (points, segments,
zero-area touches) are first-class citizens: clipping and intersection keep
them rather than silently dropping to empty, because downstream code (kernels,
boundary-touch intersections) distinguishes "empty" from "measure zero".

`ConvexPolygon` and `HalfPlane` hold rationals, but signs and clip vertices
are computed on integer homogeneous coordinates read through `numerator` and
`denominator` (see :mod:`artgallery.geom.primitives`), so the same code
serves `fractions.Fraction` and `gmpy2.mpq`. Clipping builds each new vertex
as the meet of two integer lines, the edge's and the half-plane's, so vertex
size is bounded by the input lines rather than by clipping depth (Yap,
"Towards exact geometric computation", CGTA 1997).

Clipping is a left fold over the half-planes. `clip_combinations` clips one
polygon by every r-combination of half-plane groups and lets combinations
that share leading groups share those clips: the ring after a prefix is the
same ring a fresh clip would reach.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

from artgallery.rational import rat
from artgallery.geom.primitives import (
    Point2,
    det3,
    from_homogeneous,
    homogeneous,
    join,
    meet,
    on_segment,
    pt,
)
from artgallery.geom.polygon import SimplePolygon, ring_signed_area


@dataclass(frozen=True)
class HalfPlane:
    """Closed half-plane {(x, y) : a*x + b*y <= c}."""

    a: object
    b: object
    c: object

    @staticmethod
    def left_of_edge(u, v) -> "HalfPlane":
        """Half-plane of points on or to the left of the directed edge u -> v."""
        u, v = pt(u), pt(v)
        a = v[1] - u[1]
        b = u[0] - v[0]
        return HalfPlane(a, b, a * u[0] + b * u[1])

    def contains(self, p) -> bool:
        return self.a * p[0] + self.b * p[1] <= self.c

    def line(self):
        """The boundary as an integer line (A, B, C), A*x + B*y = C, scaled by
        the lcm of the coefficients' denominators, so that A*X + B*Y <= C*W
        holds exactly for the homogeneous points (X, Y, W) inside."""
        a, b, c = self.a, self.b, self.c
        m = math.lcm(a.denominator, b.denominator, c.denominator)
        return (
            a.numerator * (m // a.denominator),
            b.numerator * (m // b.denominator),
            c.numerator * (m // c.denominator),
        )


def _canonical_ccw(ring: Sequence[Point2]) -> Tuple[Point2, ...]:
    """Rotate a ring to start at the lexicographically smallest vertex."""
    if not ring:
        return ()
    k = min(range(len(ring)), key=lambda i: (ring[i][0], ring[i][1]))
    return tuple(ring[k:]) + tuple(ring[:k])


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon in canonical form: CCW, minimal vertex set, starting at
    the lexicographically smallest vertex. May be degenerate (segment, point,
    or empty) -- check :meth:`is_empty` / :attr:`degenerate`."""

    vertices: Tuple[Point2, ...]

    def __init__(self, vertices):
        ring = tuple(pt(p) for p in vertices)
        object.__setattr__(self, "vertices", _canonical_ccw(ring))

    @property
    def degenerate(self) -> bool:
        return len(self.vertices) < 3 or ring_signed_area(self.vertices) == 0

    def is_empty(self) -> bool:
        return not self.vertices

    @cached_property
    def images(self) -> Tuple[tuple, ...]:
        """The vertices' integer homogeneous images, read once per polygon.
        Not a field, so equality and hashing still see the vertices alone."""
        return tuple(homogeneous(v) for v in self.vertices)

    def area(self):
        if len(self.vertices) < 3:
            return rat(0)
        return ring_signed_area(self.vertices)

    def contains(self, p) -> bool:
        vs = self.vertices
        if not vs:
            return False
        p = pt(p)
        if len(vs) == 1:
            return p == vs[0]
        if len(vs) == 2:
            return on_segment(p, vs[0], vs[1])
        hp = homogeneous(p)
        hs = self.images
        return all(det3(hs[i - 1], hs[i], hp) >= 0 for i in range(len(hs)))

    def halfplanes(self) -> Tuple[HalfPlane, ...]:
        vs = self.vertices
        n = len(vs)
        if n < 3:
            raise ValueError("degenerate convex polygon has no half-plane form")
        return tuple(HalfPlane.left_of_edge(vs[i], vs[(i + 1) % n]) for i in range(n))

    def to_polygon(self) -> SimplePolygon:
        if len(self.vertices) < 3:
            raise ValueError("degenerate convex polygon")
        return SimplePolygon(self.vertices)

    def edges(self):
        vs = self.vertices
        n = len(vs)
        for i in range(n):
            yield vs[i], vs[(i + 1) % n]


def convex_hull(points) -> ConvexPolygon:
    """Exact convex hull (monotone chain).

    Degenerate inputs collapse: all-equal -> single vertex, collinear ->
    the two extreme vertices. ``hull.degenerate`` marks those cases.
    """
    ps = sorted({pt(p) for p in points})
    if len(ps) <= 2:
        return ConvexPolygon(ps)
    hs = [homogeneous(p) for p in ps]

    def half(order):
        chain: List[int] = []
        for i in order:
            while len(chain) >= 2 and det3(hs[chain[-2]], hs[chain[-1]], hs[i]) <= 0:
                chain.pop()
            chain.append(i)
        return chain

    lower = half(range(len(ps)))
    upper = half(reversed(range(len(ps))))
    ring = [ps[i] for i in lower[:-1] + upper[:-1]]
    if len(ring) < 3:
        # All points collinear: keep the two extremes.
        return ConvexPolygon((ps[0], ps[-1]))
    return ConvexPolygon(ring)


def _same(u, v) -> bool:
    """Clip outputs u and v, each (ring entry, lies on the clip line), hold
    the same point. Two input points compare as rationals. Otherwise only two
    points on the clip line can coincide: two points off it differ in slack
    or are neighbours in a ring that an earlier clip has deduplicated."""
    (p, p_in, _), p_on = u
    (q, q_in, _), q_on = v
    if p_in is not None and q_in is not None:
        return p_in == q_in
    return p_on and q_on and p[0] * q[2] == q[0] * p[2] and p[1] * q[2] == q[1] * p[2]


def _clip_ring(ring, h):
    """Sutherland-Hodgman clip of a convex ring by the closed half-plane
    A*x + B*y <= C of the integer line h = (A, B, C).

    Each ring entry is (homogeneous vertex, its input Point2 or None, the
    integer line of the edge that leaves it). A new vertex is the meet of
    its edge's line with h. An exit vertex, and a kept vertex on h whose
    successor is cut, leave along h. Zero-area results (rings that collapse
    to a segment or a point) are kept.
    """
    a, b, c = h
    slacks = [c * w - a * x - b * y for (x, y, w), _, _ in ring]
    if all(s >= 0 for s in slacks):
        return ring
    out = []
    n = len(ring)
    for i in range(n):
        p, point, line = ring[i]
        sp, sq = slacks[i], slacks[(i + 1) % n]
        if sp >= 0:
            out.append(((p, point, h if sp == 0 and sq < 0 else line), sp == 0))
        if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
            out.append(((meet(line, h), None, h if sp > 0 else line), True))
    dedup = []
    for v in out:
        if dedup and _same(dedup[-1], v):
            dedup[-1] = v  # the later copy holds the edge that leaves the point
        else:
            dedup.append(v)
    if len(dedup) > 1 and _same(dedup[0], dedup[-1]):
        dedup.pop()
    return [entry for entry, _ in dedup]


def _start_ring(convex):
    """The clip ring of a convex polygon or of a convex ring of points."""
    if isinstance(convex, ConvexPolygon):
        points, hs = convex.vertices, convex.images
    else:
        points = tuple(pt(p) for p in convex)
        hs = [homogeneous(p) for p in points]
    return [(hs[i], points[i], join(hs[i], hs[(i + 1) % len(hs)])) for i in range(len(hs))]


def _clip_lines(ring, lines):
    """`_clip_ring` folded over integer lines, stopping once the ring is empty."""
    for h in lines:
        if not ring:
            break
        ring = _clip_ring(ring, h)
    return ring


def clip_lines(convex, lines) -> List[Point2]:
    """The points, in ring order, of a convex polygon or convex ring of
    points (a `Segment2` is a ring of two) clipped by the closed half-planes
    A*x + B*y <= C of the integer lines (A, B, C) (exact).

    Vertices stay integer homogeneous while clipping. Input vertices come
    back as they are; each new vertex is one line meet, normalised once.
    """
    ring = _clip_lines(_start_ring(convex), lines)
    return [from_homogeneous(p) if point is None else point for p, point, _ in ring]


def clip_convex(convex, halfplanes) -> ConvexPolygon:
    """Clip a convex polygon or convex ring of points by a sequence of
    half-planes (exact): `clip_lines` on their integer lines, in canonical
    form."""
    return ConvexPolygon(clip_lines(convex, (hp.line() for hp in halfplanes)))


def clip_combinations(convex, groups, r):
    """For each r-combination of the half-plane groups, in
    `itertools.combinations` order, the integer homogeneous vertices
    (X, Y, W) of the convex polygon clipped by the combination's half-planes:
    the ring of `clip_convex(convex, [h for g in combo for h in groups[g]])`,
    before canonical rotation and rational normalisation.

    A stack keeps the rings of the last combination after its first 1, ...,
    r - 1 groups; a combination clips only the groups past the prefix it
    shares with the one before. Each half-plane's line is computed once.
    """
    lines = [[hp.line() for hp in group] for group in groups]
    stack = [_start_ring(convex)]  # stack[i]: clipped by the first i groups of last
    last = ()
    for combo in itertools.combinations(range(len(groups)), r):
        shared = 0
        while shared < len(stack) - 1 and combo[shared] == last[shared]:
            shared += 1
        del stack[shared + 1:]
        ring = stack[-1]
        for i in range(shared, r):
            ring = _clip_lines(ring, lines[combo[i]])
            if i < r - 1:
                stack.append(ring)
        last = combo
        yield tuple(p for p, _, _ in ring)


def convex_intersect(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon:
    """Exact intersection of two convex polygons; q must be full-dimensional,
    p may be degenerate or empty.

    Zero-area touches are kept and reported as degenerate polygons.
    """
    return clip_convex(p, q.halfplanes())

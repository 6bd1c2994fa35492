"""Convex polygon machinery: hulls, clipping and intersections.

Everything is exact over rationals. Degenerate convex sets (points, segments,
zero-area touches) are first-class citizens: clipping and intersection keep
them rather than silently dropping to empty, because downstream code (kernels,
boundary-touch intersections) distinguishes "empty" from "measure zero".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from artgallery.rational import rat
from artgallery.geom.primitives import Point2, cross, on_segment, pt
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

    def area(self):
        if len(self.vertices) < 3:
            return rat(0)
        return ring_signed_area(self.vertices)

    def contains(self, p) -> bool:
        vs = self.vertices
        if not vs:
            return False
        if len(vs) == 1:
            return pt(p) == vs[0]
        if len(vs) == 2:
            return on_segment(pt(p), vs[0], vs[1])
        n = len(vs)
        for i in range(n):
            if cross(vs[i], vs[(i + 1) % n], p) < 0:
                return False
        return True

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

    def half(points_iter):
        chain: List[Point2] = []
        for p in points_iter:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(ps)
    upper = half(reversed(ps))
    ring = lower[:-1] + upper[:-1]
    if len(ring) < 3:
        # All points collinear: keep the two extremes.
        return ConvexPolygon((ps[0], ps[-1]))
    return ConvexPolygon(ring)


def clip_ring(ring, hp: HalfPlane):
    """Sutherland-Hodgman clip of a convex ring by a closed half-plane.

    Keeps zero-area results (rings that collapse to a segment or point).
    """
    if not ring:
        return ()
    a, b, c = hp.a, hp.b, hp.c
    slacks = [c - (a * p[0] + b * p[1]) for p in ring]
    if all(s >= 0 for s in slacks):
        return tuple(ring)
    out: List[Point2] = []
    n = len(ring)
    for i in range(n):
        p, q = ring[i], ring[(i + 1) % n]
        sp, sq = slacks[i], slacks[(i + 1) % n]
        if sp >= 0:
            out.append(p)
        if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
            t = sp / (sp - sq)
            out.append(Point2(p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    dedup: List[Point2] = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return tuple(dedup)


def clip_convex(convex, halfplanes) -> ConvexPolygon:
    """Clip a convex polygon by a sequence of half-planes (exact)."""
    ring = convex.vertices if isinstance(convex, ConvexPolygon) else tuple(pt(p) for p in convex)
    for hp in halfplanes:
        ring = clip_ring(ring, hp)
        if not ring:
            return ConvexPolygon(())
    return ConvexPolygon(ring)


def convex_intersect(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon:
    """Exact intersection of two convex polygons.

    Zero-area touches are kept and reported as degenerate polygons.
    """
    if p.is_empty() or q.is_empty():
        return ConvexPolygon(())
    if len(q.vertices) < 3:
        p, q = q, p
    if len(q.vertices) < 3:
        # Both degenerate: intersect point/segment supports directly.
        from artgallery.geom.primitives import segments_intersect

        pa = p.vertices[0]
        pb = p.vertices[-1]
        qa = q.vertices[0]
        qb = q.vertices[-1]
        hit = segments_intersect(pa, pb, qa, qb)
        if hit is None:
            return ConvexPolygon(())
        if hit[0] == "point":
            return ConvexPolygon((hit[1],))
        return ConvexPolygon((hit[1], hit[2]))
    return clip_convex(p, q.halfplanes())

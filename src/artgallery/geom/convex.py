"""Convex polygon machinery: hulls, clipping, half-plane intersections.

Everything is exact over rationals. Degenerate convex sets (points, segments,
zero-area touches) are first-class citizens: clipping and intersection keep
them rather than silently dropping to empty, because downstream code (kernels,
boundary-touch intersections) distinguishes "empty" from "measure zero".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from artgallery.rational import rat
from artgallery.geom.primitives import (
    Point2,
    angle_less,
    cross,
    on_segment,
    pt,
    same_direction,
)
from artgallery.geom.polygon import SimplePolygon, ring_signed_area


@dataclass(frozen=True)
class HalfPlane:
    """Closed half-plane {(x, y) : a*x + b*y <= c}."""

    a: object
    b: object
    c: object

    @staticmethod
    def of(a, b, c) -> "HalfPlane":
        return HalfPlane(rat(a), rat(b), rat(c))

    @staticmethod
    def left_of_edge(u, v) -> "HalfPlane":
        """Half-plane of points on or to the left of the directed edge u -> v."""
        u, v = pt(u), pt(v)
        a = v[1] - u[1]
        b = u[0] - v[0]
        return HalfPlane(a, b, a * u[0] + b * u[1])

    def contains(self, p) -> bool:
        return self.a * p[0] + self.b * p[1] <= self.c

    def slack(self, p):
        """c - (a*x + b*y); nonnegative inside, zero on the boundary line."""
        return self.c - (self.a * p[0] + self.b * p[1])


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

    @staticmethod
    def from_points(points) -> "ConvexPolygon":
        return convex_hull(points)

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


class HalfPlaneEmpty(Exception):
    """Raised by halfplane_intersect when the intersection is empty."""


class HalfPlaneUnbounded(Exception):
    """Raised by halfplane_intersect when the intersection is unbounded."""


def _recession_nonzero(hps: Sequence[HalfPlane]) -> bool:
    """Exact test: does {x : a_i . x <= c_i} recede in some nonzero direction?

    The recession cone {d : a_i . d <= 0} is polyhedral; if it exceeds {0} it
    contains one of the candidate directions +-perp(a_i) or -a_i.
    """
    if not hps:
        return True
    cands = []
    for hp in hps:
        cands.append((-hp.b, hp.a))
        cands.append((hp.b, -hp.a))
        cands.append((-hp.a, -hp.b))
    for d in cands:
        if d[0] == 0 and d[1] == 0:
            continue
        if all(hp.a * d[0] + hp.b * d[1] <= 0 for hp in hps):
            return True
    return False


def _feasible(hps: Sequence[HalfPlane]) -> bool:
    """Exact feasibility of a 2D linear system by Fourier-Motzkin elimination."""
    # Normalize: a*x + b*y <= c. Eliminate x.
    pos = []  # x <= (c - b*y)/a, a > 0
    neg = []  # x >= (c - b*y)/a, a < 0
    rest = []  # pure-y constraints
    for hp in hps:
        if hp.a > 0:
            pos.append(hp)
        elif hp.a < 0:
            neg.append(hp)
        else:
            rest.append(hp)
    # lo: a1 x + b1 y <= c1, a1 < 0  =>  x >= (c1 - b1 y)/a1
    # hi: a2 x + b2 y <= c2, a2 > 0  =>  x <= (c2 - b2 y)/a2
    # An x exists iff (c1 - b1 y)/a1 <= (c2 - b2 y)/a2; multiplying by
    # a1*a2 < 0 gives (a2 b1 - a1 b2) y <= a2 c1 - a1 c2.
    one_d = [(hp.b, hp.c) for hp in rest]
    for lo in neg:
        for hi in pos:
            one_d.append((hi.a * lo.b - lo.a * hi.b, hi.a * lo.c - lo.a * hi.c))
    lo_y = None
    hi_y = None
    for b, c in one_d:
        if b > 0:
            bound = c / b
            hi_y = bound if hi_y is None or bound < hi_y else hi_y
        elif b < 0:
            bound = c / b
            lo_y = bound if lo_y is None or bound > lo_y else lo_y
        else:
            if c < 0:
                return False
    if lo_y is not None and hi_y is not None and lo_y > hi_y:
        return False
    return True


def halfplane_intersect(halfplanes, seed=None) -> ConvexPolygon:
    """Exact intersection of closed half-planes.

    Raises HalfPlaneEmpty for an empty intersection and HalfPlaneUnbounded for
    an unbounded one. With ``seed`` (a convex ring known to contain the
    bounded intersection), skips the recession analysis and clips directly;
    in that mode the result is the intersection restricted to the seed.
    """
    hps = list(halfplanes)
    if seed is not None:
        ring = seed.vertices if isinstance(seed, ConvexPolygon) else tuple(pt(p) for p in seed)
        out = clip_convex(ring, hps)
        if out.is_empty():
            raise HalfPlaneEmpty()
        return out
    if _recession_nonzero(hps):
        if _feasible(hps):
            raise HalfPlaneUnbounded()
        raise HalfPlaneEmpty()
    # Bounded: the intersection is the convex hull of constraint-line
    # crossings, so a bbox of all pairwise crossings contains it.
    pts = []
    n = len(hps)
    for i in range(n):
        ai, bi, ci = hps[i].a, hps[i].b, hps[i].c
        for j in range(i + 1, n):
            aj, bj, cj = hps[j].a, hps[j].b, hps[j].c
            det = ai * bj - aj * bi
            if det == 0:
                continue
            x = (ci * bj - cj * bi) / det
            y = (ai * cj - aj * ci) / det
            pts.append((x, y))
    if not pts:
        raise HalfPlaneEmpty()
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    one = rat(1)
    box = (
        Point2(min(xs) - one, min(ys) - one),
        Point2(max(xs) + one, min(ys) - one),
        Point2(max(xs) + one, max(ys) + one),
        Point2(min(xs) - one, max(ys) + one),
    )
    out = clip_convex(box, hps)
    if out.is_empty():
        raise HalfPlaneEmpty()
    return out


def support(convex, direction):
    """Exact support value h_C(u) = max_{x in C} <x, u>."""
    ring = convex.vertices if isinstance(convex, ConvexPolygon) else convex
    if not ring:
        raise ValueError("empty set has no support")
    ux, uy = rat(direction[0]), rat(direction[1])
    return max(v[0] * ux + v[1] * uy for v in ring)


def _bottom_start(ring: Sequence[Point2]) -> Tuple[Point2, ...]:
    k = min(range(len(ring)), key=lambda i: (ring[i][1], ring[i][0]))
    return tuple(ring[k:]) + tuple(ring[:k])


def minkowski_sum_convex(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon:
    """Exact Minkowski sum of two convex polygons (edge merge by angle).

    Degenerate operands (points, segments) fall back to the hull of pairwise
    vertex sums, which is exact as well.
    """
    if p.is_empty() or q.is_empty():
        return ConvexPolygon(())
    if len(p.vertices) < 3 or len(q.vertices) < 3:
        return convex_hull(
            [Point2(a[0] + b[0], a[1] + b[1]) for a in p.vertices for b in q.vertices]
        )
    ra = _bottom_start(p.vertices)
    rb = _bottom_start(q.vertices)
    ea = [(ra[(i + 1) % len(ra)][0] - ra[i][0], ra[(i + 1) % len(ra)][1] - ra[i][1]) for i in range(len(ra))]
    eb = [(rb[(i + 1) % len(rb)][0] - rb[i][0], rb[(i + 1) % len(rb)][1] - rb[i][1]) for i in range(len(rb))]
    i = j = 0
    cur = Point2(ra[0][0] + rb[0][0], ra[0][1] + rb[0][1])
    ring = [cur]
    while i < len(ea) or j < len(eb):
        if i < len(ea) and j < len(eb):
            if same_direction(ea[i], eb[j]):
                step = (ea[i][0] + eb[j][0], ea[i][1] + eb[j][1])
                i += 1
                j += 1
            elif angle_less(ea[i], eb[j]):
                step = ea[i]
                i += 1
            else:
                step = eb[j]
                j += 1
        elif i < len(ea):
            step = ea[i]
            i += 1
        else:
            step = eb[j]
            j += 1
        cur = Point2(cur[0] + step[0], cur[1] + step[1])
        ring.append(cur)
    if ring[0] == ring[-1]:
        ring.pop()
    return ConvexPolygon(ring)

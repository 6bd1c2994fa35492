"""Polygons, polygons with holes, and multi-component regions.

Storage conventions:
  * SimplePolygon keeps its vertex ring as given (no implicit reorientation);
    `ccw()` returns a counterclockwise copy.
  * PolygonWithHoles stores the outer ring counterclockwise and every hole
    ring clockwise, so the shoelace sum over all rings is the exact area.
  * Region is a tuple of components, pairwise interior-disjoint; components
    may touch along boundaries and are kept separate.

Membership is closed-set membership: boundary points belong to the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from artgallery.rational import rat
from artgallery.geom.primitives import (
    Point2,
    between,
    det3,
    homogeneous,
    pt,
    segments_intersect,
)


def _ring(points) -> Tuple[Point2, ...]:
    out = tuple(pt(p) for p in points)
    if len(out) >= 2 and out[0] == out[-1]:
        out = out[:-1]
    return out


def ring_signed_area(ring) -> object:
    """Exact shoelace signed area (positive for counterclockwise)."""
    s = rat(0)
    n = len(ring)
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        s += a[0] * b[1] - b[0] * a[1]
    return s / 2


def ring_edges(ring):
    n = len(ring)
    for i in range(n):
        yield ring[i], ring[(i + 1) % n]


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


@dataclass(frozen=True)
class SimplePolygon:
    """Simple polygon given by its vertex ring."""

    vertices: Tuple[Point2, ...]

    def __init__(self, vertices):
        object.__setattr__(self, "vertices", _ring(vertices))

    def signed_area(self):
        return ring_signed_area(self.vertices)

    def area(self):
        a = self.signed_area()
        return a if a >= 0 else -a

    def is_ccw(self) -> bool:
        return self.signed_area() > 0

    def ccw(self) -> "SimplePolygon":
        return self if self.is_ccw() else SimplePolygon(tuple(reversed(self.vertices)))

    def reversed(self) -> "SimplePolygon":
        return SimplePolygon(tuple(reversed(self.vertices)))

    def is_simple(self) -> bool:
        return ring_is_simple(self.vertices)

    def validate(self) -> "SimplePolygon":
        if len(self.vertices) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if not self.is_simple():
            raise ValueError("polygon is not simple")
        if self.signed_area() == 0:
            raise ValueError("polygon has zero area")
        return self

    def edges(self):
        return ring_edges(self.vertices)


@dataclass(frozen=True)
class PolygonWithHoles:
    """Outer ring (stored CCW) minus open holes (stored CW)."""

    outer: SimplePolygon
    holes: Tuple[SimplePolygon, ...] = ()

    def __init__(self, outer, holes=()):
        outer = outer if isinstance(outer, SimplePolygon) else SimplePolygon(outer)
        object.__setattr__(self, "outer", outer.ccw())
        hs = []
        for h in holes:
            h = h if isinstance(h, SimplePolygon) else SimplePolygon(h)
            hs.append(h if not h.is_ccw() else h.reversed())
        object.__setattr__(self, "holes", tuple(hs))

    def area(self):
        return self.outer.area() - sum((h.area() for h in self.holes), rat(0))

    def rings(self):
        yield self.outer.vertices
        for h in self.holes:
            yield h.vertices

    def boundary_edges(self):
        for ring in self.rings():
            yield from ring_edges(ring)

    def validate(self) -> "PolygonWithHoles":
        self.outer.validate()
        for h in self.holes:
            h.validate()
            for v in h.vertices:
                if locate_in_ring(v, self.outer.vertices) != "in":
                    raise ValueError("hole not strictly inside outer ring")
            for a, b in h.edges():
                for c, d in self.outer.edges():
                    if segments_intersect(a, b, c, d) is not None:
                        raise ValueError("hole touches outer boundary")
        for i in range(len(self.holes)):
            for j in range(i + 1, len(self.holes)):
                hi, hj = self.holes[i], self.holes[j]
                for a, b in hi.edges():
                    for c, d in hj.edges():
                        if segments_intersect(a, b, c, d) is not None:
                            raise ValueError("holes intersect")
                if locate_in_ring(hi.vertices[0], hj.vertices) != "out":
                    raise ValueError("nested holes")
                if locate_in_ring(hj.vertices[0], hi.vertices) != "out":
                    raise ValueError("nested holes")
        return self


@dataclass(frozen=True)
class Region:
    """Finite union of polygons with holes, pairwise interior-disjoint."""

    components: Tuple[PolygonWithHoles, ...] = ()

    def __init__(self, components=()):
        comps = []
        for c in components:
            if isinstance(c, PolygonWithHoles):
                comps.append(c)
            elif isinstance(c, SimplePolygon):
                comps.append(PolygonWithHoles(c))
            else:
                comps.append(PolygonWithHoles(SimplePolygon(c)))
        object.__setattr__(self, "components", tuple(comps))

    @staticmethod
    def empty() -> "Region":
        return Region(())

    def is_empty(self) -> bool:
        return not self.components

    def area(self):
        return sum((c.area() for c in self.components), rat(0))

    def boundary_edges(self):
        for c in self.components:
            yield from c.boundary_edges()

    def rings(self):
        for c in self.components:
            yield from c.rings()


def as_region(shape) -> Region:
    """Normalize SimplePolygon | PolygonWithHoles | Region | ring into a Region."""
    if isinstance(shape, Region):
        return shape
    if isinstance(shape, (PolygonWithHoles, SimplePolygon)):
        return Region((shape,))
    if hasattr(shape, "to_polygon"):
        return as_region(shape.to_polygon())
    return Region((shape,))


# ---------------------------------------------------------------------------
# Point location


def locate_in_ring(p, ring) -> str:
    """Exact location of p relative to the closed ring: "in", "on" or "out".

    One orientation per edge decides both tests. p is on an edge when it is
    collinear with it and between its ends. An edge that straddles p's height
    (half-open) crosses the rightward ray from p when p lies to its left going
    up, or to its right going down.
    """
    hp = homogeneous(pt(p))
    _, py, pw = hp
    hs = [homogeneous(v) for v in ring]
    crossings = 0
    for i in range(len(hs)):
        a, b = hs[i - 1], hs[i]
        o = det3(a, b, hp)
        if o == 0 and between(hp, a, b):
            return "on"
        up = b[1] * pw > py * b[2]
        if (a[1] * pw > py * a[2]) != up and (o > 0 if up else o < 0):
            crossings += 1
    return "in" if crossings % 2 == 1 else "out"


def locate_in_polygon(p, poly: PolygonWithHoles) -> str:
    where = locate_in_ring(p, poly.outer.vertices)
    if where != "in":
        return where
    for h in poly.holes:
        inside_hole = locate_in_ring(p, h.vertices)
        if inside_hole == "on":
            return "on"
        if inside_hole == "in":
            return "out"
    return "in"


def locate_in_region(p, region) -> str:
    region = as_region(region)
    best = "out"
    for c in region.components:
        where = locate_in_polygon(p, c)
        if where == "in":
            return "in"
        if where == "on":
            best = "on"
    return best


def point_in_region(p, region) -> bool:
    return locate_in_region(p, region) != "out"


# ---------------------------------------------------------------------------
# Measures and transforms


def region_bbox(region):
    """Exact bounding box ((xmin, ymin), (xmax, ymax))."""
    xs = []
    ys = []
    for ring in as_region(region).rings():
        for v in ring:
            xs.append(v[0])
            ys.append(v[1])
    if not xs:
        raise ValueError("empty region has no bbox")
    return (min(xs), min(ys)), (max(xs), max(ys))


def scale_region(region, s, center=(0, 0)):
    """Scale about ``center`` by exact rational factor ``s``.

    Floats are converted exactly; callers wanting a small-denominator factor
    should rationalize first.
    """
    s = rat(s)
    cx, cy = rat(center[0]), rat(center[1])
    region = as_region(region)

    def tx(p):
        return Point2(cx + s * (p[0] - cx), cy + s * (p[1] - cy))

    comps = []
    for c in region.components:
        outer = SimplePolygon(tuple(tx(v) for v in c.outer.vertices))
        holes = tuple(SimplePolygon(tuple(tx(v) for v in h.vertices)) for h in c.holes)
        comps.append(PolygonWithHoles(outer, holes))
    return Region(comps)

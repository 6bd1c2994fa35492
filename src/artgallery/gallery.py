"""Gallery containers: polygonal, pinched and skeletal (segment) galleries.

A gallery couples the geometry with optional named point classes (guard
colors) and a human-readable name. Classes are stored as ordered name/points
pairs so documents round-trip deterministically.

All three kinds answer one protocol, so callers never ask which kind they
hold:

  * ``contains(p)``: exact closed membership;
  * ``structural_points()``: ``(point, "vertex" | "edge-midpoint")`` pairs,
    every vertex first, then every edge midpoint;
  * ``random_points(rng, count)``: up to ``count`` seeded points of the
    gallery, drawn with 2^-20-grid parameters;
  * ``common_visibility(points, cache=None)``: the exact common visibility
    of finitely many viewpoints: a polygonal gallery returns its 2-D part as
    a ``Region``, a skeletal or pinched one a ``visibility.Cover`` (indices
    of whole pieces, segments, isolated points; a skeletal one has no
    pieces). Every result answers ``is_empty()`` and ``area()``.
    ``cache``, for every kind, maps each viewpoint to its visibility set, so
    that a caller judging many tuples computes each viewpoint's once; a
    :class:`ViewCache` also keeps the last tuple's prefix intersections,
    which every kind reuses for the next tuple;
  * ``common_visibility_is_empty(points, cache=None)``: whether that common
    visibility is empty, which a polygonal gallery decides without building
    the last intersection;
  * ``kernel_status()``: ``(verdict, witness, qualifier)`` for "the kernel
    is nonempty", decided exactly. The witness of "holds" is the kernel; of
    "fails", on a hole-free polygonal gallery, Helly's three edge midpoints,
    which see no common point, else ``None``. A skeletal gallery raises
    :class:`NotAreal`;
  * ``simply_connected``: whether the paper's simply connected precondition
    holds;
  * ``class_points(name)``: the points of one class (KeyError if absent).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Tuple

from artgallery.rational import Q
from artgallery.geom.primitives import (
    Point2,
    Segment2,
    from_homogeneous,
    homogeneous,
    on_segment,
    pt,
)
from artgallery.geom.convex import ConvexPolygon, convex_intersect
from artgallery.geom.polygon import (
    PolygonWithHoles,
    SimplePolygon,
    locate_in_polygon,
    locate_in_polygon_image,
)


class NotAreal(TypeError, ValueError):
    """An areal notion (kernel, area) was asked of a segment gallery."""


def _classes_tuple(classes) -> Tuple[Tuple[str, Tuple[Point2, ...]], ...]:
    if not classes:
        return ()
    items = classes.items() if isinstance(classes, Mapping) else classes
    return tuple((str(name), tuple(pt(p) for p in points)) for name, points in items)


def _midpoint(a, b) -> Point2:
    return Point2((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)


def _grid(x0, y0, x1, y1):
    """The 2^-20 grid of the box [x0, x1] x [y0, y1] in integers: the grid
    point (x0 + rx/2^20 (x1 - x0), y0 + ry/2^20 (y1 - y0)) has the
    homogeneous image (bx + rx*sx, by + ry*sy, w), so a draw is located
    before, or without, building its rational point."""
    (bx, sx, xd), (by, sy, yd) = _grid_axis(x0, x1), _grid_axis(y0, y1)
    return bx * yd, sx * yd, by * xd, sy * xd, xd * yd


def _grid_axis(lo, hi):
    """(base, step, den) with lo + r/2^20 (hi - lo) = (base + r*step) / den."""
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    return ln * hd * 2**20, hn * ld - ln * hd, ld * hd * 2**20


def _grid_draw(rng, grid):
    """Homogeneous image of a seeded point of `grid` (see `_grid`)."""
    bx, sx, by, sy, w = grid
    return bx + rng.randrange(0, 2**20) * sx, by + rng.randrange(0, 2**20) * sy, w


def _bbox(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return min(xs), min(ys), max(xs), max(ys)


class ViewCache(dict):
    """Viewpoint -> visibility set, for a caller that judges many tuples.

    ``prefix`` holds the intersection chain of the last tuple but its last
    viewpoint, for every kind: ``(viewpoint, meet)`` pairs, meet i being that
    of the visibility sets of viewpoints 0..i. Consecutive tuples of
    ``itertools.combinations`` and ``itertools.product`` share leading
    viewpoints, so the next tuple recomputes only past the shared part, and
    the chain never holds more than k - 1 meets for tuples of size k.
    """

    def __init__(self):
        super().__init__()
        self.prefix = []


class GalleryKind:
    """What the three gallery kinds share; see the module docstring."""

    classes: Tuple[Tuple[str, Tuple[Point2, ...]], ...]
    name: str

    def class_points(self, name: str) -> Tuple[Point2, ...]:
        for cname, points in self.classes:
            if cname == name:
                return points
        raise KeyError(name)

    def common_visibility_is_empty(self, points, cache=None) -> bool:
        return self.common_visibility(points, cache).is_empty()


@dataclass(frozen=True)
class Gallery(GalleryKind):
    """Polygonal gallery: a polygon with holes plus named point classes."""

    polygon: PolygonWithHoles
    classes: Tuple[Tuple[str, Tuple[Point2, ...]], ...] = ()
    name: str = ""

    def __init__(self, polygon, classes=(), name=""):
        if isinstance(polygon, SimplePolygon):
            polygon = PolygonWithHoles(polygon)
        elif not isinstance(polygon, PolygonWithHoles):
            polygon = PolygonWithHoles(SimplePolygon(polygon))
        object.__setattr__(self, "polygon", polygon)
        object.__setattr__(self, "classes", _classes_tuple(classes))
        object.__setattr__(self, "name", name)

    def validate(self) -> "Gallery":
        self.polygon.validate()
        return self

    @property
    def simply_connected(self) -> bool:
        return not self.polygon.holes

    def contains(self, p) -> bool:
        return locate_in_polygon(p, self.polygon) != "out"

    def structural_points(self):
        for ring in self.polygon.rings():
            for v in ring:
                yield v, "vertex"
            for i in range(len(ring)):
                yield _midpoint(ring[i], ring[(i + 1) % len(ring)]), "edge-midpoint"

    def random_points(self, rng, count: int):
        out = []
        rings = [[homogeneous(v) for v in ring] for ring in self.polygon.rings()]
        grid = _grid(*_bbox([v for ring in self.polygon.rings() for v in ring]))
        budget = 500 * count
        while len(out) < count and budget > 0:
            budget -= 1
            hp = _grid_draw(rng, grid)
            if locate_in_polygon_image(hp, rings) == "in":
                out.append(from_homogeneous(hp))
        return out

    def common_visibility(self, points, cache=None):
        from artgallery import visibility

        return visibility.common_visibility(self, points, cache)

    def common_visibility_is_empty(self, points, cache=None) -> bool:
        from artgallery import visibility

        return visibility.common_visibility_is_empty(self, points, cache)

    def kernel_status(self):
        # A full-dimensional hole forces an empty kernel: from any viewpoint
        # the ray through a hole-interior point exits the hole at a gallery
        # point whose sight line is blocked by the hole.
        from artgallery import kernel

        if self.polygon.holes:
            return "fails", None, "hole-shadow"
        kern = kernel.kernel_simple(self.polygon)
        if kern.is_empty():
            # a point of an edge sees only into the edge's inner half-plane
            edges = list(self.polygon.outer.edges())
            combo = kernel._helly_violating_edges(self.polygon)
            return "fails", tuple(_midpoint(*edges[i]) for i in combo), None
        return "holds", kern, None


@dataclass(frozen=True)
class SkeletalGallery(GalleryKind):
    """Gallery that is a finite union of closed segments (1-dimensional)."""

    segments: Tuple[Segment2, ...]
    classes: Tuple[Tuple[str, Tuple[Point2, ...]], ...] = ()
    name: str = ""

    # Segment unions contain cycles in general; they are the paper's
    # non-simply-connected counterexample setting.
    simply_connected = False

    def __init__(self, segments, classes=(), name=""):
        segs = []
        for s in segments:
            if isinstance(s, Segment2):
                segs.append(Segment2(pt(s.a), pt(s.b)))
            else:
                a, b = s
                segs.append(Segment2(pt(a), pt(b)))
        object.__setattr__(self, "segments", tuple(segs))
        object.__setattr__(self, "classes", _classes_tuple(classes))
        object.__setattr__(self, "name", name)

    def validate(self) -> "SkeletalGallery":
        for s in self.segments:
            if s.a == s.b:
                raise ValueError("degenerate segment")
        return self

    def contains(self, p) -> bool:
        return any(on_segment(p, s.a, s.b) for s in self.segments)

    def structural_points(self):
        for s in self.segments:
            yield s.a, "vertex"
            yield s.b, "vertex"
        for s in self.segments:
            yield _midpoint(s.a, s.b), "edge-midpoint"

    def random_points(self, rng, count: int):
        out = []
        segs = self.segments
        while len(out) < count:
            s = segs[rng.randrange(len(segs))]
            t = Q(rng.randrange(1, 2**20), 2**20)
            out.append(Point2(s.a[0] + t * (s.b[0] - s.a[0]), s.a[1] + t * (s.b[1] - s.a[1])))
        return out

    def common_visibility(self, points, cache=None):
        from artgallery import visibility

        return visibility.skeletal_common_visibility(self, points, cache)

    def kernel_status(self):
        raise NotAreal("kernel is defined for areal galleries only")


@dataclass(frozen=True)
class PinchedGallery(GalleryKind):
    """Chain of convex pieces glued at single points.

    Covers compact simply connected sets whose boundary is a self-crossing
    polygon (the odd-even interior decomposes into convex cells touching at
    the crossing points). Components must be convex and may share at most one
    point pairwise; the touching graph must be connected.
    """

    components: Tuple[ConvexPolygon, ...]
    classes: Tuple[Tuple[str, Tuple[Point2, ...]], ...] = ()
    name: str = ""

    simply_connected = True

    def __init__(self, components, classes=(), name=""):
        comps = tuple(
            c if isinstance(c, ConvexPolygon) else ConvexPolygon(c) for c in components
        )
        if not comps:
            raise ValueError("need at least one component")
        for c in comps:
            if c.degenerate:
                raise ValueError("components must be full-dimensional")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "classes", _classes_tuple(classes))
        object.__setattr__(self, "name", name)

    def _meets(self):
        """(i, j, point) for every pair of components that touch."""
        n = len(self.components)
        for i in range(n):
            for j in range(i + 1, n):
                meet = convex_intersect(self.components[i], self.components[j])
                if meet.is_empty():
                    continue
                if len(meet.vertices) != 1:
                    raise ValueError("components overlap in more than a point")
                yield i, j, meet.vertices[0]

    @cached_property
    def pinch_points(self) -> Tuple[Point2, ...]:
        """The distinct points where two components touch, computed once."""
        return tuple(dict.fromkeys(p for _, _, p in self._meets()))

    def contains(self, p) -> bool:
        q = pt(p)
        return any(c.contains(q) for c in self.components)

    def component_indices(self, p) -> Tuple[int, ...]:
        q = pt(p)
        return tuple(i for i, c in enumerate(self.components) if c.contains(q))

    def validate(self) -> "PinchedGallery":
        n = len(self.components)
        adjacency = {i: set() for i in range(n)}
        for i, j, _ in self._meets():
            adjacency[i].add(j)
            adjacency[j].add(i)
        reached = {0}
        frontier = [0]
        while frontier:
            for k in adjacency[frontier.pop()]:
                if k not in reached:
                    reached.add(k)
                    frontier.append(k)
        if len(reached) != n:
            raise ValueError("components do not form a connected union")
        for _, points in self.classes:
            for p in points:
                if not self.contains(p):
                    raise ValueError(f"class point {p} outside the gallery")
        return self

    def structural_points(self):
        for comp in self.components:
            for v in comp.vertices:
                yield v, "vertex"
        for comp in self.components:
            for a, b in comp.edges():
                yield _midpoint(a, b), "edge-midpoint"

    def random_points(self, rng, count: int):
        out = []
        grids = [_grid(*_bbox(comp.vertices)) for comp in self.components]
        budget = 200 * count
        while len(out) < count and budget > 0:
            budget -= 1
            k = rng.randrange(len(self.components))
            p = from_homogeneous(_grid_draw(rng, grids[k]))
            if self.components[k].contains(p):
                out.append(p)
        return out

    def common_visibility(self, points, cache=None):
        from artgallery import visibility

        return visibility.pinched_common_visibility(self, points, cache)

    def kernel_status(self):
        if len(self.components) == 1:
            # single convex piece: every point sees everything
            return "holds", self.components[0], None
        # segments into a foreign component pass through one of its pinch
        # points, so an outside viewer covers only finitely many rays of it;
        # hence x sees a whole convex piece iff x belongs to it, and the
        # kernel is the intersection of all components
        for p in self.pinch_points:
            if all(c.contains(p) for c in self.components):
                return "holds", p, "kernel-single-point"
        return "fails", None, None


def as_polygon(gallery) -> PolygonWithHoles:
    """Unwrap Gallery | PolygonWithHoles | SimplePolygon | ring to PolygonWithHoles."""
    if isinstance(gallery, Gallery):
        return gallery.polygon
    if isinstance(gallery, PolygonWithHoles):
        return gallery
    if isinstance(gallery, SimplePolygon):
        return PolygonWithHoles(gallery)
    return PolygonWithHoles(SimplePolygon(gallery))

"""Exact visibility: segment visibility, visibility polygons, common visibility.

Visibility is closed: x sees y iff the closed segment [x, y] stays inside the
closed gallery, so grazing contact with the boundary (sliding along a wall,
passing exactly through a reflex corner) does not block sight.

Skeletal and pinched galleries are finite unions of closed convex pieces
(segments; convex polygons glued at points), and their visibility is decided
by interval cover along lines; see the section that handles them. The rest
of this docstring is about polygonal galleries.

The visibility region of a viewpoint is the closed two-dimensional part of
what it sees, exactly: star-shaped about the viewpoint, and pinched where it
touches itself at a single point (seen exactly past a grazing corner), which
is represented as separate components sharing a vertex. The one-dimensional
pieces seen only along a ray through two collinear reflex corners are not
represented; `common_visibility`, which intersects these regions, never
represented them either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from artgallery.rational import rat
from artgallery.gallery import PinchedGallery, SkeletalGallery, as_polygon
from artgallery.geom.primitives import (
    Point2,
    Segment2,
    line_intersection,
    orient,
    pt,
    same_direction,
    segments_intersect,
    sort_directions,
)
from artgallery.geom.polygon import (
    PolygonWithHoles,
    Region,
    SimplePolygon,
    locate_in_polygon,
    ring_signed_area,
)
from artgallery.geom.boolean import merge_collinear, region_boolean


class NotInGallery(ValueError):
    """A queried point lies outside the gallery."""


# ---------------------------------------------------------------------------
# Segment visibility


def _segment_param(x, y, p):
    """Parameter of p along [x, y] (assumes p collinear with the segment)."""
    dx, dy = y[0] - x[0], y[1] - x[1]
    return ((p[0] - x[0]) * dx + (p[1] - x[1]) * dy) / (dx * dx + dy * dy)


def segment_in_polygon(poly: PolygonWithHoles, x, y) -> bool:
    """Exact: the closed segment [x, y] is contained in the closed polygon.

    Assumes both endpoints are already known to lie in the polygon.
    """
    x, y = pt(x), pt(y)
    if x == y:
        return True
    ts = {rat(0), rat(1)}
    for a, b in poly.boundary_edges():
        hit = segments_intersect(x, y, a, b)
        if hit is None:
            continue
        for p in hit[1:]:
            ts.add(_segment_param(x, y, p))
    cuts = sorted(ts)
    dx, dy = y[0] - x[0], y[1] - x[1]
    for t0, t1 in zip(cuts, cuts[1:]):
        tm = (t0 + t1) / 2
        q = Point2(x[0] + tm * dx, x[1] + tm * dy)
        if locate_in_polygon(q, poly) == "out":
            return False
    return True


def sees(gallery, x, y) -> bool:
    """Exact closed visibility between two gallery points.

    Raises NotInGallery when either endpoint is outside the gallery.
    """
    if isinstance(gallery, SkeletalGallery):
        return skeletal_sees(gallery, x, y)
    if isinstance(gallery, PinchedGallery):
        return pinched_sees(gallery, x, y)
    poly = as_polygon(gallery)
    x, y = pt(x), pt(y)
    if locate_in_polygon(x, poly) == "out":
        raise NotInGallery(f"viewpoint {x} not in gallery")
    if locate_in_polygon(y, poly) == "out":
        raise NotInGallery(f"target {y} not in gallery")
    return segment_in_polygon(poly, x, y)


# ---------------------------------------------------------------------------
# Visibility polygon (angular sweep)


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
        if locate_in_polygon(q, poly) == "out":
            return prev, prev_edge
        prev, prev_edge = t, e
    q = Point2(x[0] + (prev + 1) * u[0], x[1] + (prev + 1) * u[1])
    if locate_in_polygon(q, poly) == "out":
        return prev, prev_edge
    raise RuntimeError("ray escapes a bounded gallery; invalid polygon")


def _ray_line_point(x, u, a, b) -> Point2:
    """Point where ray x + t*u meets line(a, b); endpoint fallback if parallel."""
    hit = line_intersection(x, Point2(x[0] + u[0], x[1] + u[1]), a, b)
    if hit is not None:
        return hit
    for p in (a, b):
        w = (p[0] - x[0], p[1] - x[1])
        if (w[0] or w[1]) and same_direction(w, u):
            return p
    raise RuntimeError("blocking edge collinear with sector ray")


def _split_pinched(ring: List[Point2]) -> List[List[Point2]]:
    """Split a weakly simple ring (repeated pinch vertices) into simple rings."""
    k = min(range(len(ring)), key=lambda i: (ring[i][0], ring[i][1]))
    ring = ring[k:] + ring[:k]
    out: List[List[Point2]] = []
    stack: List[Point2] = []
    pos = {}
    for p in ring:
        if p in pos:
            i = pos[p]
            loop = stack[i:]
            for q in loop[1:]:
                pos.pop(q, None)
            del stack[i + 1 :]
            if len(loop) >= 3:
                out.append(loop)
        else:
            pos[p] = len(stack)
            stack.append(p)
    if len(stack) >= 3:
        out.append(stack)
    return out


def visibility_polygon(gallery, x) -> Region:
    """Exact visibility region of viewpoint x (angular sweep over rationals).

    The result is the closed two-dimensional visibility set, star-shaped
    about x; see the module docstring for pinches and what is left out.
    """
    poly = as_polygon(gallery)
    x = pt(x)
    if locate_in_polygon(x, poly) == "out":
        raise NotInGallery(f"viewpoint {x} not in gallery")
    edges = list(poly.boundary_edges())

    dirs = [(1, 0), (0, 1), (-1, 0), (0, -1)]  # keep every sector under pi/2
    for ring in poly.rings():
        for v in ring:
            if v != x:
                dirs.append((v[0] - x[0], v[1] - x[1]))
    dirs = sort_directions([(rat(a), rat(b)) for a, b in dirs])
    m = len(dirs)

    # Per sector: the visible boundary piece, clipped to the sector rays (x
    # itself for a sector seen to depth 0), appended to the ring.
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
            loop = merge_collinear(loop)
            if len(loop) >= 3 and ring_signed_area(loop) != 0:
                comps.append(PolygonWithHoles(SimplePolygon(tuple(loop))))
    return Region(tuple(comps))


def _views(points, view, cache):
    """Each viewpoint's visibility, in order and lazily: `view(p)` runs only
    for a viewpoint that `cache` (viewpoint -> visibility) does not hold."""
    points = [pt(p) for p in points]
    if not points:
        raise ValueError("need at least one viewpoint")
    cache = {} if cache is None else cache
    for p in points:
        if p not in cache:
            cache[p] = view(p)
        yield cache[p]


def common_visibility(gallery, points, cache=None) -> Region:
    """Exact intersection of the viewpoints' visibility regions.

    Zero-area intersections (shared boundary contacts only) come back empty,
    matching the canonical region form. `cache` maps viewpoints
    to their visibility regions, so that a caller enumerating many tuples
    computes each visibility polygon once.
    """
    acc: Optional[Region] = None
    for vis in _views(points, lambda p: visibility_polygon(gallery, p), cache):
        acc = vis if acc is None else region_boolean("intersect", acc, vis)
        if acc.is_empty():
            break
    return acc


# ---------------------------------------------------------------------------
# Skeletal and pinched galleries: unions of closed convex pieces
#
# A skeletal gallery is a union of segments; a pinched one is a union of
# convex polygons glued at single points. A closed convex piece meets a line
# in a closed interval, so x sees y exactly when the pieces' intervals on the
# line through x and y cover [x, y]. Every visibility set below comes from
# that cover, and each is given as (indices of whole pieces, segments):
#
#   * skeletal: no whole pieces; on each gallery line through x, the covered
#     run that contains x;
#   * pinched: the components that contain x, and beyond them segments along
#     the rays through the pinch points, since any sightline between two
#     components passes through a pinch point.


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


def _covered(pieces, a, b) -> bool:
    """The pieces cover the closed segment [a, b] (the point a if a == b)."""
    return _cover(pieces, a, b) == [(0, 0 if a == b else 1)]


def _at(x, d, t) -> Point2:
    return Point2(x[0] + t * d[0], x[1] + t * d[1])


def _sees(gallery, pieces, x, y) -> bool:
    """Exact closed visibility on a union of convex pieces: they cover [x, y]."""
    x, y = pt(x), pt(y)
    if not gallery.contains(x):
        raise NotInGallery(f"viewpoint {x} not in gallery")
    if not gallery.contains(y):
        raise NotInGallery(f"target {y} not in gallery")
    return _covered(pieces, x, y)


def skeletal_sees(skel: SkeletalGallery, x, y) -> bool:
    """Exact closed visibility on a skeletal gallery."""
    return _sees(skel, skel.segments, x, y)


def pinched_sees(gallery: PinchedGallery, x, y) -> bool:
    """Exact closed visibility on a pinched gallery."""
    return _sees(gallery, gallery.components, x, y)


def _clip(seg: Segment2, pieces, segs: List[Segment2], pts: List[Point2]) -> None:
    """Append the parts of seg inside the pieces: subsegments to segs,
    isolated points to pts, in order along seg."""
    a, b = seg
    d = (b[0] - a[0], b[1] - a[1])
    for lo, hi in _cover(pieces, a, b):
        if lo == hi:
            pts.append(_at(a, d, lo))
        else:
            segs.append(Segment2(*sorted((_at(a, d, lo), _at(a, d, hi)))))


def _fold(views, pieces):
    """Intersect visibility sets given as (indices of whole pieces, segments).

    Returns (whole pieces, segments, isolated points) in canonical form: no
    segment or point lies in a surviving whole piece, and no point lies on a
    surviving segment.
    """
    full, segs = next(views)
    full, segs, pts = set(full), list(segs), []
    for vis_full, vis_segs in views:
        seen = [pieces[i] for i in vis_full] + list(vis_segs)
        whole = [pieces[i] for i in full]
        new_segs: List[Segment2] = []
        new_pts: List[Point2] = []
        for s in segs:
            _clip(s, seen, new_segs, new_pts)
        for s in vis_segs:
            _clip(s, whole, new_segs, new_pts)
        new_pts += [p for p in pts if _covered(seen, p, p)]
        full &= set(vis_full)
        segs, pts = list(dict.fromkeys(new_segs)), list(dict.fromkeys(new_pts))
        if not (full or segs or pts):
            break
    whole = [pieces[i] for i in full]
    segs = [s for s in segs if not _covered(whole, s.a, s.b)]
    pts = [p for p in pts if not _covered(whole + segs, p, p)]
    return tuple(sorted(full)), tuple(segs), tuple(pts)


def skeletal_visibility(skel: SkeletalGallery, x) -> Tuple[Segment2, ...]:
    """Visible set from x: on each gallery line through x, the maximal run of
    its segments that contains x, oriented along the line's first segment."""
    x = pt(x)
    if not skel.contains(x):
        raise NotInGallery(f"viewpoint {x} not in gallery")
    lines = {}  # slope -> (direction, the gallery segments on that line through x)
    for s in skel.segments:
        if orient(s.a, s.b, x) == 0:
            d = (s.b[0] - s.a[0], s.b[1] - s.a[1])
            lines.setdefault(d[1] / d[0] if d[0] else None, (d, []))[1].append(s)
    runs = []
    for d, segs in lines.values():
        for lo, hi in _merge(_trace(s, x, d) for s in segs):
            if lo <= 0 <= hi:
                runs.append(Segment2(_at(x, d, lo), _at(x, d, hi)))
    return tuple(runs)


class SkeletalCommonVisibility(NamedTuple):
    """Common visibility on a skeletal gallery: the isolated common points
    and the common subsegments, which together exhaust it exactly."""

    points: Tuple[Point2, ...]
    segments: Tuple[Segment2, ...]

    def is_empty(self) -> bool:
        return not self.points and not self.segments


def skeletal_common_visibility(skel: SkeletalGallery, points, cache=None) -> SkeletalCommonVisibility:
    """Exact common visibility of viewpoints on a skeletal gallery; `cache`
    maps viewpoints to their visibility sets."""
    views = _views(points, lambda p: ((), skeletal_visibility(skel, p)), cache)
    _, segments, lone = _fold(views, ())
    return SkeletalCommonVisibility(lone, segments)


def pinched_visibility(gallery: PinchedGallery, x):
    """Exact visibility set of x on a pinched gallery: (indices of the whole
    components x sees, segments)."""
    x = pt(x)
    full = gallery.component_indices(x)
    if not full:
        raise NotInGallery(f"viewpoint {x} not in gallery")
    segments: List[Segment2] = []
    for P in gallery.pinch_points:
        if P == x:
            continue
        d = (P[0] - x[0], P[1] - x[1])
        ray = [_trace(comp, x, d, 0) for comp in gallery.components]
        tmax = _merge(iv for iv in ray if iv is not None)[0][1]
        for j, iv in enumerate(ray):
            if j in full or iv is None or iv[0] > tmax:
                continue
            seg = Segment2(*sorted((_at(x, d, iv[0]), _at(x, d, min(iv[1], tmax)))))
            if seg not in segments:
                segments.append(seg)
    return full, tuple(segments)


@dataclass(frozen=True)
class PinchedCommonVisibility:
    """Intersection of pinched visibility sets: components, segments, points."""

    full: Tuple[int, ...]
    segments: Tuple[Segment2, ...]
    points: Tuple[Point2, ...]
    gallery: PinchedGallery

    def is_empty(self) -> bool:
        return not self.full and not self.segments and not self.points

    def area(self):
        return sum((self.gallery.components[i].area() for i in self.full), rat(0))


def pinched_common_visibility(gallery: PinchedGallery, points, cache=None) -> PinchedCommonVisibility:
    """Exact common visibility of viewpoints on a pinched gallery; `cache`
    maps viewpoints to their visibility sets."""
    views = _views(points, lambda p: pinched_visibility(gallery, p), cache)
    return PinchedCommonVisibility(*_fold(views, gallery.components), gallery)

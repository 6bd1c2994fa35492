"""Exact visibility: segment visibility, visibility polygons, common visibility.

Visibility is closed: x sees y iff the closed segment [x, y] stays inside the
closed gallery, so grazing contact with the boundary (sliding along a wall,
passing exactly through a reflex corner) does not block sight.

The visibility region of a viewpoint is star-shaped but can be degenerate in
two ways that both occur in legitimate galleries and are represented exactly:

  * pinch points, where the region touches itself at a single point (seen
    exactly past a grazing corner) -- represented as separate components
    sharing a vertex;
  * antennas, one-dimensional pieces visible only exactly along a ray through
    two collinear reflex corners -- represented as explicit segments alongside
    the two-dimensional region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from artgallery.rational import rat
from artgallery.gallery import PinchedGallery, SkeletalGallery, as_polygon
from artgallery.geom.primitives import (
    Point2,
    Segment2,
    cross,
    line_intersection,
    on_segment,
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
from artgallery.geom.convex import ConvexPolygon
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


@dataclass(frozen=True)
class VisibilityRegion:
    """Exact visibility set of a viewpoint: a region plus antenna segments."""

    viewpoint: Point2
    region: Region
    antennas: Tuple[Segment2, ...] = ()

    def contains(self, p) -> bool:
        p = pt(p)
        from artgallery.geom.polygon import point_in_region

        if point_in_region(p, self.region):
            return True
        return any(on_segment(p, s.a, s.b) for s in self.antennas)

    def area(self):
        return self.region.area()


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


def visibility_polygon(gallery, x) -> VisibilityRegion:
    """Exact visibility region of viewpoint x (angular sweep over rationals).

    The result is closed and star-shaped about x; see the module docstring
    for how pinches and antennas are represented.
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

    # Per sector: the visible boundary piece, clipped to the sector rays.
    contributions: List[Tuple[Point2, Point2]] = []
    for i in range(m):
        ua = dirs[i]
        ub = dirs[(i + 1) % m]
        um = (ua[0] + ub[0], ua[1] + ub[1])
        t, edge = _visible_radius(poly, edges, x, um)
        if t == 0 or edge is None:
            contributions.append((x, x))
            continue
        pa = _ray_line_point(x, ua, edge[0], edge[1])
        pb = _ray_line_point(x, ub, edge[0], edge[1])
        contributions.append((pa, pb))

    # Antenna detection along each event ray: visible strictly beyond what the
    # adjacent sectors cover means a one-dimensional spike.
    antennas: List[Segment2] = []
    for i in range(m):
        u = dirs[i]
        t_vis, _ = _visible_radius(poly, edges, x, u)
        if t_vis == 0:
            continue
        prev_pt = contributions[(i - 1) % m][1]
        next_pt = contributions[i][0]
        cover = rat(0)
        uu = u[0] * u[0] + u[1] * u[1]
        for p in (prev_pt, next_pt):
            w = (p[0] - x[0], p[1] - x[1])
            if w[0] * u[1] - w[1] * u[0] == 0:
                tp = (w[0] * u[0] + w[1] * u[1]) / uu
                if tp > cover:
                    cover = tp
        if t_vis > cover:
            antennas.append(
                Segment2(
                    Point2(x[0] + cover * u[0], x[1] + cover * u[1]),
                    Point2(x[0] + t_vis * u[0], x[1] + t_vis * u[1]),
                )
            )

    ring_pts: List[Point2] = []
    for pa, pb in contributions:
        for p in (pa, pb):
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
    return VisibilityRegion(viewpoint=x, region=Region(tuple(comps)), antennas=tuple(antennas))


def common_visibility(gallery, points, cache=None) -> Region:
    """Exact intersection of the viewpoints' visibility regions.

    Zero-area intersections (shared boundary or antenna contacts only) come
    back empty, matching the canonical region form. `cache` maps viewpoints
    to their visibility regions, so that a caller enumerating many tuples
    computes each visibility polygon once.
    """
    points = [pt(p) for p in points]
    if not points:
        raise ValueError("need at least one viewpoint")
    cache = {} if cache is None else cache
    acc: Optional[Region] = None
    for p in points:
        vis = cache.get(p)
        if vis is None:
            vis = cache[p] = visibility_polygon(gallery, p).region
        acc = vis if acc is None else region_boolean("intersect", acc, vis)
        if acc.is_empty():
            return acc
    return acc


# ---------------------------------------------------------------------------
# Skeletal (segment union) visibility


def _point_on_skeleton(skel: SkeletalGallery, p) -> bool:
    return any(on_segment(p, s.a, s.b) for s in skel.segments)


def skeletal_sees(skel: SkeletalGallery, x, y) -> bool:
    """Exact: [x, y] is covered by gallery segments collinear with it."""
    x, y = pt(x), pt(y)
    if not _point_on_skeleton(skel, x):
        raise NotInGallery(f"viewpoint {x} not on skeleton")
    if not _point_on_skeleton(skel, y):
        raise NotInGallery(f"target {y} not on skeleton")
    if x == y:
        return True
    intervals = []
    for s in skel.segments:
        if cross(x, y, s.a) != 0 or cross(x, y, s.b) != 0:
            continue
        ta = _segment_param(x, y, s.a)
        tb = _segment_param(x, y, s.b)
        if ta > tb:
            ta, tb = tb, ta
        if tb < 0 or ta > 1:
            continue
        intervals.append((max(ta, rat(0)), min(tb, rat(1))))
    if not intervals:
        return False
    intervals.sort()
    reach = rat(0)
    for lo, hi in intervals:
        if lo > reach:
            return False
        reach = max(reach, hi)
        if reach >= 1:
            return True
    return reach >= 1


def skeletal_visibility(skel: SkeletalGallery, x) -> Tuple[Segment2, ...]:
    """Visible set from x as maximal covered subsegments through x.

    The visible set of a skeletal gallery is the union, over gallery lines
    through x, of the maximal covered run containing x (plus x itself).
    """
    x = pt(x)
    if not _point_on_skeleton(skel, x):
        raise NotInGallery(f"viewpoint {x} not on skeleton")
    lines = []  # one representative direction per line through x
    for s in skel.segments:
        if cross(s.a, s.b, x) != 0:
            continue
        d = (s.b[0] - s.a[0], s.b[1] - s.a[1])
        key = None
        for existing in lines:
            if existing[0] * d[1] - existing[1] * d[0] == 0:
                key = existing
                break
        if key is None:
            lines.append(d)
    runs = []
    for d in lines:
        # Collect covered intervals along the line x + t*d.
        dd = d[0] * d[0] + d[1] * d[1]
        ivals = []
        for s in skel.segments:
            if cross(x, Point2(x[0] + d[0], x[1] + d[1]), s.a) != 0:
                continue
            if cross(x, Point2(x[0] + d[0], x[1] + d[1]), s.b) != 0:
                continue
            ta = ((s.a[0] - x[0]) * d[0] + (s.a[1] - x[1]) * d[1]) / dd
            tb = ((s.b[0] - x[0]) * d[0] + (s.b[1] - x[1]) * d[1]) / dd
            if ta > tb:
                ta, tb = tb, ta
            ivals.append((ta, tb))
        ivals.sort()
        # Merge and keep the run containing t = 0.
        merged = []
        for lo, hi in ivals:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        for lo, hi in merged:
            if lo <= 0 <= hi:
                runs.append(
                    Segment2(
                        Point2(x[0] + lo * d[0], x[1] + lo * d[1]),
                        Point2(x[0] + hi * d[0], x[1] + hi * d[1]),
                    )
                )
                break
    return tuple(runs)


class SkeletalCommonVisibility(NamedTuple):
    """Common visibility on a skeletal gallery: the isolated common points
    and the common subsegments, which together exhaust it exactly."""

    points: Tuple[Point2, ...]
    segments: Tuple[Segment2, ...]

    def is_empty(self) -> bool:
        return not self.points and not self.segments


def skeletal_common_visibility(skel: SkeletalGallery, points) -> SkeletalCommonVisibility:
    """Exact common visibility of viewpoints on a skeletal gallery."""
    points = [pt(p) for p in points]
    if not points:
        raise ValueError("need at least one viewpoint")
    run_sets = [skeletal_visibility(skel, p) for p in points]
    # Intersect run unions pairwise: runs are segments, so the intersection
    # stays a finite union of segments and points.
    cur_segs = [(s.a, s.b) for s in run_sets[0]]
    cur_pts: List[Point2] = []
    for runs in run_sets[1:]:
        next_segs = []
        next_pts = []
        for a, b in cur_segs:
            for s in runs:
                hit = segments_intersect(a, b, s.a, s.b)
                if hit is None:
                    continue
                if hit[0] == "overlap":
                    next_segs.append((hit[1], hit[2]))
                else:
                    next_pts.append(hit[1])
        for p in cur_pts:
            if any(on_segment(p, s.a, s.b) for s in runs):
                next_pts.append(p)
        cur_segs = next_segs
        cur_pts = list(dict.fromkeys(next_pts))
        if not cur_segs and not cur_pts:
            break
    # Drop points already covered by segments.
    seg_objs = [Segment2(a, b) for a, b in cur_segs]
    lone = [p for p in cur_pts if not any(on_segment(p, s.a, s.b) for s in seg_objs)]
    return SkeletalCommonVisibility(tuple(dict.fromkeys(lone)), tuple(seg_objs))


# ---------------------------------------------------------------------------
# Pinched galleries (chains of convex pieces glued at single points)
#
# Any sightline crossing between components must pass through a pinch point,
# so visibility beyond the viewpoint's own components is one-dimensional:
# segments along rays through pinch points. That keeps everything exact.


def _convex_param_interval(comp: ConvexPolygon, x: Point2, d, lo, hi):
    """Exact {t in [lo, hi] : x + t*d in comp} for convex comp (None = empty).

    hi may be None for an unbounded ray; the result is clamped by the
    component, which is bounded.
    """
    lo = rat(lo)
    hi = None if hi is None else rat(hi)
    for hp in comp.halfplanes():
        num = hp.c - (hp.a * x[0] + hp.b * x[1])
        den = hp.a * d[0] + hp.b * d[1]
        if den == 0:
            if num < 0:
                return None
        elif den > 0:
            t = num / den
            if hi is None or t < hi:
                hi = t
        else:
            t = num / den
            if t > lo:
                lo = t
        if hi is not None and lo > hi:
            return None
    if hi is None:
        raise ValueError("unbounded component")
    return (lo, hi)


def _merged_prefix(intervals, start):
    """End of the merged closed interval containing `start`."""
    covered = rat(start)
    for lo, hi in sorted(intervals):
        if lo > covered:
            break
        if hi > covered:
            covered = hi
    return covered


def pinched_sees(gallery: PinchedGallery, x, y) -> bool:
    """Exact closed visibility on a pinched gallery via interval cover."""
    x, y = pt(x), pt(y)
    if not gallery.contains(x):
        raise NotInGallery(f"viewpoint {x} not in gallery")
    if not gallery.contains(y):
        raise NotInGallery(f"target {y} not in gallery")
    if x == y:
        return True
    d = (y[0] - x[0], y[1] - x[1])
    intervals = []
    for comp in gallery.components:
        iv = _convex_param_interval(comp, x, d, 0, 1)
        if iv is not None:
            intervals.append(iv)
    return _merged_prefix(intervals, 0) >= 1


@dataclass(frozen=True)
class PinchedVisibility:
    """Visibility set on a pinched gallery: whole components plus segments."""

    viewpoint: Point2
    full: Tuple[int, ...]
    segments: Tuple[Segment2, ...]
    gallery: PinchedGallery

    def contains(self, p) -> bool:
        p = pt(p)
        if any(self.gallery.components[i].contains(p) for i in self.full):
            return True
        return any(on_segment(p, s.a, s.b) for s in self.segments)


def pinched_visibility(gallery: PinchedGallery, x) -> PinchedVisibility:
    """Exact visibility structure of a viewpoint on a pinched gallery."""
    x = pt(x)
    full = gallery.component_indices(x)
    if not full:
        raise NotInGallery(f"viewpoint {x} not in gallery")
    full_set = set(full)
    segments: List[Segment2] = []
    for P in gallery.pinch_points():
        if P == x:
            continue
        d = (P[0] - x[0], P[1] - x[1])
        ray = [
            _convex_param_interval(comp, x, d, 0, None)
            for comp in gallery.components
        ]
        tmax = _merged_prefix([iv for iv in ray if iv is not None], 0)
        for j, iv in enumerate(ray):
            if j in full_set or iv is None:
                continue
            t0, t1 = iv
            if t0 > tmax:
                continue
            t1 = min(t1, tmax)
            a = Point2(x[0] + t0 * d[0], x[1] + t0 * d[1])
            b = Point2(x[0] + t1 * d[0], x[1] + t1 * d[1])
            seg = Segment2(min(a, b), max(a, b))
            if seg not in segments:
                segments.append(seg)
    return PinchedVisibility(x, full, tuple(segments), gallery)


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

    def contains(self, p) -> bool:
        p = pt(p)
        if any(self.gallery.components[i].contains(p) for i in self.full):
            return True
        if any(on_segment(p, s.a, s.b) for s in self.segments):
            return True
        return p in self.points


def _param_along(a: Point2, d, p: Point2):
    if d[0] != 0:
        return (p[0] - a[0]) / d[0]
    return (p[1] - a[1]) / d[1]


def _clip_segment_to_vis(seg: Segment2, vis: PinchedVisibility, gallery: PinchedGallery):
    """Pieces of seg inside vis, as (subsegments, isolated points)."""
    a, b = seg.a, seg.b
    if a == b:
        return ([], [a]) if vis.contains(a) else ([], [])
    d = (b[0] - a[0], b[1] - a[1])
    intervals = []
    for i in vis.full:
        iv = _convex_param_interval(gallery.components[i], a, d, 0, 1)
        if iv is not None:
            intervals.append(iv)
    for vs in vis.segments:
        hit = segments_intersect(a, b, vs.a, vs.b)
        if hit is None:
            continue
        if hit[0] == "overlap":
            t0, t1 = _param_along(a, d, hit[1]), _param_along(a, d, hit[2])
            intervals.append((min(t0, t1), max(t0, t1)))
        else:
            t = _param_along(a, d, hit[1])
            intervals.append((t, t))
    # Merge closed intervals.
    intervals.sort()
    merged = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    segs, pts = [], []
    for lo, hi in merged:
        pa = Point2(a[0] + lo * d[0], a[1] + lo * d[1])
        pb = Point2(a[0] + hi * d[0], a[1] + hi * d[1])
        if pa == pb:
            pts.append(pa)
        else:
            segs.append(Segment2(min(pa, pb), max(pa, pb)))
    return segs, pts


def pinched_common_visibility(gallery: PinchedGallery, points) -> PinchedCommonVisibility:
    """Exact common visibility of finitely many viewpoints."""
    pts_in = [pt(p) for p in points]
    if not pts_in:
        raise ValueError("need at least one viewpoint")
    structures = [pinched_visibility(gallery, p) for p in pts_in]
    acc_full = set(structures[0].full)
    acc_segs = list(structures[0].segments)
    acc_pts: List[Point2] = []
    for vis in structures[1:]:
        new_full = acc_full & set(vis.full)
        new_segs: List[Segment2] = []
        new_pts: List[Point2] = []
        for seg in acc_segs:
            segs, pts = _clip_segment_to_vis(seg, vis, gallery)
            new_segs.extend(segs)
            new_pts.extend(pts)
        # vis segments inside the accumulated full components.
        acc_struct = PinchedVisibility(structures[0].viewpoint, tuple(acc_full), (), gallery)
        for seg in vis.segments:
            segs, pts = _clip_segment_to_vis(seg, acc_struct, gallery)
            new_segs.extend(segs)
            new_pts.extend(pts)
        new_pts.extend(p for p in acc_pts if vis.contains(p))
        acc_full = new_full
        acc_segs = list(dict.fromkeys(new_segs))
        acc_pts = list(dict.fromkeys(new_pts))
    # Canonical form: drop pieces already covered by surviving components.
    def covered_by_full(s: Segment2) -> bool:
        if s.a == s.b:
            return any(gallery.components[i].contains(s.a) for i in acc_full)
        d = (s.b[0] - s.a[0], s.b[1] - s.a[1])
        ivs = []
        for i in acc_full:
            iv = _convex_param_interval(gallery.components[i], s.a, d, 0, 1)
            if iv is not None:
                ivs.append(iv)
        return _merged_prefix(ivs, 0) >= 1

    segs = tuple(s for s in acc_segs if not covered_by_full(s))
    lone = tuple(
        p
        for p in acc_pts
        if not covered_by_full(Segment2(p, p))
        and not any(on_segment(p, s.a, s.b) for s in segs)
    )
    return PinchedCommonVisibility(tuple(sorted(acc_full)), segs, lone, gallery)

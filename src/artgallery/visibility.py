"""Exact visibility: segment visibility, visibility polygons, common visibility.

Visibility is closed: x sees y iff the closed segment [x, y] stays inside the
closed gallery, so grazing contact with the boundary (sliding along a wall,
passing exactly through a reflex corner) does not block sight.

Skeletal and pinched galleries are finite unions of closed convex pieces
(segments; convex polygons glued at points), and their visibility is decided
by the chords the pieces cut on lines; see the section that handles them. The rest
of this docstring is about polygonal galleries.

The visibility region of a viewpoint is the closed two-dimensional part of
what it sees, exactly. It is star-shaped about the viewpoint, and the sweep
builds it as one ring that never repeats a point, so it is one simple
polygon (or empty):

* Every ring point other than the viewpoint x is where the ray along one
  sorted sector direction meets an exit edge's line. The directions are
  distinct, so such a point is emitted only where the two sectors on either
  side of its direction meet, and there the two candidates are adjacent and
  already deduplicated.
* The two points of one sector's piece differ, because the exit edge's line
  misses x.
* x is emitted only by sectors seen to depth 0, whose rays start outside the
  gallery. They form one angular run: rings are simple and do not touch, so
  x has a single exterior wedge. The wrap-around check joins a run that
  crosses the first direction.

The one-dimensional pieces seen only along a ray through two collinear
reflex corners are not represented; `common_visibility`, which intersects
these regions, never represented them either.

The angular sweep runs on integer homogeneous images: each call reads every
gallery vertex once as (X, Y, W) (see :mod:`artgallery.geom.primitives`;
each vertex keeps its own W, no common denominator is taken), with its
offset from the viewpoint and each edge's integer line. Each sector asks only
which edge the ray through its middle leaves by, and that ray passes through
no vertex, so its first crossing answers: one scan of the edges with integer
signs, crossings compared as integer ratios (see `_exit_edge`). A point is
located only for a ray that crosses no edge, and a region vertex is one
integer line meet, normalised once.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple

from artgallery.rational import rat
from artgallery.gallery import PinchedGallery, SkeletalGallery, ViewCache, as_polygon
from artgallery.geom.primitives import (
    Point2,
    Segment2,
    from_homogeneous,
    homogeneous,
    join,
    meet,
    orient,
    pt,
    segments_intersect,
    sort_directions,
)
from artgallery.geom.polygon import (
    PolygonWithHoles,
    Region,
    SimplePolygon,
    locate_in_polygon,
    locate_in_polygon_image,
    ring_signed_area,
)
from artgallery.geom.boolean import merge_collinear, region_boolean, regions_overlap
from artgallery.geom.convex import clip_lines


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


class _View(NamedTuple):
    """A polygon as seen from x, on integer homogeneous images.

    `rings` are the ring images, outer first. `verts` holds each vertex v as
    (Wv, rx, ry): its image's W and its offset from x scaled by Wv*W0 > 0,
    for x's image `hx` = (X0, Y0, W0). `edges` holds each boundary edge, in
    the order of `boundary_edges`, as (i, j, o, line): its vertex indices,
    the cross product of their offsets (the sign of the turn x -> v_i ->
    v_j, positive when x lies strictly left of the edge) and its integer
    line.
    """

    hx: tuple
    rings: list
    verts: list
    edges: list


def _view(poly, x) -> _View:
    rings = [[homogeneous(v) for v in ring] for ring in poly.rings()]
    x0, y0, w0 = hx = homogeneous(x)
    images = [p for ring in rings for p in ring]
    verts = [(w, vx * w0 - x0 * w, vy * w0 - y0 * w) for vx, vy, w in images]
    edges = []
    start = 0
    for ring in rings:
        end = start + len(ring)
        for i in range(start, end):
            j = i + 1 if i + 1 < end else start
            (_, ax, ay), (_, bx, by) = verts[i], verts[j]
            edges.append((i, j, ax * by - ay * bx, join(images[i], images[j])))
        start = end
    return _View(hx, rings, verts, edges)


def _exit_edge(view, u):
    """Index of the edge through which the ray from x along a sector's
    middle u leaves the closed polygon, or None when it leaves at once.

    The ray meets an edge at the point (X0 + tau*ux, Y0 + tau*uy, W0) with
    tau = o/d, d the scaled cross product u x (b - a); the first crossing is
    the least tau > 0, compared as integer ratios. Why that is exact:

    * The middle ray misses every vertex. u is the sum of two consecutive
      sorted directions, which include every vertex direction and the four
      axes, so u lies strictly inside a sector no wider than pi/2 and the
      open ray from x passes through no vertex.
    * Every touch is a proper crossing. Each touch at tau > 0 crosses one
      edge in its interior: no edge lies along the ray, and two edges never
      cross it at the same point, since edges of a valid polygon with holes
      meet only at shared vertices.
    * The first crossing decides. Before it, the ray is on the same side of
      that edge as x, and every ring keeps the interior on its left (outer
      ring CCW, holes CW). If o > 0, x is strictly left of the edge, so the
      ray was inside and leaves through this edge. Otherwise the ray started
      outside, with x on the boundary, and sees nothing. Edges through x
      have o == 0 and never count as crossed.

    Only a ray that crosses no edge locates a point (tau = 1): it must be
    outside, or the gallery is not bounded.
    """
    verts = view.verts
    ux, uy = u
    side = [ux * ry - uy * rx for _, rx, ry in verts]  # u x (v - x), scaled
    best, bn, bd = None, 1, 0  # the least tau = bn/bd so far, infinite at first
    for k, (i, j, o, _) in enumerate(view.edges):
        ca, cb = side[i], side[j]
        if (ca > 0 and cb > 0) or (ca < 0 and cb < 0):
            continue  # both ends strictly on one side of the ray's line
        d = cb * verts[i][0] - ca * verts[j][0]  # u x (b - a), scaled
        n, d = (o, d) if d > 0 else (-o, -d)
        if n > 0 and d > 0 and n * bd < bn * d:
            best, bn, bd = k, n, d
    if best is not None:
        return best if view.edges[best][2] > 0 else None
    x0, y0, w0 = view.hx
    if locate_in_polygon_image((x0 + ux, y0 + uy, w0), view.rings) == "out":
        return None
    raise RuntimeError("ray escapes a bounded gallery; invalid polygon")


def _ray_line_point(view, u, e) -> Point2:
    """Point where the ray from x along u meets the line of edge e.

    For a sector bound u and the sector's exit edge e the meet exists: the
    edge's line misses x (its o is not 0), and the edge crosses the sector,
    an open wedge narrower than pi with no vertex inside, so it meets both
    bounding rays.
    """
    x0, y0, w0 = view.hx
    ray = (-u[1] * w0, u[0] * w0, y0 * u[0] - x0 * u[1])  # A*x + B*y = C through x along u
    p = meet(ray, view.edges[e][3])
    if not p[2]:
        raise RuntimeError("exit edge parallel to a sector ray")
    return from_homogeneous(p)


def visibility_polygon(gallery, x) -> Region:
    """Exact visibility region of viewpoint x (angular sweep).

    The result is the closed two-dimensional visibility set, star-shaped
    about x: one simple ring, started at its least vertex, or no component;
    see the module docstring for why the ring never repeats a point and
    what is left out.
    """
    poly = as_polygon(gallery)
    x = pt(x)
    view = _view(poly, x)
    if locate_in_polygon_image(view.hx, view.rings) == "out":
        raise NotInGallery(f"viewpoint {x} not in gallery")

    dirs = [(1, 0), (0, 1), (-1, 0), (0, -1)]  # keep every sector under pi/2
    dirs += [(rx, ry) for _, rx, ry in view.verts if rx or ry]
    dirs = sort_directions(dirs)
    m = len(dirs)

    # Per sector: the visible boundary piece, clipped to the sector rays (x
    # itself for a sector seen to depth 0), appended to the ring.
    ring_pts: List[Point2] = []
    for i in range(m):
        k = (i + 1) % m
        e = _exit_edge(view, (dirs[i][0] + dirs[k][0], dirs[i][1] + dirs[k][1]))
        if e is None:
            piece = (x,)
        else:
            piece = (_ray_line_point(view, dirs[i], e), _ray_line_point(view, dirs[k], e))
        for p in piece:
            if not ring_pts or ring_pts[-1] != p:
                ring_pts.append(p)
    while len(ring_pts) > 1 and ring_pts[0] == ring_pts[-1]:
        ring_pts.pop()

    if len(ring_pts) < 3:
        return Region(())
    k = ring_pts.index(min(ring_pts))
    ring = merge_collinear(ring_pts[k:] + ring_pts[:k])
    if len(ring) < 3 or ring_signed_area(ring) == 0:
        return Region(())
    return Region((PolygonWithHoles(SimplePolygon(tuple(ring))),))


def _fold(points, cache, view, meet):
    """Fold the viewpoints' sets left to right, for every gallery kind:
    (the meet of every set but the last's, or None for one viewpoint; the
    last set, or None when that meet is empty, past which no viewpoint is
    looked at). `view(p)` is p's set, `meet(a, b)` a new set that leaves a
    and b as they are, and every set answers `is_empty()`.

    `cache` maps viewpoints to their sets, so `view` runs once per viewpoint
    over many tuples. A :class:`ViewCache` also keeps the last tuple's prefix
    meets: a tuple that shares leading viewpoints with it starts from their
    meet. The result does not depend on the cache.
    """
    points = [pt(p) for p in points]
    if not points:
        raise ValueError("need at least one viewpoint")
    cache = {} if cache is None else cache
    chain = cache.prefix if isinstance(cache, ViewCache) else []
    shared = 0
    while shared < min(len(chain), len(points) - 1) and chain[shared][0] == points[shared]:
        shared += 1
    del chain[shared:]
    head = chain[-1][1] if chain else None
    for p in points[shared:]:
        if head is not None and head.is_empty():
            return head, None
        if p not in cache:
            cache[p] = view(p)
        if len(chain) == len(points) - 1:  # p is the last viewpoint
            return head, cache[p]
        head = cache[p] if head is None else meet(head, cache[p])
        chain.append((p, head))


def _intersect(a: Region, b: Region) -> Region:
    return region_boolean("intersect", a, b)


def common_visibility(gallery, points, cache=None) -> Region:
    """Exact intersection of the viewpoints' visibility regions.

    Zero-area intersections (shared boundary contacts only) come back empty,
    matching the canonical region form. `cache` maps viewpoints to their
    visibility regions, and a :class:`ViewCache` also reuses the
    intersections of the last tuple's prefixes; see `_fold`.
    """
    head, last = _fold(points, cache, lambda p: visibility_polygon(gallery, p), _intersect)
    if last is None:
        return head
    return last if head is None else _intersect(head, last)


def common_visibility_is_empty(gallery, points, cache=None) -> bool:
    """Whether `common_visibility(gallery, points, cache)` is empty.

    Reuses the same prefix intersections, and decides the last step with
    `regions_overlap` instead of building the last intersection.
    """
    head, last = _fold(points, cache, lambda p: visibility_polygon(gallery, p), _intersect)
    if last is None:
        return True
    return last.is_empty() if head is None else not regions_overlap(head, last)


# ---------------------------------------------------------------------------
# Skeletal and pinched galleries: unions of closed convex pieces
#
# A skeletal gallery is a union of segments; a pinched one is a union of
# convex polygons glued at single points. A closed convex piece meets a line
# in a closed chord (a segment, a point or nothing), so x sees y exactly when
# the pieces' chords on the line through x and y cover [x, y]. A chord is
# the piece cut by the convex clipper (`clip_lines`) on the integer lines of
# the line's two sides and of up to two end caps across it; chords are
# ordered along the line by p . d, and merged into runs, with no division.
# Every visibility set below comes from those runs, and each is a `Cover`
# (the pieces, indices of whole pieces, segments, isolated points); a
# viewpoint's own set has no isolated points, and a common visibility is
# returned as the `Cover` it folds to:
#
#   * skeletal: no whole pieces; on each gallery line through x, the covered
#     run that contains x;
#   * pinched: the components that contain x, and beyond them segments along
#     the rays through the pinch points, since any sightline between two
#     components passes through a pinch point.
#
# `_fold` folds these sets as it folds polygonal regions, prefix reuse
# included; `_common_cover` cleans only the final meet, since cleaning at
# each step can split segments differently.


def _direction(ha, hb):
    """b - a for homogeneous points a and b, scaled by the positive a_w * b_w."""
    return hb[0] * ha[2] - ha[0] * hb[2], hb[1] * ha[2] - ha[1] * hb[2]


def _chords(pieces, ha, hb, caps):
    """Each piece's closed chord on the line through the homogeneous points
    ha != hb, as (p . d, q . d, p, q) with p before q along d = b - a
    (scaled by a positive integer), or None where the piece misses it.
    `caps` holds up to two homogeneous points: the chord keeps p . d >= c . d
    for the first and p . d <= c . d for the second."""
    dx, dy = _direction(ha, hb)
    lines = [join(ha, hb), join(hb, ha)]
    for sign, (cx, cy, cw) in zip((-1, 1), caps):
        lines.append((sign * dx * cw, sign * dy * cw, sign * (dx * cx + dy * cy)))
    chords = []
    for piece in pieces:
        chord = None
        ps = clip_lines(piece, lines)  # at most two points: the chord's ends
        if ps:
            p, q = ps[0], ps[-1]
            kp, kq = p[0] * dx + p[1] * dy, q[0] * dx + q[1] * dy
            chord = (kp, kq, p, q) if kp <= kq else (kq, kp, q, p)
        chords.append(chord)
    return chords


def _runs(chords):
    """Disjoint closed runs, in order along the line, whose union is that of
    the chords (None entries skipped), in the chords' form."""
    runs = []
    for c in sorted(c for c in chords if c is not None):
        if runs and c[0] <= runs[-1][1]:
            if c[1] > runs[-1][1]:
                runs[-1] = (runs[-1][0], c[1], runs[-1][2], c[3])
        else:
            runs.append(c)
    return runs


def _cover(pieces, a, b):
    """The runs (p, q) of the pieces on the closed segment [a, b], in order
    from a to b; for a == b, the point a as (a, a) if a piece holds it."""
    ha, hb = homogeneous(a), homogeneous(b)
    far = hb if a != b else (ha[0] + ha[2], ha[1], ha[2])  # a + (1, 0) for a point
    return [(p, q) for _, _, p, q in _runs(_chords(pieces, ha, far, (ha, hb)))]


def _covered(pieces, a, b) -> bool:
    """The pieces cover the closed segment [a, b] (the point a if a == b)."""
    return _cover(pieces, a, b) == [(a, b)]


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
    for p, q in _cover(pieces, seg.a, seg.b):
        if p == q:
            pts.append(p)
        else:
            segs.append(Segment2(*sorted((p, q))))


class Cover(NamedTuple):
    """A visibility set on the union of `pieces`: indices of whole pieces,
    segments and isolated points. A skeletal set has no pieces."""

    pieces: tuple
    full: Tuple[int, ...]
    segments: Tuple[Segment2, ...]
    points: Tuple[Point2, ...] = ()

    def is_empty(self) -> bool:
        return not (self.full or self.segments or self.points)

    def area(self):
        """Exact area: that of the whole pieces."""
        return sum((self.pieces[i].area() for i in self.full), rat(0))

    def meet(self, vis: "Cover") -> "Cover":
        """The meet with a viewpoint's set, as a new set, not cleaned."""
        seen = [self.pieces[i] for i in vis.full] + list(vis.segments)
        whole = [self.pieces[i] for i in self.full]
        segs: List[Segment2] = []
        pts: List[Point2] = []
        for s in self.segments:
            _clip(s, seen, segs, pts)
        for s in vis.segments:
            _clip(s, whole, segs, pts)
        pts += [p for p in self.points if _covered(seen, p, p)]
        full = tuple(i for i in self.full if i in vis.full)
        return Cover(self.pieces, full, tuple(dict.fromkeys(segs)), tuple(dict.fromkeys(pts)))


def _common_cover(points, cache, view) -> Cover:
    """The `Cover` common to the viewpoints, `view(p)` being p's, in
    canonical form: no segment or point lies in a surviving whole piece, and
    no point on a surviving segment."""
    head, last = _fold(points, cache, view, Cover.meet)
    common = last if head is None else head if last is None else head.meet(last)
    whole = [common.pieces[i] for i in common.full]
    segs = [s for s in common.segments if not _covered(whole, s.a, s.b)]
    pts = [p for p in common.points if not _covered(whole + segs, p, p)]
    return Cover(common.pieces, tuple(sorted(common.full)), tuple(segs), tuple(pts))


def skeletal_visibility(skel: SkeletalGallery, x) -> Tuple[Segment2, ...]:
    """Visible set from x: on each gallery line through x, the maximal run of
    its segments that contains x, oriented along the line's first segment."""
    x = pt(x)
    if not skel.contains(x):
        raise NotInGallery(f"viewpoint {x} not in gallery")
    # a line through x is fixed by its direction: key it by the primitive
    # integer direction, up to sign -> (the first segment's images and
    # direction, the gallery segments on the line)
    lines = {}
    for s in skel.segments:
        if orient(s.a, s.b, x) == 0:
            ha, hb = homogeneous(s.a), homogeneous(s.b)
            dx, dy = _direction(ha, hb)
            g = math.gcd(dx, dy) if dx > 0 else -math.gcd(dx, dy)
            key = (dx // g, dy // g) if dx else None
            lines.setdefault(key, (ha, hb, dx, dy, []))[4].append(s)
    runs = []
    for ha, hb, dx, dy, segs in lines.values():
        for lo, hi, p, q in _runs(_chords(segs, ha, hb, ())):
            if lo <= x[0] * dx + x[1] * dy <= hi:
                runs.append(Segment2(p, q))
    return tuple(runs)


def skeletal_common_visibility(skel: SkeletalGallery, points, cache=None) -> Cover:
    """Exact common visibility of viewpoints on a skeletal gallery, as a
    `Cover` with no pieces; `cache` maps viewpoints to their visibility sets."""
    return _common_cover(points, cache, lambda p: Cover((), (), skeletal_visibility(skel, p)))


def pinched_visibility(gallery: PinchedGallery, x):
    """Exact visibility set of x on a pinched gallery: (indices of the whole
    components x sees, segments)."""
    x = pt(x)
    full = gallery.component_indices(x)
    if not full:
        raise NotInGallery(f"viewpoint {x} not in gallery")
    hx = homogeneous(x)
    segments: List[Segment2] = []
    for P in gallery.pinch_points:
        if P == x:
            continue
        ray = _chords(gallery.components, hx, homogeneous(P), (hx,))
        _, tmax, _, end = _runs(ray)[0]
        for j, chord in enumerate(ray):
            if j in full or chord is None or chord[0] > tmax:
                continue
            _, hi, p, q = chord
            seg = Segment2(*sorted((p, q if hi <= tmax else end)))
            if seg not in segments:
                segments.append(seg)
    return full, tuple(segments)


def pinched_common_visibility(gallery: PinchedGallery, points, cache=None) -> Cover:
    """Exact common visibility of viewpoints on a pinched gallery, a `Cover`
    of its components; `cache` maps viewpoints to their visibility sets."""

    def view(p):
        return Cover(gallery.components, *pinched_visibility(gallery, p))

    return _common_cover(points, cache, view)

"""Exact, snap-free boolean operations on polygonal regions.

The implementation builds the overlay arrangement of both boundaries:

  1. split every boundary segment at every intersection with every other
     boundary segment (crossing points and collinear-overlap endpoints),
  2. deduplicate identical subsegments,
  3. classify both sides of each subsegment by the edges that cover it.
     Rings keep their interior on the left (outer CCW, holes CW), so an
     operand's edge along the subsegment puts that operand on its left side
     and one against it on its right side. An operand with no edge there
     misses the open subsegment (step 1 cut every contact), so one exact
     location of the midpoint decides both of its sides,
  4. keep edges whose sides disagree under the requested operation, oriented
     with the result interior on the left,
  5. link darts into rings (sharpest-left-turn rule) and nest rings into
     components by exact containment depth.

The canonical result drops nothing but exact-zero-area slivers; components
that touch only along boundaries stay separate components.

`regions_overlap` asks only whether the intersection has positive area, and
answers at the first witness without tracing a ring. Its cheap witness is a
shared wall: an edge of each operand on one line, running the same way and
overlapping in positive length. Both rings keep their interior on the left,
so both operands contain a half-disc on the left of any inner point of the
shared piece, and the intersection has area. Visibility regions of one
gallery share wall edges, so this settles almost every overlapping pair.
Otherwise the overlay above runs up to step 3 and stops at the first
subsegment with a side inside both operands; there is one exactly when the
intersection has area, since a region with area has a boundary subsegment.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Tuple

from artgallery.geom.primitives import Point2, det3, homogeneous, join, orient, segments_intersect
from artgallery.geom.polygon import (
    PolygonWithHoles,
    Region,
    SimplePolygon,
    as_region,
    locate_in_region,
    locate_in_ring,
    ring_edges,
    ring_signed_area,
)

_OPS = ("union", "intersect", "difference")


def _combine(op: str, in1: bool, in2: bool) -> bool:
    if op == "union":
        return in1 or in2
    if op == "intersect":
        return in1 and in2
    return in1 and not in2


_FWD, _REV = 1, 2  # cover bits: an operand edge runs along / against a key


def _split_all(edges):
    """Split segments at all pairwise intersections; return deduped subsegments.

    ``edges`` holds ``(a, b, k)`` with k the operand index. The result maps
    each subsegment key ``(u, v)``, u < v, in first-seen order, to one cover
    mask per operand: _FWD if an edge of k runs u -> v over it, _REV if one
    runs v -> u (both where two components of k touch along it). Edges are
    swept by left box side; pairs with disjoint closed boxes are skipped.
    """
    boxes = [
        (min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1]))
        for a, b, _ in edges
    ]
    order = sorted(range(len(edges)), key=lambda i: boxes[i][0])
    cuts: List[List[Point2]] = [[] for _ in edges]
    for pos, i in enumerate(order):
        a, b, _ = edges[i]
        _, xhi, ylo, yhi = boxes[i]
        for j in order[pos + 1 :]:
            xlo_j, _, ylo_j, yhi_j = boxes[j]
            if xlo_j > xhi:
                break
            if ylo_j > yhi or yhi_j < ylo:
                continue
            c, d, _ = edges[j]
            other = d if c in (a, b) else c if d in (a, b) else None
            if other is not None and orient(a, b, other) != 0:
                continue  # not collinear: they meet only at the shared endpoint
            hit = segments_intersect(a, b, c, d)
            if hit is None:
                continue
            pts = hit[1:] if hit[0] == "overlap" else (hit[1],)
            cuts[i].extend(pts)
            cuts[j].extend(pts)
    out: Dict[Tuple[Point2, Point2], List[int]] = {}
    for (a, b, k), extra in zip(edges, cuts):
        dx, dy = b[0] - a[0], b[1] - a[1]
        if dx == 0 and dy == 0:
            continue

        def param(p):
            return (p[0] - a[0]) * dx + (p[1] - a[1]) * dy

        pts = sorted({a, b, *extra}, key=param)
        for u, v in zip(pts, pts[1:]):
            key, bit = ((u, v), _FWD) if u <= v else ((v, u), _REV)
            out.setdefault(key, [0, 0])[k] |= bit
    return out


def _sides_in(region, cover, a, b):
    """Whether the left and the right side of subsegment a -> b lie in region."""
    if cover:
        return bool(cover & _FWD), bool(cover & _REV)
    where = locate_in_region(Point2((a[0] + b[0]) / 2, (a[1] + b[1]) / 2), region)
    if where == "on":
        raise RuntimeError("overlay invariant broken: uncovered subsegment meets a boundary")
    return where == "in", where == "in"


def _trace_rings(darts):
    """Link interior-on-left darts into closed rings (sharpest left turn)."""
    outgoing: Dict[Point2, List[Tuple[Point2, Point2]]] = {}
    for d in darts:
        outgoing.setdefault(d[0], []).append(d)

    # Exact comparator for CCW angle measured from a reference direction:
    # sector 0 = aligned with ref, 1 = (0, pi), 2 = exactly pi, 3 = (pi, 2pi).
    def ccw_pos_cmp(ref, u, v):
        def sector(w):
            c = ref[0] * w[1] - ref[1] * w[0]
            d = ref[0] * w[0] + ref[1] * w[1]
            if c == 0:
                return 0 if d > 0 else 2
            return 1 if c > 0 else 3

        su, sv = sector(u), sector(v)
        if su != sv:
            return -1 if su < sv else 1
        c = u[0] * v[1] - u[1] * v[0]
        if c > 0:
            return -1
        if c < 0:
            return 1
        return 0

    unused = set(darts)
    rings = []
    while unused:
        start = next(iter(unused))
        ring = []
        cur = start
        while True:
            unused.discard(cur)
            ring.append(cur[0])
            v = cur[1]
            rev = (cur[0][0] - v[0], cur[0][1] - v[1])
            cands = outgoing.get(v, ())
            best = None
            for w in cands:
                wd = (w[1][0] - v[0], w[1][1] - v[1])
                if best is None or ccw_pos_cmp(rev, wd, best[1]) > 0:
                    best = (w, wd)
            if best is None:
                raise RuntimeError("boundary tracing failed: open ring")
            cur = best[0]
            if cur == start:
                break
            if cur not in unused:
                raise RuntimeError("boundary tracing failed: dart reused")
        rings.append(ring)
    return rings


def merge_collinear(ring):
    """The ring without vertices that lie on the line through their neighbours.

    Vertices go one at a time, always the first collinear one left. Deleting
    vertex i changes only the triples of its two neighbours, so the scan
    resumes at the earlier one (at 0 when i was the first or the last).
    """
    out = list(ring)
    hs = [homogeneous(p) for p in out]
    i = 0
    while len(out) > 2 and i < len(out):
        n = len(out)
        if det3(hs[i - 1], hs[i], hs[(i + 1) % n]) == 0:
            del out[i], hs[i]
            i = 0 if i == n - 1 else max(i - 1, 0)
        else:
            i += 1
    return out


def _ring_rep_point(ring, all_rings):
    """Interior representative of a ring, off every ring's boundary (exact)."""
    ys = sorted({v[1] for r in all_rings for v in r})
    own_ys = {v[1] for v in ring}
    ymin, ymax = min(own_ys), max(own_ys)
    for k in range(len(ys) - 1):
        if ys[k + 1] <= ymin or ys[k] >= ymax:
            continue
        ystar = (ys[k] + ys[k + 1]) / 2
        own = []
        for a, b in ring_edges(ring):
            if (a[1] > ystar) != (b[1] > ystar):
                own.append(a[0] + (ystar - a[1]) * (b[0] - a[0]) / (b[1] - a[1]))
        if len(own) < 2:
            continue
        own.sort()
        lo, hi = own[0], own[1]
        mids = [lo, hi]
        for r in all_rings:
            for a, b in ring_edges(r):
                if (a[1] > ystar) != (b[1] > ystar):
                    x = a[0] + (ystar - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
                    if lo < x < hi:
                        mids.append(x)
        mids.sort()
        return Point2((mids[0] + mids[1]) / 2, ystar)
    raise RuntimeError("no representative point for ring")


def region_boolean(op: str, r1, r2) -> Region:
    """Exact boolean of two regions: "union", "intersect" or "difference".

    Output is canonical: outer rings CCW, holes CW, collinear runs merged,
    exact-zero-area slivers dropped, boundary-touching components separate.
    """
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}")
    r1, r2 = as_region(r1), as_region(r2)
    if r1.is_empty() and r2.is_empty():
        return Region.empty()
    if r1.is_empty():
        return _canonical(r2) if op == "union" else Region.empty()
    if r2.is_empty():
        return Region.empty() if op == "intersect" else _canonical(r1)

    edges = [(a, b, k) for k, r in enumerate((r1, r2)) for a, b in r.boundary_edges()]
    darts = []
    for (a, b), (c1, c2) in _split_all(edges).items():
        in1, in2 = _sides_in(r1, c1, a, b), _sides_in(r2, c2, a, b)
        left, right = (_combine(op, in1[s], in2[s]) for s in (0, 1))
        if left and not right:
            darts.append((a, b))
        elif right and not left:
            darts.append((b, a))
    return _region_from_darts(darts)


def regions_overlap(r1, r2) -> bool:
    """Exact: the intersection of r1 and r2 has positive area.

    Equals ``not region_boolean("intersect", r1, r2).is_empty()`` and stops
    at the first witness: a shared wall, else the first overlay subsegment
    with a side inside both operands (see the module docstring).
    """
    r1, r2 = as_region(r1), as_region(r2)
    if r1.is_empty() or r2.is_empty():
        return False
    return _shared_wall(r1, r2) or _overlay_overlaps(r1, r2)


def _overlay_overlaps(r1, r2) -> bool:
    """Some overlay subsegment has a side inside both operands."""
    edges = [(a, b, k) for k, r in enumerate((r1, r2)) for a, b in r.boundary_edges()]
    for (a, b), (c1, c2) in _split_all(edges).items():
        in1 = _sides_in(r1, c1, a, b)
        if not (in1[0] or in1[1]):
            continue
        in2 = _sides_in(r2, c2, a, b)
        if (in1[0] and in2[0]) or (in1[1] and in2[1]):
            return True
    return False


def _shared_wall(r1, r2) -> bool:
    """Some edge of r1 and some edge of r2 run the same way along one line
    and overlap in positive length."""
    spans: Dict[Tuple[int, int, int], List[Tuple[object, object]]] = {}
    for a, b in r1.boundary_edges():
        line, lo, hi = _oriented_span(a, b)
        spans.setdefault(line, []).append((lo, hi))
    for a, b in r2.boundary_edges():
        line, lo, hi = _oriented_span(a, b)
        for lo1, hi1 in spans.get(line, ()):
            if max(lo, lo1) < min(hi, hi1):
                return True
    return False


def _oriented_span(a, b):
    """The oriented line of edge a -> b as a primitive integer triple, and the
    edge's parameter interval along the line's direction.

    ``join`` gives (A, B, C) with (A, B) a positive multiple of the left
    normal of b - a, so dividing by the positive gcd leaves one key per
    oriented line; (B, -A) points from a to b, so lo < hi.
    """
    A, B, C = join(homogeneous(a), homogeneous(b))
    g = gcd(A, B, C)
    A, B, C = A // g, B // g, C // g
    return (A, B, C), B * a[0] - A * a[1], B * b[0] - A * b[1]


def _region_from_darts(darts) -> Region:
    """Trace interior-on-left darts into rings and nest them into a Region."""
    if not darts:
        return Region.empty()

    rings = [merge_collinear(r) for r in _trace_rings(darts)]
    rings = [r for r in rings if len(r) >= 3 and ring_signed_area(r) != 0]
    if not rings:
        return Region.empty()

    reps = [_ring_rep_point(r, rings) for r in rings]
    n = len(rings)
    contains = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                contains[i][j] = locate_in_ring(reps[j], rings[i]) == "in"
    depth = [sum(1 for i in range(n) if contains[i][j]) for j in range(n)]

    comps = []
    for j in range(n):
        if depth[j] % 2 == 0:
            if ring_signed_area(rings[j]) < 0:
                raise RuntimeError("outer ring traced clockwise")
            holes = []
            for h in range(n):
                if depth[h] == depth[j] + 1 and contains[j][h]:
                    # immediate parent check: no deeper ring between them
                    if all(
                        not (contains[k][h] and contains[j][k])
                        for k in range(n)
                        if k not in (j, h)
                    ):
                        holes.append(SimplePolygon(tuple(rings[h])))
            comps.append(PolygonWithHoles(SimplePolygon(tuple(rings[j])), tuple(holes)))
    comps.sort(key=lambda c: tuple(c.outer.vertices[0]))
    return Region(tuple(comps))


def _canonical(region: Region) -> Region:
    comps = []
    for c in region.components:
        outer = SimplePolygon(tuple(merge_collinear(list(c.outer.vertices))))
        holes = tuple(
            SimplePolygon(tuple(merge_collinear(list(h.vertices)))) for h in c.holes
        )
        if outer.area() == 0:
            continue
        comps.append(PolygonWithHoles(outer, tuple(h for h in holes if h.area() != 0)))
    comps.sort(key=lambda c: tuple(c.outer.vertices[0]))
    return Region(tuple(comps))

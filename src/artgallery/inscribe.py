"""Inscribed witnesses: boxes, discs, ellipses, and long segments.

This is the numeric layer and the home of every witness certificate. Each
search takes its path from the shape's type: the exact convex path for a
`ConvexPolygon`, a certified search for a `Region`. Searches run in binary64
(and are deterministic); every witness that feeds back into exact reasoning
is recertified:

  * box witnesses of the convex scans are constructed from exact erosions,
    so their containment is exact by construction; `contains_box` checks a
    box's corners in a convex polygon and an exact region difference in a
    region;
  * disc and ellipse witnesses are certified exactly, one inequality per
    edge (`contains_disc`, `ellipse_contained`): the centre's slack against
    the edge covers the body's reach toward it;
  * segment witnesses are recertified by exact segment containment.

A None from a search means the search resolution was exhausted, never a
proof of nonexistence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import List, Optional, Tuple

import numpy as np

from artgallery.rational import rat, rationalize
from artgallery.geom.primitives import Point2
from artgallery.geom.polygon import Region, locate_in_polygon, locate_in_region, point_in_region, region_bbox
from artgallery.geom.convex import ConvexPolygon, HalfPlane, clip_convex, convex_hull
from artgallery.geom.boolean import region_boolean
from artgallery.visibility import segment_in_polygon

BOX_SCAN_SAMPLES = 512  # widths per convex box scan
BOX_GRID_ANCHORS = 24  # region box search: anchor steps per axis
BOX_GRID_ASPECTS = 24  # region box search: widths tried
DISC_GRID = 8  # region disc search: centre steps per axis
MVIE_TOL = 1e-8  # barrier continuation stops below this duality gap
MVIE_MAX_ITER = 400

# ---------------------------------------------------------------------------
# Witness types


@dataclass(frozen=True)
class Box2:
    """Axis-parallel box with exact rational anchor (min corner) and sides."""

    x: object
    y: object
    w: object
    h: object

    def corners(self) -> Tuple[Point2, ...]:
        x, y, w, h = self.x, self.y, self.w, self.h
        return (
            Point2(x, y),
            Point2(x + w, y),
            Point2(x + w, y + h),
            Point2(x, y + h),
        )

    def area(self):
        return self.w * self.h


@dataclass(frozen=True)
class Disc:
    cx: float
    cy: float
    r: float


@dataclass(frozen=True)
class Ellipse:
    """Image of the unit disc: {center + A u : |u| <= 1}, A symmetric PD."""

    center: Tuple[float, float]
    a11: float
    a12: float
    a22: float

    def area(self) -> float:
        return math.pi * (self.a11 * self.a22 - self.a12 * self.a12)


@dataclass(frozen=True)
class SegmentWitness:
    a: Point2
    b: Point2
    value: object
    certified: bool = True


@dataclass(frozen=True)
class PolytopeNormBall:
    """Unit ball of a Minkowski norm: a convex polygon with 0 in its interior."""

    polygon: ConvexPolygon

    def __init__(self, polygon):
        if not isinstance(polygon, ConvexPolygon):
            polygon = convex_hull(polygon)
        if polygon.degenerate:
            raise ValueError("norm ball must be full-dimensional")
        object.__setattr__(self, "polygon", polygon)
        for hp in polygon.halfplanes():
            if hp.c <= 0:
                raise ValueError("norm ball must contain the origin strictly")

    def norm(self, v):
        """Exact Minkowski functional of a rational vector."""
        vx, vy = rat(v[0]), rat(v[1])
        best = rat(0)
        for hp in self.polygon.halfplanes():
            val = (hp.a * vx + hp.b * vy) / hp.c
            if val > best:
                best = val
        return best


# ---------------------------------------------------------------------------
# Exact erosion and box search


def _region_contains(region: Region, ring) -> bool:
    """Exact containment of the polygon `ring` in region: the difference is
    empty."""
    return region_boolean("difference", Region((ring,)), region).is_empty()


def erode_convex_by_box(c: ConvexPolygon, w, h) -> ConvexPolygon:
    """Exact placement region for the min-corner of a w x h axis box in C.

    The box [x, x+w] x [y, y+h] lies in C iff (x, y) lies in every edge
    half-plane offset by the box's support in the edge normal.
    """
    w, h = rat(w), rat(h)
    if w < 0 or h < 0:
        raise ValueError("box sides must be nonnegative")
    offset = []
    for hp in c.halfplanes():
        shift = (hp.a * w if hp.a > 0 else 0) + (hp.b * h if hp.b > 0 else 0)
        offset.append(HalfPlane(hp.a, hp.b, hp.c - shift))
    (x0, y0), (x1, y1) = region_bbox(Region((c.to_polygon(),)))
    seed = (Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1))
    return clip_convex(seed, offset)


def _convex_box_scan(c: ConvexPolygon, widths, side_for_width) -> Optional[Box2]:
    """First box that fits over the width scan, else at the midpoint of
    each pair of consecutive scan widths; the box's min corner is the
    smallest vertex of the exact erosion."""

    def fit(w):
        h = side_for_width(w)
        if h <= 0:
            return None
        eroded = erode_convex_by_box(c, w, h)
        if eroded.is_empty():
            return None
        anchor = min(eroded.vertices)
        return Box2(anchor[0], anchor[1], w, h)

    ws = []
    for w in widths:
        ws.append(w)
        box = fit(w)
        if box is not None:
            return box
    for lo, hi in zip(ws, ws[1:]):
        box = fit((lo + hi) / 2)
        if box is not None:
            return box
    return None


def contains_box_of_area(shape, target_area) -> Optional[Box2]:
    """Search for an axis-parallel box of exactly the target area inside shape.

    Convex path: log-spaced width scan (512 samples) over the feasible width
    range, then the midpoint of each pair of consecutive widths. The witness
    box has exact rational sides with w*h == target_area. Region path: a
    certified grid placement search. Returns None when the search finds
    nothing; that is a resolution statement, not a nonexistence proof.
    """
    a = rat(target_area)
    if a <= 0:
        raise ValueError("target area must be positive")
    if not isinstance(shape, ConvexPolygon):
        return _nonconvex_box_search(shape, lambda w: a / w, math.inf)
    (x0, y0), (x1, y1) = region_bbox(Region((shape.to_polygon(),)))
    W, H = x1 - x0, y1 - y0
    if W <= 0 or H <= 0 or a > W * H:
        return None
    w_lo, w_hi = float(a / H), float(W)
    if w_lo > w_hi:
        return None

    def widths():
        if w_lo == w_hi:
            yield rationalize(w_lo)
            return
        ratio = w_hi / w_lo
        for k in range(BOX_SCAN_SAMPLES):
            w = w_lo * ratio ** (k / (BOX_SCAN_SAMPLES - 1))
            w = min(max(w, w_lo), w_hi)
            wr = rationalize(w)
            if wr <= 0:
                continue
            yield min(max(wr, a / H), W)

    return _convex_box_scan(shape, widths(), lambda w: a / w)


def contains_box_of_axis_sum(shape, axis_sum) -> Optional[Box2]:
    """Search for an axis box with w + h == axis_sum inside shape (exact
    sides): a linear width scan on a convex polygon, the certified grid
    placement search on a region."""
    s = rat(axis_sum)
    if s <= 0:
        raise ValueError("axis sum must be positive")
    if not isinstance(shape, ConvexPolygon):
        return _nonconvex_box_search(shape, lambda w: s - w, s)
    (x0, y0), (x1, y1) = region_bbox(Region((shape.to_polygon(),)))
    W, H = x1 - x0, y1 - y0
    w_lo = s - H if s - H > 0 else rat(1, 10**6) * s
    w_hi = W if W < s else s - rat(1, 10**6) * s
    if w_lo > w_hi:
        return None

    def widths():
        lo, hi = float(w_lo), float(w_hi)
        for k in range(BOX_SCAN_SAMPLES):
            w = lo + (hi - lo) * (k / (BOX_SCAN_SAMPLES - 1))
            wr = rationalize(w)
            yield min(max(wr, w_lo), w_hi)

    return _convex_box_scan(shape, widths(), lambda w: s - w)


def _nonconvex_box_search(region: Region, side_for_width, max_width) -> Optional[Box2]:
    """Grid placement search with exact certification (slow; small grids);
    widths are fractions of the bounding-box width or of the smaller
    `max_width`, past which no height is positive."""
    (x0, y0), (x1, y1) = region_bbox(region)
    W, H = x1 - x0, y1 - y0
    for k in range(1, BOX_GRID_ASPECTS + 1):
        w = min(W, max_width) * rat(k, BOX_GRID_ASPECTS + 1)
        h = side_for_width(w)
        if h <= 0 or h > H:
            continue
        for i in range(BOX_GRID_ANCHORS + 1):
            for j in range(BOX_GRID_ANCHORS + 1):
                ax = x0 + (W - w) * rat(i, BOX_GRID_ANCHORS)
                ay = y0 + (H - h) * rat(j, BOX_GRID_ANCHORS)
                box = Box2(ax, ay, w, h)
                if all(point_in_region(p, region) for p in box.corners()):
                    if _region_contains(region, box.corners()):
                        return box
    return None


def contains_box(shape, box: Box2) -> bool:
    """Exact containment of an axis box (recertification entry point)."""
    if isinstance(shape, ConvexPolygon):
        return all(shape.contains(p) for p in box.corners())
    return _region_contains(shape, box.corners())


# ---------------------------------------------------------------------------
# Discs: the Chebyshev disc and the disc certificate


def _unit_normals(c: ConvexPolygon):
    rows = []
    for hp in c.halfplanes():
        a, b, cc = float(hp.a), float(hp.b), float(hp.c)
        n = math.hypot(a, b)
        rows.append((a / n, b / n, cc / n))
    return rows


def max_inscribed_disc(c: ConvexPolygon) -> Disc:
    """Largest inscribed disc of a convex polygon (Chebyshev center).

    Solved by enumerating constraint triples of the 3-variable LP; ties in
    the radius are broken toward the lexicographically smallest center. For
    very many edges the LP restricts to the constraints nearest an interior
    estimate (the returned disc is always feasible; optimality is then
    best-effort).
    """
    rows = _unit_normals(c)
    if len(rows) > 150:
        cx = sum(float(v[0]) for v in c.vertices) / len(c.vertices)
        cy = sum(float(v[1]) for v in c.vertices) / len(c.vertices)
        rows.sort(key=lambda r: r[2] - r[0] * cx - r[1] * cy)
        rows = rows[:150]
    best = None  # (r, cx, cy)
    m = len(rows)
    for i, j, k in combinations(range(m), 3):
        mat = np.array([rows[i][:2] + (1.0,), rows[j][:2] + (1.0,), rows[k][:2] + (1.0,)])
        rhs = np.array([rows[i][2], rows[j][2], rows[k][2]])
        det = np.linalg.det(mat)
        if abs(det) < 1e-12:
            continue
        sol = np.linalg.solve(mat, rhs)
        x, y, r = float(sol[0]), float(sol[1]), float(sol[2])
        if r <= 0:
            continue
        slack = min(row[2] - row[0] * x - row[1] * y - r for row in rows)
        if slack < -1e-9 * max(1.0, abs(r)):
            continue
        cand = (r, x, y)
        if best is None or cand[0] > best[0] + 1e-12:
            best = cand
        elif abs(cand[0] - best[0]) <= 1e-12 and (x, y) < (best[1], best[2]):
            best = cand
    if best is None:
        raise ValueError("no inscribed disc found; degenerate polygon?")
    r, x, y = best
    return Disc(x, y, r)


def _clear_of_segment(c, p, q, r2) -> bool:
    """The squared distance from c to the closed segment pq is at least r2:
    to p or q when c projects outside pq, else cross^2 / |q - p|^2, compared
    undivided."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    wx, wy = c[0] - p[0], c[1] - p[1]
    along, length2 = wx * dx + wy * dy, dx * dx + dy * dy
    if along <= 0:
        return wx * wx + wy * wy >= r2
    if along >= length2:
        ux, uy = c[0] - q[0], c[1] - q[1]
        return ux * ux + uy * uy >= r2
    side = dx * wy - dy * wx
    return side * side >= r2 * length2


def contains_disc(shape, center, r) -> bool:
    """Exact certificate for the closed disc of radius r about a rational
    center. In a convex polygon, each edge half-plane a.x <= b leaves the
    center a slack s = b - a.center >= 0 with s^2 >= r^2 |a|^2. In a region,
    the center is interior and at least r from every boundary segment, so
    the open disc misses the boundary: exact on a canonical region (no
    positive-length edge has interior on both sides), conservative otherwise.
    """
    cx, cy = rat(center[0]), rat(center[1])
    r2 = rat(r) * rat(r)
    if isinstance(shape, ConvexPolygon):
        for hp in shape.halfplanes():
            s = hp.c - (hp.a * cx + hp.b * cy)
            if s < 0 or s * s < r2 * (hp.a * hp.a + hp.b * hp.b):
                return False
        return True
    c = Point2(cx, cy)
    if locate_in_region(c, shape) != "in":
        return False
    return all(_clear_of_segment(c, p, q, r2) for p, q in shape.boundary_edges())


def nonconvex_disc_search(region: Region, r) -> Optional[Disc]:
    """Certified disc of radius r centred on a grid point of the region's
    bounding box, nearest the box's centre first; None when no grid centre
    holds one."""
    (x0, y0), (x1, y1) = region_bbox(region)
    cells = sorted(
        ((i, j) for i in range(1, DISC_GRID) for j in range(1, DISC_GRID)),
        key=lambda ij: abs(ij[0] * 2 - DISC_GRID) + abs(ij[1] * 2 - DISC_GRID),
    )
    for i, j in cells:
        c = Point2(x0 + (x1 - x0) * rat(i, DISC_GRID), y0 + (y1 - y0) * rat(j, DISC_GRID))
        if contains_disc(region, c, r):
            return Disc(float(c[0]), float(c[1]), float(r))
    return None


# ---------------------------------------------------------------------------
# Maximum-volume inscribed ellipse (log-det barrier ascent)


def _mvie_objective(z, rows, mu):
    cx, cy, a11, a12, a22 = z
    det = a11 * a22 - a12 * a12
    if det <= 0 or a11 <= 0 or a22 <= 0:
        return None
    total = -math.log(det)
    for a, b, cc in rows:
        anx = a11 * a + a12 * b
        any_ = a12 * a + a22 * b
        s = cc - (a * cx + b * cy) - math.hypot(anx, any_)
        if s <= 0:
            return None
        total -= mu * math.log(s)
    return total


def _mvie_grad(z, rows, mu):
    cx, cy, a11, a12, a22 = z
    det = a11 * a22 - a12 * a12
    g = np.array([0.0, 0.0, -a22 / det, 2.0 * a12 / det, -a11 / det])
    for a, b, cc in rows:
        anx = a11 * a + a12 * b
        any_ = a12 * a + a22 * b
        nAn = math.hypot(anx, any_)
        s = cc - (a * cx + b * cy) - nAn
        coef = mu / s
        # ds/dz = (-a, -b, -anx*a/nAn, -(anx*b + any*a)/nAn, -any_*b/nAn)
        g[0] += coef * a
        g[1] += coef * b
        g[2] += coef * (anx * a / nAn)
        g[3] += coef * ((anx * b + any_ * a) / nAn)
        g[4] += coef * (any_ * b / nAn)
    return g


def mvie(c: ConvexPolygon) -> Optional[Ellipse]:
    """Maximum-volume inscribed ellipse of a convex polygon.

    Damped Newton ascent on the log-det barrier formulation with barrier
    continuation; the final KKT (duality-gap) residual is below MVIE_TOL.
    The returned ellipse passes the exact certificate `ellipse_contained`,
    after at most seven 1 - 1e-9 shrinks; None when none of them passes.
    """
    rows = _unit_normals(c)
    disc = max_inscribed_disc(c)
    r0 = disc.r * 0.5
    z = np.array([disc.cx, disc.cy, r0, 0.0, r0])

    mu = 1.0
    it = 0
    while mu * len(rows) > MVIE_TOL * 0.25 and it < MVIE_MAX_ITER:
        # Newton with finite-difference Hessian of the analytic gradient.
        for _ in range(60):
            it += 1
            g = _mvie_grad(z, rows, mu)
            h = 1e-6
            H = np.zeros((5, 5))
            for k in range(5):
                zp = z.copy()
                zp[k] += h
                if _mvie_objective(zp, rows, mu) is None:
                    zp[k] = z[k] - h
                    H[:, k] = (g - _mvie_grad(zp, rows, mu)) / h
                else:
                    H[:, k] = (_mvie_grad(zp, rows, mu) - g) / h
            H = 0.5 * (H + H.T)
            try:
                step = np.linalg.solve(H + 1e-12 * np.eye(5), -g)
            except np.linalg.LinAlgError:
                step = -g
            t = 1.0
            f0 = _mvie_objective(z, rows, mu)
            while t > 1e-12:
                zn = z + t * step
                fn = _mvie_objective(zn, rows, mu)
                if fn is not None and fn <= f0 + 1e-12:
                    break
                t *= 0.5
            if t <= 1e-12:
                break
            z = z + t * step
            if np.linalg.norm(g) < max(MVIE_TOL * 0.1, mu * 1e-3):
                break
        mu *= 0.15
    ell = Ellipse((z[0], z[1]), z[2], z[3], z[4])
    # Clamp to certified containment (shrink very slightly if needed).
    for _ in range(8):
        if ellipse_contained(c, ell):
            return ell
        shrink = 1.0 - 1e-9
        ell = Ellipse(ell.center, ell.a11 * shrink, ell.a12 * shrink, ell.a22 * shrink)
    return None


def ellipse_contained(c: ConvexPolygon, ell: Ellipse) -> bool:
    """Exact certificate for an ellipse witness, its floats read as
    rationals: center + A u (|u| <= 1) lies in the half-plane a.x <= b iff
    s = b - a.center >= 0 and s^2 >= |A a|^2, the support function of the
    ellipse in the direction a (A is symmetric, so A^T a = A a)."""
    cx, cy = rat(ell.center[0]), rat(ell.center[1])
    a11, a12, a22 = rat(ell.a11), rat(ell.a12), rat(ell.a22)
    for hp in c.halfplanes():
        s = hp.c - (hp.a * cx + hp.b * cy)
        ux, uy = a11 * hp.a + a12 * hp.b, a12 * hp.a + a22 * hp.b
        if s < 0 or s * s < ux * ux + uy * uy:
            return False
    return True


# ---------------------------------------------------------------------------
# Longest segments under directional width and Minkowski norms
#
# A family's value of the segment from a to b is value(b - a), for a value
# function convex in the difference: the directional width <d, v> or a
# Minkowski norm.


def directional_width(v):
    """The value function d -> <d, v> of the vwidth family (v nonzero)."""
    vx, vy = rat(v[0]), rat(v[1])
    if vx == 0 and vy == 0:
        raise ValueError("direction must be nonzero")
    return lambda d: d[0] * vx + d[1] * vy


def _span(a, b):
    """b - a: the vector the segment from a to b spans."""
    return (b[0] - a[0], b[1] - a[1])


def _region_vertex_pool(region: Region) -> List[Point2]:
    pts: List[Point2] = []
    for ring in region.rings():
        pts.extend(ring)
        n = len(ring)
        for i in range(n):
            a, b = ring[i], ring[(i + 1) % n]
            pts.append(Point2((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
    return list(dict.fromkeys(pts))


def _segment_in_region(region: Region, a, b) -> bool:
    for comp in region.components:
        if locate_in_polygon(a, comp) != "out" and locate_in_polygon(b, comp) != "out":
            if segment_in_polygon(comp, a, b):
                return True
    return False


def _longest_pool_segment(region: Region, value) -> SegmentWitness:
    """Certified search over ordered pairs of region vertices and edge
    midpoints, best value first; it may be suboptimal (certified=False
    marks the weaker guarantee)."""
    pool = _region_vertex_pool(region)
    scored = sorted(
        ((value(_span(a, b)), a, b) for a, b in product(pool, repeat=2)),
        key=lambda t: t[0],
        reverse=True,
    )
    for val, a, b in scored:
        if val < 0:
            break
        if _segment_in_region(region, a, b):
            return SegmentWitness(a, b, val, False)
    p = pool[0]
    return SegmentWitness(p, p, rat(0), False)


def longest_vwidth_segment(shape, v) -> SegmentWitness:
    """Longest contained segment measured by directional width <b - a, v>.

    Exact for a convex polygon (extreme vertices realize the width); the
    certified pool search for a region.
    """
    width = directional_width(v)
    if not isinstance(shape, ConvexPolygon):
        return _longest_pool_segment(shape, width)
    lo = min(shape.vertices, key=lambda p: (width(p), p[0], p[1]))
    hi = max(shape.vertices, key=lambda p: (width(p), -p[0], -p[1]))
    return SegmentWitness(lo, hi, width(_span(lo, hi)), True)


def longest_norm_segment(shape, ball: PolytopeNormBall) -> SegmentWitness:
    """Longest contained segment measured by the ball's Minkowski norm.

    Exact for a convex polygon: the norm is convex, so the maximum over
    C x C is attained at an ordered vertex pair (the gauge of an asymmetric
    ball differs between (a, b) and (b, a)). The certified pool search for a
    region.
    """
    if not isinstance(shape, ConvexPolygon):
        return _longest_pool_segment(shape, ball.norm)
    a, b = max(product(shape.vertices, repeat=2), key=lambda ab: ball.norm(_span(*ab)))
    return SegmentWitness(a, b, ball.norm(_span(a, b)), True)

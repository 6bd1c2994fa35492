"""Inscribed witnesses: boxes, discs, ellipses, and long segments.

This is the numeric layer. Searches run in binary64 (and are deterministic);
every witness that feeds back into exact reasoning is recertified:

  * box witnesses are constructed from exact erosions, so their containment
    is exact by construction;
  * disc witnesses are certified exactly by the checkers, which test that a
    rational polygon circumscribing the disc lies in the region;
  * ellipse witnesses are recertified by sampling 720 boundary points and
    requiring containment margin >= -1e-9;
  * segment witnesses are recertified by exact segment containment.

A None from a search means the search resolution was exhausted, never a
proof of nonexistence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from artgallery.rational import rat, rationalize
from artgallery.geom.primitives import Point2
from artgallery.geom.polygon import Region, as_region, locate_in_polygon, point_in_region, region_bbox
from artgallery.geom.convex import ConvexPolygon, HalfPlane, clip_convex, convex_hull
from artgallery.visibility import segment_in_polygon

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

    def matrix(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]], dtype=float)

    def area(self) -> float:
        return math.pi * (self.a11 * self.a22 - self.a12 * self.a12)

    def boundary_points(self, n: int = 720) -> np.ndarray:
        t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        u = np.stack([np.cos(t), np.sin(t)])
        p = self.matrix() @ u
        return (p + np.array(self.center)[:, None]).T


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


def _as_convex(shape) -> ConvexPolygon:
    if isinstance(shape, ConvexPolygon):
        return shape
    region = as_region(shape)
    if len(region.components) != 1 or region.components[0].holes:
        raise ValueError("expected a convex shape")
    return ConvexPolygon(region.components[0].outer.ccw().vertices)


def erode_convex_by_box(convex, w, h) -> ConvexPolygon:
    """Exact placement region for the min-corner of a w x h axis box in C.

    The box [x, x+w] x [y, y+h] lies in C iff (x, y) lies in every edge
    half-plane offset by the box's support in the edge normal.
    """
    c = _as_convex(convex)
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
    """First box that fits over the width scan, else over a bisection
    between consecutive scan widths; the box's min corner is the smallest
    vertex of the exact erosion."""

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
        for _ in range(24):
            mid = (lo + hi) / 2
            box = fit(mid)
            if box is not None:
                return box
            # No gradient to follow; shrink toward the center of the bracket.
            lo, hi = lo + (mid - lo) / 2, hi - (hi - mid) / 2
    return None


def contains_box_of_area(shape, target_area, convex_hint: bool = True, samples: int = 512) -> Optional[Box2]:
    """Search for an axis-parallel box of exactly the target area inside shape.

    Convex path: log-spaced width scan (default 512 samples) over the feasible
    width range, then local bisection refinement. The witness box has exact
    rational sides with w*h == target_area. Returns None when the scan finds
    nothing; that is a resolution statement, not a nonexistence proof.
    """
    a = rat(target_area)
    if a <= 0:
        raise ValueError("target area must be positive")
    if not convex_hint:
        return _nonconvex_box_search(shape, lambda w: a / w)
    c = _as_convex(shape)
    (x0, y0), (x1, y1) = region_bbox(Region((c.to_polygon(),)))
    W, H = x1 - x0, y1 - y0
    if W <= 0 or H <= 0 or a > W * H:
        return None
    w_lo, w_hi = float(a / H), float(W)
    if w_lo > w_hi:
        return None

    def widths():
        if samples == 1 or w_lo == w_hi:
            yield rationalize(w_lo)
            return
        ratio = w_hi / w_lo
        for k in range(samples):
            w = w_lo * ratio ** (k / (samples - 1))
            w = min(max(w, w_lo), w_hi)
            wr = rationalize(w)
            if wr <= 0:
                continue
            yield min(max(wr, a / H), W)

    return _convex_box_scan(c, widths(), lambda w: a / w)


def contains_box_of_axis_sum(shape, axis_sum, convex_hint: bool = True, samples: int = 512) -> Optional[Box2]:
    """Search for an axis box with w + h == axis_sum inside shape (exact sides)."""
    s = rat(axis_sum)
    if s <= 0:
        raise ValueError("axis sum must be positive")
    if not convex_hint:
        return _nonconvex_box_search(shape, lambda w: s - w)
    c = _as_convex(shape)
    (x0, y0), (x1, y1) = region_bbox(Region((c.to_polygon(),)))
    W, H = x1 - x0, y1 - y0
    w_lo = s - H if s - H > 0 else rat(1, 10**6) * s
    w_hi = W if W < s else s - rat(1, 10**6) * s
    if w_lo > w_hi:
        return None

    def widths():
        lo, hi = float(w_lo), float(w_hi)
        for k in range(samples):
            w = lo + (hi - lo) * (k / max(samples - 1, 1))
            wr = rationalize(w)
            yield min(max(wr, w_lo), w_hi)

    return _convex_box_scan(c, widths(), lambda w: s - w)


def _nonconvex_box_search(shape, side_for_width, anchors: int = 24, aspects: int = 24) -> Optional[Box2]:
    """Grid placement search with exact certification (slow; small grids)."""
    from artgallery.geom.boolean import region_boolean

    region = as_region(shape)
    if region.is_empty():
        return None
    (x0, y0), (x1, y1) = region_bbox(region)
    W, H = x1 - x0, y1 - y0
    for k in range(1, aspects + 1):
        w = W * rat(k, aspects + 1)
        h = side_for_width(w)
        if h is None or h <= 0 or h > H:
            continue
        for i in range(anchors + 1):
            for j in range(anchors + 1):
                ax = x0 + (W - w) * rat(i, anchors)
                ay = y0 + (H - h) * rat(j, anchors)
                box = Box2(ax, ay, w, h)
                if all(point_in_region(p, region) for p in box.corners()):
                    br = Region((box.corners(),))
                    if region_boolean("difference", br, region).is_empty():
                        return box
    return None


def contains_box(shape, box: Box2, convex_hint: bool = True) -> bool:
    """Exact containment of an axis box (recertification entry point)."""
    if convex_hint:
        c = _as_convex(shape)
        return all(c.contains(p) for p in box.corners())
    from artgallery.geom.boolean import region_boolean

    return region_boolean("difference", Region((box.corners(),)), as_region(shape)).is_empty()


# ---------------------------------------------------------------------------
# Chebyshev disc


def _unit_normals(c: ConvexPolygon):
    rows = []
    for hp in c.halfplanes():
        a, b, cc = float(hp.a), float(hp.b), float(hp.c)
        n = math.hypot(a, b)
        rows.append((a / n, b / n, cc / n))
    return rows


def max_inscribed_disc(shape) -> Disc:
    """Largest inscribed disc of a convex polygon (Chebyshev center).

    Solved by enumerating constraint triples of the 3-variable LP; ties in
    the radius are broken toward the lexicographically smallest center. For
    very many edges the LP restricts to the constraints nearest an interior
    estimate (the returned disc is always feasible; optimality is then
    best-effort).
    """
    c = _as_convex(shape)
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


def mvie(shape, tol: float = 1e-8, max_iter: int = 400) -> Ellipse:
    """Maximum-volume inscribed ellipse of a convex polygon.

    Damped Newton ascent on the log-det barrier formulation with barrier
    continuation; the returned ellipse satisfies the sampled containment
    recertification, and the final KKT (duality-gap) residual is below tol.
    """
    c = _as_convex(shape)
    rows = _unit_normals(c)
    disc = max_inscribed_disc(c)
    r0 = disc.r * 0.5
    z = np.array([disc.cx, disc.cy, r0, 0.0, r0])

    mu = 1.0
    it = 0
    while mu * len(rows) > tol * 0.25 and it < max_iter:
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
            if np.linalg.norm(g) < max(tol * 0.1, mu * 1e-3):
                break
        mu *= 0.15
    ell = Ellipse((z[0], z[1]), z[2], z[3], z[4])
    # Clamp to certified containment (shrink very slightly if needed).
    for _ in range(8):
        if ellipse_contained(c, ell, margin=1e-9):
            return ell
        shrink = 1.0 - 1e-9
        ell = Ellipse(ell.center, ell.a11 * shrink, ell.a12 * shrink, ell.a22 * shrink)
    return ell


def ellipse_contained(shape, ell: Ellipse, margin: float = 1e-9, samples: int = 720) -> bool:
    """Recertify an ellipse witness by sampled boundary containment."""
    c = _as_convex(shape)
    rows = _unit_normals(c)
    pts = ell.boundary_points(samples)
    for a, b, cc in rows:
        if np.max(pts[:, 0] * a + pts[:, 1] * b - cc) > margin:
            return False
    return True


# ---------------------------------------------------------------------------
# Longest segments under directional width and Minkowski norms


def _region_vertex_pool(shape) -> List[Point2]:
    region = as_region(shape)
    pts: List[Point2] = []
    for ring in region.rings():
        pts.extend(ring)
        n = len(ring)
        for i in range(n):
            a, b = ring[i], ring[(i + 1) % n]
            pts.append(Point2((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
    return list(dict.fromkeys(pts))


def longest_vwidth_segment(shape, v, convex_hint: bool = True) -> SegmentWitness:
    """Longest contained segment measured by directional width <b - a, v>.

    Exact for convex shapes (extreme vertices realize the width). For
    non-convex regions: certified vertex/midpoint pair search, which may be
    suboptimal (certified=False marks the weaker guarantee).
    """
    vx, vy = rat(v[0]), rat(v[1])
    if vx == 0 and vy == 0:
        raise ValueError("direction must be nonzero")
    if convex_hint:
        c = _as_convex(shape)
        lo = min(c.vertices, key=lambda p: (p[0] * vx + p[1] * vy, p[0], p[1]))
        hi = max(c.vertices, key=lambda p: (p[0] * vx + p[1] * vy, -p[0], -p[1]))
        return SegmentWitness(lo, hi, (hi[0] - lo[0]) * vx + (hi[1] - lo[1]) * vy, True)
    region = as_region(shape)
    pool = _region_vertex_pool(region)
    pairs = sorted(
        ((a, b) for a in pool for b in pool),
        key=lambda ab: (ab[1][0] - ab[0][0]) * vx + (ab[1][1] - ab[0][1]) * vy,
        reverse=True,
    )
    for a, b in pairs:
        val = (b[0] - a[0]) * vx + (b[1] - a[1]) * vy
        if val < 0:
            break
        if _segment_in_region(region, a, b):
            return SegmentWitness(a, b, val, False)
    p = pool[0]
    return SegmentWitness(p, p, rat(0), False)


def _segment_in_region(region: Region, a, b) -> bool:
    for comp in region.components:
        if locate_in_polygon(a, comp) != "out" and locate_in_polygon(b, comp) != "out":
            if segment_in_polygon(comp, a, b):
                return True
    return False


def longest_norm_segment(shape, ball: PolytopeNormBall, convex_hint: bool = True) -> SegmentWitness:
    """Longest contained segment measured by the ball's Minkowski norm.

    Exact for convex shapes: the norm is convex, so the maximum over C x C is
    attained at a vertex pair.
    """
    if convex_hint:
        c = _as_convex(shape)
        best = None
        for a, b in combinations(c.vertices, 2):
            val = ball.norm((b[0] - a[0], b[1] - a[1]))
            if best is None or val > best.value:
                best = SegmentWitness(a, b, val, True)
        if best is None:
            v = c.vertices[0]
            return SegmentWitness(v, v, rat(0), True)
        return best
    region = as_region(shape)
    pool = _region_vertex_pool(region)
    scored = sorted(
        ((ball.norm((b[0] - a[0], b[1] - a[1])), a, b) for a, b in combinations(pool, 2)),
        key=lambda t: t[0],
        reverse=True,
    )
    for val, a, b in scored:
        if _segment_in_region(region, a, b):
            return SegmentWitness(a, b, val, False)
    p = pool[0]
    return SegmentWitness(p, p, rat(0), False)

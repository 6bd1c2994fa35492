"""Test oracles for region_boolean: the ray-casting overlay classifier and
exact region equality.

The classifier is the side classification `region_boolean` used before it classified
subsegments by the edges that cover them: split every pair of edges with no
bounding-box filter, then sample each side of each subsegment halfway to the
first subsegment hit by the perpendicular ray and test the sample against
both operands. It shares only the final ring tracing and nesting with the
library, so a mismatch points at splitting or classification.
"""

from artgallery.geom.boolean import _OPS, _canonical, _combine, _region_from_darts, region_boolean
from artgallery.geom.polygon import Region, as_region, point_in_region
from artgallery.geom.primitives import Point2, segments_intersect
from artgallery.rational import rat


def _split_all(edges):
    cuts = [[] for _ in edges]
    for i in range(len(edges)):
        a, b = edges[i]
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            hit = segments_intersect(a, b, c, d)
            if hit is None:
                continue
            pts = hit[1:] if hit[0] == "overlap" else (hit[1],)
            for p in pts:
                cuts[i].append(p)
                cuts[j].append(p)
    out = {}
    for (a, b), extra in zip(edges, cuts):
        dx, dy = b[0] - a[0], b[1] - a[1]
        if dx == 0 and dy == 0:
            continue

        def param(p):
            return (p[0] - a[0]) * dx + (p[1] - a[1]) * dy

        pts = sorted({a, b, *extra}, key=param)
        for u, v in zip(pts, pts[1:]):
            key = (u, v) if (u[0], u[1]) <= (v[0], v[1]) else (v, u)
            out[key] = True
    return list(out.keys())


def _ray_first_hit(origin, direction, edges):
    """Smallest positive ray parameter touching any edge, or None."""
    ox, oy = origin
    dx, dy = direction
    best = None
    for a, b in edges:
        ex, ey = b[0] - a[0], b[1] - a[1]
        denom = dx * ey - dy * ex
        wx, wy = a[0] - ox, a[1] - oy
        if denom != 0:
            t = (wx * ey - wy * ex) / denom
            s = (wx * dy - wy * dx) / denom
            if 0 <= s <= 1 and t > 0 and (best is None or t < best):
                best = t
        else:
            if wx * dy - wy * dx != 0:
                continue
            dd = dx * dx + dy * dy
            for p in (a, b):
                t = ((p[0] - ox) * dx + (p[1] - oy) * dy) / dd
                if t > 0 and (best is None or t < best):
                    best = t
    return best


def ray_cast_boolean(op, r1, r2) -> Region:
    """`region_boolean` with the ray-casting side classification."""
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}")
    r1, r2 = as_region(r1), as_region(r2)
    if r1.is_empty() and r2.is_empty():
        return Region.empty()
    if r1.is_empty():
        return _canonical(r2) if op == "union" else Region.empty()
    if r2.is_empty():
        return Region.empty() if op == "intersect" else _canonical(r1)

    sub = _split_all(list(r1.boundary_edges()) + list(r2.boundary_edges()))
    darts = []
    for a, b in sub:
        mx, my = (a[0] + b[0]) / 2, (a[1] + b[1]) / 2
        left = (-(b[1] - a[1]), b[0] - a[0])
        sides = {}
        for name, d in (("L", left), ("R", (-left[0], -left[1]))):
            t1 = _ray_first_hit(Point2(mx, my), d, sub)
            t = (t1 / 2) if t1 is not None else rat(1)
            q = Point2(mx + t * d[0], my + t * d[1])
            sides[name] = _combine(op, point_in_region(q, r1), point_in_region(q, r2))
        if sides["L"] and not sides["R"]:
            darts.append((a, b))
        elif sides["R"] and not sides["L"]:
            darts.append((b, a))
    return _region_from_darts(darts)


def region_equal(r1, r2) -> bool:
    """Exact equality as point sets up to zero-area slivers."""
    r1, r2 = as_region(r1), as_region(r2)
    if r1.is_empty() and r2.is_empty():
        return True
    u = region_boolean("union", r1, r2)
    i = region_boolean("intersect", r1, r2)
    return u.area() == i.area()

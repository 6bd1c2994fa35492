"""Generators: the figure galleries, the spiked non-exactness gallery, and
random polygon corpora.

The two figure galleries and the spiked construction carry their defining
numeric facts as exact rationals; discs are regular polygons (default 720
vertices) and every theorem quantity downstream carries the polygonalization
tolerance stated at its use site.

Floats enter the spiked construction only to choose what to compute
exactly: where the walk to a cone's tangent vertices starts, and which n-tuple
areas can still be the minimum m (a certified enclosure of each area, not a
tolerance). Every value the construction returns is exact.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from artgallery.rational import Q, rat, rationalize
from artgallery.geom.primitives import (
    Point2,
    Segment2,
    det3,
    from_homogeneous,
    homogeneous,
    orient,
    pt,
    segments_intersect,
    segments_meet,
)
from artgallery.geom.polygon import PolygonWithHoles, Region, SimplePolygon, scale_region
from artgallery.geom.convex import (
    ConvexPolygon,
    HalfPlane,
    clip_combinations,
    clip_convex,
    convex_hull,
)
from artgallery.gallery import Gallery, PinchedGallery, SkeletalGallery
from artgallery.kernel import kernel_simple

RANDOM_SPAN = 10  # random points lie in [0, RANDOM_SPAN)^2, on a 10^-5 grid
CLAIM22_MAX_TRIES = 200  # draws of gen_claim22 before giving up on general position
SPIKE_M = 10  # gen_spiked: spike tips at radius M
SPIKE_MP = 2  # gen_spiked: radius M' of the disc the spikes grow from
MAX_SPIKES = 10**4  # gen_spiked: largest spike count tried
STAR_IRREGULARITY = 0.6  # gen_star: radii drawn from 1 +- this
SIMPLE_MAX_ROUNDS = 400  # gen_simple: 2-opt rounds per random tour
EMPTY_KERNEL_MAX_DRAWS = 400  # gen_empty_kernel: polygons drawn before giving up


# ---------------------------------------------------------------------------
# Figure galleries


def gen_fig1() -> PinchedGallery:
    """The eight-point two-color optimality gallery.

    The drawn octagon's boundary self-crosses at (89/11, 42/11) and
    (78/7, 24/7); the filled region is a chain of three convex quads glued at
    those two points (compact and simply connected, but not a simple
    polygon). Facts: every red-blue pair is commonly visible; neither color
    class is; the kernel is empty.
    """
    x1 = Point2(Q(89, 11), Q(42, 11))
    x2 = Point2(Q(78, 7), Q(24, 7))
    quads = (
        ((6, 4), (7, 3), x1, (7, 6)),
        (x1, (10, 0), x2, (9, rat("4.5"))),
        (x2, (12, 3), (13, 4), (12, 6)),
    )
    classes = (
        ("red", ((7, 6), (12, 3))),
        ("blue", ((7, 3), (12, 6))),
        ("black", ((6, 4), (10, 0), (9, rat("4.5")), (13, 4))),
    )
    return PinchedGallery(quads, classes, name="fig1").validate()


def gen_spider() -> SkeletalGallery:
    """The 24-segment skeletal gallery: eight viewers, one per colorful
    triple out of two red, two green, two blue targets. Every colorful triple
    is seen (by its viewer); no single color class is commonly visible."""
    r1, r2 = Point2(rat(6), rat(4)), Point2(rat(3), rat(2))
    g1, g2 = Point2(rat(4), rat("3.5")), Point2(rat(7), rat(1))
    b1, b2 = Point2(rat(6), rat(3)), Point2(rat(2), rat(0))
    viewers = [
        (Point2(rat(5), rat("3.1")), (r1, g1, b1)),
        (Point2(rat(7), rat(2)), (r1, g2, b1)),
        (Point2(rat(1), rat(5)), (r1, g1, b2)),
        (Point2(rat(9), rat(0)), (r1, g2, b2)),
        (Point2(rat("4.5"), rat("2.8")), (r2, g1, b1)),
        (Point2(rat("5.5"), rat(2)), (r2, g2, b1)),
        (Point2(rat(2), rat(3)), (r2, g1, b2)),
        (Point2(rat(5), rat(1)), (r2, g2, b2)),
    ]
    segments = [Segment2(p, t) for p, targets in viewers for t in targets]
    classes = (
        ("red", (r1, r2)),
        ("green", (g1, g2)),
        ("blue", (b1, b2)),
        ("viewers", tuple(p for p, _ in viewers)),
    )
    return SkeletalGallery(segments, classes, name="spider").validate()


# ---------------------------------------------------------------------------
# Colorful skeletal counterexamples, any number of classes (d = 2)


def _rand_point(rng: random.Random) -> Point2:
    return Point2(
        Q(rng.randrange(0, RANDOM_SPAN * 10**5), 10**5),
        Q(rng.randrange(0, RANDOM_SPAN * 10**5), 10**5),
    )


def gen_claim22(n: int, class_sizes: Sequence[int], seed: int) -> SkeletalGallery:
    """Skeletal gallery where every colorful n-tuple has a guard seeing it
    but no class is commonly visible.

    Classes F_1..F_n get random points; each colorful tuple P gets a guard
    g_P joined to every coordinate of P by a segment. General position is
    enforced exactly: all points distinct, no three points collinear, and no
    three segments over pairwise-disjoint endpoint pairs concurrent. The
    guards are exposed as class "guards" in itertools.product order over the
    classes.
    """
    if n < 2:
        raise ValueError("need at least two classes")
    if len(class_sizes) != n or any(s < 3 for s in class_sizes):
        raise ValueError("every class needs at least 3 points")
    for attempt in range(CLAIM22_MAX_TRIES):
        rng = random.Random(f"claim22:{seed}:{attempt}")
        classes = [tuple(_rand_point(rng) for _ in range(s)) for s in class_sizes]
        tuples = list(itertools.product(*classes))
        guards = tuple(_rand_point(rng) for _ in tuples)
        points = [p for cls in classes for p in cls] + list(guards)
        if len(set(points)) != len(points):
            continue
        if _has_collinear_triple(points):
            continue
        segments = []
        pairs = []  # endpoint pairs, for the disjointness condition
        for g, tup in zip(guards, tuples):
            for x in tup:
                segments.append(Segment2(x, g))
                pairs.append(frozenset((x, g)))
        if _has_concurrent_triple(segments, pairs):
            continue
        named = [(f"F{i + 1}", cls) for i, cls in enumerate(classes)]
        named.append(("guards", guards))
        return SkeletalGallery(segments, named, name=f"claim22-n{n}-seed{seed}").validate()
    raise RuntimeError(f"general position not reached in {CLAIM22_MAX_TRIES} tries (seed {seed})")


def _has_collinear_triple(points: Sequence[Point2]) -> bool:
    hs = [homogeneous(p) for p in points]
    return any(det3(*triple) == 0 for triple in itertools.combinations(hs, 3))


def _has_concurrent_triple(segments, pairs) -> bool:
    hits: Dict[Point2, List[int]] = {}
    m = len(segments)
    for i in range(m):
        for j in range(i + 1, m):
            if pairs[i] & pairs[j]:
                continue
            hit = segments_intersect(segments[i].a, segments[i].b, segments[j].a, segments[j].b)
            if hit is None:
                continue
            if hit[0] == "overlap":
                return True  # collinear overlap counts as degenerate
            hits.setdefault(hit[1], []).append(i)
            hits.setdefault(hit[1], []).append(j)
    for point, through in hits.items():
        distinct = set(through)
        if len(distinct) < 3:
            continue
        # three segments through one point, pairwise disjoint endpoint pairs
        for a, b, c in itertools.combinations(sorted(distinct), 3):
            if not (pairs[a] & pairs[b]) and not (pairs[a] & pairs[c]) and not (pairs[b] & pairs[c]):
                return True
    return False


# ---------------------------------------------------------------------------
# Discs, cones, and the spiked non-exactness gallery


def disc_polygon(verts: int = 720, radius=None, area=None) -> ConvexPolygon:
    """Regular polygon stand-in for a disc, rational vertices.

    With area given, the polygon is rescaled along x by an exact rational so
    its area equals the target exactly.
    """
    if (radius is None) == (area is None):
        raise ValueError("give exactly one of radius, area")
    if verts < 3:
        raise ValueError("need at least 3 vertices")
    if area is not None:
        r = math.sqrt(2.0 * float(area) / (verts * math.sin(2.0 * math.pi / verts)))
    else:
        r = float(radius)
    pts = [
        Point2(
            rationalize(r * math.cos(2.0 * math.pi * k / verts)),
            rationalize(r * math.sin(2.0 * math.pi * k / verts)),
        )
        for k in range(verts)
    ]
    poly = convex_hull(pts)
    if area is not None:
        s = rat(area) / poly.area()
        poly = ConvexPolygon([Point2(p[0] * s, p[1]) for p in poly.vertices])
    return poly


def _tangent_vertices(apex: Point2, disc: ConvexPolygon) -> Tuple[Point2, Point2]:
    """Extreme disc vertices as seen from an exterior apex (exact): the
    clockwise-most and the counterclockwise-most, each the lowest-index one
    among vertices collinear with the apex on its supporting line.

    From an exterior point the angle along a convex ring is unimodal, and its
    only plateaus are edges on a supporting line through the point, so a walk
    that moves to a strictly further neighbour stops at the global extreme.
    Float angles only choose where the walk starts; every step is an exact
    `det3` sign on the homogeneous images.
    """
    vs = disc.vertices
    n = len(vs)
    try:
        ax, ay = float(apex[0]), float(apex[1])
        rx, ry = float(vs[0][0]) - ax, float(vs[0][1]) - ay
        turns = []  # angle of each vertex from the apex, relative to vertex 0
        for v in vs:
            dx, dy = float(v[0]) - ax, float(v[1]) - ay
            turns.append(math.atan2(rx * dy - ry * dx, rx * dx + ry * dy))
    except OverflowError:  # beyond float range: walk from vertex 0
        turns = [0.0] * n
    ha = homogeneous(apex)
    hs = disc.images

    def walk(i, side):
        # side +1: counterclockwise extreme, -1: clockwise extreme
        while True:
            for j in ((i - 1) % n, (i + 1) % n):
                if side * det3(ha, hs[i], hs[j]) > 0:
                    i = j
                    break
            else:
                break
        best = i  # lowest index on the supporting line through the apex
        for step in (-1, 1):
            j = (i + step) % n
            while j != i and det3(ha, hs[i], hs[j]) == 0:
                best = min(best, j)
                j = (j + step) % n
        return vs[best]

    lo = walk(min(range(n), key=turns.__getitem__), -1)
    hi = walk(max(range(n), key=turns.__getitem__), 1)
    return lo, hi


def cone_halfplanes(apex, disc: ConvexPolygon) -> Tuple[HalfPlane, HalfPlane]:
    """The convex cone with the given apex over the disc polygon, as the two
    supporting half-planes through the apex (exact)."""
    apex = pt(apex)
    if disc.contains(apex):
        raise ValueError("apex must lie outside the disc")
    lo, hi = _tangent_vertices(apex, disc)
    planes = []
    for touch, inner in ((hi, lo), (lo, hi)):
        a = -(touch[1] - apex[1])
        b = touch[0] - apex[0]
        c = a * apex[0] + b * apex[1]
        if a * inner[0] + b * inner[1] > c:
            a, b, c = -a, -b, -c
        planes.append(HalfPlane(a, b, c))
    return planes[0], planes[1]


def _apex(angle) -> Point2:
    """The spike tip at radius M = SPIKE_M in the direction `angle`."""
    M = float(SPIKE_M)
    return Point2(rationalize(M * math.cos(angle)), rationalize(M * math.sin(angle)))


def f_volume(angles, disc_poly_verts: int = 720):
    """Exact area of (M'-disc polygon) ∩ (∩ cones from the apexes M*v), with
    M = SPIKE_M and M' = SPIKE_MP.

    The value is always > 1: the area-1 disc sits strictly inside every cone
    and inside the M'-disc.
    """
    bprime = disc_polygon(disc_poly_verts, area=1)
    mdisc = disc_polygon(disc_poly_verts, radius=SPIKE_MP)
    planes = []
    for a in angles:
        planes.extend(cone_halfplanes(_apex(a), bprime))
    return clip_convex(mdisc.vertices, planes).area()


def _f_float(angles, cos_sin) -> float:
    """Float estimate of f_volume on true circles (search objective only)."""
    M, r_mp = float(SPIKE_M), float(SPIKE_MP)
    ring = [(r_mp * c, r_mp * s) for c, s in cos_sin]
    r_b = 1.0 / math.sqrt(math.pi)
    for th in angles:
        ax, ay = M * math.cos(th), M * math.sin(th)
        dist = math.hypot(ax, ay)
        half = math.asin(min(1.0, r_b / dist))
        base = math.atan2(-ay, -ax)
        for sign in (1.0, -1.0):
            # tangent line direction from apex; interior is the disc side
            ang = base + sign * half
            dx, dy = math.cos(ang), math.sin(ang)
            a, b = -dy, dx
            c = a * ax + b * ay
            if a * 0.0 + b * 0.0 > c:  # origin must satisfy a x + b y <= c
                a, b, c = -a, -b, -c
            out = []
            n = len(ring)
            for i in range(n):
                p, q = ring[i], ring[(i + 1) % n]
                pin = a * p[0] + b * p[1] <= c
                qin = a * q[0] + b * q[1] <= c
                if pin:
                    out.append(p)
                if pin != qin:
                    t = (c - a * p[0] - b * p[1]) / (a * (q[0] - p[0]) + b * (q[1] - p[1]))
                    out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
            ring = out
            if len(ring) < 3:
                return 0.0
    area = 0.0
    for i in range(len(ring)):
        p, q = ring[i], ring[(i + 1) % len(ring)]
        area += p[0] * q[1] - q[0] * p[1]
    return 0.5 * area


@dataclass(frozen=True)
class MEstimate:
    value: object  # exact rational f at the best directions found
    angles: Tuple[float, ...]
    evaluations: int


def estimate_m(
    n: int,
    budget: int = 24,
    seed: int = 0,
    disc_poly_verts: int = 720,
) -> MEstimate:
    """Numerically minimize f over n apex directions (M = SPIKE_M, M' = SPIKE_MP).

    Returns an exact f evaluation at the best found directions; this is an
    upper bound on the true minimum m (global optimality is not certified).
    """
    if n < 1:
        raise ValueError("n must be positive")
    cos_sin = [
        (math.cos(2.0 * math.pi * k / 128), math.sin(2.0 * math.pi * k / 128)) for k in range(128)
    ]

    def obj(angles):
        return _f_float(angles, cos_sin)

    evals = 0
    best_angles = tuple(2.0 * math.pi * k / n for k in range(n))
    best_val = obj(best_angles)
    evals += 1
    # n == 1 is rotationally symmetric: any single direction is optimal.
    if n > 1:
        rng = random.Random(seed)
        starts = [best_angles, tuple(0.0 for _ in range(n))]
        starts += [
            tuple(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)) for _ in range(budget - 2)
        ]
        for start in starts:
            angles = list(start)
            val = obj(angles)
            evals += 1
            step = 0.5
            sweeps = 0
            while step > 2e-4 and sweeps < 400:
                improved = False
                sweeps += 1
                for i in range(n):
                    for delta in (step, -step):
                        cand = list(angles)
                        cand[i] += delta
                        cv = obj(cand)
                        evals += 1
                        if cv < val - 1e-10:
                            angles, val = cand, cv
                            improved = True
                if not improved:
                    step *= 0.5
            if val < best_val:
                best_val, best_angles = val, tuple(angles)
    exact = f_volume(best_angles, disc_poly_verts)
    return MEstimate(exact, tuple(best_angles), evals)


@dataclass(frozen=True)
class SpikedGalleryParams:
    n: int
    M: float
    Mp: float
    disc_poly_verts: int
    m: object  # exact rational lower envelope used for the scaling
    eps: object
    delta: object
    S: Tuple[float, ...]  # spike direction angles
    scale: object  # exact rational ~ m^(-1/2)
    tips: Tuple[Point2, ...]  # scaled spike apexes
    kernel_area_prescale: object


def _area_bounds(ring) -> Tuple[float, float]:
    """Floats lo <= area <= hi enclosing the exact shoelace area of a
    counterclockwise ring of integer homogeneous vertices (X, Y, W).

    Each coordinate is read as X / W, which Python's int true division
    rounds correctly, as `float()` of the rational does; the float shoelace
    sum s of n vertices then differs from twice the area by at most
    gamma_(2n+3) * mag, about (2n+3) * 2^-53 * mag, where mag sums the
    absolute products, plus underflow terms of 2^-1075 per coordinate read
    and per product. The bound used has room for the rounding of its own
    evaluation. A ring beyond float range gets (-inf, inf).
    """
    n = len(ring)
    if n < 3:
        return 0.0, 0.0
    try:
        fs = [(x / w, y / w) for x, y, w in ring]
    except OverflowError:
        return -math.inf, math.inf
    s = mag = lin = 0.0
    for i in range(n):
        (x0, y0), (x1, y1) = fs[i], fs[(i + 1) % n]
        a, b = x0 * y1, x1 * y0
        s += a - b
        mag += abs(a) + abs(b)
        lin += abs(x0) + abs(y0)
    err = (2 * n + 8) * 2.0**-53 * mag + (4 * lin + 4 * n) * 2.0**-1074
    if not (math.isfinite(s) and math.isfinite(err)):
        return -math.inf, math.inf
    return (s - err) / 2, (s + err) / 2


def _min_area(rings):
    """Exact minimum area over an iterable of convex rings of integer
    homogeneous vertices, such as `clip_combinations` yields.

    A certified float filter, not a tolerance: `_area_bounds` encloses each
    area, and only a ring whose lower bound is at most the least upper bound
    seen can be the minimum, so only those become rational points and get an
    exact area. The rings are streamed; candidates drop out as that cut falls.
    """
    cut = math.inf
    kept = []  # (lower bound, ring) with lower bound <= cut
    for ring in rings:
        lo, hi = _area_bounds(ring)
        if lo > cut:
            continue
        if hi < cut:
            cut = hi
            kept = [c for c in kept if c[0] <= cut]
        kept.append((lo, ring))
    return min(ConvexPolygon([from_homogeneous(v) for v in ring]).area() for _, ring in kept)


def _cone_intersection(planes) -> ConvexPolygon:
    b = rat(SPIKE_MP) * 2
    seed = (Point2(-b, -b), Point2(b, -b), Point2(b, b), Point2(-b, b))
    return clip_convex(seed, planes)


def _edge_param(a, b, p):
    """Parameter of p on segment [a, b] via the dominant coordinate."""
    if a[0] != b[0]:
        return (p[0] - a[0]) / (b[0] - a[0])
    return (p[1] - a[1]) / (b[1] - a[1])


def _spiked_outline(mdisc: ConvexPolygon, apexes, touches) -> SimplePolygon:
    """Splice spike detours into the disc ring.

    Each spike is the hull of the area-1 disc and its apex; outside the
    M'-disc that hull is the triangle (apex, lo, hi), which pokes out through
    one ring arc. The union boundary is the ring with each such arc replaced
    by crossing -> apex -> crossing. All crossings must be strictly interior
    to ring edges and spikes must not interleave; a ring too coarse for
    that raises ValueError.
    """
    ring = mdisc.vertices
    n = len(ring)
    events = []  # (edge_idx, param, crossing_point, spike_id)
    for k, (apex, (lo, hi)) in enumerate(zip(apexes, touches)):
        for touch in (lo, hi):
            hits = []
            for i in range(n):
                a, b = ring[i], ring[(i + 1) % n]
                hit = segments_intersect(apex, touch, a, b)
                if hit is None:
                    continue
                if hit[0] != "point":
                    raise ValueError("tangent edge overlaps the disc ring; change disc_poly_verts")
                hits.append((i, hit[1]))
            points = {p for _, p in hits}
            if len(points) != 1:
                raise ValueError("tangent edge must cross the ring once; change disc_poly_verts")
            p = points.pop()
            if p in ring:
                raise ValueError("crossing hits a ring vertex; change disc_poly_verts")
            i = min(i for i, q in hits if q == p)
            events.append((i, _edge_param(ring[i], ring[(i + 1) % n], p), p, k))

    triangles = [(apex, lo, hi) for apex, (lo, hi) in zip(apexes, touches)]

    def in_spike(p) -> bool:
        for a, b, c in triangles:
            if orient(a, b, p) >= 0 and orient(b, c, p) >= 0 and orient(c, a, p) >= 0:
                return True
            if orient(a, b, p) <= 0 and orient(b, c, p) <= 0 and orient(c, a, p) <= 0:
                return True
        return False

    items = [(i, rat(0), "v", ring[i]) for i in range(n)]
    items += [(i, t, "x", (k, p)) for i, t, p, k in events]
    items.sort(key=lambda it: (it[0], it[1]))
    start = next(
        (j for j, it in enumerate(items) if it[2] == "v" and not in_spike(it[3])), None
    )
    if start is None:
        raise ValueError("spikes cover every disc ring vertex; raise disc_poly_verts")
    out: List[Point2] = []
    inside = None
    for j in range(len(items)):
        _, _, kind, payload = items[(start + j) % len(items)]
        if kind == "v":
            if inside is None:
                out.append(payload)
        else:
            k, p = payload
            if inside is None:
                out.append(p)
                out.append(apexes[k])
                inside = k
            elif inside == k:
                out.append(p)
                inside = None
            else:
                raise ValueError("spikes interleave on the ring; raise disc_poly_verts")
    if inside is not None:
        raise ValueError("unmatched spike crossing; change disc_poly_verts")
    return SimplePolygon(tuple(out))


def gen_spiked(
    n: int = 4,
    disc_poly_verts: int = 720,
    seed: int = 0,
    budget: int = 24,
) -> Tuple[Gallery, SpikedGalleryParams]:
    """The non-exactness gallery: an M'-disc with spikes to radius M.

    Every n-tuple of spike tips commonly sees area >= 1 (up to the stated
    tolerances) yet the kernel has area <= 1 - eps. Construction: estimate
    m = min f, set eps = 1/2 - 1/(2m) and delta = eps/(2(1-2eps)), take the
    smallest count of equally spaced spike directions whose cone intersection
    has area <= 1 + delta inside the M'-disc, union the spikes, scale by
    m^(-1/2). M = SPIKE_M and M' = SPIKE_MP, with area-1 disc radius < M' < M.

    m is tightened to the exact minimum, over every n-tuple of spike tips,
    of the clipped area. Tuples that share leading tips share those clips
    (`clip_combinations`), and a certified float filter on the integer
    clip rings (`_min_area`) decides which areas need computing exactly;
    m is one of them.
    """
    bprime = disc_polygon(disc_poly_verts, area=1)
    mdisc = disc_polygon(disc_poly_verts, radius=SPIKE_MP)

    est = estimate_m(n, budget=budget, seed=seed, disc_poly_verts=disc_poly_verts)
    m_val = est.value

    # Spike directions: smallest equally spaced count with a small-enough
    # bounded cone intersection. m may tighten once tips are fixed.
    def spike_angles(count):
        return tuple(2.0 * math.pi * k / count for k in range(count))

    if m_val <= 1:
        raise RuntimeError("estimated m not > 1; enlarge M or M'")
    eps_hat = rat(1, 2) - 1 / (2 * m_val)
    delta_hat = eps_hat / (2 * (1 - 2 * eps_hat))

    for count in range(max(3, n), MAX_SPIKES + 1):
        angles = spike_angles(count)
        apexes = [_apex(a) for a in angles]
        per_apex = [cone_halfplanes(apex, bprime) for apex in apexes]
        core = _cone_intersection([h for pair in per_apex for h in pair])
        core_area = core.area()  # 0 for an empty or degenerate core
        if core_area == 0:
            raise RuntimeError("cone intersection degenerated; M'/M too tight")
        if not all(mdisc.contains(v) for v in core.vertices):
            continue
        # m_used <= m_val, so the bound below only tightens; precheck first
        if core_area > 1 + delta_hat:
            continue
        # tighten m with the exact minimum over spike-tip n-tuples
        m_tips = _min_area(clip_combinations(mdisc, per_apex, min(n, count)))
        m_used = min(m_val, m_tips)
        if m_used <= 1:
            raise RuntimeError("estimated m not > 1; enlarge M or M'")
        eps = rat(1, 2) - 1 / (2 * m_used)
        delta = eps / (2 * (1 - 2 * eps))
        if core_area <= 1 + delta:
            break
    else:
        raise RuntimeError(f"no spike count up to {MAX_SPIKES} meets the area bound")

    touches = [_tangent_vertices(apex, bprime) for apex in apexes]
    outer = _spiked_outline(mdisc, apexes, touches)
    outer.validate()

    kernel_pre = kernel_simple(outer).area()
    scale = rationalize(1.0 / math.sqrt(float(m_used)))
    scaled = scale_region(Region((PolygonWithHoles(outer),)), scale)
    gallery = Gallery(
        scaled.components[0],
        classes=(("tips", tuple(Point2(a[0] * scale, a[1] * scale) for a in apexes)),),
        name=f"spiked-n{n}",
    )
    params = SpikedGalleryParams(
        n=n,
        M=float(SPIKE_M),
        Mp=float(SPIKE_MP),
        disc_poly_verts=disc_poly_verts,
        m=m_used,
        eps=eps,
        delta=delta,
        S=angles,
        scale=scale,
        tips=gallery.class_points("tips"),
        kernel_area_prescale=kernel_pre,
    )
    return gallery, params


# ---------------------------------------------------------------------------
# Random polygon corpora


def gen_star(seed: int, n_vertices: int) -> SimplePolygon:
    """Random star-shaped polygon with the origin provably in its kernel.

    Radial construction; radii are damped until the origin lies in every edge
    half-plane (exact check), which certifies a nonempty kernel.
    """
    if n_vertices < 3:
        raise ValueError("need at least 3 vertices")
    rng = random.Random(f"star:{seed}")
    base = [
        2.0 * math.pi * (k + rng.uniform(0.05, 0.95)) / n_vertices for k in range(n_vertices)
    ]
    radii = [1.0 + STAR_IRREGULARITY * rng.uniform(-1.0, 1.0) for _ in range(n_vertices)]
    for _ in range(64):
        verts = [
            Point2(rationalize(r * math.cos(t)), rationalize(r * math.sin(t)))
            for r, t in zip(radii, base)
        ]
        ok = all(
            orient(verts[i], verts[(i + 1) % n_vertices], Point2(0, 0)) > 0
            for i in range(n_vertices)
        )
        if ok:
            poly = SimplePolygon(tuple(verts))
            poly.validate()
            return poly
        radii = [1.0 + 0.7 * (r - 1.0) for r in radii]  # damp toward a regular polygon
    # the angles stay fixed, so a gap of more than pi between two of them
    # (possible for few vertices) keeps the origin out for good
    raise ValueError(
        f"radial damping failed to certify the kernel (seed {seed}, n_vertices {n_vertices})"
    )


def gen_simple(seed: int, n_vertices: int) -> SimplePolygon:
    """Random simple polygon via 2-opt untangling of a random tour."""
    if n_vertices < 3:
        raise ValueError("need at least 3 vertices")
    attempt = 0
    while True:
        rng = random.Random(f"simple:{seed}:{attempt}")
        pts = []
        while len(pts) < n_vertices:
            p = _rand_point(rng)
            if p not in pts:
                pts.append(p)
        if _has_collinear_triple(pts):
            attempt += 1
            continue
        rng.shuffle(pts)
        ring = pts[:]
        for _ in range(SIMPLE_MAX_ROUNDS):
            crossing = _first_crossing(ring)
            if crossing is None:
                poly = SimplePolygon(tuple(ring))
                if poly.signed_area == 0:
                    break
                # distinct points, no collinear triple, no meeting non-adjacent
                # edges and nonzero area: the ring is simple, no rescan needed
                return poly.ccw()
            i, j = crossing
            ring[i + 1 : j + 1] = reversed(ring[i + 1 : j + 1])
        attempt += 1


def _first_crossing(ring) -> Optional[Tuple[int, int]]:
    """First pair (i, j), i < j, of non-adjacent ring edges that meet."""
    hs = [homogeneous(p) for p in ring]
    n = len(hs)
    for i in range(n):
        a, b = hs[i], hs[(i + 1) % n]
        for j in range(i + 1, n):
            if (j + 1) % n == i or (i + 1) % n == j:
                continue
            if segments_meet(a, b, hs[j], hs[(j + 1) % n]):
                return i, j
    return None


def gen_empty_kernel(seed: int, n_vertices: int = 12) -> SimplePolygon:
    """Random simple polygon with an exactly empty kernel."""
    for attempt in range(EMPTY_KERNEL_MAX_DRAWS):
        poly = gen_simple((seed, attempt), n_vertices)
        if kernel_simple(poly).is_empty():
            return poly
    raise RuntimeError(f"no empty-kernel polygon in {EMPTY_KERNEL_MAX_DRAWS} draws (seed {seed})")

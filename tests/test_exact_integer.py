"""The integer homogeneous predicates and clipping against the rational
versions they replaced, kept in `tests/exact_oracle.py`.

Seeded sweeps, so every run checks the same cases. Both sides are exact, so
the results must be equal: the same sign, the same intersection, the same
canonical vertex tuple, the same location.
"""

import itertools
import math
import random
from fractions import Fraction

import exact_oracle as oracle

from artgallery.galleries import _apex, cone_halfplanes, disc_polygon, gen_simple, gen_star
from artgallery.geom.convex import ConvexPolygon, HalfPlane, clip_convex, convex_hull
from artgallery.geom.polygon import locate_in_ring
from artgallery.geom.primitives import Point2, on_segment, orient, pt, segments_intersect
from artgallery.kernel import kernel_halfplanes
from artgallery.rational import rat


def _small(rng):
    return Fraction(rng.randrange(-40, 41), rng.randrange(1, 9))


def _huge(rng, bits=5000):
    return Fraction(rng.getrandbits(bits) - (1 << (bits - 1)), rng.getrandbits(bits) + 1)


def _point(draw, rng):
    return pt((draw(rng), draw(rng)))


def _along(p, q, t):
    return Point2(p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


# ---------------------------------------------------------------------------
# orient, on_segment, segments_intersect


def _orient_cases(draw, rng, count):
    """Random triples, collinear triples (on the line and at the ends) and
    triples one tiny step off a line."""
    for _ in range(count):
        p, q = _point(draw, rng), _point(draw, rng)
        t = _small(rng)
        yield p, q, _point(draw, rng)
        yield p, q, _along(p, q, t)
        yield p, q, p
        yield p, q, q
        yield p, p, q
        yield p, q, Point2(_along(p, q, t)[0], _along(p, q, t)[1] + Fraction(1, 10**40))


def test_orient_matches_sign_of_cross_on_ints():
    rng = random.Random(1)
    draw = lambda r: r.randrange(-6, 7)  # noqa: E731
    for p, q, r in _orient_cases(draw, rng, 300):
        assert orient(p, q, r) == oracle.sign(oracle.cross(p, q, r))


def test_orient_matches_sign_of_cross_on_small_fractions():
    rng = random.Random(2)
    for p, q, r in _orient_cases(_small, rng, 300):
        assert orient(p, q, r) == oracle.sign(oracle.cross(p, q, r))


def test_orient_matches_sign_of_cross_on_5000_bit_fractions():
    rng = random.Random(3)
    for p, q, r in _orient_cases(_huge, rng, 8):
        assert orient(p, q, r) == oracle.sign(oracle.cross(p, q, r))


def test_on_segment_matches_oracle():
    rng = random.Random(4)
    grid = [pt((x, y)) for x in range(-3, 4) for y in range(-3, 4)]
    for _ in range(2000):
        p, a, b = rng.choice(grid), rng.choice(grid), rng.choice(grid)
        assert on_segment(p, a, b) == oracle.on_segment(p, a, b)
    for _ in range(200):
        a, b = _point(_small, rng), _point(_small, rng)
        for t in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(-1, 7), Fraction(8, 7)):
            p = _along(a, b, t)
            assert on_segment(p, a, b) == oracle.on_segment(p, a, b)


def test_segments_intersect_matches_oracle_on_a_grid():
    """A 7x7 grid makes many collinear, touching and degenerate pairs."""
    rng = random.Random(5)
    grid = [pt((x, y)) for x in range(-3, 4) for y in range(-3, 4)]
    kinds = set()
    for _ in range(4000):
        a, b, c, d = (rng.choice(grid) for _ in range(4))
        got = segments_intersect(a, b, c, d)
        assert got == oracle.segments_intersect(a, b, c, d), (a, b, c, d)
        kinds.add(None if got is None else got[0])
    assert kinds == {None, "point", "overlap"}


def test_segments_intersect_matches_oracle_on_fractions():
    rng = random.Random(6)
    for draw, count in ((_small, 2000), (lambda r: _huge(r, 1000), 60)):
        for _ in range(count):
            a, b, c, d = (_point(draw, rng) for _ in range(4))
            e = _along(a, b, _small(rng))  # c on line ab: touching and collinear cases
            for seg in ((c, d), (e, d), (e, _along(a, b, _small(rng)))):
                assert segments_intersect(a, b, *seg) == oracle.segments_intersect(a, b, *seg)


# ---------------------------------------------------------------------------
# convex_hull, ConvexPolygon.contains


def test_convex_hull_and_contains_match_oracle():
    """Hulls of grid points (collinear runs, duplicates, all-collinear sets)
    and containment of grid points, vertices and edge points."""
    rng = random.Random(10)
    grid = [pt((x, y)) for x in range(-3, 4) for y in range(-3, 4)]
    shapes = set()
    for _ in range(300):
        points = [rng.choice(grid) for _ in range(rng.randrange(1, 8))]
        if rng.random() < 0.2:
            points = [_along(points[0], grid[-1], Fraction(k, 3)) for k in range(4)]
        hull = convex_hull(points)
        assert hull.vertices == oracle.convex_hull(points).vertices
        shapes.add(min(len(hull.vertices), 3))
        n = len(hull.vertices)
        edge_points = [_along(hull.vertices[i], hull.vertices[(i + 1) % n], Fraction(1, 3)) for i in range(n)]
        for p in grid + edge_points:
            assert hull.contains(p) == oracle.convex_contains(hull, p)
    assert shapes == {1, 2, 3}


# ---------------------------------------------------------------------------
# clip_convex


def _assert_clip_matches(ring, planes):
    got = clip_convex(ring, planes)
    want = oracle.clip_convex(ring, planes)
    assert got.vertices == want.vertices, (ring, planes)
    return got


def _random_hull(rng):
    while True:
        hull = convex_hull(_point(_small, rng) for _ in range(rng.randrange(3, 10)))
        if not hull.degenerate:
            return hull


def _plane_through(rng, p):
    """A half-plane with p on its boundary and a random small normal."""
    a, b = _small(rng), _small(rng)
    if a == 0 and b == 0:
        a = rat(1)
    return HalfPlane(a, b, a * p[0] + b * p[1])


def test_clip_matches_oracle_on_random_convex_rings():
    rng = random.Random(7)
    sizes = set()
    for _ in range(300):
        hull = _random_hull(rng)
        planes = [_plane_through(rng, _point(_small, rng)) for _ in range(rng.randrange(1, 5))]
        sizes.add(min(len(_assert_clip_matches(hull, planes).vertices), 3))
    assert {0, 3} <= sizes


def test_clip_matches_oracle_through_vertices_and_along_edges():
    rng = random.Random(8)
    for _ in range(60):
        hull = _random_hull(rng)
        vs = hull.vertices
        for i, v in enumerate(vs):
            w = vs[(i + 1) % len(vs)]
            _assert_clip_matches(hull, [_plane_through(rng, v)])
            _assert_clip_matches(hull, [_plane_through(rng, v), _plane_through(rng, w)])
            _assert_clip_matches(hull, [HalfPlane.left_of_edge(v, w)])
            seg = _assert_clip_matches(hull, [HalfPlane.left_of_edge(w, v)])
            assert seg.vertices == ConvexPolygon((v, w)).vertices


def test_clip_matches_oracle_after_collapse_to_segment_or_point():
    rng = random.Random(9)
    sizes = set()
    for _ in range(60):
        hull = _random_hull(rng)
        vs = hull.vertices
        i = rng.randrange(len(vs))
        u, v = vs[i], vs[(i + 1) % len(vs)]
        to_segment = [HalfPlane.left_of_edge(v, u)]
        a, b = v[0] - u[0], v[1] - u[1]
        to_point = to_segment + [HalfPlane(a, b, a * u[0] + b * u[1])]
        assert _assert_clip_matches(hull, to_point).vertices == (u,)
        for first in (to_segment, to_point):
            for _ in range(4):
                on_line = (u, v, _along(u, v, Fraction(rng.randrange(1, 16), 16)), _along(u, v, _small(rng)))
                more = [_plane_through(rng, rng.choice(on_line)) for _ in range(rng.randrange(1, 4))]
                # cuts through the middle, then through a quarter point of each half
                halving = [_plane_through(rng, _along(u, v, Fraction(k, 4))) for k in (2, 1, 3)]
                _assert_clip_matches(hull, first + halving)
                sizes.add(len(_assert_clip_matches(hull, first + more).vertices))
                # the collapsed ring as the input ring
                _assert_clip_matches(clip_convex(hull, first).vertices, more)
    assert sizes == {0, 1, 2}


def test_clip_matches_oracle_on_spiked_cone_halfplanes():
    """The half-planes gen_spiked clips by: cones from apexes at radius 10 over
    the area-1 96-gon, applied to the radius-2 96-gon (the n-tuple minimum)
    and to the bounding square (the core)."""
    bprime = disc_polygon(96, area=1)
    mdisc = disc_polygon(96, radius=2)
    per_apex = [cone_halfplanes(_apex(2.0 * math.pi * k / 5, 10), bprime) for k in range(5)]
    for combo in list(itertools.combinations(range(5), 2))[:4]:
        out = _assert_clip_matches(mdisc, [h for k in combo for h in per_apex[k]])
        assert not out.degenerate
    square = (Point2(-4, -4), Point2(4, -4), Point2(4, 4), Point2(-4, 4))
    _assert_clip_matches(square, [h for pair in per_apex for h in pair])


def test_clip_matches_oracle_on_gallery_kernels():
    """Kernels: the bounding box clipped by every edge's inner half-plane."""
    for poly in [gen_simple(s, 12) for s in range(4)] + [gen_star(s, 9) for s in range(3)]:
        xs = [v[0] for v in poly.vertices]
        ys = [v[1] for v in poly.vertices]
        box = (
            Point2(min(xs), min(ys)), Point2(max(xs), min(ys)),
            Point2(max(xs), max(ys)), Point2(min(xs), max(ys)),
        )
        _assert_clip_matches(box, kernel_halfplanes(poly))


# ---------------------------------------------------------------------------
# locate_in_ring


def _queries(ring):
    """Ring vertices, points on every edge, and a half-step grid over the
    bounding box, whose rows pass through vertex heights."""
    n = len(ring)
    yield from ring
    for i in range(n):
        for t in (Fraction(1, 2), Fraction(1, 3)):
            yield _along(ring[i], ring[(i + 1) % n], t)
    xs = [v[0] for v in ring]
    ys = [v[1] for v in ring]
    x0, x1, y0, y1 = min(xs) - 1, max(xs) + 1, min(ys) - 1, max(ys) + 1
    for i in range(2 * int(x1 - x0) + 1):
        for j in range(2 * int(y1 - y0) + 1):
            yield Point2(x0 + Fraction(i, 2), y0 + Fraction(j, 2))


def test_locate_in_ring_matches_oracle():
    donut_outer = tuple(pt(p) for p in [(0, 0), (6, 0), (6, 6), (0, 6)])
    donut_hole = tuple(pt(p) for p in [(2, 2), (2, 4), (4, 4), (4, 2)])
    rings = [donut_outer, donut_hole] + [gen_simple(s, 12).vertices for s in range(3)]
    seen = set()
    for ring in rings:
        for p in _queries(ring):
            got = locate_in_ring(p, ring)
            assert got == oracle.locate_in_ring(p, ring), (p, ring)
            seen.add(got)
    assert seen == {"in", "on", "out"}

"""The two shortcuts of the spiked construction against the exact answers
they stand in for.

- `_tangent_vertices` walks from a float start to each extreme with exact
  signs; it must return the vertices of the linear scan it replaced
  (`exact_oracle.tangent_vertices`), ties on a supporting line included.
- `_area_bounds` encloses an exact shoelace area in two floats, read from
  a ring of integer homogeneous vertices, and `_min_area` uses the
  enclosures to skip exact areas that cannot be the minimum; the minimum
  must be the exact one, on ties and near-ties too. The rings are given as
  `clip_combinations` yields them: not rotated, and with a common factor
  left in (X, Y, W), as a line meet leaves it.
"""

import itertools
import math
from fractions import Fraction

import exact_oracle as oracle
from hypothesis import given, settings, strategies as st

from artgallery.galleries import _apex, _area_bounds, _min_area, _tangent_vertices, cone_halfplanes, disc_polygon
from artgallery.geom.convex import ConvexPolygon, clip_combinations, clip_convex, convex_hull
from artgallery.geom.primitives import Point2, homogeneous

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=100)

DISCS = [
    disc_polygon(verts, **size)
    for verts in (3, 4, 5, 6, 7, 8, 24, 96)
    for size in ({"area": 1}, {"radius": 2})
]


def _assert_walk_matches(apex, disc):
    assert _tangent_vertices(apex, disc) == oracle.tangent_vertices(apex, disc), (apex, disc)


def _edges(disc):
    """Indices of the edges to try: all of a small disc's, and a spread of
    a large one's that includes both edges at the ring's seam."""
    n = len(disc.vertices)
    return range(n) if n <= 8 else sorted({0, n - 1, *range(0, n, n // 8)})


def test_tangent_walk_matches_scan_from_spike_apexes():
    # the apexes gen_spiked builds: radius 10, angles 2*pi*k/c for c up to 40
    # and a spread of k; every third of them for the 96-gons, whose rings the
    # oracle scans at length
    apexes = sorted({
        _apex(2.0 * math.pi * k / c) for c in range(1, 41) for k in {0, 1, c // 3, c // 2, c - 1}
    })
    for disc in DISCS:
        for apex in apexes if len(disc.vertices) < 96 else apexes[::3]:
            _assert_walk_matches(apex, disc)
        # beyond float range the walk starts at vertex 0
        _assert_walk_matches(Point2(Fraction(2) ** 1100, Fraction(1, 3)), disc)


def test_tangent_walk_breaks_ties_on_an_edge_line_like_the_scan():
    # an apex on an edge's line beyond the edge sees both of its ends on one
    # tangent line; the lowest index wins, including across the ring's seam
    for disc in DISCS:
        vs = disc.vertices
        n = len(vs)
        for i in _edges(disc):
            a, b = vs[i], vs[(i + 1) % n]
            for t in (Fraction(2), Fraction(1001, 1000), Fraction(7, 2), Fraction(-1), Fraction(-1, 10**9)):
                apex = Point2(a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
                _assert_walk_matches(apex, disc)


def test_tangent_walk_matches_scan_near_the_disc():
    for disc in DISCS:
        vs = disc.vertices
        n = len(vs)
        near = []
        for i in _edges(disc):
            a, b = vs[i], vs[(i + 1) % n]
            mid = Point2((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
            for e in (3, 30):
                s = 1 + Fraction(1, 10**e)
                near += [Point2(a[0] * s, a[1] * s), Point2(mid[0] * s, mid[1] * s)]
        for apex in near:
            assert not disc.contains(apex)
            _assert_walk_matches(apex, disc)


# ---------------------------------------------------------------------------
# Area enclosure and the filtered minimum

SCALES = (0, 0, 1, -60, 60, -550, 550, -1070, -1100, 1030, 1100)
FACTORS = (1, 3, 2**70 + 1, 7**400)


def _ring(poly, factor=1, start=0):
    """The polygon's vertex images from vertex `start`, each (X, Y, W)
    multiplied by `factor`."""
    vs = poly.vertices[start:] + poly.vertices[:start]
    return [(x * factor, y * factor, w * factor) for x, y, w in map(homogeneous, vs)]


@st.composite
def convex_polygons(draw):
    """A random rational convex polygon, each axis scaled by a power of two
    from ordinary sizes to float underflow (2^-1100) and overflow (2^1100),
    and shifted so that the shoelace sum cancels."""
    coords = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
    points = draw(st.lists(st.tuples(coords, coords), min_size=3, max_size=12))
    hull = convex_hull(points)
    sx, sy = (Fraction(2) ** draw(st.sampled_from(SCALES)) for _ in range(2))
    shift = draw(st.sampled_from((0, 10**6, Fraction(10**15, 3))))
    return ConvexPolygon([(x * sx + shift, y * sy - shift) for x, y in hull.vertices])


@PROPERTY
@given(poly=convex_polygons(), factor=st.sampled_from(FACTORS), start=st.integers(0, 11))
def test_area_bounds_enclose_the_exact_area(poly, factor, start):
    lo, hi = _area_bounds(_ring(poly, factor, start % len(poly.vertices)))
    assert lo <= poly.area() <= hi


def test_area_bounds_of_a_ring_beyond_float_range_are_unbounded():
    big = Fraction(2) ** 1100
    poly = ConvexPolygon([(0, 0), (big, 0), (0, big)])
    assert _area_bounds(_ring(poly)) == (-math.inf, math.inf)
    assert _area_bounds(_ring(poly, 7**400)) == (-math.inf, math.inf)
    assert _area_bounds(_ring(ConvexPolygon([(0, 0), (1, 1)]))) == (0.0, 0.0)


@settings(PROPERTY, max_examples=30)
@given(polys=st.lists(convex_polygons(), min_size=1, max_size=6), factor=st.sampled_from(FACTORS))
def test_filtered_minimum_is_the_exact_minimum(polys, factor):
    assert _min_area(_ring(p, factor) for p in polys) == min(p.area() for p in polys)


def _shifted(poly, dx, dy):
    return ConvexPolygon([(x + dx, y + dy) for x, y in poly.vertices])


def test_filtered_minimum_on_exact_ties_and_degenerate_polygons():
    square = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    ties = [_ring(_shifted(square, 3, 5)), _ring(square, 6, 2), _ring(_shifted(square, Fraction(1, 3), -7))]
    assert _min_area(ties) == 1
    big = Fraction(2) ** 1100
    degenerate = [
        (),
        _ring(ConvexPolygon([(2, 2)])),
        _ring(ConvexPolygon([(0, 0), (big, big)])),
        [(0, 0, 1), (1, 1, 1), (2, 2, 1)],  # three collinear vertices
    ]
    for d in degenerate:
        assert _min_area(ties + [d]) == 0
        assert _min_area([d] + ties) == 0
    huge = _ring(ConvexPolygon([(0, 0), (big, 0), (0, big)]))
    assert _min_area([huge] + ties) == 1
    assert _min_area([_ring(ConvexPolygon([(0, 0), (1, 0), (0, 1)])), huge]) == Fraction(1, 2)


def test_filtered_minimum_on_near_ties_of_rotated_cones():
    # gen_spiked's n-tuple areas: cones from rationalized apex angles, so the
    # rotations of one tuple differ in their exact areas far below float
    # resolution
    bprime = disc_polygon(24, area=1)
    mdisc = disc_polygon(24, radius=2)
    for count, n in ((6, 2), (7, 3), (8, 4)):
        per_apex = [cone_halfplanes(_apex(2.0 * math.pi * k / count), bprime) for k in range(count)]
        areas = [
            clip_convex(mdisc.vertices, [h for k in combo for h in per_apex[k]]).area()
            for combo in itertools.combinations(range(count), n)
        ]
        low = min(areas)
        near = [a for a in areas if a != low and float(a) == float(low)]
        assert near, "no near-tie below float resolution"
        rings = list(clip_combinations(mdisc, per_apex, n))
        assert _min_area(iter(rings)) == low
        assert _min_area(reversed(rings)) == low

"""The exact disc and ellipse certificates of `inscribe`.

`contains_disc` and `ellipse_contained` decide containment with one exact
inequality per edge (per boundary segment, for a region). Hand cases pin the
boundary behaviour: tangent bodies hold, a body poking out by 2^-60 or
centred on or beyond the boundary does not, and in a region the nearest
point of an edge may be its end. Differential tests compare them with the
certificates they replaced (`exact_oracle`), which are one-way: whatever the
rational 96-gon certifies, the exact disc test certifies too, and every
exactly contained ellipse passes the sampled test.
"""

import random

import pytest

import exact_oracle as oracle
from test_checkers import seam_gallery
from artgallery import inscribe
from artgallery.checkers import CandidateSet, CheckConfig, _witness_in_shape, check_quantitative
from artgallery.galleries import gen_star
from artgallery.geom.convex import ConvexPolygon, HalfPlane, clip_convex, convex_hull
from artgallery.geom.polygon import PolygonWithHoles, Region, region_bbox
from artgallery.geom.primitives import Point2
from artgallery.inscribe import Ellipse, contains_disc, ellipse_contained, max_inscribed_disc, mvie
from artgallery.kernel import kernel_simple
from artgallery.rational import rat

EPS = rat(1, 2**60)
HALF = rat(1, 2)


def square():
    return ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def donut():
    return Region((PolygonWithHoles([(0, 0), (6, 0), (6, 6), (0, 6)], [[(2, 2), (2, 4), (4, 4), (4, 2)]]),))


def l_shape():
    """The reflex corner is (1, 1)."""
    return Region(([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],))


def rotated_box(pull=0):
    """The polygon {x : a.x <= 5} over four normals a, each tangent to the
    ellipse A u (|u| <= 1) with A = [[2, 1], [1, 1]]: A a is (3, 4), (4, 3),
    (-3, -4) and (-4, -3), of length 5. `pull` moves the first edge in."""
    normals = [(-1, 5), (1, 2), (1, -5), (-1, -2)]
    hps = [HalfPlane(rat(a), rat(b), rat(5) - (pull if i == 0 else 0)) for i, (a, b) in enumerate(normals)]
    box = [Point2(rat(x), rat(y)) for x, y in [(-20, -20), (20, -20), (20, 20), (-20, 20)]]
    return clip_convex(box, hps)


ROTATED = Ellipse((0.0, 0.0), 2.0, 1.0, 1.0)


@pytest.mark.parametrize("center, r, expected", [
    ((HALF, HALF), HALF, True),  # tangent to all four sides
    ((HALF, HALF), HALF + EPS, False),  # pokes out by 2^-60
    ((0, HALF), rat(1, 4), False),  # centre on the boundary
    ((2, HALF), rat(1, 4), False),  # centre outside, disc beyond an edge
    ((HALF, HALF), rat(1, 10**12), True),  # far below any float rounding
])
def test_disc_in_square(center, r, expected):
    assert contains_disc(square(), center, r) is expected
    assert contains_disc(Region((square().vertices,)), center, r) is expected


@pytest.mark.parametrize("center, r, expected", [
    ((1, 3), 1, True),  # fits the ring, tangent to the outer wall and the hole
    ((rat(3, 2), 3), rat(3, 4), False),  # overlaps the hole
    ((3, 3), HALF, False),  # centred in the hole
    ((1, 3), 1 + EPS, False),
])
def test_disc_in_donut(center, r, expected):
    assert contains_disc(donut(), center, r) is expected


@pytest.mark.parametrize("r, expected", [
    # the lines x = 1 and y = 1 pass 2/5 from the centre, but their edges
    # start at the reflex corner, sqrt(8)/5 away
    (HALF, True),
    # the reflex corner, the nearest point of both its edges, is closer
    # than r; every other edge is at least 3/5 away
    (rat(29, 50), False),
])
def test_disc_at_reflex_corner_measures_to_the_segment(r, expected):
    assert contains_disc(l_shape(), (rat(3, 5), rat(3, 5)), r) is expected


@pytest.mark.parametrize("shape, ell, expected", [
    (square(), Ellipse((0.5, 0.5), 0.5, 0.0, 0.5), True),
    (ConvexPolygon([(0, 0), (2, 0), (2, 1), (0, 1)]), Ellipse((1.0, 0.5), 1.0, 0.0, 0.5), True),
    (rotated_box(), ROTATED, True),  # tangent to all four edges
    (rotated_box(pull=EPS), ROTATED, False),  # pokes out by 2^-60 / |a|
    (square(), Ellipse((2.0, 0.5), 0.25, 0.0, 0.25), False),  # centre outside
    (square(), Ellipse((0.0, 0.5), 0.25, 0.0, 0.25), False),  # centre on the boundary
])
def test_ellipse_hand_cases(shape, ell, expected):
    assert ellipse_contained(shape, ell) is expected


def test_tiny_disc_certifies_in_a_region():
    """A radius of 1e-12 certifies in the seam gallery's common
    visibilities: no tuple is left to the certificate's resolution."""
    g = seam_gallery()
    cand = CandidateSet.from_points(g, [v for v, tag in g.structural_points() if tag == "vertex"])
    rep = check_quantitative(g, cand, CheckConfig(family="disc", threshold=rat(1, 10**12)))
    assert "disc-certificate-failed" not in rep.qualifiers


def test_uncertified_ellipse_is_undetermined(monkeypatch):
    kern = kernel_simple(gen_star(0, 12))
    monkeypatch.setattr(inscribe, "ellipse_contained", lambda c, ell: False)
    assert mvie(kern) is None
    cfg = CheckConfig(family="ellipse", threshold=rat(1, 50))
    assert _witness_in_shape(kern, "ellipse", cfg) == ("undetermined", None, "ellipse-certificate-failed")


def star_kernels(count):
    return [kernel_simple(gen_star(seed, 12)) for seed in range(count)]


def random_hulls(rng, count):
    hulls = []
    while len(hulls) < count:
        hull = convex_hull([(rng.randrange(0, 12), rng.randrange(0, 12)) for _ in range(8)])
        if not hull.degenerate:
            hulls.append(hull)
    return hulls


def test_oracle_disc_certificate_implies_exact():
    """Seeded centres and radii in convex polygons and regions: every disc
    the rational 96-gon certifies, the exact test certifies too."""
    rng = random.Random(14)
    shapes = star_kernels(4) + random_hulls(rng, 4) + [donut(), l_shape()]
    certified = 0
    for shape in shapes:
        (x0, y0), (x1, y1) = region_bbox(shape if isinstance(shape, Region) else Region((shape.vertices,)))
        for _ in range(12):
            center = (x0 + (x1 - x0) * rat(rng.randrange(1, 16), 16), y0 + (y1 - y0) * rat(rng.randrange(1, 16), 16))
            r = min(x1 - x0, y1 - y0) * rat(rng.randrange(1, 24), 64)
            if oracle.disc_polygon_certificate(shape, center, r):
                certified += 1
                assert contains_disc(shape, center, r), (shape, center, r)
    assert certified >= 30


def test_exact_ellipse_passes_sampled_oracle():
    """The fitted ellipses, and scaled and shifted copies, of star kernels
    and random hulls: each one the exact test accepts passes the sampled
    test."""
    rng = random.Random(14)
    accepted = 0
    for c in star_kernels(3) + random_hulls(rng, 3):
        ell = mvie(c)
        assert ell is not None
        cands = [ell]
        for _ in range(16):
            s, dx, dy = rng.uniform(0.8, 1.05), rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)
            cands.append(Ellipse((ell.center[0] + dx, ell.center[1] + dy), ell.a11 * s, ell.a12 * s, ell.a22 * s))
        for e in cands:
            if ellipse_contained(c, e):
                accepted += 1
                assert oracle.sampled_ellipse_contained(c, e), (c, e)
    assert accepted >= 50


def test_round_ellipse_agrees_with_disc():
    """For A = rI the ellipse certificate and the disc certificate are the
    same inequality, read from the same floats."""
    rng = random.Random(14)
    held = 0
    for kern in star_kernels(6):
        disc = max_inscribed_disc(kern)
        for _ in range(20):
            x = disc.cx + rng.uniform(-0.3, 0.3) * disc.r
            y = disc.cy + rng.uniform(-0.3, 0.3) * disc.r
            r = disc.r * rng.uniform(0.5, 1.1)
            verdict = contains_disc(kern, (x, y), r)
            assert ellipse_contained(kern, Ellipse((x, y), r, 0.0, r)) is verdict
            held += verdict
    assert 20 <= held <= 100

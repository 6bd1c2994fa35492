"""visibility_polygon against the rational sweep it replaced.

`kernel_oracle.rational_visibility_polygon` divides `Fraction`s for every
edge of every sector; `visibility_polygon` decides ray/edge touches by
integer signs on the gallery's homogeneous images. Both are exact, so each
case asks for the same Region: the same rings, in the same vertex order.
The sector decisions are compared too: on every sector's middle ray, the
edge `_exit_edge` finds by the first crossing is the edge the oracle's walk
over all ray events ends at. The region alone would not show a wrong edge
whose line happens to give the same vertices.

Viewpoints are chosen where the sweep has its special cases: vertices (a
sector ray runs along each incident edge), edge interiors (half the
directions leave at once), meets of two edge lines inside the gallery (sector
rays through collinear vertices), and seeded points with 1,000-bit
denominators. Two hand-made cases take the branches of `_exit_edge` that
random galleries may miss: a middle ray that crosses no edge, and edges that
touch a middle ray's line behind the viewpoint.
"""

import itertools
import random
from fractions import Fraction

import pytest
import kernel_oracle
from kernel_oracle import rational_visibility_polygon

from artgallery.galleries import gen_simple
from artgallery.gallery import Gallery
from artgallery.geom.polygon import PolygonWithHoles, SimplePolygon, locate_in_polygon, region_bbox
from artgallery.geom.primitives import Point2, from_homogeneous, homogeneous, join, meet, sort_directions
from artgallery.rational import Q
from artgallery.visibility import _exit_edge, _view, visibility_polygon


def donut():
    return Gallery(PolygonWithHoles([(0, 0), (6, 0), (6, 6), (0, 6)], [[(2, 2), (2, 4), (4, 4), (4, 2)]]))


def two_holes():
    return Gallery(
        PolygonWithHoles(
            [(0, 0), (9, 0), (9, 6), (0, 6)],
            [[(2, 3), (2, 5), (4, 5), (4, 3)], [(5, 1), (5, 3), (7, 3), (7, 1)]],
        )
    )


PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157)
DIRECTIONS = (
    (1, 0), (2, 1), (1, 2), (0, 1), (-1, 2), (-2, 1),
    (-1, 0), (-2, -1), (-1, -2), (0, -1), (1, -2), (2, -1),
)


def distinct_denominators():
    """A 12-gon, star-shaped about the origin, whose vertex i is
    r*DIRECTIONS[i] + (1/p, 1/p) for the prime p = PRIMES[i]: no two vertices
    share a denominator."""
    ring = []
    for i, (p, (dx, dy)) in enumerate(zip(PRIMES, DIRECTIONS)):
        r = 3 if i % 2 == 0 else 1
        ring.append(Point2(Q(r * dx * p + 1, p), Q(r * dy * p + 1, p)))
    return Gallery(SimplePolygon(ring).validate())


GALLERIES = {f"simple-{seed}": (lambda seed=seed: Gallery(gen_simple(seed, 24))) for seed in range(6)}
GALLERIES.update({"donut": donut, "two-holes": two_holes, "distinct-denominators": distinct_denominators})


def edge_line_meets(g):
    """Points where two edge lines cross strictly inside the gallery."""
    edges = [tuple(homogeneous(v) for v in e) for e in g.polygon.boundary_edges()]
    lines = [join(a, b) for a, b in edges]
    out = []
    for l1, l2 in itertools.combinations(lines, 2):
        p = meet(l1, l2)
        if p[2] and locate_in_polygon(q := from_homogeneous(p), g.polygon) == "in":
            out.append(q)
    return list(dict.fromkeys(out))


def big_denominator_points(g, rng, count):
    """Seeded gallery points whose coordinates have 1,000-bit denominators."""
    (x0, y0), (x1, y1) = region_bbox(g.polygon)
    out = []
    while len(out) < count:
        den = rng.getrandbits(1000) | (1 << 999) | 1
        p = Point2(x0 + (x1 - x0) * Fraction(rng.randrange(den), den),
                   y0 + (y1 - y0) * Fraction(rng.randrange(den), den))
        if locate_in_polygon(p, g.polygon) == "in":
            out.append(p)
    return out


def viewpoints(name, g):
    rng = random.Random(f"viewpoints:{name}")
    vertices = [v for ring in g.polygon.rings() for v in ring]
    edges = list(g.polygon.boundary_edges())
    on_edges = [Point2(a[0] + (b[0] - a[0]) / 3, a[1] + (b[1] - a[1]) / 3)
                for a, b in rng.sample(edges, 3)]
    meets = edge_line_meets(g)
    return (
        rng.sample(vertices, 3)
        + on_edges
        + rng.sample(meets, min(3, len(meets)))
        + big_denominator_points(g, rng, 2)
    )


def middle_rays(view):
    """The sector middles the sweep from the view's viewpoint decides, built
    as `visibility_polygon` builds them."""
    offsets = [(rx, ry) for _, rx, ry in view.verts if rx or ry]
    dirs = sort_directions([(1, 0), (0, 1), (-1, 0), (0, -1)] + offsets)
    return [(a[0] + b[0], a[1] + b[1]) for a, b in zip(dirs, dirs[1:] + dirs[:1])]


def assert_exit_edges_match(g, x):
    """On every middle ray of the sweep from x, `_exit_edge` names the edge
    the oracle's walk along the same ray ends at (None for None)."""
    view = _view(g.polygon, x)
    edges = list(g.polygon.boundary_edges())
    for u in middle_rays(view):
        got = _exit_edge(view, u)
        _, want = kernel_oracle._visible_radius(g.polygon, edges, x, (Q(u[0]), Q(u[1])))
        assert (None if got is None else edges[got]) == want, (x, u)


def test_distinct_denominators_gallery_has_them():
    vertices = distinct_denominators().polygon.outer.vertices
    dens = [c.denominator for v in vertices for c in v]
    assert len(set(dens)) == len(vertices) == len(PRIMES)


@pytest.mark.parametrize("name", sorted(GALLERIES))
def test_visibility_polygon_matches_rational_sweep(name):
    g = GALLERIES[name]()
    kinds = set()
    for x in viewpoints(name, g):
        got = visibility_polygon(g, x)
        want = rational_visibility_polygon(g, x)
        assert [list(r) for r in got.rings()] == [list(r) for r in want.rings()], (name, x)
        assert_exit_edges_match(g, x)
        kinds.add(locate_in_polygon(x, g.polygon))
    assert kinds == {"in", "on"}


def on_edge_of_square():
    """x on the bottom edge of a convex square: the rays below it cross no
    edge, so `_exit_edge` locates the point at tau = 1."""
    g = Gallery(SimplePolygon([(0, 0), (4, 0), (4, 4), (0, 4)]).validate())
    x = Point2(Q(1), Q(0))
    edges = list(g.polygon.boundary_edges())
    outward = [u for u in middle_rays(_view(g.polygon, x)) if u[1] < 0]
    assert outward == [(-1, -1), (1, -1)]
    for u in outward:
        assert kernel_oracle._ray_events(x, (Q(u[0]), Q(u[1])), edges) == []
    return g, x


def vertex_behind_viewpoint():
    """A reflex vertex at -u/2 on the middle ray u = (1, 1) from the origin:
    its two edges touch the ray's line at tau < 0, and only the edge from
    (2, 0) to (0, 2) is crossed."""
    notch = Point2(Q(-1, 2), Q(-1, 2))
    g = Gallery(SimplePolygon([(2, 0), (0, 2), (-2, 0), notch, (0, -2)]).validate())
    x = Point2(Q(0), Q(0))
    view = _view(g.polygon, x)
    assert (1, 1) in middle_rays(view)
    edges = list(g.polygon.boundary_edges())
    assert [e for e in edges if notch in e] == [((-2, 0), notch), (notch, (0, -2))]
    assert edges[_exit_edge(view, (1, 1))] == ((2, 0), (0, 2))
    return g, x


@pytest.mark.parametrize("case", [on_edge_of_square, vertex_behind_viewpoint])
def test_exit_edge_branches(case):
    g, x = case()
    assert_exit_edges_match(g, x)
    got = visibility_polygon(g, x)
    want = rational_visibility_polygon(g, x)
    assert [list(r) for r in got.rings()] == [list(r) for r in want.rings()]

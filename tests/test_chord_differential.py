"""Skeletal and pinched chords against the interval cover they replaced.

`visibility._cover` cuts each convex piece on the integer lines of a cut
line's two sides and of two end caps, and `pinched_visibility` cuts each
component on a ray with one cap. `kernel_oracle._trace`, `_merge` and
`_cover` are the code that ran before: rational ray parameters, one
`Fraction` division each. Both must give the same runs, as points, on every
pair of sweep points of the interval-visibility galleries and of seeded
claim 2.2 galleries, on every pinch ray of the pinched ones, and on hand
cases for collinear overlaps, point runs, vertex and edge touches and the
point query a == b.
"""

import itertools

import pytest

import kernel_oracle
from test_interval_visibility import GALLERIES, diamond_chain, sweep_points

from artgallery.gallery import SkeletalGallery
from artgallery.galleries import gen_claim22, gen_fig1
from artgallery.geom.convex import ConvexPolygon
from artgallery.geom.primitives import Point2, Segment2, homogeneous, pt
from artgallery.rational import rat
from artgallery.visibility import _chords, _cover, pinched_visibility


def at(x, d, t):
    return Point2(x[0] + t * d[0], x[1] + t * d[1])


def oracle_cover(pieces, a, b):
    """The oracle's runs on [a, b] as point pairs, in order from a to b."""
    d = (b[0] - a[0], b[1] - a[1]) if a != b else (1, 0)
    return [(at(a, d, lo), at(a, d, hi)) for lo, hi in kernel_oracle._cover(pieces, a, b)]


def pieces_of(g):
    """The gallery's pieces, and for a pinched one also the segments its
    first sweep point sees, as `Cover.meet` mixes them."""
    if isinstance(g, SkeletalGallery):
        return list(g.segments)
    return list(g.components) + list(pinched_visibility(g, sweep_points(g)[0])[1])


CASES = dict(GALLERIES)
CASES.update({f"claim22-seed{s}": (lambda s=s: gen_claim22(3, (3, 3, 3), seed=s)) for s in (3, 4, 5)})


@pytest.mark.parametrize("name", sorted(CASES))
def test_cover_matches_interval_oracle(name):
    g = CASES[name]()
    pieces = pieces_of(g)
    runs = 0
    for a, b in itertools.product(sweep_points(g), repeat=2):
        got = _cover(pieces, a, b)
        assert got == oracle_cover(pieces, a, b), (a, b)
        runs += len(got)
    assert runs > 0


@pytest.mark.parametrize("make", [gen_fig1, diamond_chain], ids=["fig1", "chain"])
def test_pinch_ray_chords_match_interval_oracle(make):
    g = make()
    rays = 0
    for x in sweep_points(g):
        hx = homogeneous(x)
        for P in g.pinch_points:
            if P == x:
                continue
            d = (P[0] - x[0], P[1] - x[1])
            got = _chords(g.components, hx, homogeneous(P), (hx,))
            for comp, chord in zip(g.components, got):
                iv = kernel_oracle._trace(comp, x, d, 0)
                want = None if iv is None else (at(x, d, iv[0]), at(x, d, iv[1]))
                assert (chord and chord[2:]) == want, (x, P)
            rays += 1
    assert rays > 0


def seg(a, b):
    return Segment2(pt(a), pt(b))


H = rat(1, 2)
SQUARE = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
DIAMOND = ConvexPolygon([(0, 0), (1, -1), (2, 0), (1, 1)])

HAND = {
    "collinear-overlap": ([seg((0, 0), (2, 0)), seg((3, 0), (1, 0))], (0, 0), (3, 0), [((0, 0), (3, 0))]),
    "collinear-overlap-capped": (
        [seg((0, 0), (2, 0)), seg((3, 0), (1, 0))], (1, 0), (5 * H, 0), [((1, 0), (5 * H, 0))]
    ),
    "collinear-reversed": ([seg((0, 0), (2, 0)), seg((1, 0), (3, 0))], (3, 0), (0, 0), [((3, 0), (0, 0))]),
    "end-to-end": ([seg((0, 0), (1, 0)), seg((1, 0), (2, 0))], (0, 0), (2, 0), [((0, 0), (2, 0))]),
    "endpoint-touch": ([seg((1, 0), (1, 5))], (0, 0), (2, 0), [((1, 0), (1, 0))]),
    "crossing": ([seg((1, -1), (1, 1)), seg((3, -1), (3, 1))], (0, 0), (2, 0), [((1, 0), (1, 0))]),
    "gap": ([seg((0, 0), (1, 0)), seg((2, 0), (3, 0))], (0, 0), (3, 0), [((0, 0), (1, 0)), ((2, 0), (3, 0))]),
    "vertex-touch": ([DIAMOND], (0, 1), (3, 1), [((1, 1), (1, 1))]),
    "edge-touch": ([SQUARE], (-1, 0), (3, 0), [((0, 0), (1, 0))]),
    "edge-capped": ([SQUARE], (H / 2, 1), (H, 1), [((H / 2, 1), (H, 1))]),
    "through": ([SQUARE, DIAMOND], (-1, 0), (3, 0), [((0, 0), (2, 0))]),
    "point-inside": ([SQUARE], (H, H), (H, H), [((H, H), (H, H))]),
    "point-vertex": ([SQUARE], (1, 1), (1, 1), [((1, 1), (1, 1))]),
    "point-on-segment": ([seg((0, 0), (2, 2))], (1, 1), (1, 1), [((1, 1), (1, 1))]),
    "point-outside": ([SQUARE, seg((0, 0), (2, 2))], (2, 0), (2, 0), []),
}


@pytest.mark.parametrize("name", sorted(HAND))
def test_cover_hand_cases(name):
    pieces, a, b, want = HAND[name]
    a, b = pt(a), pt(b)
    want = [(pt(p), pt(q)) for p, q in want]
    assert _cover(pieces, a, b) == want
    assert oracle_cover(pieces, a, b) == want

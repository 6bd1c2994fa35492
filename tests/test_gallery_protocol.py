"""The gallery-kind protocol shared by Gallery, PinchedGallery and
SkeletalGallery: seeded candidates, common visibility with and without a
cache, skeletal kernels, and exact skeletal witness documents."""

import hashlib
import itertools
import json
import random

import pytest

import exact_oracle

from artgallery import docio, visibility
from artgallery.checkers import CandidateSet, CheckConfig, check_colorful_general, check_quantitative
from artgallery.gallery import Gallery, NotAreal, SkeletalGallery, ViewCache
from artgallery.galleries import gen_claim22, gen_empty_kernel, gen_fig1, gen_spider, gen_star
from artgallery.geom.polygon import PolygonWithHoles, locate_in_polygon
from artgallery.rational import fmt, rat
from artgallery.visibility import (
    common_visibility,
    pinched_common_visibility,
    skeletal_common_visibility,
)


def donut():
    return Gallery(
        PolygonWithHoles([(0, 0), (6, 0), (6, 6), (0, 6)], [[(2, 2), (2, 4), (4, 4), (4, 2)]]),
        name="donut",
    )


def plus(scale=1):
    s = rat(scale)
    return SkeletalGallery([((-s, 0), (s, 0)), ((0, -s), (0, s))], name="plus")


# sha256 of the seeded default candidates (points as exact strings, and
# their tags), recorded before the kinds answered for themselves.
CANDIDATE_PINS = {
    "donut": (36, "531a3f04ea16de7b77c4a313f78bee12bc9a4185d244d03cbf27b2f44294c8e7"),
    "star": (44, "38741375aee1c76c3e2a240c97e4048db414ea9a1f167d93573c1ca8916c02fb"),
    "fig1": (42, "8bdb8fd8356e5ba81f125af335cfac3efca4149536dc263367402025fdf240f2"),
    "spider": (58, "97ba1484a8843a535348d2113427fafeb321404e9e067aea5155ae8ba724f7b5"),
}
GALLERIES = {
    "donut": donut,
    "star": lambda: Gallery(gen_star(0, 12)),
    "fig1": gen_fig1,
    "spider": gen_spider,
    "claim22": lambda: gen_claim22(3, (3, 3, 3), 0),
}


@pytest.mark.parametrize("name", sorted(CANDIDATE_PINS))
def test_default_candidates_are_pinned(name):
    c = CandidateSet.default(GALLERIES[name](), seed=3, random_count=20)
    text = json.dumps([[fmt(p[0]), fmt(p[1]), t] for p, t in zip(c.points, c.tags)])
    assert (len(c), hashlib.sha256(text.encode()).hexdigest()) == CANDIDATE_PINS[name]


def reference_random_points(g, rng, count):
    """`random_points` as it was: a rational grid point for every draw, then
    exact membership ("in" for a polygonal gallery, any component for a
    pinched one)."""
    if isinstance(g, Gallery):
        box, budget = _bbox([v for ring in g.polygon.rings() for v in ring]), 500 * count

        def draw():
            p = exact_oracle.grid_point(rng, *box)
            return p, locate_in_polygon(p, g.polygon) == "in"
    else:
        boxes, budget = [_bbox(c.vertices) for c in g.components], 200 * count

        def draw():
            k = rng.randrange(len(boxes))
            p = exact_oracle.grid_point(rng, *boxes[k])
            return p, g.components[k].contains(p)
    out = []
    while len(out) < count and budget > 0:
        budget -= 1
        p, inside = draw()
        if inside:
            out.append(p)
    return out


def _bbox(points):
    return (min(p[0] for p in points), min(p[1] for p in points),
            max(p[0] for p in points), max(p[1] for p in points))


RANDOM_POINT_GALLERIES = {
    "donut": donut,
    "star": lambda: Gallery(gen_star(0, 12)),
    "empty-kernel-24": lambda: Gallery(gen_empty_kernel(1, 24)),
    "thin-sliver": lambda: Gallery(
        [(rat("-3/7"), rat("-1/3")), (rat("5/11"), rat("-1/3")), (rat("-2/9"), rat("1/1000"))]
    ),
    "fig1": gen_fig1,
}


@pytest.mark.parametrize("name", sorted(RANDOM_POINT_GALLERIES))
def test_random_points_match_rational_draws(name):
    """Locating each draw by its integer image and building only the
    accepted points keeps the draws, the points and the rng's state."""
    g = RANDOM_POINT_GALLERIES[name]()
    for seed in range(4):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        points = g.random_points(rng, 30)
        assert points == reference_random_points(g, ref_rng, 30)
        assert len(points) == 30 and rng.getstate() == ref_rng.getstate()


# Every kind honours the viewpoint cache and a ViewCache's prefix chain, and
# a cached answer equals the kind's uncached common visibility.
UNCACHED = {
    "donut": common_visibility,
    "spider": skeletal_common_visibility,
    "fig1": pinched_common_visibility,
    "claim22": skeletal_common_visibility,
}


def scan_orders(g):
    """Triples of eight candidates in `combinations` order, and three
    overlapping classes in `product` order, repeats dropped as the colorful
    scan drops them."""
    points = CandidateSet.default(g, seed=0, random_count=2).points[:8]
    classes = (points[0:3], points[2:5], points[4:8])
    return points, {
        "combinations": list(itertools.combinations(points, 3)),
        "product": [tuple(dict.fromkeys(tup)) for tup in itertools.product(*classes)],
    }


@pytest.mark.parametrize("name", sorted(UNCACHED))
def test_cached_common_visibility_matches_uncached(name):
    g = GALLERIES[name]()
    points, orders = scan_orders(g)
    for order, tuples in orders.items():
        for cache in ({}, ViewCache()):
            # the first tuple again, after the scan has moved the chain on
            for tup in tuples + tuples[:1]:
                assert g.common_visibility(tup, cache) == UNCACHED[name](g, tup), (order, type(cache).__name__, tup)
            assert set(cache) == set(points)


def test_prefix_chain_saves_skeletal_clips(monkeypatch):
    g = GALLERIES["claim22"]()
    tuples = scan_orders(g)[1]["product"]
    calls = []
    clip = visibility._clip
    monkeypatch.setattr(visibility, "_clip", lambda *args: calls.append(args) or clip(*args))
    clips = {}
    for cache in ({}, ViewCache()):
        calls.clear()
        for tup in tuples:
            g.common_visibility(tup, cache)
        clips[type(cache)] = len(calls)
    assert clips[ViewCache] < clips[dict]


def test_every_kind_answers_is_empty():
    sk = plus()
    line = sk.common_visibility([(-1, 0), (1, 0)])
    assert line.points == () and len(line.segments) == 1
    corner = sk.common_visibility([(-1, 0), (0, 1)])
    assert corner.points == ((0, 0),) and corner.segments == ()
    assert not corner.is_empty()
    fig1 = gen_fig1()
    red = fig1.class_points("red")
    assert fig1.common_visibility([red[0], red[1]]).is_empty()
    assert not donut().common_visibility([(0, 0), (1, 0)]).is_empty()


def test_skeletal_kernel_is_not_areal():
    assert issubclass(NotAreal, TypeError) and issubclass(NotAreal, ValueError)
    with pytest.raises(NotAreal, match="areal galleries only"):
        plus().kernel_status()
    cfg = CheckConfig(family="vwidth-segment", threshold=rat(1))
    with pytest.raises(NotAreal):
        check_quantitative(plus(), None, cfg)


def test_skeletal_witness_document_holds_exact_coordinates():
    # 2^15000 / 3 has more than 4,300 digits, past Python's int/str limit
    s = rat(2**15000, 3)
    g = plus(s)
    rep = check_colorful_general(g, [[(-s, 0), (s, 0)], [(0, s)]])
    assert rep.conclusion_verdict == "holds"
    (label, shape), = json.loads(docio.dumps(docio.report_to_document(rep)))[
        "deterministic"]["witnesses"]
    assert label == "class-1-common-visibility"
    assert shape["type"] == "skeletal-visibility"
    assert shape["points"] == []
    ((ax, ay), (bx, by)), = shape["segments"]
    assert sorted((rat(ax), rat(bx))) == [-s, s] and rat(ay) == rat(by) == 0

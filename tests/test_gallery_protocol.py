"""The gallery-kind protocol shared by Gallery, PinchedGallery and
SkeletalGallery: seeded candidates, common visibility with and without a
cache, skeletal kernels, and exact skeletal witness documents."""

import hashlib
import itertools
import json

import pytest

from artgallery import docio
from artgallery.checkers import CandidateSet, CheckConfig, check_colorful_general, check_quantitative
from artgallery.gallery import Gallery, NotAreal, SkeletalGallery
from artgallery.galleries import gen_fig1, gen_spider, gen_star
from artgallery.geom.polygon import PolygonWithHoles
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
}


@pytest.mark.parametrize("name", sorted(CANDIDATE_PINS))
def test_default_candidates_are_pinned(name):
    c = CandidateSet.default(GALLERIES[name](), seed=3, random_count=20)
    text = json.dumps([[fmt(p[0]), fmt(p[1]), t] for p, t in zip(c.points, c.tags)])
    assert (len(c), hashlib.sha256(text.encode()).hexdigest()) == CANDIDATE_PINS[name]


# Every kind honours the viewpoint cache, and a cached answer equals the
# kind's uncached common visibility.
UNCACHED = {
    "donut": common_visibility,
    "spider": skeletal_common_visibility,
    "fig1": pinched_common_visibility,
}


@pytest.mark.parametrize("name", sorted(UNCACHED))
def test_cached_common_visibility_matches_uncached(name):
    g = GALLERIES[name]()
    points = CandidateSet.default(g, seed=0, random_count=2).points[:8]
    cache = {}
    for tup in itertools.combinations(points, 3):
        assert g.common_visibility(tup, cache) == UNCACHED[name](g, tup)
    assert set(cache) == set(points)


def test_every_kind_answers_is_empty():
    sk = plus()
    lone, segs = sk.common_visibility([(-1, 0), (1, 0)])
    assert lone == () and len(segs) == 1
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

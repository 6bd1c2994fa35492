"""Skeletal and pinched visibility as interval cover.

Both kinds are finite unions of closed convex pieces (segments, convex
polygons), so x sees y exactly when the pieces' traces on the line through x
and y cover [x, y]. Two checks hold the implementation to that definition:
a property test of common visibility against pairwise `sees`, and a pinned
digest of a seeded sweep of every skeletal and pinched output.
"""

import hashlib
import itertools
import json

import pytest

from artgallery import docio
from artgallery.checkers import CandidateSet, check_colorful_general, check_colorful_plane
from artgallery.gallery import PinchedGallery, SkeletalGallery
from artgallery.galleries import gen_claim22, gen_fig1, gen_spider
from artgallery.geom import convex
from artgallery.geom.primitives import Point2, on_segment
from artgallery.rational import fmt
from artgallery.visibility import pinched_visibility, sees, skeletal_visibility


def plus():
    return SkeletalGallery([((-1, 0), (1, 0)), ((0, -1), (0, 1))], name="plus")


def t_continued():
    """A T whose bar continues collinearly, overlaps on its stem and has a
    collinear piece past a gap."""
    return SkeletalGallery(
        [((0, 0), (2, 0)), ((2, 0), (3, 0)), ((4, 0), (5, 0)), ((1, 0), (1, 2)), ((1, 1), (1, 3))],
        name="t",
    )


def diamond_chain():
    """Three diamonds glued at (2, 0) and (4, 0): both pinches on one line."""
    return PinchedGallery(
        [[(2 * k, 0), (2 * k + 1, -1), (2 * k + 2, 0), (2 * k + 1, 1)] for k in range(3)],
        name="chain",
    ).validate()


GALLERIES = {
    "spider": gen_spider,
    "claim22-a": lambda: gen_claim22(2, (3, 3), seed=0),
    "claim22-b": lambda: gen_claim22(2, (3, 4), seed=2),
    "plus": plus,
    "t": t_continued,
    "fig1": gen_fig1,
    "chain": diamond_chain,
}


def sweep_points(g, count=9):
    """Class points first, then seeded default candidates, `count` in all."""
    classes = [p for _, points in g.classes for p in points]
    candidates = CandidateSet.default(g, seed=1, random_count=4).points
    step = max(1, len(candidates) // count)
    return list(dict.fromkeys(classes[::3] + list(candidates[::step])))[:count]


def tuples(points):
    return list(itertools.combinations(points, 2)) + list(itertools.combinations(points[:6], 3))


def member(g, common, y):
    """y in the common visibility, decided from its parts alone."""
    if y in common.points or any(on_segment(y, s.a, s.b) for s in common.segments):
        return True
    return any(g.components[i].contains(y) for i in getattr(common, "full", ()))


@pytest.mark.parametrize("name", sorted(GALLERIES))
def test_common_visibility_is_pairwise_sight(name):
    g = GALLERIES[name]()
    points = sweep_points(g)
    candidates = CandidateSet.default(g, seed=1, random_count=4).points
    sight = {}  # (x, y) -> sees(g, x, y); tuples share viewpoints and targets
    checks = 0
    for tup in tuples(points):
        common = g.common_visibility(tup)
        targets = list(candidates) + list(common.points)
        for s in common.segments:
            targets += [s.a, s.b, Point2((s.a[0] + s.b[0]) / 2, (s.a[1] + s.b[1]) / 2)]
        for y in dict.fromkeys(targets):
            for x in tup:
                if (x, y) not in sight:
                    sight[x, y] = sees(g, x, y)
            assert member(g, common, y) == all(sight[x, y] for x in tup), (tup, y)
            checks += 1
    assert checks > 200


@pytest.mark.parametrize("name", ["fig1", "chain"])
def test_pinch_points_are_computed_once(name, monkeypatch):
    g = GALLERIES[name]()
    assert g.pinch_points == tuple(dict.fromkeys(p for *_, p in g._meets()))
    calls = []
    monkeypatch.setattr(convex, "convex_intersect", lambda *a: calls.append(a))
    for x in sweep_points(g):
        pinched_visibility(g, x)
    assert calls == []


def _pt(p):
    return [fmt(p[0]), fmt(p[1])]


def _segs(segments):
    return [[_pt(s.a), _pt(s.b)] for s in segments]


def sweep(name):
    """Every skeletal and pinched output on one gallery, as JSON-ready data.
    Isolated common points are sorted: their order is not part of the result."""
    g = GALLERIES[name]()
    points = sweep_points(g)
    out = {"sees": "".join("1" if sees(g, x, y) else "0" for x in points for y in points)}
    if isinstance(g, SkeletalGallery):
        out["view"] = [_segs(skeletal_visibility(g, x)) for x in points]
    else:
        out["view"] = [[list(full), _segs(segs)]
                       for full, segs in (pinched_visibility(g, x) for x in points)]
    out["common"] = [
        [list(getattr(c, "full", ())), _segs(c.segments), sorted(_pt(p) for p in c.points)]
        for c in (g.common_visibility(tup) for tup in tuples(points))
    ]
    return out


def colorful_reports():
    spider, fig1 = gen_spider(), gen_fig1()
    claim = GALLERIES["claim22-a"]()
    s, f, c = dict(spider.classes), dict(fig1.classes), dict(claim.classes)
    reports = [
        check_colorful_general(spider, [s["red"], s["green"], s["blue"]]),
        check_colorful_general(claim, [c["F1"], c["F2"]]),
        check_colorful_plane(fig1, f["red"], f["blue"], f["black"]),
        check_colorful_plane(fig1, f["red"], f["blue"], f["blue"]),
    ]
    return [docio.report_to_document(r)["deterministic"] for r in reports]


# sha256 of the sweep below, recorded before the two kinds shared one
# interval core.
SWEEP_PIN = "0e2d8783f25cfd3388b7e373bfa65d58f159fe72bee85ae29df33b77202feed4"


def test_sweep_output_is_pinned():
    data = {name: sweep(name) for name in sorted(GALLERIES)}
    data["reports"] = colorful_reports()
    text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_PIN

"""Theorem checkers: candidate sets, kernel status, classifications, fuzzing.

Hypothesis verdicts are always relative to the finite candidate set;
conclusions and emptiness facts are exact. A report may only claim
THEOREM_VIOLATION_CANDIDATE when the conclusion failure is certified.
"""

import pytest

from artgallery.checkers import (
    CandidateSet,
    CheckConfig,
    NotSimplyConnected,
    TheoremReport,
    check_classic,
    check_colorful_general,
    check_colorful_plane,
    check_quantitative,
    halfplane_triple_empty,
    kernel_status,
    search_counterexample,
)
from artgallery.gallery import Gallery, PinchedGallery
from artgallery.galleries import gen_claim22, gen_empty_kernel, gen_fig1, gen_spider, gen_star
from artgallery.geom.convex import ConvexPolygon, HalfPlane
from artgallery.geom.polygon import PolygonWithHoles
from artgallery.geom.primitives import pt
from artgallery.rational import rat


def square_gallery(side=4):
    s = rat(side)
    return Gallery(
        polygon=PolygonWithHoles([(0, 0), (s, 0), (s, s), (0, s)], []), classes=(), name="sq"
    )


def l_gallery():
    return Gallery(
        polygon=PolygonWithHoles([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], []),
        classes=(),
        name="L",
    )


def star_gallery(seed, n=10):
    poly = gen_star(seed=seed, n_vertices=n)
    return Gallery(polygon=PolygonWithHoles(poly.vertices, []), classes=(), name="star")


def empty_kernel_gallery(seed):
    poly = gen_empty_kernel(seed=seed)
    return Gallery(polygon=PolygonWithHoles(poly.vertices, []), classes=(), name="ek")


def donut_gallery():
    return Gallery(
        polygon=PolygonWithHoles(
            [(0, 0), (6, 0), (6, 6), (0, 6)], [[(2, 2), (2, 4), (4, 4), (4, 2)]]
        ),
        classes=(),
        name="donut",
    )


def chain_gallery():
    c1 = ConvexPolygon((pt((0, 0)), pt((1, 0)), pt((0, 1))))
    c2 = ConvexPolygon((pt((1, 0)), pt((2, 0)), pt((2, 1))))
    return PinchedGallery(components=(c1, c2), classes=(), name="chain")


# -- candidates --------------------------------------------------------------


def test_candidate_default_composition():
    g = square_gallery()
    c = CandidateSet.default(g, seed=0, random_count=5)
    # 4 vertices + 4 edge midpoints + 5 random interior points.
    assert len(c.points) == 13
    assert c.tags.count("vertex") == 4
    assert c.tags.count("edge-midpoint") == 4
    assert sum(1 for t in c.tags if t.startswith("random")) == 5
    assert all(g.contains(p) for p in c.points)


def test_candidate_default_deterministic():
    g = square_gallery()
    a = CandidateSet.default(g, seed=7)
    b = CandidateSet.default(g, seed=7)
    assert a.points == b.points
    assert CandidateSet.default(g, seed=8).points != a.points


def test_candidate_from_points_validates_membership():
    g = square_gallery()
    c = CandidateSet.from_points(g, [pt((1, 1)), pt((0, 0))])
    assert len(c.points) == 2
    with pytest.raises(ValueError):
        CandidateSet.from_points(g, [pt((5, 5))])


def test_gallery_contains_kinds():
    assert square_gallery().contains(pt((2, 2)))
    assert not square_gallery().contains(pt((9, 0)))
    ch = chain_gallery()
    assert ch.contains(pt((1, 0)))
    assert not ch.contains(pt((1, 1)))
    sp = gen_spider()
    some_end = sp.segments[0].a
    assert sp.contains(some_end)


# -- half-plane triples -------------------------------------------------------


def test_halfplane_triple_empty_cases():
    def h(a, b, c):
        return HalfPlane(rat(a), rat(b), rat(c))

    # antiparallel gap: x <= 0 against x >= 1
    assert halfplane_triple_empty(h(1, 0, 0), h(-1, 0, -1), h(0, 1, 5))
    # a genuine triangle
    assert not halfplane_triple_empty(h(-1, 0, 0), h(0, -1, 0), h(1, 1, 5))
    # x >= 1, y >= 1, x + y <= 1
    assert halfplane_triple_empty(h(-1, 0, -1), h(0, -1, -1), h(1, 1, 1))


# -- kernel status ------------------------------------------------------------


def test_kernel_status_star_certified():
    verdict, witness, certified, _ = kernel_status(star_gallery(1))
    assert verdict == "holds" and certified
    assert witness is not None


def test_kernel_status_empty_kernel():
    verdict, witness, certified, _ = kernel_status(empty_kernel_gallery(1))
    assert verdict == "fails" and certified and witness is None


def test_kernel_status_hole_shadow():
    verdict, _, certified, qualifier = kernel_status(donut_gallery())
    assert verdict == "fails" and certified
    assert qualifier == "hole-shadow"


def test_kernel_status_pinched_chain_is_pinch_point():
    verdict, witness, certified, qualifier = kernel_status(chain_gallery())
    assert verdict == "holds" and certified
    assert witness == pt((1, 0))
    assert qualifier == "kernel-single-point"


def test_kernel_status_pinched_multi_component_empty():
    verdict, _, certified, _ = kernel_status(gen_fig1())
    assert verdict == "fails" and certified


# -- classic checker ----------------------------------------------------------


def test_classic_star_kernel_superset_fast_path():
    r = check_classic(star_gallery(2))
    assert r.classification == "CONSISTENT"
    assert r.coverage.fast_path == "kernel-superset"
    assert r.violating_tuples == ()


def test_classic_empty_kernel_vacuous_with_certificate():
    r = check_classic(empty_kernel_gallery(2))
    assert r.classification == "VACUOUS"
    assert r.hypothesis_verdict == "violated"
    assert r.conclusion_verdict == "fails"
    assert r.coverage.fast_path == "helly-edge-triple"
    assert len(r.violating_tuples) == 1
    assert len(r.violating_tuples[0]) == 3


def test_classic_donut_enumerates_and_finds_violations():
    r = check_classic(donut_gallery())
    assert r.classification == "VACUOUS"
    assert r.violating_tuples
    assert r.conclusion_verdict == "fails"


def test_classic_pinched_chain_consistent():
    r = check_classic(chain_gallery())
    assert r.classification == "CONSISTENT"
    assert r.coverage.fast_path == "kernel-superset"
    assert dict(r.witnesses)["kernel"] == pt((1, 0))


def test_classic_tuple_size_below_the_theorem_is_no_violation():
    # pairs of the donut's candidates can all see a common point while the
    # kernel is empty; Krasnosel'skii's theorem speaks of triples
    r = check_classic(donut_gallery(), cfg=CheckConfig(k=1))
    assert (r.hypothesis_verdict, r.conclusion_verdict) == ("holds-on-candidates", "fails")
    assert r.classification == "CONSISTENT_WITH_CLAIM"
    assert r.preconditions == (("tuple-size>=3", False),)
    assert check_classic(donut_gallery(), cfg=CheckConfig(k=3, cap=1)).preconditions == (
        ("tuple-size>=3", True),
    )
    assert check_classic(donut_gallery(), cfg=CheckConfig(cap=1)).preconditions == ()


def test_quantitative_tuple_size_below_the_theorem_is_no_violation():
    g = donut_gallery()
    cand = CandidateSet.from_points(g, [(1, 1), (3, 1), (5, 1), (1, 5), (5, 5)])
    cfg = CheckConfig(family="vwidth-segment", threshold=rat(1), k=2)
    r = check_quantitative(g, cand, cfg)
    assert r.classification == "CONSISTENT_WITH_CLAIM"
    assert r.preconditions == (("tuple-size>=4", False),)


def test_classic_rejects_skeletal():
    with pytest.raises(TypeError):
        check_classic(gen_spider())


# -- colorful checkers --------------------------------------------------------


def test_colorful_plane_fig1_three_classes_vacuous():
    g = gen_fig1()
    cls = dict(g.classes)
    r = check_colorful_plane(g, cls["red"], cls["blue"], cls["black"], None)
    # Some rgb triple shares no common point, so the hypothesis is violated;
    # the empty-kernel conclusion also fails: VACUOUS, not a counterexample.
    assert r.classification == "VACUOUS"
    assert dict(r.preconditions) == {"simply-connected": True, "three-distinct-classes": True}


def test_colorful_plane_two_class_control():
    g = gen_fig1()
    cls = dict(g.classes)
    r = check_colorful_plane(g, cls["red"], cls["blue"], cls["blue"], None)
    assert r.classification == "CONSISTENT_WITH_CLAIM"
    assert dict(r.preconditions)["three-distinct-classes"] is False


def test_colorful_plane_rejects_holes():
    with pytest.raises(NotSimplyConnected):
        check_colorful_plane(
            donut_gallery(), (pt((0, 0)),), (pt((6, 0)),), (pt((0, 6)),), None
        )


def test_colorful_general_spider_not_simply_connected():
    g = gen_spider()
    cls = dict(g.classes)
    r = check_colorful_general(g, [cls["red"], cls["green"], cls["blue"]], None)
    assert r.classification == "CONSISTENT_WITH_CLAIM"
    assert r.hypothesis_verdict == "holds-on-candidates"
    assert r.coverage.checked == 8
    assert dict(r.preconditions)["simply-connected"] is False


def test_colorful_general_claim22_exhaustive():
    g = gen_claim22(2, (3, 3), seed=0)
    cls = dict(g.classes)
    r = check_colorful_general(g, [cls["F1"], cls["F2"]], None)
    assert r.hypothesis_verdict == "holds-on-candidates"
    assert r.coverage.checked == 9
    assert r.coverage.total == 9


# -- quantitative checker -----------------------------------------------------


def test_quantitative_requires_family_and_threshold():
    g = square_gallery()
    with pytest.raises(ValueError):
        check_quantitative(g, None, None)
    with pytest.raises(ValueError):
        check_quantitative(g, None, CheckConfig(family="no-such", threshold=1))
    with pytest.raises(ValueError):
        check_quantitative(g, None, CheckConfig(family="box-volume"))
    with pytest.raises(ValueError):
        check_quantitative(g, None, CheckConfig(family="box-volume", threshold=0))


def test_quantitative_kernel_superset_fast_path():
    g = square_gallery()
    r = check_quantitative(g, None, CheckConfig(family="box-volume", threshold=rat(1)))
    assert r.classification == "CONSISTENT"
    assert r.coverage.fast_path == "kernel-superset"
    assert r.witnesses and r.witnesses[0][0] == "kernel-box-volume"


def test_quantitative_oversized_threshold_vacuous():
    g = square_gallery()
    r = check_quantitative(g, None, CheckConfig(family="box-volume", threshold=rat(100)))
    assert r.classification == "VACUOUS"
    assert r.hypothesis_verdict == "violated"
    assert r.conclusion_verdict == "fails"
    r2 = check_quantitative(g, None, CheckConfig(family="box-sum", threshold=rat(9)))
    assert r2.classification == "VACUOUS"


def test_quantitative_disc_and_region_area():
    g = square_gallery()
    r = check_quantitative(g, None, CheckConfig(family="disc", threshold=rat(1)))
    assert r.classification == "CONSISTENT"
    r2 = check_quantitative(g, None, CheckConfig(family="region-area", threshold=rat(16)))
    assert r2.classification == "CONSISTENT"
    r3 = check_quantitative(l_gallery(), None, CheckConfig(family="region-area", threshold=rat(3)))
    assert r3.classification == "VACUOUS"


def test_quantitative_vwidth_direction():
    g = square_gallery()
    cfg = CheckConfig(family="vwidth-segment", threshold=rat(4), direction=(1, 0))
    r = check_quantitative(g, None, cfg)
    assert r.classification == "CONSISTENT"
    cfg2 = CheckConfig(family="vwidth-segment", threshold=rat(9), direction=(1, 0))
    assert check_quantitative(g, None, cfg2).classification == "VACUOUS"


def test_quantitative_norm_segment_needs_ball():
    g = square_gallery()
    with pytest.raises(ValueError):
        check_quantitative(g, None, CheckConfig(family="norm-segment", threshold=rat(1)))


def test_report_guard_rejects_uncertified_violation():
    with pytest.raises(ValueError):
        TheoremReport(
            "classic", "g", "holds-on-candidates", "holds",
            "THEOREM_VIOLATION_CANDIDATE",
        )


# -- fuzzing ------------------------------------------------------------------


def test_search_counterexample_star_all_consistent():
    reports = search_counterexample("star", budget=6, seed=0)
    assert len(reports) == 6
    assert all(r.classification == "CONSISTENT" for r in reports)
    assert [r for r in reports if r.classification == "THEOREM_VIOLATION_CANDIDATE"] == []


def test_search_counterexample_empty_kernel_all_vacuous():
    reports = search_counterexample("empty-kernel", budget=4, seed=1)
    assert all(r.classification == "VACUOUS" for r in reports)
    assert all(r.violating_tuples for r in reports)


def test_search_counterexample_reproduction_seeds():
    reports = search_counterexample("star", budget=2, seed=3)
    rep = dict(reports[0].reproduction)
    assert rep["generator"] == "star"
    assert isinstance(rep["seed"], int)
    again = search_counterexample("star", budget=2, seed=3)
    assert [r.gallery for r in again] == [r.gallery for r in reports]
    assert [r.classification for r in again] == [r.classification for r in reports]


def test_search_counterexample_validates_budget():
    with pytest.raises(ValueError):
        search_counterexample("star", budget=0)

"""Theorem checkers: candidate sets, kernel status, classifications, fuzzing.

Hypothesis verdicts are always relative to the finite candidate set;
conclusions and emptiness facts are exact. A report may only claim
THEOREM_VIOLATION_CANDIDATE when the conclusion failure is certified.
"""

import math
from dataclasses import replace

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
    kernel_status,
    search_counterexample,
)
from artgallery.checkers import _common_witness, _witness_in_shape
from artgallery.gallery import Gallery, PinchedGallery
from artgallery.galleries import gen_claim22, gen_empty_kernel, gen_fig1, gen_spider, gen_star
from artgallery.galleries import gen_simple
from artgallery.geom.convex import ConvexPolygon, HalfPlane
from artgallery.geom.polygon import PolygonWithHoles
from artgallery.geom.primitives import pt
from artgallery.inscribe import PolytopeNormBall
from artgallery.kernel import halfplane_triple_empty
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
        return HalfPlane(rat(a), rat(b), rat(c)).line()

    # antiparallel gap: x <= 0 against x >= 1
    assert halfplane_triple_empty(h(1, 0, 0), h(-1, 0, -1), h(0, 1, 5))
    # a genuine triangle
    assert not halfplane_triple_empty(h(-1, 0, 0), h(0, -1, 0), h(1, 1, 5))
    # x >= 1, y >= 1, x + y <= 1
    assert halfplane_triple_empty(h(-1, 0, -1), h(0, -1, -1), h(1, 1, 1))


# -- kernel status ------------------------------------------------------------


def test_kernel_status_star_certified():
    verdict, witness, _ = kernel_status(star_gallery(1))
    assert verdict == "holds" and isinstance(witness, ConvexPolygon)
    assert witness is not None


def test_kernel_status_empty_kernel():
    verdict, witness, _ = kernel_status(empty_kernel_gallery(1))
    assert verdict == "fails" and len(witness) == 3


def test_kernel_status_hole_shadow():
    verdict, witness, qualifier = kernel_status(donut_gallery())
    assert verdict == "fails" and witness is None
    assert qualifier == "hole-shadow"


def test_kernel_status_pinched_chain_is_pinch_point():
    verdict, witness, qualifier = kernel_status(chain_gallery())
    assert verdict == "holds"
    assert witness == pt((1, 0))
    assert qualifier == "kernel-single-point"


def test_kernel_status_pinched_multi_component_empty():
    verdict, witness, _ = kernel_status(gen_fig1())
    assert verdict == "fails" and witness is None


def _empty_kernel_galleries():
    """gen_empty_kernel seeds 1-6 and the gen_simple seeds of 0-9 whose
    kernel is empty (all but seed 6)."""
    out = [empty_kernel_gallery(seed) for seed in range(1, 7)]
    simple = [Gallery(gen_simple(seed, 12), name=f"simple-{seed}") for seed in range(10)]
    out += [g for g in simple if kernel_status(g)[0] == "fails"]
    assert len(out) == 6 + 9
    return out


def test_kernel_fails_witness_sees_no_common_point():
    # Helly: three edges whose inner half-planes miss each other, and an
    # edge midpoint sees only into its edge's inner half-plane
    for g in _empty_kernel_galleries():
        verdict, witness, qualifier = kernel_status(g)
        assert (verdict, qualifier) == ("fails", None)
        assert isinstance(witness, tuple) and len(witness) == 3
        tags = dict(g.structural_points())
        assert all(tags[p] == "edge-midpoint" for p in witness)
        assert g.common_visibility(witness).is_empty()
        assert g.common_visibility_is_empty(witness)


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


@pytest.mark.parametrize("seed", [1, 2])
def test_classic_helly_triple_needs_three_viewpoints(seed):
    # every point sees itself, and a Helly triple says nothing of pairs
    single = check_classic(empty_kernel_gallery(seed), cfg=CheckConfig(k=1))
    assert single.classification == "CONSISTENT_WITH_CLAIM"
    assert single.coverage.fast_path is None
    assert single.coverage.checked == single.coverage.total > 0
    pairs = check_classic(empty_kernel_gallery(seed), cfg=CheckConfig(k=2))
    assert pairs.coverage.fast_path is None
    assert pairs.violating_tuples and all(len(tup) == 2 for tup in pairs.violating_tuples)
    # at k = 4 the triple is padded with other candidates: any tuple that
    # holds a failing triple fails, and the tuple has the size checked
    g = empty_kernel_gallery(seed)
    (triple,) = check_classic(g, cfg=CheckConfig(k=3)).violating_tuples
    fours = check_classic(g, cfg=CheckConfig(k=4))
    (tup,) = fours.violating_tuples
    assert len(tup) == 4 and tup[:3] == triple
    assert g.common_visibility(tup).is_empty()
    total = math.comb(len(CandidateSet.default(g, seed=0, random_count=20)), 4)
    cov = fours.coverage
    assert (cov.checked, cov.total, cov.fast_path) == (1, total, "helly-edge-triple")


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


def test_fewer_candidates_than_k_is_undetermined():
    # with no tuple judged the hypothesis has no evidence either way, so a
    # failing kernel conclusion is no violation candidate
    g = donut_gallery()
    two = CandidateSet.from_points(g, [(0, 0), (6, 6)])
    disc = CheckConfig(family="disc", threshold=rat("1/4"))
    for r in (check_classic(g, two), check_quantitative(g, two, disc)):
        assert (r.hypothesis_verdict, r.conclusion_verdict) == ("undetermined", "fails")
        assert r.classification == "UNDETERMINED"
        assert r.qualifiers[0] == "no-candidate-tuples"
        assert (r.coverage.checked, r.coverage.total, r.coverage.truncated) == (0, 0, False)


@pytest.mark.parametrize("k", [3, 5])
def test_classic_helly_triple_needs_k_candidates(k):
    # the Helly triple is padded from the candidates, so with fewer than k
    # of them there is no k-tuple to report and nothing is judged
    g = Gallery(gen_simple(1, 12), name="simple-1")
    one = CandidateSet.from_points(g, g.polygon.outer.vertices[:1])
    r = check_classic(g, one, CheckConfig(k=k))
    assert r.coverage.fast_path is None
    assert (r.coverage.checked, r.coverage.total) == (0, 0)
    assert r.violating_tuples == ()
    assert r.classification == "UNDETERMINED"


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


# Both colorful checkers reject an empty class and a class point outside the
# gallery before they scan.
COLORFUL = {
    "plane": lambda g, classes: check_colorful_plane(g, *classes, None),
    "general": lambda g, classes: check_colorful_general(g, classes, None),
}


@pytest.mark.parametrize("checker", sorted(COLORFUL))
@pytest.mark.parametrize("bad, message", [
    ((), "^empty color class$"),
    ((pt((7, 7)),), "^class point .* is not in the gallery$"),
], ids=["empty-class", "outside-point"])
def test_colorful_checkers_validate_classes(checker, bad, message):
    square = Gallery(PolygonWithHoles([(0, 0), (6, 0), (6, 6), (0, 6)]), name="square")
    with pytest.raises(ValueError, match=message):
        COLORFUL[checker](square, ((pt((0, 0)),), (pt((6, 0)),), bad))


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


def test_exact_quantities_compare_without_tolerance():
    # the unit square has area exactly 1: a threshold 10^-10 above it fails
    unit = square_gallery(side=1)
    above = rat(1) + rat(1, 10**10)
    holds = check_quantitative(unit, None, CheckConfig(family="region-area", threshold=rat(1)))
    assert holds.classification == "CONSISTENT"
    over = check_quantitative(unit, None, CheckConfig(family="region-area", threshold=above))
    assert (over.hypothesis_verdict, over.conclusion_verdict) == ("violated", "fails")
    # the exact obstructions and segment values of the same square
    square = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    for family, exact in (("box-volume", 1), ("ellipse", 1), ("box-sum", 2), ("vwidth-segment", 1)):
        cfg = CheckConfig(family=family, threshold=rat(exact) + rat(1, 10**10), direction=(1, 0))
        assert _witness_in_shape(square, family, cfg)[0] == "fails", family
    # the pinched path: the exact area of a red-blue common visibility of fig1
    fig1 = gen_fig1()
    pair = (pt((7, 6)), pt((7, 3)))
    area = fig1.common_visibility(pair).area()
    assert area == rat(69, 22)
    for threshold, status in ((area, "holds"), (area + rat(1, 10**10), "fails")):
        cfg = CheckConfig(family="region-area", threshold=threshold)
        assert _common_witness(fig1, pair, cfg)[0] == status


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


L1_BALL = PolytopeNormBall([(1, 0), (0, 1), (-1, 0), (0, -1)])
QUANT_CASES = (
    ("disc", rat(1, 4)),
    ("box-volume", rat(1, 16)),
    ("box-sum", rat(1, 2)),
    ("ellipse", rat(1, 4)),
    ("vwidth-segment", rat(1)),
    ("norm-segment", rat(1, 4)),
    ("region-area", rat(1, 4)),
)


def _quant_cfg(family, threshold, k=None):
    ball = L1_BALL if family == "norm-segment" else None
    return CheckConfig(family=family, threshold=threshold, norm_ball=ball, k=k)


@pytest.mark.parametrize("family, threshold", QUANT_CASES, ids=[f for f, _ in QUANT_CASES])
def test_quantitative_empty_kernel_takes_the_helly_triple(family, threshold):
    # the triple sees no common point, so no tuple that holds it sees a
    # witness; the report is the classic one's at the same k
    g = empty_kernel_gallery(1)
    cfg = _quant_cfg(family, threshold)
    k = cfg.tuple_size()
    r = check_quantitative(g, None, cfg)
    c = check_classic(g, cfg=CheckConfig(k=k))
    assert (r.hypothesis_verdict, r.conclusion_verdict, r.classification) == (
        "violated", "fails", "VACUOUS")
    total = math.comb(len(CandidateSet.default(g)), k)
    assert (r.coverage.checked, r.coverage.total, r.coverage.fast_path) == (
        1, total, "helly-edge-triple")
    (tup,) = r.violating_tuples
    assert len(tup) == k and tup[:3] == kernel_status(g)[1]
    assert r.violating_tuples == c.violating_tuples
    assert r.coverage == c.coverage


def test_quantitative_pairs_still_scan():
    # a Helly triple says nothing of pairs
    g = empty_kernel_gallery(1)
    r = check_quantitative(g, None, _quant_cfg("disc", rat(1, 4), k=2))
    assert r.coverage.fast_path is None
    assert r.coverage.checked > 1


@pytest.mark.parametrize("family, threshold", QUANT_CASES[:2], ids=["disc", "box-volume"])
def test_no_certificate_without_a_hole_free_polygon(family, threshold):
    # a hole (the donut) or a pinched gallery (fig1) has an empty kernel but
    # no edge triple to name, so the tuples are scanned
    for g in (donut_gallery(), gen_fig1()):
        verdict, witness, _ = kernel_status(g)
        assert (verdict, witness) == ("fails", None)
        cfg = replace(_quant_cfg(family, threshold), cap=5)
        for r in (check_quantitative(g, None, cfg), check_classic(g, cfg=CheckConfig(cap=5))):
            assert r.coverage.fast_path is None
            assert r.coverage.checked <= 5


def test_report_guard_rejects_uncertified_violation():
    with pytest.raises(ValueError):
        TheoremReport(
            "classic", "g", "holds-on-candidates", "holds",
            "THEOREM_VIOLATION_CANDIDATE",
        )


# -- fuzzing ------------------------------------------------------------------


def test_search_counterexample_star_all_consistent():
    reports = list(search_counterexample("star", budget=6, seed=0))
    assert len(reports) == 6
    assert all(r.classification == "CONSISTENT" for r in reports)
    assert [r for r in reports if r.classification == "THEOREM_VIOLATION_CANDIDATE"] == []


def test_search_counterexample_empty_kernel_all_vacuous():
    reports = list(search_counterexample("empty-kernel", budget=4, seed=1))
    assert all(r.classification == "VACUOUS" for r in reports)
    assert all(r.violating_tuples for r in reports)


def test_search_counterexample_reproduction_seeds():
    reports = list(search_counterexample("star", budget=2, seed=3))
    rep = dict(reports[0].reproduction)
    assert rep["generator"] == "star"
    assert isinstance(rep["seed"], int)
    again = list(search_counterexample("star", budget=2, seed=3))
    assert [r.gallery for r in again] == [r.gallery for r in reports]
    assert [r.classification for r in again] == [r.classification for r in reports]


def test_search_counterexample_validates_budget():
    with pytest.raises(ValueError):
        search_counterexample("star", budget=0)


def test_search_counterexample_is_lazy_but_validates_eagerly():
    drawn = []

    def make(seed):
        drawn.append(seed)
        return Gallery(gen_star(seed, 12), name=f"star-{seed}")

    runs = search_counterexample(make, budget=3, seed=0)
    assert drawn == []
    assert next(runs).classification == "CONSISTENT"
    assert drawn == [0]
    with pytest.raises(ValueError):
        search_counterexample("star", CheckConfig(theorem="colorful-plane"))


def seam_gallery():
    """Two rooms meeting along x = 2: the kernel is the segment {2} x [1, 2]."""
    return Gallery(
        PolygonWithHoles([(0, 0), (2, 0), (2, 1), (4, 1), (4, 3), (2, 3), (2, 2), (0, 2)]),
        name="seam",
    )


@pytest.mark.parametrize("family, threshold", [
    ("box-sum", rat(1, 2)),
    ("box-volume", rat(1, 10**12)),
    ("ellipse", rat(1, 10**12)),
    ("disc", rat(1, 10**12)),
])
def test_zero_area_kernel_certifies_that_no_witness_fits(family, threshold):
    g = seam_gallery()
    _, kern, _ = kernel_status(g)
    assert isinstance(kern, ConvexPolygon) and kern.degenerate and not kern.is_empty()
    cand = CandidateSet.from_points(g, [v for v, tag in g.structural_points() if tag == "vertex"])
    rep = check_quantitative(g, cand, CheckConfig(family=family, threshold=threshold))
    assert rep.conclusion_verdict == "fails"
    assert rep.witnesses == ()


def test_norm_segment_kernel_scores_both_directions():
    """Under an asymmetric gauge a segment's length depends on its
    direction: the kernel (the whole rectangle) holds the segment from
    (0, 1) to (1/10, 0), of norm 21/10, though its reverse has norm 6/5."""
    ball = PolytopeNormBall(ConvexPolygon([(1, 0), (0, 1), (-1, -1)]))
    g = Gallery(PolygonWithHoles([(0, 0), (rat(1, 10), 0), (rat(1, 10), 1), (0, 1)]), name="rect")
    rep = check_quantitative(g, cfg=CheckConfig(family="norm-segment", threshold=rat(2), norm_ball=ball))
    assert rep.classification == "CONSISTENT"
    ((label, seg),) = rep.witnesses
    assert label == "kernel-norm-segment"
    assert (seg.a, seg.b, seg.value) == (pt((0, 1)), pt((rat(1, 10), 0)), rat(21, 10))

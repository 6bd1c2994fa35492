"""Witness searches and the certificates behind every "holds".

* A pinned digest of a witness sweep: all seven quantitative families at a
  small and a large threshold through `check_quantitative` (the kernel fast
  path, and candidate-pair tuple scans whose common visibilities are convex
  and non-convex regions), plus the `inscribe` searches on the kernels of
  star galleries and on fig1's convex components.
* Every "holds" witness is re-checked exactly here, independently of the
  certificate the search used: a box by its corners or by an exact region
  difference, a disc by a rational 96-gon whose apothem is at least the
  radius, an ellipse by its support function against every edge of its
  convex region, a segment by its ends, its closed containment and its
  value. An ellipse's area is compared in floats, and the report must say
  so.
"""

import hashlib
import json
import math

import pytest

from artgallery import docio
from artgallery.checkers import CandidateSet, CheckConfig, _common_witness, _witness_in_shape, check_quantitative
from artgallery.galleries import gen_fig1, gen_star
from artgallery.gallery import Gallery
from artgallery.geom.boolean import region_boolean
from artgallery.geom.convex import ConvexPolygon
from artgallery.geom.polygon import PolygonWithHoles, Region, point_in_region
from artgallery.geom.primitives import Point2
from artgallery.inscribe import (
    Box2,
    Disc,
    Ellipse,
    PolytopeNormBall,
    SegmentWitness,
    contains_box,
    contains_box_of_area,
    contains_box_of_axis_sum,
    longest_norm_segment,
    longest_vwidth_segment,
    max_inscribed_disc,
    mvie,
)
from artgallery.kernel import kernel_simple
from artgallery.rational import rat


def l_gallery():
    return Gallery(PolygonWithHoles([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]), name="L")


def donut():
    return Gallery(
        PolygonWithHoles([(0, 0), (6, 0), (6, 6), (0, 6)], [[(2, 2), (2, 4), (4, 4), (4, 2)]]),
        name="donut",
    )


def two_rooms():
    """Two 3 x 3 rooms joined by a unit-wide corridor."""
    return Gallery(
        PolygonWithHoles([(0, 0), (3, 0), (3, 1), (5, 1), (5, 0), (8, 0),
                          (8, 3), (5, 3), (5, 2), (3, 2), (3, 3), (0, 3)]),
        name="two-rooms",
    )


BALLS = {
    "l1": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "hexagon": [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)],
}

# family -> (small, large) threshold
THRESHOLDS = {
    "box-volume": ("1/64", "2"),
    "box-sum": ("1/4", "11/4"),
    "disc": ("1/16", "3/4"),
    "ellipse": ("1/64", "2"),
    "vwidth-segment": ("1/4", "3"),
    "norm-segment": ("1/4", "3"),
    "region-area": ("1/64", "2"),
}

# gallery, candidate points: every pair is one tuple of the scan
SCANS = {
    "L": (l_gallery, [(0, 0), (rat(1, 2), rat(1, 2)), (2, rat(1, 2)), (rat(1, 2), 2), (rat(3, 2), 1)]),
    "donut": (donut, [(1, 1), (3, 1), (5, 1), (1, 5), (5, 5)]),
}


def quantitative_cases():
    """(label, gallery, candidates, config) for every family, threshold and
    norm ball of the sweep."""
    for name, (make, points) in SCANS.items():
        for family, thresholds in THRESHOLDS.items():
            for threshold in thresholds:
                balls = BALLS if family == "norm-segment" else {"": None}
                for ball_name, ball in balls.items():
                    g = make()
                    cfg = CheckConfig(
                        family=family, threshold=rat(threshold), k=2,
                        direction=(1, 2),
                        norm_ball=PolytopeNormBall(ball) if ball else None,
                    )
                    label = f"{name}/{family}/{threshold}/{ball_name}"
                    yield label, g, CandidateSet.from_points(g, points), cfg


def convex_shapes():
    """name -> ConvexPolygon: star kernels and fig1's components."""
    shapes = {f"star-{s}": kernel_simple(gen_star(s, 12)) for s in range(4)}
    for i, comp in enumerate(gen_fig1().components):
        shapes[f"fig1-{i}"] = comp
    return shapes


def _doc(witness):
    return None if witness is None else docio.shape_to_document(witness)


def convex_searches(c: ConvexPolygon):
    """The inscribe searches on one convex polygon, as documents."""
    area = c.area()
    xs = [v[0] for v in c.vertices]
    ys = [v[1] for v in c.vertices]
    span = (max(xs) - min(xs)) + (max(ys) - min(ys))
    out = {}
    for label, target in (("small", area / 16), ("large", area / 4)):
        box = contains_box_of_area(c, target)
        out[f"area-{label}"] = [_doc(box), box is not None and contains_box(c, box)]
    for label, target in (("small", span / 4), ("large", span * 2 / 5)):
        box = contains_box_of_axis_sum(c, target)
        out[f"sum-{label}"] = [_doc(box), box is not None and contains_box(c, box)]
    out["disc"] = _doc(max_inscribed_disc(c))
    out["mvie"] = _doc(mvie(c))
    for v in ((1, 0), (1, 2), (-3, 1)):
        out[f"vwidth-{v}"] = _doc(longest_vwidth_segment(c, v))
    for name, ball in BALLS.items():
        out[f"norm-{name}"] = _doc(longest_norm_segment(c, PolytopeNormBall(ball)))
    return out


@pytest.fixture(scope="module")
def reports():
    return {label: check_quantitative(g, cand, cfg) for label, g, cand, cfg in quantitative_cases()}


@pytest.fixture(scope="module")
def searches():
    return {name: convex_searches(c) for name, c in convex_shapes().items()}


# sha256 of the report and search documents over the sweep. Re-recorded when
# the disc certificate became exact: one report changed, donut/disc/3/4/, from
# UNDETERMINED (disc-grid-resolution, 2 tuples) to CONSISTENT_WITH_CLAIM. Its
# grid centres hold radius-3/4 discs that touch the walls, which the rational
# 96-gon, wider than the disc, could never certify.
WITNESS_PIN = "25dadd159e7ad9f7db67e67cad92004676f6131736f83d8f49a8a8ef3c3f6e10"


def test_witness_sweep_is_pinned(reports, searches):
    docs = {
        "reports": {label: docio.report_to_document(rep) for label, rep in reports.items()},
        "searches": searches,
    }
    text = json.dumps(docs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == WITNESS_PIN


# ---------------------------------------------------------------------------
# Every "holds" re-checked exactly


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def closed_segment_in(region: Region, a, b) -> bool:
    """Exact, by subdivision: cut [a, b] wherever it meets the region's
    boundary; each piece between cuts is inside or outside as a whole, so
    its midpoint decides, and the cut points are checked themselves."""
    a, b = Point2(rat(a[0]), rat(a[1])), Point2(rat(b[0]), rat(b[1]))
    ab = _sub(b, a)
    ts = {rat(0), rat(1)}
    for c, d in region.boundary_edges():
        cd, ca = _sub(d, c), _sub(c, a)
        den = _cross(ab, cd)
        if den != 0:
            t, s = _cross(ca, cd) / den, _cross(ca, ab) / den
            if 0 <= t <= 1 and 0 <= s <= 1:
                ts.add(t)
        elif _cross(ca, ab) == 0 and ab != (0, 0):
            norm2 = ab[0] * ab[0] + ab[1] * ab[1]
            for e in (c, d):
                t = (_sub(e, a)[0] * ab[0] + _sub(e, a)[1] * ab[1]) / norm2
                if 0 <= t <= 1:
                    ts.add(t)
    ts = sorted(ts)
    probes = ts + [(t0 + t1) / 2 for t0, t1 in zip(ts, ts[1:])]
    return all(point_in_region(Point2(a[0] + t * ab[0], a[1] + t * ab[1]), region) for t in probes)


def polygon_around_disc(cx, cy, r, n=96):
    """A rational n-gon whose apothem about (cx, cy) is, checked exactly, at
    least r; None if rounding pulled an edge inside the disc."""
    R = float(r) / math.cos(math.pi / n) * (1.0 + 1e-9)
    ring = [
        Point2(cx + rat(R * math.cos(2 * math.pi * k / n)), cy + rat(R * math.sin(2 * math.pi * k / n)))
        for k in range(n)
    ]
    for p, q in zip(ring, ring[1:] + ring[:1]):
        side = _cross(_sub(q, p), _sub((cx, cy), p))  # center on the left, |pq| * distance
        if side < 0 or side * side < r * r * (_sub(q, p)[0] ** 2 + _sub(q, p)[1] ** 2):
            return None
    return ring


def ellipse_in_convex_region(region: Region, ell: Ellipse) -> bool:
    """Exact, on the ellipse's floats read as rationals: the region is one
    convex ring, and for each edge's half-plane a.x <= b the ellipse
    c + A u (|u| <= 1) reaches at most b, i.e. s = b - a.c >= 0 and
    s^2 >= |A^T a|^2."""
    (comp,) = region.components
    ring = list(comp.outer.vertices)
    edges = list(zip(ring, ring[1:] + ring[:1]))
    assert not comp.holes
    assert all(_cross(_sub(q, p), _sub(r, q)) > 0 for (p, q), (_, r) in zip(edges, edges[1:] + edges[:1]))
    c = (rat(ell.center[0]), rat(ell.center[1]))
    A = ((rat(ell.a11), rat(ell.a12)), (rat(ell.a12), rat(ell.a22)))
    for p, q in edges:
        a = (q[1] - p[1], p[0] - q[0])  # the interior is left of p -> q
        s = a[0] * (p[0] - c[0]) + a[1] * (p[1] - c[1])
        reach = [A[0][j] * a[0] + A[1][j] * a[1] for j in range(2)]  # A^T a
        if s < 0 or s * s < reach[0] ** 2 + reach[1] ** 2:
            return False
    return True


def recheck(shape: Region, witness, qualifier, family, cfg):
    """The witness of a "holds" verdict really is one, checked exactly in
    the region (the kernel or the common visibility it was found in)."""
    threshold = rat(cfg.threshold)
    if family in ("box-volume", "box-sum"):
        assert isinstance(witness, Box2)
        size = witness.area() if family == "box-volume" else witness.w + witness.h
        assert size >= threshold - rat(cfg.tolerance)
        assert region_boolean("difference", Region((witness.corners(),)), shape).is_empty()
    elif family == "disc":
        assert isinstance(witness, Disc) and rat(witness.r) >= threshold
        ring = polygon_around_disc(rat(witness.cx), rat(witness.cy), rat(witness.r))
        assert ring is not None
        assert region_boolean("difference", Region((ring,)), shape).is_empty()
    elif family == "ellipse":
        assert qualifier == "mvie-float"  # the area is a float comparison: it must say so
        assert isinstance(witness, Ellipse) and ellipse_in_convex_region(shape, witness)
    else:
        assert isinstance(witness, SegmentWitness)
        assert point_in_region(witness.a, shape) and point_in_region(witness.b, shape)
        assert closed_segment_in(shape, witness.a, witness.b)
        d = _sub(witness.b, witness.a)
        if family == "vwidth-segment":
            value = d[0] * rat(cfg.direction[0]) + d[1] * rat(cfg.direction[1])
        else:
            value = cfg.norm_ball.norm(d)
        assert witness.value == value >= threshold - rat(cfg.tolerance)


# an asymmetric gauge too: its segments score differently in each direction
RECHECK_BALLS = dict(BALLS, triangle=[(1, 0), (0, 1), (-1, -1)])


def recheck_configs():
    """(family, config) with thresholds small enough for many "holds"."""
    for family, threshold in (("box-volume", "1/50"), ("box-sum", "1/4"), ("disc", "1/16"),
                              ("ellipse", "1/50"), ("vwidth-segment", "1/4")):
        yield family, CheckConfig(family=family, threshold=rat(threshold), direction=(1, 2))
    for ball in RECHECK_BALLS.values():
        yield "norm-segment", CheckConfig(family="norm-segment", threshold=rat(1, 4),
                                          norm_ball=PolytopeNormBall(ball))


RECHECK_SCANS = {
    "L": (l_gallery, [(0, 0), (rat(1, 2), rat(1, 2)), (2, rat(1, 2)), (rat(1, 2), 2)]),
    "donut": (donut, [(1, 1), (3, 1), (5, 1), (1, 5)]),
    "two-rooms": (two_rooms, [(1, 1), (2, 2), (4, rat(3, 2)), (7, 2)]),
}


def test_kernel_witnesses_are_exact():
    held = 0
    for seed in range(6):
        kern = kernel_simple(gen_star(seed, 12))
        region = Region((kern.vertices,))
        for family, cfg in recheck_configs():
            status, witness, q = _witness_in_shape(kern, family, cfg)
            if status == "holds":
                held += 1
                recheck(region, witness, q, family, cfg)
    assert held >= 40


def test_common_visibility_witnesses_are_exact():
    held = 0
    for name, (make, points) in RECHECK_SCANS.items():
        g = make()
        for i, x in enumerate(points):
            for y in points[i + 1:]:
                common = g.common_visibility((x, y))
                for family, cfg in recheck_configs():
                    status, witness, q = _common_witness(g, (x, y), cfg)
                    if status == "holds":
                        held += 1
                        recheck(common, witness, q, family, cfg)
    assert held >= 100


def test_box_sum_search_fits_regions_wider_than_the_threshold():
    """The two rooms are 8 wide, 32 times the box-sum threshold 1/4: box
    widths are tried as fractions of the threshold, not of the width, or no
    width would leave a positive height. Each candidate pair's common
    visibility holds a certified box."""
    make, points = RECHECK_SCANS["two-rooms"]
    g = make()
    cfg = CheckConfig(family="box-sum", threshold=rat(1, 4))
    held = 0
    for i, x in enumerate(points):
        for y in points[i + 1:]:
            status, witness, q = _common_witness(g, (x, y), cfg)
            assert (status, q) == ("holds", None), (x, y)
            recheck(g.common_visibility((x, y)), witness, q, "box-sum", cfg)
            held += 1
    assert held == 6

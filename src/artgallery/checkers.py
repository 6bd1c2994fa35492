"""Executable theorem checkers.

"For every n points in K" ranges over a continuum, which no checker can
enumerate. Every check here therefore runs over a finite candidate set and
says so in its report: hypothesis verdicts are always "on candidates". What
IS exact: every common-visibility emptiness test, every kernel computation on
hole-free polygons, and every certified witness. Numeric searches (inscribed
discs and ellipses, box scans) can fail to find a witness without proving
absence; those outcomes surface as "undetermined" with a qualifier, never as
a silent "fails".
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Tuple

from artgallery.rational import rat, rationalize
from artgallery.gallery import Gallery
from artgallery.geom.primitives import Point2, orient, pt
from artgallery.geom.polygon import PolygonWithHoles, Region, as_region, region_bbox
from artgallery.geom.convex import ConvexPolygon, HalfPlane
from artgallery.geom.boolean import region_boolean
from artgallery.kernel import kernel_halfplanes
from artgallery import inscribe


# ---------------------------------------------------------------------------
# Candidate sets


@dataclass(frozen=True)
class CandidateSet:
    """Finite stand-in for "every point of K"; every point carries a
    provenance tag and has passed the gallery membership test."""

    points: Tuple[Point2, ...]
    tags: Tuple[str, ...]

    def __post_init__(self):
        if len(self.points) != len(self.tags):
            raise ValueError("points and tags must align")

    def __len__(self) -> int:
        return len(self.points)

    @staticmethod
    def from_points(gallery, points, tag: str = "user") -> "CandidateSet":
        pts = tuple(pt(p) for p in points)
        for p in pts:
            if not gallery.contains(p):
                raise ValueError(f"candidate {p} is not in the gallery")
        return CandidateSet(pts, (tag,) * len(pts))

    @staticmethod
    def default(gallery, seed: int = 0, random_count: int = 20) -> "CandidateSet":
        """Vertices + edge midpoints + spike tips + seeded random points."""
        pts: List[Point2] = []
        tags: List[str] = []

        def add(p, tag):
            if p not in pts:
                pts.append(p)
                tags.append(tag)

        for p, tag in gallery.structural_points():
            add(p, tag)
        try:
            for p in gallery.class_points("tips"):
                add(pt(p), "spike-tip")
        except KeyError:
            pass
        rng = random.Random(f"candidates:{seed}")
        for p in gallery.random_points(rng, random_count):
            add(p, f"random({seed})")
        return CandidateSet(tuple(pts), tuple(tags))


# ---------------------------------------------------------------------------
# Config and report


DEFAULT_K = {
    "classic": 3,
    "colorful-plane": 3,
    "box-volume": 4,
    "box-sum": 4,
    "disc": 3,
    "ellipse": 5,
    "vwidth-segment": 4,
    "norm-segment": None,  # 2 * facet count of the norm ball
    "region-area": 4,
}

QUANT_FAMILIES = (
    "box-volume",
    "box-sum",
    "disc",
    "ellipse",
    "vwidth-segment",
    "norm-segment",
    "region-area",
)


@dataclass(frozen=True)
class CheckConfig:
    theorem: str = "classic"
    k: Optional[int] = None
    family: Optional[str] = None
    threshold: object = None
    direction: Tuple[object, object] = (1, 0)  # for vwidth-segment
    norm_ball: object = None  # PolytopeNormBall for norm-segment
    tolerance: float = 1e-9
    cap: int = 10**6
    seed: int = 0
    random_candidates: int = 20
    grid_resolution: int = 24

    def tuple_size(self) -> int:
        if self.k is not None:
            return self.k
        fam = self.family or self.theorem
        k = DEFAULT_K.get(fam)
        if k is None and fam == "norm-segment":
            if self.norm_ball is None:
                raise ValueError("norm-segment needs a norm_ball")
            return 2 * len(self.norm_ball.polygon.vertices)
        if k is None:
            raise ValueError(f"no default tuple size for {fam!r}")
        return k


@dataclass(frozen=True)
class Coverage:
    checked: int
    total: int
    truncated: bool = False
    fast_path: Optional[str] = None


CLASSIFICATIONS = (
    "CONSISTENT",
    "VACUOUS",
    "THEOREM_VIOLATION_CANDIDATE",
    "CONSISTENT_WITH_CLAIM",
    "UNDETERMINED",
)


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    gallery: str
    hypothesis_verdict: str  # holds-on-candidates | violated | undetermined
    conclusion_verdict: str  # holds | fails | undetermined
    classification: str
    violating_tuples: Tuple[Tuple[Point2, ...], ...] = ()
    witnesses: Tuple[Tuple[str, object], ...] = ()
    coverage: Coverage = Coverage(0, 0)
    preconditions: Tuple[Tuple[str, bool], ...] = ()
    qualifiers: Tuple[str, ...] = ()
    config: Optional[CheckConfig] = None
    reproduction: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(f"unknown classification {self.classification!r}")
        if self.classification == "THEOREM_VIOLATION_CANDIDATE":
            if self.hypothesis_verdict != "holds-on-candidates":
                raise ValueError("violation candidate requires hypothesis to hold")
            if self.conclusion_verdict != "fails":
                raise ValueError("violation candidate requires conclusion failure")


def _tuple_size_preconditions(cfg: CheckConfig) -> Tuple[Tuple[str, bool], ...]:
    """("tuple-size>=N", k >= N) when the user overrode the theorem's tuple
    size N with k, else nothing: the theorem says nothing about smaller
    tuples, so a failure found with them is no counterexample."""
    if cfg.k is None:
        return ()
    n = replace(cfg, k=None).tuple_size()
    return ((f"tuple-size>={n}", cfg.k >= n),)


def _classify(hyp: str, concl: str, preconditions_met: bool, certified_failure: bool) -> str:
    if hyp == "violated":
        return "VACUOUS"
    if hyp == "undetermined":
        return "CONSISTENT" if concl == "holds" else "UNDETERMINED"
    if concl == "holds":
        return "CONSISTENT"
    if concl == "undetermined":
        return "UNDETERMINED"
    if not preconditions_met:
        return "CONSISTENT_WITH_CLAIM"
    if not certified_failure:
        return "UNDETERMINED"
    return "THEOREM_VIOLATION_CANDIDATE"


# ---------------------------------------------------------------------------
# Kernels


def kernel_status(gallery):
    """(verdict, witness, certified, qualifier) for "the kernel is nonempty",
    decided exactly; NotAreal for a skeletal gallery."""
    return gallery.kernel_status()


def halfplane_triple_empty(h1: HalfPlane, h2: HalfPlane, h3: HalfPlane) -> bool:
    """Exact emptiness of the intersection of three half-planes.

    Nonempty intersections with no parallel pair always expose a feasible
    pairwise line crossing (a pointed 2D polyhedron has a vertex), so testing
    the crossings plus antiparallel slabs decides emptiness.
    """
    hs = (h1, h2, h3)
    crossings = []
    for i in range(3):
        for j in range(i + 1, 3):
            p, q = hs[i], hs[j]
            det = p.a * q.b - p.b * q.a
            if det == 0:
                if p.a * q.a + p.b * q.b < 0:
                    t = (-q.a / p.a) if p.a != 0 else (-q.b / p.b)
                    if t * p.c + q.c < 0:
                        return True  # antiparallel with a gap
                continue
            x = (p.c * q.b - p.b * q.c) / det
            y = (p.a * q.c - p.c * q.a) / det
            crossings.append(Point2(x, y))
    for v in crossings:
        if all(h.contains(v) for h in hs):
            return False
    return bool(crossings)


def _helly_violating_edges(poly: PolygonWithHoles) -> Optional[Tuple[int, int, int]]:
    """Indices of three edges whose inner half-planes have empty intersection.

    Exists whenever the kernel of a hole-free polygon is empty (Helly in the
    plane, finite family).
    """
    hps = kernel_halfplanes(poly)
    n = len(hps)
    for combo in itertools.combinations(range(n), 3):
        if halfplane_triple_empty(*(hps[i] for i in combo)):
            return combo
    return None


def _edge_midpoint(poly: PolygonWithHoles, i: int) -> Point2:
    vs = poly.outer.vertices
    a, b = vs[i], vs[(i + 1) % len(vs)]
    return Point2((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)


# ---------------------------------------------------------------------------
# Classic checker (Thm: local (d+1)-visibility implies a global guard)


def check_classic(gallery, candidates: Optional[CandidateSet] = None,
                  cfg: Optional[CheckConfig] = None) -> TheoremReport:
    cfg = cfg or CheckConfig(theorem="classic")
    k = cfg.tuple_size()
    preconditions = _tuple_size_preconditions(cfg)
    name = gallery.name or type(gallery).__name__
    if candidates is None:
        candidates = CandidateSet.default(
            gallery, seed=cfg.seed, random_count=cfg.random_candidates
        )

    concl, witness, certified, kq = kernel_status(gallery)
    qualifiers = (kq,) if kq else ()
    witnesses = (("kernel", witness),) if witness is not None else ()

    if concl == "holds" and certified:
        # every candidate tuple's common visibility contains the kernel
        cov = Coverage(0, _ncomb(len(candidates), k), fast_path="kernel-superset")
        return TheoremReport(
            "classic", name, "holds-on-candidates", "holds", "CONSISTENT",
            witnesses=witnesses, coverage=cov, preconditions=preconditions,
            qualifiers=qualifiers, config=cfg,
        )

    if isinstance(gallery, Gallery) and gallery.simply_connected:
        # empty kernel: Helly yields three edge half-planes with empty
        # intersection; visibility from an edge midpoint stays in the edge's
        # inner half-plane, so the three midpoints cannot see a common point
        poly = gallery.polygon
        combo = _helly_violating_edges(poly)
        if combo is not None:
            triple = tuple(_edge_midpoint(poly, i) for i in combo)
            if not gallery.common_visibility(triple).is_empty():
                raise AssertionError("Helly certificate contradicts exact common visibility")
            cov = Coverage(1, _ncomb(len(candidates), k), fast_path="helly-edge-triple")
            return TheoremReport(
                "classic", name, "violated", "fails", "VACUOUS",
                violating_tuples=(triple,), coverage=cov, preconditions=preconditions,
                qualifiers=qualifiers, config=cfg,
            )

    # general path: enumerate candidate tuples up to the cap
    cache: dict = {}
    hyp, violating, _, cov = _scan(
        itertools.combinations(candidates.points, k), _ncomb(len(candidates), k), cfg.cap,
        lambda tup: _common_status(gallery, tup, cache),
    )
    pre_met = all(ok for _, ok in preconditions)
    classification = _classify(hyp, concl, pre_met, certified)
    return TheoremReport(
        "classic", name, hyp, concl, classification,
        violating_tuples=violating, witnesses=witnesses, coverage=cov,
        preconditions=preconditions, qualifiers=qualifiers, config=cfg,
    )


def _ncomb(n: int, k: int) -> int:
    return math.comb(n, k) if n >= k else 0


def _common_status(gallery, tup, cache):
    """("fails", None) when the tuple sees no common point, else ("holds", None)."""
    return ("fails" if gallery.common_visibility(tup, cache).is_empty() else "holds"), None


def _scan(tuples, total, cap, judge):
    """Judge tuples in order until three fail or `cap` have been judged.

    `judge(tup)` returns (status, qualifier), status being "holds", "fails"
    or "undetermined". Returns the hypothesis verdict, the failing tuples,
    the distinct qualifiers (plus a tally of undetermined tuples) and the
    coverage.
    """
    checked = undetermined = 0
    violating: List[Tuple[Point2, ...]] = []
    qualifiers: List[str] = []
    truncated = False
    for tup in tuples:
        if checked >= cap:
            truncated = True
            break
        checked += 1
        status, q = judge(tup)
        if q and q not in qualifiers:
            qualifiers.append(q)
        if status == "fails":
            violating.append(tup)
            if len(violating) >= 3:
                break
        elif status == "undetermined":
            undetermined += 1
    if violating:
        hyp = "violated"
    elif truncated or undetermined:
        hyp = "undetermined"
        if undetermined:
            qualifiers.append(f"{undetermined} tuples undetermined at search resolution")
    else:
        hyp = "holds-on-candidates"
    return hyp, tuple(violating), qualifiers, Coverage(checked, total, truncated=truncated)


# ---------------------------------------------------------------------------
# Colorful checkers


class NotSimplyConnected(ValueError):
    pass


def check_colorful_plane(gallery, p1, p2, p3, cfg: Optional[CheckConfig] = None) -> TheoremReport:
    """Planar colorful theorem: three classes, simply connected K.

    Passing the same class twice collapses to the two-class negative control
    (the optimality side of the theorem); the report then records the unmet
    three-class precondition and classifies the expected failure as
    CONSISTENT_WITH_CLAIM rather than as a violation.
    """
    cfg = cfg or CheckConfig(theorem="colorful-plane")
    name = gallery.name or type(gallery).__name__
    if isinstance(gallery, Gallery) and not gallery.simply_connected:
        raise NotSimplyConnected("colorful-plane requires a simply connected gallery")

    classes = []
    for cls in (p1, p2, p3):
        norm = tuple(pt(p) for p in cls)
        if not norm:
            raise ValueError("empty color class")
        if norm not in classes:
            classes.append(norm)
    for cls in classes:
        for p in cls:
            if not gallery.contains(p):
                raise ValueError(f"class point {p} is not in the gallery")
    distinct = len(classes)
    preconditions = (
        ("simply-connected", gallery.simply_connected),
        ("three-distinct-classes", distinct == 3),
    )

    return _colorful_core(gallery, classes, cfg, name, "colorful-plane", preconditions)


def check_colorful_general(gallery, classes, cfg: Optional[CheckConfig] = None) -> TheoremReport:
    """Colorful check for any number of classes (m >= 2), any gallery kind."""
    cfg = cfg or CheckConfig(theorem="colorful-general")
    name = gallery.name or type(gallery).__name__
    norm = [tuple(pt(p) for p in cls) for cls in classes]
    if len(norm) < 2:
        raise ValueError("need at least two classes")
    for cls in norm:
        if not cls:
            raise ValueError("empty color class")
        for p in cls:
            if not gallery.contains(p):
                raise ValueError(f"class point {p} is not in the gallery")
    preconditions = (("simply-connected", gallery.simply_connected),)
    return _colorful_core(gallery, norm, cfg, name, "colorful-general", preconditions)


def _colorful_core(gallery, classes, cfg, name, theorem, preconditions) -> TheoremReport:
    cache: dict = {}
    hyp, violating, _, cov = _scan(
        itertools.product(*classes), math.prod(len(cls) for cls in classes), cfg.cap,
        lambda tup: _common_status(gallery, tuple(dict.fromkeys(tup)), cache),
    )

    concl = "fails"
    witnesses: List[Tuple[str, object]] = []
    for i, cls in enumerate(classes):
        common = gallery.common_visibility(cls, cache)
        if not common.is_empty():
            concl = "holds"
            witnesses.append((f"class-{i + 1}-common-visibility", common))
            break

    pre_met = all(ok for _, ok in preconditions)
    classification = _classify(hyp, concl, pre_met, True)
    return TheoremReport(
        theorem, name, hyp, concl, classification,
        violating_tuples=violating, witnesses=tuple(witnesses), coverage=cov,
        preconditions=preconditions, config=cfg,
    )


# ---------------------------------------------------------------------------
# Quantitative checkers


def _circumscribed_disc_polygon(center, r, verts: int = 96) -> Optional[ConvexPolygon]:
    """Convex polygon certified (exactly) to contain the disc of radius r."""
    cx, cy = rat(center[0]), rat(center[1])
    r = rat(r)
    R = float(r) / math.cos(math.pi / verts) * (1.0 + 1e-9)
    ring = [
        Point2(
            cx + rationalize(R * math.cos(2 * math.pi * k / verts)),
            cy + rationalize(R * math.sin(2 * math.pi * k / verts)),
        )
        for k in range(verts)
    ]
    poly = ConvexPolygon(ring)
    if poly.degenerate:
        return None
    for hp in poly.halfplanes():
        slack = hp.c - (hp.a * cx + hp.b * cy)
        if slack < 0 or slack * slack < r * r * (hp.a * hp.a + hp.b * hp.b):
            return None  # apothem dipped below r; not a certificate
    return poly


def _region_contains_convex(region: Region, convex: ConvexPolygon) -> bool:
    diff = region_boolean("difference", Region((convex.to_polygon(),)), region)
    return diff.is_empty()


def _disc_in_region(region: Region, center, r) -> bool:
    poly = _circumscribed_disc_polygon(center, r)
    if poly is None:
        return False
    return _region_contains_convex(region, poly)


def _witness_in_shape(shape, family, cfg, convex_hint: bool):
    """(status, witness, qualifier): status in holds | fails | undetermined.

    "fails" is only returned when absence is certified (exact area
    obstructions, or exact optima over convex shapes); searches that simply
    fail to find a witness return "undetermined".
    """
    threshold = rat(cfg.threshold)
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    tol = rat(cfg.tolerance)

    empty = shape.is_empty() if hasattr(shape, "is_empty") else False
    if family in ("box-volume", "box-sum", "disc", "ellipse", "region-area"):
        total = rat(0) if empty else shape.area()
        if family == "region-area":
            if total >= threshold - tol:
                return "holds", ("region-area", total), None
            return "fails", None, None
        # exact area obstructions certify absence
        if family == "box-volume" and total < threshold - tol:
            return "fails", None, None
        if family == "ellipse" and total < threshold - tol:
            return "fails", None, None
        if family == "disc" and rat("3.14159265") * threshold * threshold > total:
            return "fails", None, None
    if empty:
        return "fails", None, None  # nothing of positive size fits
    if family == "box-sum":
        (x0, y0), (x1, y1) = region_bbox(shape)
        if (x1 - x0) + (y1 - y0) < threshold - tol:
            return "fails", None, None  # bounding box caps every contained box

    if family == "box-volume":
        box = inscribe.contains_box_of_area(shape, threshold, convex_hint=convex_hint)
        if box is not None and inscribe.contains_box(shape, box, convex_hint=convex_hint):
            return "holds", box, None
        return "undetermined", None, "box-scan-resolution"
    if family == "box-sum":
        box = inscribe.contains_box_of_axis_sum(shape, threshold, convex_hint=convex_hint)
        if box is not None and inscribe.contains_box(shape, box, convex_hint=convex_hint):
            return "holds", box, None
        return "undetermined", None, "box-scan-resolution"
    if family == "disc":
        region = as_region(shape)
        if convex_hint:
            disc = inscribe.max_inscribed_disc(shape)
            if disc.r >= float(threshold) - float(tol):
                center = (rationalize(disc.cx), rationalize(disc.cy))
                if _disc_in_region(region, center, threshold):
                    return "holds", inscribe.Disc(disc.cx, disc.cy, float(threshold)), None
                return "undetermined", None, "disc-certificate-failed"
            return "fails", None, "disc-lp-float"
        hit = _nonconvex_disc_search(region, threshold)
        if hit is not None:
            return "holds", hit, None
        return "undetermined", None, "disc-grid-resolution"
    if family == "ellipse":
        if not convex_hint:
            return "undetermined", None, "ellipse-needs-convex"
        ell = inscribe.mvie(shape)
        if rat(ell.area()) >= threshold - tol:
            return "holds", ell, "mvie-float"
        return "fails", None, "mvie-float-not-certified"
    if family == "vwidth-segment":
        seg = inscribe.longest_vwidth_segment(shape, cfg.direction, convex_hint=convex_hint)
        if seg is not None and rat(seg.value) >= threshold - tol:
            return "holds", seg, None
        if convex_hint:
            return "fails", None, None  # exact optimum over a convex shape
        vx, vy = rat(cfg.direction[0]), rat(cfg.direction[1])
        vals = [p[0] * vx + p[1] * vy for ring in as_region(shape).rings() for p in ring]
        if vals and max(vals) - min(vals) < threshold - tol:
            return "fails", None, None  # the region's own width is too small
        return "undetermined", None, "vwidth-vertex-pool"
    if family == "norm-segment":
        if cfg.norm_ball is None:
            raise ValueError("norm-segment needs a norm_ball")
        seg = inscribe.longest_norm_segment(shape, cfg.norm_ball, convex_hint=convex_hint)
        if seg is not None and rat(seg.value) >= threshold - tol:
            return "holds", seg, None
        if convex_hint:
            return "fails", None, None
        pool = [v for ring in as_region(shape).rings() for v in ring]
        bound = max(
            (cfg.norm_ball.norm((b[0] - a[0], b[1] - a[1]))
             for a, b in itertools.combinations(pool, 2)),
            default=rat(0),
        )
        if bound < threshold - tol:
            return "fails", None, None  # endpoints live on region vertices' hull
        return "undetermined", None, "norm-vertex-pool"
    raise ValueError(f"unknown witness family {family!r}")


def _region_as_convex(region: Region) -> Optional[ConvexPolygon]:
    """The region as a convex polygon, or None; exact (canonical rings have
    no collinear runs, so strict turns decide convexity)."""
    if len(region.components) != 1 or region.components[0].holes:
        return None
    vs = region.components[0].outer.vertices
    n = len(vs)
    for i in range(n):
        if orient(vs[i], vs[(i + 1) % n], vs[(i + 2) % n]) <= 0:
            return None
    return ConvexPolygon(vs)


def _nonconvex_disc_search(region: Region, r, grid: int = 8):
    from artgallery.geom.polygon import point_in_region

    (x0, y0), (x1, y1) = region_bbox(region)
    cells = sorted(
        ((i, j) for i in range(1, grid) for j in range(1, grid)),
        key=lambda ij: abs(ij[0] * 2 - grid) + abs(ij[1] * 2 - grid),
    )
    r = rat(r)
    for i, j in cells:
        c = Point2(x0 + (x1 - x0) * rat(i, grid), y0 + (y1 - y0) * rat(j, grid))
        # cardinal points prune clearly poking discs before the exact boolean
        probes = (c, Point2(c[0] + r, c[1]), Point2(c[0] - r, c[1]),
                  Point2(c[0], c[1] + r), Point2(c[0], c[1] - r))
        if not all(point_in_region(p, region) for p in probes):
            continue
        if _disc_in_region(region, c, r):
            return inscribe.Disc(float(c[0]), float(c[1]), float(r))
    return None


def _common_witness(gallery, tup, cfg, cache=None):
    """Witness admission in the exact common visibility of a tuple (areal
    galleries only: check_quantitative has asked for the kernel first)."""
    common = gallery.common_visibility(tup, cache)
    if isinstance(common, Region):
        conv = _region_as_convex(common)
        if conv is not None:
            return _witness_in_shape(conv, cfg.family, cfg, convex_hint=True)
        return _witness_in_shape(common, cfg.family, cfg, convex_hint=False)
    # pinched: whole components plus at most 1-dimensional pieces
    if cfg.family == "region-area":
        total = common.area()
        tol = rat(cfg.tolerance)
        if total >= rat(cfg.threshold) - tol:
            return "holds", ("region-area", total), None
        return "fails", None, None
    for idx in common.full:
        comp = common.gallery.components[idx]
        status, witness, q = _witness_in_shape(comp, cfg.family, cfg, convex_hint=True)
        if status == "holds":
            return status, witness, q
    if not common.full:
        return "fails", None, None  # at most 1-dimensional
    return "undetermined", None, "pinched-componentwise"


def check_quantitative(gallery, candidates: Optional[CandidateSet] = None,
                       cfg: Optional[CheckConfig] = None) -> TheoremReport:
    """Quantitative theorems: witness-in-common-visibility for every tuple
    implies witness-in-kernel.

    The hypothesis runs on the exact non-convex intersection of visibility
    regions; the conclusion on the exact kernel (convex for hole-free
    galleries). Witness searches that are resolution-limited propagate as
    "undetermined" plus a qualifier.
    """
    if cfg is None or cfg.family is None:
        raise ValueError("check_quantitative needs cfg.family")
    if cfg.family not in QUANT_FAMILIES:
        raise ValueError(f"unknown witness family {cfg.family!r}")
    if cfg.threshold is None:
        raise ValueError("check_quantitative needs cfg.threshold")
    if rat(cfg.threshold) <= 0:
        raise ValueError("threshold must be positive")
    name = gallery.name or type(gallery).__name__
    k = cfg.tuple_size()
    preconditions = _tuple_size_preconditions(cfg)
    if candidates is None:
        candidates = CandidateSet.default(
            gallery, seed=cfg.seed, random_count=cfg.random_candidates
        )

    total = _ncomb(len(candidates), k)
    theorem = cfg.theorem if cfg.theorem != "classic" else cfg.family

    # Conclusion first: the kernel sits inside the common visibility of any
    # tuple, so a kernel witness settles the hypothesis for every tuple at
    # once and the enumeration can be skipped entirely.
    concl_kernel, kern, _, kq = kernel_status(gallery)
    kernel_quals: List[str] = [kq] if kq else []
    witnesses: List[Tuple[str, object]] = []
    certified_failure = True
    if concl_kernel == "fails" or isinstance(kern, Point2):
        # no kernel at all, or a single point: nothing of positive size fits
        concl = "fails"
    else:
        status, witness, q = _witness_in_shape(kern, cfg.family, cfg, convex_hint=True)
        if q:
            kernel_quals.append(q)
        concl = status
        if status == "holds":
            witnesses.append((f"kernel-{cfg.family}", witness))
        elif status == "fails":
            certified_failure = q is None

    if concl == "holds":
        cov = Coverage(0, total, fast_path="kernel-superset")
        return TheoremReport(
            theorem, name, "holds-on-candidates", "holds", "CONSISTENT",
            witnesses=tuple(witnesses), coverage=cov, preconditions=preconditions,
            qualifiers=tuple(dict.fromkeys(kernel_quals)), config=cfg,
        )

    cache: dict = {}

    def judge(tup):
        status, _, q = _common_witness(gallery, tup, cfg, cache)
        return status, q

    hyp, violating, qualifiers, cov = _scan(
        itertools.combinations(candidates.points, k), total, cfg.cap, judge
    )
    pre_met = all(ok for _, ok in preconditions)
    classification = _classify(hyp, concl, pre_met, certified_failure)
    return TheoremReport(
        theorem, name, hyp, concl, classification,
        violating_tuples=violating, witnesses=tuple(witnesses), coverage=cov,
        preconditions=preconditions,
        qualifiers=tuple(dict.fromkeys(qualifiers + kernel_quals)), config=cfg,
    )


# ---------------------------------------------------------------------------
# Fuzzing


GENERATORS = {}


def _generator(name: str):
    if not GENERATORS:
        from artgallery import galleries as g

        GENERATORS.update(
            {
                "star": lambda seed, **kw: Gallery(
                    g.gen_star(seed, kw.get("n_vertices", 12)), name=f"star-{seed}"
                ),
                "simple": lambda seed, **kw: Gallery(
                    g.gen_simple(seed, kw.get("n_vertices", 12)), name=f"simple-{seed}"
                ),
                "empty-kernel": lambda seed, **kw: Gallery(
                    g.gen_empty_kernel(seed, kw.get("n_vertices", 12)),
                    name=f"empty-kernel-{seed}",
                ),
            }
        )
    return GENERATORS[name]


def search_counterexample(generator, cfg: Optional[CheckConfig] = None,
                          budget: int = 100, seed: int = 0, **gen_kwargs) -> List[TheoremReport]:
    """Seeded fuzzing loop: generate, check, collect. Reports carry their
    generation seed so any run reproduces standalone."""
    return list(iter_counterexamples(generator, cfg, budget, seed, **gen_kwargs))


def iter_counterexamples(generator, cfg: Optional[CheckConfig] = None,
                         budget: int = 100, seed: int = 0, **gen_kwargs) -> Iterator[TheoremReport]:
    """The reports of :func:`search_counterexample`, each checked as it is drawn."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    cfg = cfg or CheckConfig(theorem="classic")
    if cfg.theorem == "classic":
        check = check_classic
    elif cfg.theorem in QUANT_FAMILIES or cfg.family in QUANT_FAMILIES:
        check = check_quantitative
    else:
        raise ValueError(f"fuzzing not wired for theorem {cfg.theorem!r}")
    make = _generator(generator) if isinstance(generator, str) else generator

    def run(i):
        # one flat integer per run so a report reproduces standalone
        run_seed = seed * 1000003 + i
        gallery = make(run_seed, **gen_kwargs) if isinstance(generator, str) else make(run_seed)
        rep = check(gallery, cfg=cfg)
        return replace(rep, reproduction=(("generator", str(generator)), ("seed", run_seed)))

    return (run(i) for i in range(budget))

"""Executable theorem checkers.

"For every n points in K" ranges over a continuum, which no checker can
enumerate. Every check here therefore runs over a finite candidate set and
says so in its report: hypothesis verdicts are always "on candidates". What
IS exact: every common-visibility emptiness test, every kernel computation on
hole-free polygons, and every certified witness. Numeric searches (inscribed
discs and ellipses, box scans) can fail to find a witness without proving
absence; those outcomes surface as "undetermined" with a qualifier, never as
a silent "fails".

The classic and quantitative checks share one skeleton, `_check_tuples`: a
theorem is a judge of tuples plus a kernel conclusion. The classic judge
asks whether a tuple sees a common point, the quantitative one whether the
tuple's common visibility holds the witness; each conclusion asks the same
of the kernel. An empty kernel names its own certificate, Helly's three edge
midpoints (see `kernel`), which fails every judge at k >= 3 without a scan.
That certificate costs what it costs to build: its premises (three edges
whose inner half-planes miss each other, one midpoint strictly inside each)
are decided exactly in `kernel` and `Gallery.kernel_status`, and its empty
common visibility is a tested consequence, not a runtime recomputation.
Every report is built by `_report`.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from artgallery.rational import rat, rationalize
from artgallery.gallery import Gallery, ViewCache
from artgallery.geom.primitives import Point2, orient, pt
from artgallery.geom.polygon import Region, region_bbox
from artgallery.geom.convex import ConvexPolygon
from artgallery import galleries, inscribe


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
    def from_points(gallery, points) -> "CandidateSet":
        """User-given candidates, tagged "user"."""
        pts = tuple(pt(p) for p in points)
        for p in pts:
            if not gallery.contains(p):
                raise ValueError(f"candidate {p} is not in the gallery")
        return CandidateSet(pts, ("user",) * len(pts))

    @staticmethod
    def default(gallery, seed: int = 0, random_count: int = 20) -> "CandidateSet":
        """Vertices + edge midpoints + spike tips + seeded random points."""
        tagged: Dict[Point2, str] = {}  # insertion-ordered; a point keeps its first tag
        for p, tag in gallery.structural_points():
            tagged.setdefault(p, tag)
        try:
            for p in gallery.class_points("tips"):
                tagged.setdefault(pt(p), "spike-tip")
        except KeyError:
            pass
        rng = random.Random(f"candidates:{seed}")
        for p in gallery.random_points(rng, random_count):
            tagged.setdefault(p, f"random({seed})")
        return CandidateSet(tuple(tagged), tuple(tagged.values()))


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
            if self.k < 1:
                raise ValueError("k must be at least 1")
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


def _report(theorem, gallery, cfg, hyp, concl, preconditions, certified=True, **fields):
    """The report of a check, classified from its verdicts and preconditions."""
    classification = _classify(hyp, concl, all(ok for _, ok in preconditions), certified)
    return TheoremReport(
        theorem, gallery.name or type(gallery).__name__, hyp, concl, classification,
        preconditions=preconditions, config=cfg, **fields,
    )


# ---------------------------------------------------------------------------
# Kernels


def kernel_status(gallery):
    """(verdict, witness, qualifier) for "the kernel is nonempty", decided
    exactly; NotAreal for a skeletal gallery. The witness of "fails" is a
    tuple of points that sees no common point, or None (see `gallery`)."""
    return gallery.kernel_status()


# ---------------------------------------------------------------------------
# Tuple theorems: the shared skeleton, then the classic checker (Thm: local
# (d+1)-visibility implies a global guard)


def _candidates(gallery, candidates: Optional[CandidateSet], cfg: CheckConfig) -> CandidateSet:
    if candidates is None:
        return CandidateSet.default(gallery, seed=cfg.seed, random_count=cfg.random_candidates)
    return candidates


def _check_tuples(theorem, gallery, candidates, cfg, k, concl, certified, witnesses, qualifiers,
                  judge, cert):
    """`judge` over the candidate k-tuples against the kernel conclusion
    `concl`. A conclusion that holds settles every tuple, since the kernel
    lies in each tuple's common visibility. `cert`, the kernel's "fails"
    witness or None, sees no common point, so padded with the first other
    candidates it is a failing k-tuple. Else the tuples are scanned.

    The certificate's premises are established exactly where it is built:
    `kernel._helly_violating_edges` returns three edges only if
    `halfplane_triple_empty` holds on their inner half-planes, and each point
    is the midpoint of its own edge, so it lies strictly inside that edge and
    sees only into that half-plane. Its common visibility is therefore not
    recomputed here; the tests compare it with the exact one."""
    total = math.comb(len(candidates), k)
    preconditions = _tuple_size_preconditions(cfg)
    if concl == "holds":
        return _report(
            theorem, gallery, cfg, "holds-on-candidates", concl, preconditions,
            witnesses=witnesses, coverage=Coverage(0, total, fast_path="kernel-superset"),
            qualifiers=tuple(dict.fromkeys(qualifiers)),
        )
    if cert is not None and len(cert) <= k <= len(candidates):
        rest = itertools.islice((p for p in candidates.points if p not in cert), k - len(cert))
        return _report(
            theorem, gallery, cfg, "violated", concl, preconditions, certified,
            violating_tuples=(cert + tuple(rest),), witnesses=witnesses,
            coverage=Coverage(1, total, fast_path="helly-edge-triple"),
            qualifiers=tuple(dict.fromkeys(qualifiers)),
        )
    hyp, violating, scan_qualifiers, cov = _scan(
        itertools.combinations(candidates.points, k), total, cfg.cap, judge
    )
    return _report(
        theorem, gallery, cfg, hyp, concl, preconditions, certified,
        violating_tuples=violating, witnesses=witnesses, coverage=cov,
        qualifiers=tuple(dict.fromkeys(scan_qualifiers + qualifiers)),
    )


def check_classic(gallery, candidates: Optional[CandidateSet] = None,
                  cfg: Optional[CheckConfig] = None) -> TheoremReport:
    cfg = cfg or CheckConfig(theorem="classic")
    k = cfg.tuple_size()
    candidates = _candidates(gallery, candidates, cfg)

    concl, kern, kq = kernel_status(gallery)
    cache = ViewCache()
    return _check_tuples(
        "classic", gallery, candidates, cfg, k, concl, True,
        (("kernel", kern),) if concl == "holds" else (), [kq] if kq else [],
        lambda tup: _common_status(gallery, tup, cache), kern if concl == "fails" else None,
    )


def _common_status(gallery, tup, cache):
    """("fails", None) when the tuple sees no common point, else ("holds", None)."""
    return ("fails" if gallery.common_visibility_is_empty(tup, cache) else "holds"), None


def _scan(tuples, total, cap, judge):
    """Judge tuples in order until three fail or `cap` have been judged.

    `judge(tup)` returns (status, qualifier), status being "holds", "fails"
    or "undetermined". Returns the hypothesis verdict, the failing tuples,
    the distinct qualifiers (plus a tally of undetermined tuples) and the
    coverage. A scan with no tuple to judge leaves the hypothesis
    undetermined ("no-candidate-tuples"): it holds on no evidence.
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
    elif truncated or undetermined or not checked:
        hyp = "undetermined"
        if undetermined:
            qualifiers.append(f"{undetermined} tuples undetermined at search resolution")
        elif not truncated:
            qualifiers.append("no-candidate-tuples")
    else:
        hyp = "holds-on-candidates"
    return hyp, tuple(violating), qualifiers, Coverage(checked, total, truncated=truncated)


# ---------------------------------------------------------------------------
# Colorful checkers


def check_colorful_plane(gallery, p1, p2, p3, cfg: Optional[CheckConfig] = None) -> TheoremReport:
    """Planar colorful theorem: three classes, simply connected K.

    Passing the same class twice collapses to the two-class negative control
    (the optimality side of the theorem); the report then records the unmet
    three-class precondition and classifies the expected failure as
    CONSISTENT_WITH_CLAIM rather than as a violation. A gallery that is not
    simply connected is checked too, with its unmet precondition recorded
    the same way, as `check_colorful_general` does.
    """
    cfg = cfg or CheckConfig(theorem="colorful-plane")
    classes = list(dict.fromkeys(tuple(pt(p) for p in cls) for cls in (p1, p2, p3)))
    preconditions = (
        ("simply-connected", gallery.simply_connected),
        ("three-distinct-classes", len(classes) == 3),
    )
    return _colorful_core(gallery, classes, cfg, "colorful-plane", preconditions)


def check_colorful_general(gallery, classes, cfg: Optional[CheckConfig] = None) -> TheoremReport:
    """Colorful check for any number of classes (m >= 2), any gallery kind."""
    cfg = cfg or CheckConfig(theorem="colorful-general")
    norm = [tuple(pt(p) for p in cls) for cls in classes]
    if len(norm) < 2:
        raise ValueError("need at least two classes")
    preconditions = (("simply-connected", gallery.simply_connected),)
    return _colorful_core(gallery, norm, cfg, "colorful-general", preconditions)


def _colorful_core(gallery, classes, cfg, theorem, preconditions) -> TheoremReport:
    """The colorful scan over normalised classes, each first checked to be
    nonempty and inside the gallery."""
    if not all(classes):
        raise ValueError("empty color class")
    for p in itertools.chain(*classes):
        if not gallery.contains(p):
            raise ValueError(f"class point {p} is not in the gallery")
    cache = ViewCache()
    hyp, violating, _, cov = _scan(
        itertools.product(*classes), math.prod(len(cls) for cls in classes), cfg.cap,
        lambda tup: _common_status(gallery, tuple(dict.fromkeys(tup)), cache),
    )

    concl, witnesses = "fails", ()
    for i, cls in enumerate(classes):
        common = gallery.common_visibility(cls, cache)
        if not common.is_empty():
            concl, witnesses = "holds", ((f"class-{i + 1}-common-visibility", common),)
            break

    return _report(
        theorem, gallery, cfg, hyp, concl, preconditions,
        violating_tuples=violating, witnesses=witnesses, coverage=cov,
    )


# ---------------------------------------------------------------------------
# Quantitative checkers


def _witness_in_shape(shape, family, cfg):
    """(status, witness, qualifier): status in holds | fails | undetermined.

    The shape is a ConvexPolygon or a Region, and the searches take their
    path from its type; for "region-area" it may also be a skeletal or
    pinched `Cover`, of which only `area()` is read. "fails" is only
    returned when absence is certified (exact area obstructions, or exact
    optima over convex shapes); searches
    that simply fail to find a witness return "undetermined". Every witness
    is certified exactly, and exact quantities are compared with the
    threshold exactly. cfg.tolerance enters only two float comparisons: the
    LP disc's radius, before "fails" ("disc-lp-float"), and the certified
    ellipse's float area, before "holds" ("mvie-float").
    """
    threshold = rat(cfg.threshold)
    tol = rat(cfg.tolerance)  # the float searches' margin only
    convex = isinstance(shape, ConvexPolygon)

    if family in ("box-volume", "box-sum", "disc", "ellipse", "region-area"):
        total = shape.area()
        if family == "region-area":
            if total >= threshold:
                return "holds", ("region-area", total), None
            return "fails", None, None
        # exact area obstructions certify absence; a box, disc or ellipse of
        # positive size has positive area
        if total == 0:
            return "fails", None, None
        if family in ("box-volume", "ellipse") and total < threshold:
            return "fails", None, None
        if family == "disc" and rat("3.14159265") * threshold * threshold > total:
            return "fails", None, None
    if shape.is_empty():
        return "fails", None, None  # nothing of positive size fits

    if family in ("box-volume", "box-sum"):
        if family == "box-volume":
            box = inscribe.contains_box_of_area(shape, threshold)
        else:
            (x0, y0), (x1, y1) = region_bbox(shape)
            if (x1 - x0) + (y1 - y0) < threshold:
                return "fails", None, None  # bounding box caps every contained box
            box = inscribe.contains_box_of_axis_sum(shape, threshold)
        if box is not None and inscribe.contains_box(shape, box):
            return "holds", box, None
        return "undetermined", None, "box-scan-resolution"
    if family == "disc":
        if not convex:
            hit = inscribe.nonconvex_disc_search(shape, threshold)
            if hit is not None:
                return "holds", hit, None
            return "undetermined", None, "disc-grid-resolution"
        disc = inscribe.max_inscribed_disc(shape)
        if disc.r < float(threshold) - float(tol):
            return "fails", None, "disc-lp-float"
        if inscribe.contains_disc(shape, (rationalize(disc.cx), rationalize(disc.cy)), threshold):
            return "holds", inscribe.Disc(disc.cx, disc.cy, float(threshold)), None
        return "undetermined", None, "disc-certificate-failed"
    if family == "ellipse":
        if not convex:
            return "undetermined", None, "ellipse-needs-convex"
        ell = inscribe.mvie(shape)
        if ell is None:
            return "undetermined", None, "ellipse-certificate-failed"
        if rat(ell.area()) >= threshold - tol:
            return "holds", ell, "mvie-float"
        return "fails", None, "mvie-float-not-certified"
    if family in ("vwidth-segment", "norm-segment"):
        if family == "vwidth-segment":
            value = inscribe.directional_width(cfg.direction)
            seg = inscribe.longest_vwidth_segment(shape, cfg.direction)
        else:
            if cfg.norm_ball is None:
                raise ValueError("norm-segment needs a norm_ball")
            value = cfg.norm_ball.norm
            seg = inscribe.longest_norm_segment(shape, cfg.norm_ball)
        if seg.value >= threshold:
            return "holds", seg, None
        if convex:
            return "fails", None, None  # exact optimum over a convex shape
        # a contained segment's ends lie in the hull of the region's
        # vertices, and the value is convex in b - a
        pool = [p for ring in shape.rings() for p in ring]
        bound = max(value((b[0] - a[0], b[1] - a[1])) for a, b in itertools.product(pool, repeat=2))
        if bound < threshold:
            return "fails", None, None
        return "undetermined", None, family.replace("segment", "vertex-pool")
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


def _common_witness(gallery, tup, cfg, cache=None):
    """Witness admission in the exact common visibility of a tuple (areal
    galleries only: check_quantitative has asked for the kernel first)."""
    common = gallery.common_visibility(tup, cache)
    if isinstance(common, Region):
        conv = _region_as_convex(common)
        return _witness_in_shape(common if conv is None else conv, cfg.family, cfg)
    # a Cover: whole pieces plus at most 1-dimensional ones
    if cfg.family == "region-area":
        return _witness_in_shape(common, cfg.family, cfg)
    for idx in common.full:
        status, witness, q = _witness_in_shape(common.pieces[idx], cfg.family, cfg)
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
    k = cfg.tuple_size()
    candidates = _candidates(gallery, candidates, cfg)

    # the conclusion: a witness in the kernel; a single point holds none
    concl, kern, kq = kernel_status(gallery)
    cert = kern if concl == "fails" else None
    witness = wq = None
    if isinstance(kern, Point2):
        concl = "fails"
    elif concl == "holds":
        concl, witness, wq = _witness_in_shape(kern, cfg.family, cfg)
    witnesses = ((f"kernel-{cfg.family}", witness),) if concl == "holds" else ()
    cache = ViewCache()

    def judge(tup):
        status, _, q = _common_witness(gallery, tup, cfg, cache)
        return status, q

    theorem = cfg.theorem if cfg.theorem != "classic" else cfg.family
    return _check_tuples(
        theorem, gallery, candidates, cfg, k, concl, wq is None, witnesses,
        [q for q in (kq, wq) if q], judge, cert,
    )


# ---------------------------------------------------------------------------
# Fuzzing


# Each generator looks its `galleries` function up when called, so a wrapper
# bound over that function later is the one called.
GENERATORS = {
    "star": lambda seed, **kw: Gallery(
        galleries.gen_star(seed, kw.get("n_vertices", 12)), name=f"star-{seed}"
    ),
    "simple": lambda seed, **kw: Gallery(
        galleries.gen_simple(seed, kw.get("n_vertices", 12)), name=f"simple-{seed}"
    ),
    "empty-kernel": lambda seed, **kw: Gallery(
        galleries.gen_empty_kernel(seed, kw.get("n_vertices", 12)), name=f"empty-kernel-{seed}"
    ),
}


def search_counterexample(generator, cfg: Optional[CheckConfig] = None,
                          budget: int = 100, seed: int = 0, **gen_kwargs) -> Iterator[TheoremReport]:
    """Seeded fuzzing loop: the reports of `budget` generated galleries,
    each checked as it is drawn. Reports carry their generation seed so any
    run reproduces standalone."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    cfg = cfg or CheckConfig(theorem="classic")
    if cfg.theorem == "classic":
        check = check_classic
    elif cfg.theorem in QUANT_FAMILIES or cfg.family in QUANT_FAMILIES:
        check = check_quantitative
    else:
        raise ValueError(f"fuzzing not wired for theorem {cfg.theorem!r}")
    make = GENERATORS[generator] if isinstance(generator, str) else generator

    def run(i):
        # one flat integer per run so a report reproduces standalone
        run_seed = seed * 1000003 + i
        gallery = make(run_seed, **gen_kwargs) if isinstance(generator, str) else make(run_seed)
        rep = check(gallery, cfg=cfg)
        return replace(rep, reproduction=(("generator", str(generator)), ("seed", run_seed)))

    return (run(i) for i in range(budget))

"""The benchmark's four workloads.

Each workload builds its fixed inputs from the seed in its constructor (the
set-up that `setup_s` times), then offers a list of items. An item is one
check or one generated gallery and ends when its document has been
serialized with `docio`. `check` verifies one item's outputs with the
guarantees of the construction and with the float code in `verify`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from artgallery import checkers as C
from artgallery import docio as D
from artgallery import galleries as G
from artgallery.gallery import Gallery
from artgallery.geom.polygon import PolygonWithHoles

import verify as V


class Output(NamedTuple):
    doc: dict
    text: str
    value: object  # the TheoremReport, or the (gallery, params) pair


def _report(rep) -> Output:
    doc = D.report_to_document(rep)
    return Output(doc, D.dumps(doc), rep)


def _q(value) -> Fraction:
    return Fraction(int(value.numerator), int(value.denominator))


def _verdict_errors(rep, classification, hypothesis=None, conclusion=None):
    errors = []
    if rep.classification != classification:
        errors.append(f"{rep.gallery}: classification {rep.classification}, want {classification}")
    if hypothesis and rep.hypothesis_verdict != hypothesis:
        errors.append(f"{rep.gallery}: hypothesis {rep.hypothesis_verdict}, want {hypothesis}")
    if conclusion and rep.conclusion_verdict != conclusion:
        errors.append(f"{rep.gallery}: conclusion {rep.conclusion_verdict}, want {conclusion}")
    return errors


class Workload:
    name = ""
    SIZES: dict = {}

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.p = self.SIZES[size]

    def items(self):
        """[(item id, callable returning a list of Output)] in run order."""
        raise NotImplementedError

    def check(self, item_id: str, outputs) -> list:
        raise NotImplementedError


class ClassicDonut(Workload):
    """`check_classic` on the 6x6 square with a 2x2 square hole.

    The check stops at its third violating tuple, so its cost follows the
    random candidates: 249 tuples at config seeds 0, 1, 5 and 8-12, but 78-95
    at 2, 3, 4, 6, 7 and 13. A run seed used as config seed would make
    `wall_s` bimodal across seeds. The config seed is therefore fixed at 0 and
    the run seed translates the gallery by an integer offset in [1024, 2042)
    on each axis: every coordinate and digest changes with the seed, while
    the candidate layout relative to the gallery, the tuple count and the
    coordinate bit lengths do not.
    """

    name = "classic-donut"
    SIZES = {"full": {"random_candidates": 20}, "toy": {"random_candidates": 2}}

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        rng = random.Random(f"{self.name}:{seed}")
        dx, dy = rng.randrange(1024, 2042), rng.randrange(1024, 2042)
        self.outer = [(dx + x, dy + y) for x, y in ((0, 0), (6, 0), (6, 6), (0, 6))]
        self.hole = [(dx + x, dy + y) for x, y in ((2, 2), (2, 4), (4, 4), (4, 2))]
        self.gallery = Gallery(
            polygon=PolygonWithHoles(self.outer, [self.hole]), classes=(), name="donut"
        )
        self.cfg = C.CheckConfig(seed=0, random_candidates=self.p["random_candidates"])

    def items(self):
        return [("donut", lambda: [_report(C.check_classic(self.gallery, cfg=self.cfg))])]

    def check(self, item_id, outputs):
        (out,) = outputs
        rep = out.value
        errors = _verdict_errors(rep, "VACUOUS", "violated", "fails")
        if "hole-shadow" not in rep.qualifiers:
            errors.append("donut: qualifier hole-shadow missing")
        if not 1 <= len(rep.violating_tuples) <= 3:
            errors.append(f"donut: {len(rep.violating_tuples)} violating tuples")
        outer, hole = V.float_ring(self.outer), V.float_ring(self.hole)
        for tup in rep.violating_tuples:
            if len(tup) != 3 or not all(V.in_polygon(outer, [hole], V.float_point(p)) for p in tup):
                errors.append("donut: violating tuple leaves the gallery")
        return errors


class FuzzEmptyKernel(Workload):
    """`search_counterexample("empty-kernel")` over a batch of galleries,
    one gallery per item; item i of run seed s uses fuzz seed s*1000+i."""

    name = "fuzz-empty-kernel"
    SIZES = {"full": {"batch": 24, "n_vertices": 24}, "toy": {"batch": 2, "n_vertices": 12}}

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        self.cfg = C.CheckConfig(theorem="classic")
        self.fuzz_seeds = [seed * 1000 + i for i in range(self.p["batch"])]

    def _one(self, fuzz_seed):
        reps = C.search_counterexample(
            "empty-kernel", self.cfg, budget=1, seed=fuzz_seed, n_vertices=self.p["n_vertices"]
        )
        return [_report(rep) for rep in reps]

    def items(self):
        return [(f"fuzz-{s}", lambda s=s: self._one(s)) for s in self.fuzz_seeds]

    def check(self, item_id, outputs):
        (out,) = outputs
        rep = out.value
        errors = _verdict_errors(rep, "VACUOUS", "violated", "fails")
        if rep.coverage.fast_path != "helly-edge-triple":
            errors.append(f"{rep.gallery}: fast path {rep.coverage.fast_path}")
        run_seed = dict(rep.reproduction)["seed"]
        ring = V.float_ring(G.gen_empty_kernel(run_seed, self.p["n_vertices"]).vertices)
        if len(rep.violating_tuples) != 1 or len(rep.violating_tuples[0]) != 3:
            errors.append(f"{rep.gallery}: want one Helly triple")
        elif not all(V.on_boundary(ring, V.float_point(p)) for p in rep.violating_tuples[0]):
            errors.append(f"{rep.gallery}: Helly triple point off the boundary")
        return errors


class SpikedGen(Workload):
    """`gen_spiked`, then its gallery document.

    The document leaves out `docio.spiked_params_to_document`: m, eps and
    delta have about 25,000-bit numerators at 96 disc vertices, and Python
    refuses to print integers past 4,300 digits, so that call raises.
    """

    name = "spiked-gen"
    SIZES = {
        "full": {"n": 4, "disc_poly_verts": 96, "budget": 4},
        "toy": {"n": 2, "disc_poly_verts": 24, "budget": 2},
    }

    def _one(self):
        g, params = G.gen_spiked(
            n=self.p["n"], disc_poly_verts=self.p["disc_poly_verts"], seed=self.seed,
            budget=self.p["budget"],
        )
        doc = D.gallery_to_document(g, metadata={"generator": "spiked", "seed": self.seed})
        return [Output(doc, D.dumps(doc), (g, params))]

    def items(self):
        return [("spiked", self._one)]

    def check(self, item_id, outputs):
        from artgallery.kernel import kernel_simple

        (out,) = outputs
        g, p = out.value
        g.validate()
        m, eps, delta, scale = _q(p.m), _q(p.eps), _q(p.delta), _q(p.scale)
        errors = []
        if eps != Fraction(1, 2) - 1 / (2 * m):
            errors.append("spiked: eps != 1/2 - 1/(2m)")
        if delta != eps / (2 * (1 - 2 * eps)):
            errors.append("spiked: delta != eps / (2 (1 - 2 eps))")
        if len(p.S) != len(p.tips) or not set(p.tips) <= set(g.polygon.outer.vertices):
            errors.append("spiked: tips are not outline vertices")
        if abs(float(scale) ** 2 * float(m) - 1.0) >= 1e-9:
            errors.append("spiked: scale is not 1/sqrt(m)")
        if _q(kernel_simple(g).area()) != scale ** 2 * _q(p.kernel_area_prescale):
            errors.append("spiked: kernel area != scale^2 * prescale area")
        return errors


class TheoremMix(Workload):
    """The paper's colorful and quantitative checks as one session.

    The run seed drives claim22. The five quantitative searches always use
    star seed 0, where every kernel holds its witness. At other star seeds
    the checks fall back to enumerating candidate tuples, 13,244 for disc
    and 135,751 for vwidth-segment. That happens at 32 of the 90 galleries of
    seeds 0-29 for vwidth-segment 1, and at 7 for disc 1/4 and for ellipse
    1/4. One such check ran past 150 s. That cost would swamp the layers this
    workload is meant to measure, so these runs route around it.
    """

    name = "theorem-mix"
    FAMILIES = (
        ("disc", "1/4"),
        ("ellipse", "1/4"),
        ("box-volume", "1/16"),
        ("box-sum", "1/2"),
        ("vwidth-segment", "1"),
    )
    STAR_SEED = 0
    STAR_VERTICES = 12  # search_counterexample's default for "star"
    SIZES = {
        "full": {"claim22": (3, (3, 3, 3)), "budget": 3},
        "toy": {"claim22": (2, (3, 3)), "budget": 1},
    }

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        self.fig1 = G.gen_fig1()
        self.spider = G.gen_spider()
        self.fig1_classes = dict(self.fig1.classes)
        self.spider_classes = dict(self.spider.classes)

    def _claim22(self):
        n, sizes = self.p["claim22"]
        g = G.gen_claim22(n, sizes, self.seed)
        cls = dict(g.classes)
        return [_report(C.check_colorful_general(g, [cls[f"F{i + 1}"] for i in range(n)]))]

    def _star(self, family, threshold):
        cfg = C.CheckConfig(theorem=family, family=family, threshold=threshold)
        reps = C.search_counterexample("star", cfg, budget=self.p["budget"], seed=self.STAR_SEED)
        return [_report(rep) for rep in reps]

    def items(self):
        f, s = self.fig1_classes, self.spider_classes
        items = [
            ("fig1-control", lambda: [_report(
                C.check_colorful_plane(self.fig1, f["red"], f["blue"], f["blue"]))]),
            ("spider", lambda: [_report(
                C.check_colorful_general(self.spider, [s["red"], s["green"], s["blue"]]))]),
            ("claim22", self._claim22),
        ]
        items += [(f"star-{fam}", lambda fam=fam, t=t: self._star(fam, t)) for fam, t in self.FAMILIES]
        return items

    def check(self, item_id, outputs):
        errors = []
        if not item_id.startswith("star-"):
            (out,) = outputs
            rep = out.value
            errors += _verdict_errors(rep, "CONSISTENT_WITH_CLAIM", "holds-on-candidates")
            if rep.coverage.checked != rep.coverage.total or rep.coverage.truncated:
                errors.append(f"{rep.gallery}: colorful check not exhaustive")
            return errors
        family = item_id.removeprefix("star-")
        threshold = dict(self.FAMILIES)[family]
        if len(outputs) != self.p["budget"]:
            errors.append(f"{item_id}: {len(outputs)} reports")
        for out in outputs:
            rep = out.value
            if rep.classification == "THEOREM_VIOLATION_CANDIDATE":
                errors.append(f"{rep.gallery}: violation candidate for a proven theorem")
            if rep.conclusion_verdict == "holds" and not rep.witnesses:
                errors.append(f"{rep.gallery}: conclusion holds without a witness")
            run_seed = dict(rep.reproduction)["seed"]
            ring = V.float_ring(G.gen_star(run_seed, self.STAR_VERTICES).vertices)
            if V.signed_area(ring) < 0:
                ring.reverse()
            for _label, shape in out.doc["deterministic"]["witnesses"]:
                errors += [f"{rep.gallery}: {e}" for e in V.witness_errors(ring, family, threshold, shape)]
        return errors


WORKLOADS = {w.name: w for w in (ClassicDonut, FuzzEmptyKernel, SpikedGen, TheoremMix)}

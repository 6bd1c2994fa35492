"""Command-line front end.

Exit codes: 0 success, 1 internal error, 2 invalid input, 3 a check produced
a THEOREM_VIOLATION_CANDIDATE. Outputs are deterministic for fixed inputs and
seeds; wall-clock timing only appears under --timing, outside the
deterministic report section.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from artgallery.rational import fmt, rat
from artgallery.gallery import Gallery
from artgallery.geom.polygon import Region
from artgallery.geom.primitives import Point2
from artgallery import docio, render
from artgallery.docio import DocumentError
from artgallery import checkers
from artgallery.checkers import CandidateSet, CheckConfig, QUANT_FAMILIES
from artgallery import galleries


class InputError(ValueError):
    pass


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_xy(x: str, y: str) -> Point2:
    try:
        return Point2(rat(x), rat(y))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad coordinate: {exc}") from exc


# ---------------------------------------------------------------------------
# vis


def _visibility(gallery, x: str, y: str):
    """The viewpoint (x, y) and its exact visibility set, on any gallery kind."""
    p = _parse_xy(x, y)
    if not gallery.contains(p):
        raise InputError(f"point ({x}, {y}) is outside the gallery")
    return p, gallery.common_visibility([p])


def cmd_vis(args) -> int:
    gallery = docio.load_gallery(args.gallery)
    p, vis = _visibility(gallery, args.x, args.y)
    _emit(docio.dumps(docio.shape_file_document(vis)), args.output)
    if args.svg:
        _emit(render.render_svg(gallery, [("region", vis), ("points", [p])]), args.svg)
    return 0


# ---------------------------------------------------------------------------
# kernel


def cmd_kernel(args) -> int:
    gallery = docio.load_gallery(args.gallery)
    verdict, witness, _, _ = checkers.kernel_status(gallery)
    if verdict == "fails":
        print("EMPTY")
        if args.output:
            _emit(docio.dumps(docio.shape_file_document(Region(()))), args.output)
        return 0
    if isinstance(witness, Point2):
        print("area 0")
    else:
        exact = witness.area()
        text = fmt(exact)
        if len(text) > 60:  # exact value still lands in the output document
            text = f"~{float(exact):.12g} (exact rational has {len(text)} digits; use -o)"
        print(f"area {text}")
    if args.output:
        _emit(docio.dumps(docio.shape_file_document(witness)), args.output)
    if args.svg:
        _emit(render.render_svg(gallery, [("kernel", witness)]), args.svg)
    return 0


# ---------------------------------------------------------------------------
# check


def _load_candidates(gallery, spec: Optional[str]) -> Optional[CandidateSet]:
    if spec is None or spec == "default":
        return None
    if spec.startswith("class:"):
        name = spec[len("class:"):]
        try:
            points = gallery.class_points(name)
        except KeyError as exc:
            raise InputError(f"gallery has no class {name!r}") from exc
        return CandidateSet.from_points(gallery, points, tag="user")
    try:
        with open(spec, encoding="utf-8") as fh:
            raw = json.load(fh)
        points = [Point2(rat(x), rat(y)) for x, y in raw]
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
        raise InputError(f"cannot read candidates from {spec!r}: {exc}") from exc
    return CandidateSet.from_points(gallery, points, tag="user")


def _class_selection(gallery, names: Optional[str]) -> List[tuple]:
    if names:
        out = []
        for name in names.split(","):
            try:
                out.append(gallery.class_points(name.strip()))
            except KeyError as exc:
                raise InputError(f"gallery has no class {name.strip()!r}") from exc
        return out
    classes = [points for _, points in gallery.classes]
    if not classes:
        raise InputError("gallery has no point classes; pass --classes")
    return classes


def _check_config(args) -> CheckConfig:
    quantitative = args.theorem in QUANT_FAMILIES
    return CheckConfig(
        theorem="quantitative" if quantitative else args.theorem,
        k=args.k,
        family=args.theorem if quantitative else None,
        threshold=rat(args.threshold) if args.threshold is not None else None,
        seed=args.seed,
        cap=args.cap,
    )


def _run_check(gallery, args, cfg: CheckConfig):
    theorem = args.theorem
    if theorem == "classic":
        cand = _load_candidates(gallery, args.candidates)
        return checkers.check_classic(gallery, cand, cfg)
    if theorem == "colorful-plane":
        classes = _class_selection(gallery, args.classes)
        if len(classes) != 3:
            raise InputError("colorful-plane needs exactly three classes (repeats allowed)")
        return checkers.check_colorful_plane(gallery, *classes, cfg=cfg)
    if theorem == "colorful-general":
        classes = _class_selection(gallery, args.classes)
        return checkers.check_colorful_general(gallery, classes, cfg=cfg)
    if theorem in QUANT_FAMILIES:
        if args.threshold is None:
            raise InputError(f"--theorem {theorem} needs --threshold")
        cand = _load_candidates(gallery, args.candidates)
        return checkers.check_quantitative(gallery, cand, cfg)
    raise InputError(f"unknown theorem {theorem!r}")


def cmd_check(args) -> int:
    t0 = time.monotonic()
    cfg = _check_config(args)
    if args.generator:
        runs = checkers.iter_counterexamples(
            args.generator, cfg, budget=args.budget, seed=args.seed
        )
    else:
        if not args.gallery:
            raise InputError("pass a gallery file or --generator")
        runs = [_run_check(docio.load_gallery(args.gallery), args, cfg)]

    reports, docs = [], []
    for r in runs:  # each report is timed on its own, from the end of the one before
        elapsed = time.monotonic() - t0
        reports.append(r)
        docs.append(docio.report_to_document(r, timing_seconds=elapsed if args.timing else None))
        t0 = time.monotonic()

    payload = docs[0] if len(docs) == 1 else {
        "format_version": docio.FORMAT_VERSION,
        "kind": "report-batch",
        "reports": docs,
    }
    _emit(docio.dumps(payload), args.output)
    if any(r.classification == "THEOREM_VIOLATION_CANDIDATE" for r in reports):
        return 3
    return 0


# ---------------------------------------------------------------------------
# generate


def _parse_sizes(text: str) -> tuple:
    try:
        sizes = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad --sizes {text!r}") from exc
    return sizes


def cmd_generate(args) -> int:
    name = args.example
    meta = {"generator": name, "seed": args.seed}
    if name == "fig1":
        gallery = galleries.gen_fig1()
        meta.pop("seed")
    elif name == "spider":
        gallery = galleries.gen_spider()
        meta.pop("seed")
    elif name == "claim22":
        sizes = _parse_sizes(args.sizes) if args.sizes else (3,) * args.n
        gallery = galleries.gen_claim22(args.n, sizes, seed=args.seed)
        meta["n"] = args.n
        meta["class_sizes"] = list(sizes)
    elif name == "spiked":
        gallery, params = galleries.gen_spiked(
            n=args.n,
            disc_poly_verts=args.disc_poly_verts,
            seed=args.seed,
            budget=args.budget,
        )
        meta["params"] = docio.spiked_params_to_document(params)
    elif name == "star":
        gallery = Gallery(
            galleries.gen_star(args.seed, args.n_vertices), name=f"star-{args.seed}"
        )
        meta["n_vertices"] = args.n_vertices
    elif name == "simple":
        gallery = Gallery(
            galleries.gen_simple(args.seed, args.n_vertices), name=f"simple-{args.seed}"
        )
        meta["n_vertices"] = args.n_vertices
    else:
        raise InputError(f"unknown example {name!r}")
    _emit(docio.dumps(docio.gallery_to_document(gallery, metadata=meta)), args.output)
    return 0


# ---------------------------------------------------------------------------
# render


def cmd_render(args) -> int:
    gallery = docio.load_gallery(args.gallery)
    overlays = []
    for spec in args.overlay or ():
        if spec == "classes":
            overlays.append(("classes", None))
        elif spec == "kernel":
            verdict, witness, _, _ = checkers.kernel_status(gallery)
            if verdict == "holds":
                overlays.append(("kernel", witness))
        elif spec.startswith("vis:"):
            coords = spec[len("vis:"):].split(",")
            if len(coords) != 2:
                raise InputError(f"overlay {spec!r} needs vis:X,Y")
            p, vis = _visibility(gallery, *coords)
            overlays += [("region", vis), ("points", [p])]
        else:
            raise InputError(f"unknown overlay {spec!r}")
    _emit(render.render_svg(gallery, overlays), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artgallery",
        description="Exact visibility, kernels, and executable art-gallery theorems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vis", help="visibility region of a point")
    p.add_argument("gallery")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("-o", "--output")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_vis)

    p = sub.add_parser("kernel", help="kernel region and area")
    p.add_argument("gallery")
    p.add_argument("-o", "--output")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("check", help="run a theorem checker")
    p.add_argument("gallery", nargs="?")
    p.add_argument("--theorem", default="classic")
    p.add_argument("--k", type=int)
    p.add_argument("--threshold")
    p.add_argument("--candidates")
    p.add_argument("--classes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=20)
    p.add_argument("--cap", type=int, default=10**6)
    p.add_argument("--generator", choices=("star", "simple", "empty-kernel"))
    p.add_argument("--timing", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", help="write an example gallery document")
    p.add_argument("--example", required=True,
                   choices=("fig1", "spider", "claim22", "spiked", "star", "simple"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--sizes")
    p.add_argument("--n-vertices", type=int, default=12)
    p.add_argument("--disc-poly-verts", type=int, default=720)
    p.add_argument("--budget", type=int, default=24)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("render", help="render a gallery to SVG")
    p.add_argument("gallery")
    p.add_argument("--overlay", action="append")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

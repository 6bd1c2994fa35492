"""Gallery and report documents.

One JSON schema (format_version 1) covers all gallery kinds. Coordinates are
serialized as exact rational strings ("p/q"), so parse(serialize(G)) == G with
no tolerance anywhere. Floating payloads (spike angles, fitted witnesses)
stay native JSON numbers; Python's float repr round-trips them bit-exactly.

Shapes have one layout, decided by the shape and never by the gallery kind.
Inside a report a shape is a witness, ``{"type": t, ...}``
(:func:`shape_to_document`). Written as a file of its own (``vis -o``,
``kernel -o``) it is ``{"format_version": 1, "kind": t, ...}`` with the same
remaining keys (:func:`shape_file_document`); a region witness already wraps
a complete ``{"format_version": 1, "kind": "region", ...}`` document, which is
its file as it stands.

Report files split into a "deterministic" section (same inputs and seed give
identical bytes) and an optional "timing" section that carries wall-clock.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Optional

from artgallery.rational import fmt, rat
from artgallery.gallery import Gallery, PinchedGallery, SkeletalGallery, as_polygon
from artgallery.geom.primitives import Point2
from artgallery.geom.polygon import PolygonWithHoles, Region
from artgallery.geom.convex import ConvexPolygon
from artgallery.visibility import PinchedCommonVisibility, SkeletalCommonVisibility
from artgallery import inscribe

FORMAT_VERSION = 1


class DocumentError(ValueError):
    pass


def _point(p) -> list:
    return [fmt(p[0]), fmt(p[1])]


def _parse_point(obj) -> Point2:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise DocumentError(f"bad point {obj!r}")
    try:
        return Point2(rat(obj[0]), rat(obj[1]))
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise DocumentError(f"bad coordinate in {obj!r}: {exc}") from exc


def _ring(vertices) -> list:
    return [_point(v) for v in vertices]


def _classes_doc(classes) -> dict:
    return {name: [_point(p) for p in points] for name, points in classes}


def _parse_classes(obj) -> tuple:
    if not isinstance(obj, dict):
        raise DocumentError("classes must be an object")
    return tuple((name, tuple(_parse_point(p) for p in pts)) for name, pts in obj.items())


# ---------------------------------------------------------------------------
# Galleries


def gallery_to_document(gallery, metadata: Optional[dict] = None) -> dict:
    doc: dict = {"format_version": FORMAT_VERSION}
    if isinstance(gallery, SkeletalGallery):
        doc["kind"] = "skeletal"
        doc["segments"] = [[_point(s.a), _point(s.b)] for s in gallery.segments]
    elif isinstance(gallery, PinchedGallery):
        doc["kind"] = "pinched"
        doc["components"] = [_ring(c.vertices) for c in gallery.components]
    else:
        poly = as_polygon(gallery)
        doc["kind"] = "polygonal"
        doc["outer"] = _ring(poly.outer.vertices)
        doc["holes"] = [_ring(h.vertices) for h in poly.holes]
    doc["classes"] = _classes_doc(gallery.classes)
    doc["name"] = gallery.name
    if metadata:
        doc["metadata"] = metadata
    return doc


def document_to_gallery(doc: dict):
    if not isinstance(doc, dict):
        raise DocumentError("gallery document must be an object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # not True, not 1.0
        raise DocumentError(f"unsupported format_version {version!r}")
    kind = doc.get("kind")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise DocumentError(f"gallery name must be a string, not {name!r}")
    try:
        classes = _parse_classes(doc.get("classes", {}))
        if kind == "skeletal":
            segs = [(_parse_point(a), _parse_point(b)) for a, b in doc["segments"]]
            return SkeletalGallery(segs, classes=classes, name=name).validate()
        if kind == "pinched":
            comps = [[_parse_point(p) for p in ring] for ring in doc["components"]]
            return PinchedGallery(comps, classes=classes, name=name).validate()
        if kind == "polygonal":
            outer = [_parse_point(p) for p in doc["outer"]]
            holes = tuple(tuple(_parse_point(p) for p in h) for h in doc.get("holes", []))
            poly = PolygonWithHoles(outer, holes)
            return Gallery(poly, classes=classes, name=name).validate()
    except KeyError as exc:
        raise DocumentError(f"{kind} gallery document has no {exc}") from exc
    except TypeError as exc:
        raise DocumentError(f"malformed {kind} gallery document: {exc}") from exc
    raise DocumentError(f"unknown gallery kind {kind!r}")


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_gallery(path):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"not valid JSON: {exc}") from exc
    return document_to_gallery(doc)


# ---------------------------------------------------------------------------
# Shapes: report witnesses and standalone files


def shape_to_document(shape) -> dict:
    if isinstance(shape, Point2):
        return {"type": "point", "at": _point(shape)}
    if isinstance(shape, inscribe.Disc):
        return {"type": "disc", "cx": shape.cx, "cy": shape.cy, "r": shape.r}
    if isinstance(shape, inscribe.Box2):
        return {
            "type": "box",
            "x": fmt(shape.x), "y": fmt(shape.y),
            "w": fmt(shape.w), "h": fmt(shape.h),
        }
    if isinstance(shape, inscribe.Ellipse):
        return {
            "type": "ellipse",
            "center": [shape.center[0], shape.center[1]],
            "a11": shape.a11, "a12": shape.a12, "a22": shape.a22,
        }
    if isinstance(shape, inscribe.SegmentWitness):
        return {
            "type": "segment",
            "a": _point(shape.a), "b": _point(shape.b),
            "value": fmt(shape.value), "certified": shape.certified,
        }
    if isinstance(shape, ConvexPolygon):
        return {"type": "polygon", "vertices": _ring(shape.vertices)}
    if isinstance(shape, (Region, PolygonWithHoles)):
        reg = shape if isinstance(shape, Region) else Region((shape,))
        components = [
            {"outer": _ring(c.outer.vertices), "holes": [_ring(h.vertices) for h in c.holes]}
            for c in reg.components
        ]
        region = {"format_version": FORMAT_VERSION, "kind": "region", "components": components}
        return {"type": "region", "region": region}
    if isinstance(shape, SkeletalCommonVisibility):
        return {
            "type": "skeletal-visibility",
            "points": [_point(p) for p in shape.points],
            "segments": [[_point(s.a), _point(s.b)] for s in shape.segments],
        }
    if isinstance(shape, tuple) and len(shape) == 2 and isinstance(shape[0], str):
        return {"type": "value", "label": shape[0], "value": fmt(shape[1])}
    if isinstance(shape, PinchedCommonVisibility):
        return {
            "type": "pinched-visibility",
            "components": list(shape.full),
            "segments": [[_point(s.a), _point(s.b)] for s in shape.segments],
            "points": [_point(p) for p in shape.points],
        }
    return {"type": "opaque", "repr": repr(shape)}


def shape_file_document(shape) -> dict:
    """`shape` as a file of its own: its witness document with `type`
    renamed `kind` and `format_version` added; for a region, the region
    document the witness wraps."""
    doc = shape_to_document(shape)
    kind = doc.pop("type")
    if kind == "region":
        return doc["region"]
    return {"format_version": FORMAT_VERSION, "kind": kind, **doc}


# ---------------------------------------------------------------------------
# Reports


def _config_doc(cfg) -> Optional[dict]:
    if cfg is None:
        return None
    d = asdict(cfg)
    if d.get("threshold") is not None:
        d["threshold"] = fmt(d["threshold"])
    d["direction"] = _point(
        Point2(rat(cfg.direction[0]), rat(cfg.direction[1]))
    )
    if cfg.norm_ball is not None:
        d["norm_ball"] = _ring(cfg.norm_ball.polygon.vertices)
    return d


def report_to_document(report, timing_seconds: Optional[float] = None) -> dict:
    det = {
        "theorem": report.theorem,
        "gallery": report.gallery,
        "hypothesis_verdict": report.hypothesis_verdict,
        "conclusion_verdict": report.conclusion_verdict,
        "classification": report.classification,
        "violating_tuples": [[_point(p) for p in tup] for tup in report.violating_tuples],
        "witnesses": [[label, shape_to_document(w)] for label, w in report.witnesses],
        "coverage": {
            "checked": report.coverage.checked,
            "total": report.coverage.total,
            "truncated": report.coverage.truncated,
            "fast_path": report.coverage.fast_path,
        },
        "preconditions": [[name, ok] for name, ok in report.preconditions],
        "qualifiers": list(report.qualifiers),
        "config": _config_doc(report.config),
        "reproduction": [[key, repr(value)] for key, value in report.reproduction],
    }
    doc = {"format_version": FORMAT_VERSION, "kind": "report", "deterministic": det}
    if timing_seconds is not None:
        doc["timing"] = {"seconds": timing_seconds}
    return doc


def spiked_params_to_document(params) -> dict:
    return {
        "n": params.n,
        "M": params.M,
        "Mp": params.Mp,
        "disc_poly_verts": params.disc_poly_verts,
        "m": fmt(params.m),
        "eps": fmt(params.eps),
        "delta": fmt(params.delta),
        "S": list(params.S),
        "scale": fmt(params.scale),
        "tips": [_point(p) for p in params.tips],
        "kernel_area_prescale": fmt(params.kernel_area_prescale),
    }

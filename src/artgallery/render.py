"""Deterministic SVG rendering of galleries and overlays.

Write-only output for humans: fixed palette, fixed z-order (gallery, regions,
kernel, witnesses, class points, extra points), all coordinates printed with
6 decimals. Same scene always gives identical bytes.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from artgallery.gallery import PinchedGallery, SkeletalGallery
from artgallery.geom.convex import ConvexPolygon
from artgallery.geom.polygon import PolygonWithHoles, Region
from artgallery.geom.primitives import Point2
from artgallery import inscribe

_GALLERY_FILL = "#d9d9d9"
_GALLERY_EDGE = "#333333"
_REGION_FILL = "#7fb2ff"
_KERNEL_FILL = "#7fd98c"
_WITNESS_EDGE = "#d62728"
_CLASS_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_POINT_COLOR = "#000000"


class RenderError(ValueError):
    pass


def _fmt(x: float) -> str:
    v = float(x)
    if v == 0:
        v = 0.0  # avoid "-0.000000"
    return f"{v:.6f}"


class _Canvas:
    """Maps gallery coordinates into a y-down SVG viewport."""

    def __init__(self, bounds, size: int = 640, margin: float = 0.05):
        (x0, y0), (x1, y1) = bounds
        x0, y0, x1, y1 = (float(v) for v in (x0, y0, x1, y1))
        w = max(x1 - x0, 1e-9)
        h = max(y1 - y0, 1e-9)
        pad = margin * max(w, h)
        self.x0, self.y1 = x0 - pad, y1 + pad
        self.scale = size / max(w + 2 * pad, h + 2 * pad)
        self.width = (w + 2 * pad) * self.scale
        self.height = (h + 2 * pad) * self.scale

    def xy(self, p) -> Tuple[float, float]:
        return (
            (float(p[0]) - self.x0) * self.scale,
            (self.y1 - float(p[1])) * self.scale,
        )

    def fmt(self, p) -> str:
        x, y = self.xy(p)
        return f"{_fmt(x)},{_fmt(y)}"


def _shape_bounds(points):
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    return (min(xs), min(ys)), (max(xs), max(ys))


def _path_for_polygon(canvas, poly) -> str:
    rings = poly.rings() if isinstance(poly, PolygonWithHoles) else (poly.vertices,)
    parts = []
    for ring in rings:
        pts = [canvas.fmt(p) for p in ring]
        parts.append("M " + " L ".join(pts) + " Z")
    return " ".join(parts)


def _polygon_element(canvas, poly, fill, opacity="1.0", stroke=_GALLERY_EDGE) -> str:
    d = _path_for_polygon(canvas, poly)
    return (
        f'<path d="{d}" fill="{fill}" fill-rule="evenodd" fill-opacity="{opacity}" '
        f'stroke="{stroke}" stroke-width="1"/>'
    )


def _region_elements(canvas, region, fill, opacity="0.6") -> List[str]:
    if isinstance(region, ConvexPolygon):
        if region.is_empty():
            return []
        region = Region((region.to_polygon(),))
    elif isinstance(region, PolygonWithHoles):
        region = Region((region,))
    return [_polygon_element(canvas, c, fill, opacity) for c in region.components]


def _point_element(canvas, p, color, r: float = 4.0, label: Optional[str] = None) -> str:
    x, y = canvas.xy(p)
    el = f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{color}"/>'
    if label:
        el += (
            f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 6)}" font-size="11" '
            f'font-family="monospace" fill="{color}">{label}</text>'
        )
    return el


def _witness_elements(canvas, shape) -> List[str]:
    if isinstance(shape, inscribe.Disc):
        x, y = canvas.xy((shape.cx, shape.cy))
        r = shape.r * canvas.scale
        return [
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="none" '
            f'stroke="{_WITNESS_EDGE}" stroke-width="2"/>'
        ]
    if isinstance(shape, inscribe.Box2):
        x, y = canvas.xy((shape.x, float(shape.y) + float(shape.h)))
        return [
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(float(shape.w) * canvas.scale)}" '
            f'height="{_fmt(float(shape.h) * canvas.scale)}" fill="none" '
            f'stroke="{_WITNESS_EDGE}" stroke-width="2"/>'
        ]
    if isinstance(shape, inscribe.Ellipse):
        steps = 90
        pts = []
        for k in range(steps):
            t = 2 * math.pi * k / steps
            u, v = math.cos(t), math.sin(t)
            px = shape.center[0] + shape.a11 * u + shape.a12 * v
            py = shape.center[1] + shape.a12 * u + shape.a22 * v
            pts.append(canvas.fmt((px, py)))
        return [
            f'<polygon points="{" ".join(pts)}" fill="none" '
            f'stroke="{_WITNESS_EDGE}" stroke-width="2"/>'
        ]
    if isinstance(shape, inscribe.SegmentWitness):
        (x1, y1), (x2, y2) = canvas.xy(shape.a), canvas.xy(shape.b)
        return [
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{_WITNESS_EDGE}" stroke-width="3"/>'
        ]
    if isinstance(shape, Point2):
        return [_point_element(canvas, shape, _WITNESS_EDGE, r=5.0)]
    if isinstance(shape, (Region, PolygonWithHoles, ConvexPolygon)):
        return _region_elements(canvas, shape, _WITNESS_EDGE, opacity="0.35")
    raise RenderError(f"cannot render witness of type {type(shape).__name__}")


def render_svg(gallery, overlays: Sequence[Tuple[str, object]] = (), size: int = 640) -> str:
    """Overlays: ("region", shape), ("kernel", shape), ("witness", shape),
    ("points", iterable), ("classes", None) drawn in that fixed z-order."""
    pts = [p for p, _ in gallery.structural_points()]
    if not pts:
        raise RenderError("gallery has no points")
    canvas = _Canvas(_shape_bounds(pts), size=size)

    order = {"region": 0, "kernel": 1, "witness": 2, "points": 3, "classes": 4}
    for kind, _ in overlays:
        if kind not in order:
            raise RenderError(f"unknown overlay {kind!r}")

    body: List[str] = []
    if isinstance(gallery, SkeletalGallery):
        for s in gallery.segments:
            (x1, y1), (x2, y2) = canvas.xy(s.a), canvas.xy(s.b)
            body.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke="{_GALLERY_EDGE}" stroke-width="2"/>'
            )
    elif isinstance(gallery, PinchedGallery):
        for c in gallery.components:
            body.append(_polygon_element(canvas, c.to_polygon(), _GALLERY_FILL))
    else:
        body.append(_polygon_element(canvas, gallery.polygon, _GALLERY_FILL))

    for slot in range(5):
        for kind, payload in overlays:
            if order[kind] != slot:
                continue
            if kind == "region":
                body.extend(_region_elements(canvas, payload, _REGION_FILL))
            elif kind == "kernel":
                body.extend(_region_elements(canvas, payload, _KERNEL_FILL))
            elif kind == "witness":
                body.extend(_witness_elements(canvas, payload))
            elif kind == "points":
                for p in payload:
                    body.append(_point_element(canvas, p, _POINT_COLOR))
            elif kind == "classes":
                for i, (name, points) in enumerate(gallery.classes):
                    color = _CLASS_COLORS[i % len(_CLASS_COLORS)]
                    for j, p in enumerate(points):
                        label = f"{name}{j + 1}" if len(points) > 1 else name
                        body.append(_point_element(canvas, p, color, label=label))

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(canvas.width)}" '
        f'height="{_fmt(canvas.height)}" '
        f'viewBox="0 0 {_fmt(canvas.width)} {_fmt(canvas.height)}">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"

"""Deterministic SVG rendering of galleries and overlays.

Write-only output for humans: fixed palette, fixed z-order (gallery, then
the "region", "kernel", "points" and "classes" overlays), all coordinates
printed with 6 decimals. Same scene always gives identical bytes. The shape of
a "region" or "kernel" overlay is whatever `common_visibility` or
`kernel_status` returned, for every gallery kind.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from artgallery.gallery import PinchedGallery, SkeletalGallery
from artgallery.geom.convex import ConvexPolygon
from artgallery.geom.polygon import PolygonWithHoles, Region
from artgallery.geom.primitives import Point2
from artgallery.visibility import PinchedCommonVisibility

_GALLERY_FILL = "#d9d9d9"
_GALLERY_EDGE = "#333333"
_REGION_FILL = "#7fb2ff"
_KERNEL_FILL = "#7fd98c"
_CLASS_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_POINT_COLOR = "#000000"
_SHAPE_FILLS = {"region": _REGION_FILL, "kernel": _KERNEL_FILL}
_SHAPE_OPACITY = "0.6"
_POINT_RADIUS = 4.0
_SIZE = 640  # longer side of the viewport, in SVG units
_MARGIN = 0.05  # padding around the gallery, as a share of its longer side
_ORDER = ("region", "kernel", "points", "classes")


class RenderError(ValueError):
    pass


def _fmt(x: float) -> str:
    v = float(x)
    if v == 0:
        v = 0.0  # avoid "-0.000000"
    return f"{v:.6f}"


class _Canvas:
    """Maps gallery coordinates into a y-down SVG viewport."""

    def __init__(self, bounds):
        (x0, y0), (x1, y1) = bounds
        x0, y0, x1, y1 = (float(v) for v in (x0, y0, x1, y1))
        w = max(x1 - x0, 1e-9)
        h = max(y1 - y0, 1e-9)
        pad = _MARGIN * max(w, h)
        self.x0, self.y1 = x0 - pad, y1 + pad
        self.scale = _SIZE / max(w + 2 * pad, h + 2 * pad)
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


def _polygon_element(canvas, poly, fill, opacity="1.0") -> str:
    d = _path_for_polygon(canvas, poly)
    return (
        f'<path d="{d}" fill="{fill}" fill-rule="evenodd" fill-opacity="{opacity}" '
        f'stroke="{_GALLERY_EDGE}" stroke-width="1"/>'
    )


def _point_element(canvas, p, color, label: Optional[str] = None) -> str:
    x, y = canvas.xy(p)
    el = f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(_POINT_RADIUS)}" fill="{color}"/>'
    if label:
        el += (
            f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 6)}" font-size="11" '
            f'font-family="monospace" fill="{color}">{label}</text>'
        )
    return el


def _line_element(canvas, a, b, color, width: int) -> str:
    (x1, y1), (x2, y2) = canvas.xy(a), canvas.xy(b)
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{color}" stroke-width="{width}"/>'
    )


def _shape_elements(canvas, shape, fill) -> List[str]:
    """Elements of a Region, PolygonWithHoles, ConvexPolygon or Point2, or of
    a skeletal or pinched common visibility (whole components, segments and
    isolated points)."""
    if isinstance(shape, Point2):
        return [_point_element(canvas, shape, fill)]
    if isinstance(shape, (ConvexPolygon, PolygonWithHoles)):
        return [_polygon_element(canvas, shape, fill, _SHAPE_OPACITY)]
    if isinstance(shape, Region):
        return [_polygon_element(canvas, c, fill, _SHAPE_OPACITY) for c in shape.components]
    full = shape.full if isinstance(shape, PinchedCommonVisibility) else ()
    return (
        [_polygon_element(canvas, shape.gallery.components[i], fill, _SHAPE_OPACITY) for i in full]
        + [_line_element(canvas, s.a, s.b, fill, 3) for s in shape.segments]
        + [_point_element(canvas, p, fill) for p in shape.points]
    )


def render_svg(gallery, overlays: Sequence[Tuple[str, object]] = ()) -> str:
    """Overlays: ("region", shape), ("kernel", shape), ("points", iterable),
    ("classes", None), drawn in that fixed z-order."""
    pts = [p for p, _ in gallery.structural_points()]
    if not pts:
        raise RenderError("gallery has no points")
    canvas = _Canvas(_shape_bounds(pts))

    for kind, _ in overlays:
        if kind not in _ORDER:
            raise RenderError(f"unknown overlay {kind!r}")

    body: List[str] = []
    if isinstance(gallery, SkeletalGallery):
        body += [_line_element(canvas, s.a, s.b, _GALLERY_EDGE, 2) for s in gallery.segments]
    elif isinstance(gallery, PinchedGallery):
        for c in gallery.components:
            body.append(_polygon_element(canvas, c.to_polygon(), _GALLERY_FILL))
    else:
        body.append(_polygon_element(canvas, gallery.polygon, _GALLERY_FILL))

    for slot in _ORDER:
        for kind, payload in overlays:
            if kind != slot:
                continue
            if kind in _SHAPE_FILLS:
                body.extend(_shape_elements(canvas, payload, _SHAPE_FILLS[kind]))
            elif kind == "points":
                for p in payload:
                    body.append(_point_element(canvas, p, _POINT_COLOR))
            else:
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

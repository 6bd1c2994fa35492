"""Exact 2D geometry core: primitives, convex machinery, region booleans.

All coordinates are arbitrary-precision rationals and every predicate is
decided exactly; floats never enter except through the explicit
rationalization entry point in :mod:`artgallery.rational`.
"""

from artgallery.geom.primitives import (
    Point2,
    Segment2,
    orient,
    on_segment,
    segments_intersect,
    angle_less,
    direction_class,
)
from artgallery.geom.polygon import (
    SimplePolygon,
    PolygonWithHoles,
    Region,
    point_in_region,
    scale_region,
    region_bbox,
)
from artgallery.geom.convex import (
    ConvexPolygon,
    HalfPlane,
    convex_hull,
    convex_intersect,
    clip_convex,
)
from artgallery.geom.boolean import region_boolean

__all__ = [
    "Point2",
    "Segment2",
    "orient",
    "on_segment",
    "segments_intersect",
    "angle_less",
    "direction_class",
    "SimplePolygon",
    "PolygonWithHoles",
    "Region",
    "point_in_region",
    "scale_region",
    "region_bbox",
    "ConvexPolygon",
    "HalfPlane",
    "convex_hull",
    "convex_intersect",
    "clip_convex",
    "region_boolean",
]

"""Output checks the benchmark makes with its own code.

Witnesses are re-verified in floating point against the polygon's edge
half-planes, never with the function that produced them. Digests cover only
deterministic output: a report's `deterministic` section, or a whole gallery
document.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

MARGIN = 1e-9
_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def deterministic_part(doc: dict):
    """What a document promises to reproduce byte for byte."""
    return doc["deterministic"] if doc.get("kind") == "report" else doc


def coordinate_parts(doc: dict):
    """The parts of a document that hold output coordinates: a report's
    violating tuples and witnesses, or a gallery's geometry and classes."""
    if doc.get("kind") == "report":
        det = doc["deterministic"]
        return [det["violating_tuples"], det["witnesses"]]
    return [doc.get(key) for key in ("outer", "holes", "segments", "components", "classes")]


def max_coord_bits(obj) -> int:
    """Largest numerator or denominator bit length over the exact rational
    strings ("p" or "p/q") inside obj."""
    if isinstance(obj, str):
        if not _RATIONAL.fullmatch(obj):
            return 0
        q = Fraction(obj)
        return max(abs(q.numerator).bit_length(), q.denominator.bit_length())
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return max((max_coord_bits(v) for v in obj), default=0)
    return 0


# ---------------------------------------------------------------------------
# Float geometry


def float_point(p):
    return (float(p[0]), float(p[1]))


def float_ring(vertices):
    return [float_point(p) for p in vertices]


def _edges(ring):
    n = len(ring)
    for i in range(n):
        yield ring[i], ring[(i + 1) % n]


def signed_area(ring) -> float:
    return 0.5 * sum(a[0] * b[1] - b[0] * a[1] for a, b in _edges(ring))


def edge_distances(ring, p):
    """Signed distance of p to each edge line, positive on the inner side of
    a counterclockwise ring."""
    out = []
    for a, b in _edges(ring):
        ex, ey = b[0] - a[0], b[1] - a[1]
        out.append((ex * (p[1] - a[1]) - ey * (p[0] - a[0])) / math.hypot(ex, ey))
    return out


def on_boundary(ring, p) -> bool:
    for a, b in _edges(ring):
        ex, ey = b[0] - a[0], b[1] - a[1]
        length = math.hypot(ex, ey)
        t = ((p[0] - a[0]) * ex + (p[1] - a[1]) * ey) / (length * length)
        off = abs(ex * (p[1] - a[1]) - ey * (p[0] - a[0])) / length
        if -MARGIN <= t <= 1 + MARGIN and off <= MARGIN:
            return True
    return False


def in_ring(ring, p) -> bool:
    """Closed membership by crossing number, boundary within MARGIN."""
    if on_boundary(ring, p):
        return True
    inside = False
    for a, b in _edges(ring):
        if (a[1] > p[1]) != (b[1] > p[1]):
            x = a[0] + (p[1] - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            if x > p[0]:
                inside = not inside
    return inside


def in_polygon(outer, holes, p) -> bool:
    if not in_ring(outer, p):
        return False
    return all(on_boundary(h, p) or not in_ring(h, p) for h in holes)


def in_kernel(ring, points) -> bool:
    """Every point lies in every inner edge half-plane (the kernel of a
    simple polygon), within MARGIN."""
    return all(d >= -MARGIN for p in points for d in edge_distances(ring, p))


# ---------------------------------------------------------------------------
# Witnesses


def witness_errors(ring, family: str, threshold, witness: dict, direction=(1, 0)):
    """Errors found re-verifying a witness document against the kernel of the
    counterclockwise float ring."""
    kind = witness["type"]
    t = float(Fraction(threshold))
    slack = t * 1e-9 + MARGIN
    errors = []
    if kind == "disc":
        c, r = (witness["cx"], witness["cy"]), witness["r"]
        if min(edge_distances(ring, c)) < r - MARGIN:
            errors.append("disc leaves the kernel")
        if r < t - slack:
            errors.append("disc radius below threshold")
    elif kind == "box":
        x, y, w, h = (float(Fraction(witness[k])) for k in ("x", "y", "w", "h"))
        if not in_kernel(ring, [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]):
            errors.append("box leaves the kernel")
        size = w * h if family == "box-volume" else w + h
        if w <= 0 or h <= 0 or size < t - slack:
            errors.append("box below threshold")
    elif kind == "ellipse":
        cx, cy = witness["center"]
        a11, a12, a22 = witness["a11"], witness["a12"], witness["a22"]
        for a, b in _edges(ring):
            # outward unit normal n; the ellipse's support is n.c + |A n|
            ex, ey = b[0] - a[0], b[1] - a[1]
            length = math.hypot(ex, ey)
            nx, ny = ey / length, -ex / length
            reach = nx * cx + ny * cy + math.hypot(a11 * nx + a12 * ny, a12 * nx + a22 * ny)
            if reach > nx * a[0] + ny * a[1] + MARGIN:
                errors.append("ellipse leaves the kernel")
                break
        if a11 * a22 - a12 * a12 <= 0 or math.pi * (a11 * a22 - a12 * a12) < t - slack:
            errors.append("ellipse below threshold")
    elif kind == "segment":
        a = tuple(float(Fraction(v)) for v in witness["a"])
        b = tuple(float(Fraction(v)) for v in witness["b"])
        if not in_kernel(ring, [a, b]):
            errors.append("segment leaves the kernel")
        width = abs((b[0] - a[0]) * direction[0] + (b[1] - a[1]) * direction[1])
        if abs(width - float(Fraction(witness["value"]))) > slack or width < t - slack:
            errors.append("segment width wrong or below threshold")
    else:
        errors.append(f"unexpected witness type {kind!r}")
    return errors

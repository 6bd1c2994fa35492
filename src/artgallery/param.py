"""Dimension-generic convex-body parametrizations and containment checks.

This module is a lemma checker. It states the parametrization lemmas behind
the quantitative theorems in any dimension d >= 1 and checks them
numerically; the theorem checkers and the CLI do not call it, and its callers
are the tests in tests/test_param.py.

Families map a convex parameter set C into convex bodies D(c) so that
D(lam*a + (1-lam)*b) is contained in lam*D(a) + (1-lam)*D(b) (Minkowski
combination). Containment is certified by support-function sampling, not
exact body arithmetic: ellipsoid Minkowski sums are not ellipsoids, so there
is no common exact representation to intersect.

Everything here is numpy linear algebra over binary64; there is no
visibility computation in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from artgallery.rational import rat
from artgallery.inscribe import PolytopeNormBall

FAMILIES = ("BoxVol", "BoxSum", "Ball", "EllAxis", "EllVol")

# Axis-length sum of a + A*B_d is 2*tr(A) (each semiaxis is an eigenvalue,
# each axis twice that). Normalizing the trace to 1/2 fixes the sum at 1.
DEFAULT_TRACE = 0.5


class DomainViolation(ValueError):
    """Parameter coordinates outside the family's domain C."""


def _check_spd(A: np.ndarray, name: str = "matrix") -> np.ndarray:
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainViolation(f"{name} must be square")
    if not np.allclose(A, A.T, atol=1e-10 * max(1.0, np.abs(A).max())):
        raise DomainViolation(f"{name} must be symmetric")
    A = 0.5 * (A + A.T)
    w = np.linalg.eigvalsh(A)
    if w[0] <= 0:
        raise DomainViolation(f"{name} must be positive definite (min eig {w[0]:g})")
    return A


# ---------------------------------------------------------------------------
# Body types


@dataclass(frozen=True)
class BoxD:
    d: int
    corner: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "corner", np.array(self.corner, dtype=float))
        object.__setattr__(self, "lengths", np.array(self.lengths, dtype=float))
        if self.corner.shape != (self.d,) or self.lengths.shape != (self.d,):
            raise DomainViolation("box corner/lengths must have length d")
        if np.any(self.lengths <= 0):
            raise DomainViolation("box lengths must be positive")

    def volume(self) -> float:
        return float(np.prod(self.lengths))


@dataclass(frozen=True)
class BallD:
    d: int
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.array(self.center, dtype=float))
        if self.center.shape != (self.d,):
            raise DomainViolation("ball center must have length d")
        if self.radius <= 0:
            raise DomainViolation("ball radius must be positive")


@dataclass(frozen=True)
class EllipsoidD:
    """The set a + A*B_d with A symmetric positive definite."""

    d: int
    a: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.array(self.a, dtype=float))
        if self.a.shape != (self.d,):
            raise DomainViolation("ellipsoid center must have length d")
        object.__setattr__(self, "A", _check_spd(self.A, "ellipsoid shape"))

    def volume_det(self) -> float:
        return float(np.linalg.det(self.A))


Body = Union[BoxD, BallD, EllipsoidD]


# ---------------------------------------------------------------------------
# Parameter points and family constructors


def _pack_sym(A: np.ndarray) -> np.ndarray:
    d = A.shape[0]
    return np.concatenate([A[i, i:] for i in range(d)])


def _unpack_sym(v: np.ndarray, d: int) -> np.ndarray:
    A = np.zeros((d, d))
    k = 0
    for i in range(d):
        m = d - i
        A[i, i:] = v[k : k + m]
        A[i:, i] = v[k : k + m]
        k += m
    return A


def param_length(family: str, d: int) -> int:
    if family == "BoxVol":
        return 2 * d - 1
    if family == "BoxSum":
        return 2 * d
    if family == "Ball":
        return d
    if family in ("EllAxis", "EllVol"):
        return d + d * (d + 1) // 2
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class ParamPoint:
    family: str
    d: int
    coords: np.ndarray

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        coords = np.array(self.coords, dtype=float)
        object.__setattr__(self, "coords", coords)
        if coords.shape != (param_length(self.family, self.d),):
            raise DomainViolation("coordinate vector has wrong length")
        param_body(self)  # domain constraints checked by the constructor


def box_vol_param(d: int, p) -> BoxD:
    """Axis box of unit volume: corner = first d coords, lengths
    (l_1, ..., l_{d-1}, 1/(l_1*...*l_{d-1}))."""
    p = np.array(p, dtype=float)
    if p.shape != (2 * d - 1,):
        raise DomainViolation("expected 2d-1 coordinates")
    corner, heads = p[:d], p[d:]
    if np.any(heads <= 0):
        raise DomainViolation("box lengths must be positive")
    lengths = np.concatenate([heads, [1.0 / float(np.prod(heads))]])
    return BoxD(d, corner, lengths)


def box_sum_param(d: int, q) -> BoxD:
    """Axis box with unit axis-length sum: corner + d lengths summing to 1."""
    q = np.array(q, dtype=float)
    if q.shape != (2 * d,):
        raise DomainViolation("expected 2d coordinates")
    corner, lengths = q[:d], q[d:]
    if np.any(lengths <= 0):
        raise DomainViolation("box lengths must be positive")
    if abs(float(lengths.sum()) - 1.0) > 1e-12:
        raise DomainViolation("axis lengths must sum to 1")
    return BoxD(d, corner, lengths)


def ball_param(d: int, y) -> BallD:
    """Unit ball centered at y."""
    return BallD(d, np.array(y, dtype=float), 1.0)


def ellipsoid_axis_param(d: int, a, A, trace_normalization: float = DEFAULT_TRACE) -> EllipsoidD:
    """Ellipsoid a + A*B_d with tr(A) pinned to the normalization constant.

    The axis-length sum is 2*tr(A); with the default trace 1/2 every body in
    the family has axis-length sum exactly 1.
    """
    A = _check_spd(A, "ellipsoid shape")
    if abs(float(np.trace(A)) - trace_normalization) > 1e-10:
        raise DomainViolation(
            f"trace {float(np.trace(A)):g} != normalization {trace_normalization:g}"
        )
    return EllipsoidD(d, np.array(a, dtype=float), A)


def ellipsoid_project_pi(a, A) -> EllipsoidD:
    """Project the shape onto the det = 1 slice: A -> A / det(A)^(1/d)."""
    A = _check_spd(A, "ellipsoid shape")
    d = A.shape[0]
    det = float(np.linalg.det(A))
    return EllipsoidD(d, np.array(a, dtype=float), A / det ** (1.0 / d))


@dataclass(frozen=True)
class PolarDecomposition:
    A: np.ndarray
    Q: np.ndarray
    X: np.ndarray


def polar_decompose(X) -> PolarDecomposition:
    """X = A*Q with A = (X X^T)^(1/2) SPD and Q orthogonal."""
    X = np.array(X, dtype=float)
    d = X.shape[0]
    if X.shape != (d, d):
        raise ValueError("matrix must be square")
    if abs(np.linalg.det(X)) <= 1e-12:
        raise ValueError("matrix is singular or near-singular")
    # X = U S V^T gives Q = U V^T and A = U S U^T.
    U, s, Vt = np.linalg.svd(X)
    return PolarDecomposition((U * s) @ U.T, U @ Vt, X)


def param_body(point: ParamPoint) -> Body:
    """The body D(c) for a parameter point."""
    d, c = point.d, point.coords
    if point.family == "BoxVol":
        return box_vol_param(d, c)
    if point.family == "BoxSum":
        return box_sum_param(d, c)
    if point.family == "Ball":
        return ball_param(d, c)
    A = _unpack_sym(c[d:], d)
    if point.family == "EllAxis":
        return ellipsoid_axis_param(d, c[:d], A)
    # EllVol: parameters carry det(A) >= 1; the body is the projected shape.
    # This family is NOT a containment parametrization (the projection breaks
    # the Minkowski-combination inclusion unless both dets are exactly 1); it
    # exists for the det = 1 slice and the log-concavity facts.
    A = _check_spd(A, "ellipsoid shape")
    if float(np.linalg.det(A)) < 1.0 - 1e-9:
        raise DomainViolation("EllVol shape must have det >= 1")
    return ellipsoid_project_pi(c[:d], A)


def make_param_point(family: str, d: int, *parts) -> ParamPoint:
    """Assemble a ParamPoint from natural pieces (vectors / matrices)."""
    flat = []
    for part in parts:
        arr = np.array(part, dtype=float)
        flat.append(_pack_sym(arr) if arr.ndim == 2 else arr.ravel())
    return ParamPoint(family, d, np.concatenate(flat))


# ---------------------------------------------------------------------------
# Support functions and containment margins


def _support_any(body: Body, u: np.ndarray) -> float:
    """Support value for an arbitrary (not necessarily unit) direction."""
    if isinstance(body, BoxD):
        return float(body.corner @ u + np.maximum(0.0, body.lengths * u).sum())
    if isinstance(body, BallD):
        return float(body.center @ u + body.radius * np.linalg.norm(u))
    return float(body.a @ u + np.linalg.norm(body.A @ u))


def support(body: Body, u) -> float:
    """Support function h(u) for a unit direction u."""
    u = np.array(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    return _support_any(body, u)


def sample_directions(d: int, n: Optional[int] = None, seed: int = 0) -> np.ndarray:
    """Direction set for containment margins: evenly spaced on the circle in
    d = 2, seeded random unit vectors in d >= 3."""
    if d == 2:
        n = 720 if n is None else n
        t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        return np.stack([np.cos(t), np.sin(t)], axis=1)
    n = 2000 if n is None else n
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, d))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return dirs / norms


def check_param_containment(
    family: str,
    a: ParamPoint,
    b: ParamPoint,
    lam: float,
    directions: Optional[int] = None,
    seed: int = 0,
) -> float:
    """Minimum over sampled directions of
    lam*h_{D(a)}(u) + (1-lam)*h_{D(b)}(u) - h_{D(lam a + (1-lam) b)}(u).

    Nonnegative (>= -1e-9 after rounding) certifies the parametrization
    containment along those directions. BoxVol, BoxSum, Ball and EllAxis
    satisfy this for all inputs; EllVol does not (the unit-volume family is
    not a containment parametrization), so negative margins there are
    expected, not a bug.
    """
    if a.family != family or b.family != family:
        raise ValueError("parameter points must belong to the stated family")
    if a.d != b.d:
        raise ValueError("dimension mismatch")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    mid = ParamPoint(family, a.d, lam * a.coords + (1.0 - lam) * b.coords)
    Da, Db, Dm = param_body(a), param_body(b), param_body(mid)
    worst = math.inf
    for u in sample_directions(a.d, directions, seed):
        margin = lam * _support_any(Da, u) + (1.0 - lam) * _support_any(Db, u) - _support_any(Dm, u)
        if margin < worst:
            worst = margin
    return worst


def minkowski_norm(ball, x):
    """Minkowski functional of x with respect to an origin-symmetric ball.

    Exact (rational) for polytopal balls; closed form ||A^{-1} x|| for
    ellipsoidal balls centered at the origin.
    """
    if isinstance(ball, PolytopeNormBall):
        poly = ball.polygon
        negated = type(poly)([(-p[0], -p[1]) for p in poly.vertices])
        if negated.vertices != poly.vertices:
            raise ValueError("norm ball must be symmetric about the origin")
        return ball.norm(x)
    if isinstance(ball, EllipsoidD):
        if np.linalg.norm(ball.a) > 1e-12:
            raise ValueError("ellipsoidal norm ball must be centered at the origin")
        return float(np.linalg.norm(np.linalg.solve(ball.A, np.array(x, dtype=float))))
    raise TypeError("expected PolytopeNormBall or EllipsoidD")


def v_width(obj, v):
    """Directional width max_{x,y} <x - y, v>.

    Point sets give exact rational widths; bodies use closed-form supports.
    """
    varr_needed = isinstance(obj, (BoxD, BallD, EllipsoidD))
    if varr_needed:
        u = np.array(v, dtype=float)
        if not np.any(u):
            raise ValueError("direction must be nonzero")
        return _support_any(obj, u) + _support_any(obj, -u)
    pts = list(obj)
    if not pts:
        raise ValueError("empty point set")
    vv = [rat(c) for c in v]
    dots = [sum(rat(p[i]) * vv[i] for i in range(len(vv))) for p in pts]
    return max(dots) - min(dots)


# ---------------------------------------------------------------------------
# Seeded random parameter points (for reproducible trials)


def random_param_point(family: str, d: int, rng: np.random.Generator) -> ParamPoint:
    if family == "BoxVol":
        corner = rng.uniform(-1.0, 1.0, d)
        heads = np.exp(rng.uniform(-1.0, 1.0, d - 1))
        return make_param_point(family, d, corner, heads)
    if family == "BoxSum":
        corner = rng.uniform(-1.0, 1.0, d)
        w = rng.uniform(0.05, 1.0, d)
        return make_param_point(family, d, corner, w / w.sum())
    if family == "Ball":
        return make_param_point(family, d, rng.uniform(-2.0, 2.0, d))
    G = rng.standard_normal((d, d))
    S = G @ G.T + 0.1 * np.eye(d)
    center = rng.uniform(-1.0, 1.0, d)
    if family == "EllAxis":
        A = S * (DEFAULT_TRACE / float(np.trace(S)))
        return make_param_point(family, d, center, A)
    if family == "EllVol":
        A = S / float(np.linalg.det(S)) ** (1.0 / d)
        A = A * rng.uniform(1.0, 1.5)  # det >= 1 inside the domain
        return make_param_point(family, d, center, A)
    raise ValueError(f"unknown family {family!r}")

"""Convex-body parametrizations in R^d: containment margins, projections,
polar decomposition, exact width and gauge helpers."""

import math

import numpy as np
import pytest

from artgallery.geom.convex import ConvexPolygon
from artgallery.geom.primitives import pt
from artgallery.inscribe import PolytopeNormBall
from artgallery.param import (
    FAMILIES,
    DomainViolation,
    check_param_containment,
    ellipsoid_project_pi,
    make_param_point,
    minkowski_norm,
    param_body,
    param_length,
    polar_decompose,
    random_param_point,
    sample_directions,
    support,
    v_width,
)
from artgallery.rational import rat

CONTAINMENT_FAMILIES = ("BoxVol", "BoxSum", "Ball", "EllAxis")


def test_param_lengths():
    assert param_length("BoxVol", 3) == 5
    assert param_length("BoxSum", 3) == 6
    assert param_length("Ball", 3) == 3
    assert param_length("EllAxis", 2) == 5
    assert param_length("EllVol", 4) == 14


def test_random_points_are_in_domain():
    rng = np.random.default_rng(2)
    for family in FAMILIES:
        for d in (2, 3, 4):
            p = random_param_point(family, d, rng)
            assert p.family == family and p.d == d
            param_body(p)  # must not raise


def test_containment_margin_nonnegative():
    """D(lam a + (1-lam) b) sits inside the Minkowski combination for the
    four containment families; support margins certify it per direction."""
    rng = np.random.default_rng(5)
    for family in CONTAINMENT_FAMILIES:
        for d in (2, 3):
            for _ in range(5):
                a = random_param_point(family, d, rng)
                b = random_param_point(family, d, rng)
                lam = float(rng.uniform())
                m = check_param_containment(family, a, b, lam, directions=128)
                assert m >= -1e-9, (family, d, m)


def test_ellvol_is_not_a_containment_parametrization():
    # Negative control: unit shape vs a large anisotropic det>1 shape.
    a = make_param_point("EllVol", 2, np.zeros(2), np.eye(2))
    b = make_param_point("EllVol", 2, np.zeros(2), 10.0 * np.diag([2.0, 0.5]))
    m = check_param_containment("EllVol", a, b, 0.5)
    assert m < -1e-4


def test_ellvol_domain_requires_det_at_least_one():
    with pytest.raises(DomainViolation):
        param_body(make_param_point("EllVol", 2, np.zeros(2), 0.5 * np.eye(2)))


def test_make_param_point_shape_check():
    with pytest.raises(DomainViolation):
        param_body(make_param_point("Ball", 2, np.zeros(3)))


def test_check_param_containment_input_validation():
    rng = np.random.default_rng(8)
    a = random_param_point("Ball", 2, rng)
    b = random_param_point("Ball", 3, rng)
    with pytest.raises(ValueError):
        check_param_containment("Ball", a, b, 0.5)
    with pytest.raises(ValueError):
        check_param_containment("Ball", a, a, 1.5)


def test_ellipsoid_project_pi_normalizes_det():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        for _ in range(20):
            G = rng.standard_normal((d, d))
            S = G @ G.T + 0.05 * np.eye(d)
            ell = ellipsoid_project_pi(rng.uniform(-1, 1, d), S)
            assert abs(ell.volume_det() - 1.0) < 1e-12


def test_volume_det_log_concavity():
    """det(lam A + (1-lam) B)^(1/d) >= lam det(A)^(1/d) + (1-lam) det(B)^(1/d)
    for SPD matrices (Minkowski determinant inequality)."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        G1, G2 = rng.standard_normal((d, d)), rng.standard_normal((d, d))
        A = G1 @ G1.T + 0.05 * np.eye(d)
        B = G2 @ G2.T + 0.05 * np.eye(d)
        lam = float(rng.uniform())
        wa, _ = np.linalg.eigh(A)
        wb, _ = np.linalg.eigh(B)
        wm, _ = np.linalg.eigh(lam * A + (1 - lam) * B)
        lhs = float(np.prod(wm)) ** (1.0 / d)
        rhs = lam * float(np.prod(wa)) ** (1.0 / d) + (1 - lam) * float(np.prod(wb)) ** (1.0 / d)
        assert lhs >= rhs - 1e-9


def test_polar_decompose():
    rng = np.random.default_rng(13)
    for d in (2, 3, 4):
        for _ in range(10):
            X = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
            pd = polar_decompose(X)
            assert np.allclose(pd.A @ pd.Q, X, atol=1e-10)
            assert np.allclose(pd.Q @ pd.Q.T, np.eye(d), atol=1e-10)
            w, _ = np.linalg.eigh(pd.A)
            assert np.all(w > -1e-12)  # A is positive semidefinite


def test_sample_directions_unit_and_deterministic():
    u1 = sample_directions(3, 50, seed=4)
    u2 = sample_directions(3, 50, seed=4)
    assert np.array_equal(u1, u2)
    assert np.allclose(np.linalg.norm(u1, axis=1), 1.0, atol=1e-12)
    # d=2 directions cover both half circles.
    u = sample_directions(2, 64)
    assert (u[:, 1] > 0).any() and (u[:, 1] < 0).any()


def test_support_box_and_ball():
    rng = np.random.default_rng(17)
    box = param_body(random_param_point("BoxVol", 3, rng))
    u = np.array([1.0, 0.0, 0.0])
    h = support(box, u)
    assert h == pytest.approx(float(box.corner[0] + box.lengths[0]))
    ball = param_body(random_param_point("Ball", 3, rng))
    hb = support(ball, u)
    assert hb == pytest.approx(float(ball.center[0] + ball.radius))


def test_v_width_exact_on_point_set():
    sq = [pt((0, 0)), pt((1, 0)), pt((1, 1)), pt((0, 1))]
    assert v_width(sq, pt((1, 0))) == 1
    assert v_width(sq, pt((1, 1))) == 2
    assert v_width(sq, pt((0, 3))) == 3


def test_minkowski_norm_l1_gauge():
    ball = PolytopeNormBall(ConvexPolygon(tuple(pt(p) for p in [(1, 0), (0, 1), (-1, 0), (0, -1)])))
    assert minkowski_norm(ball, pt((1, 1))) == 2
    assert minkowski_norm(ball, pt((rat(-1, 2), rat(1, 2)))) == 1
    assert minkowski_norm(ball, pt((0, 0))) == 0

"""Gallery generators: figure regressions, random families, spiked construction."""

import math

import pytest

from artgallery.gallery import Gallery
from artgallery.galleries import (
    cone_halfplanes,
    disc_polygon,
    estimate_m,
    f_volume,
    gen_claim22,
    gen_empty_kernel,
    gen_fig1,
    gen_simple,
    gen_spider,
    gen_spiked,
    gen_star,
)
from artgallery.geom.polygon import PolygonWithHoles, ring_is_simple
from artgallery.geom.primitives import pt
from artgallery.kernel import kernel_simple
from artgallery.rational import rat
from artgallery.visibility import skeletal_sees


def test_fig1_structure():
    g = gen_fig1()
    g.validate()
    assert len(g.components) == 3
    sizes = {name: len(points) for name, points in g.classes}
    assert sizes == {"red": 2, "blue": 2, "black": 4}


def test_fig1_deterministic():
    a, b = gen_fig1(), gen_fig1()
    assert a.components == b.components
    assert a.classes == b.classes


def test_spider_structure():
    g = gen_spider()
    g.validate()
    sizes = {name: len(points) for name, points in g.classes}
    assert sizes == {"red": 2, "green": 2, "blue": 2, "viewers": 8}
    assert len(g.segments) == 24


def test_spider_viewers_cover_all_triples():
    g = gen_spider()
    cls = dict(g.classes)
    covered = set()
    for p in cls["viewers"]:
        seen = tuple(
            tuple(j for j, t in enumerate(cls[name]) if skeletal_sees(g, p, t))
            for name in ("red", "green", "blue")
        )
        # Exactly one point of each class per viewer.
        assert all(len(js) == 1 for js in seen), (p, seen)
        covered.add(tuple(js[0] for js in seen))
    assert covered == {(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)}


def test_claim22_structure_and_sizes():
    g = gen_claim22(2, (3, 3), seed=0)
    g.validate()
    sizes = {name: len(points) for name, points in g.classes}
    assert sizes == {"F1": 3, "F2": 3, "guards": 9}
    with pytest.raises(ValueError):
        gen_claim22(2, (2, 3), seed=0)


def test_claim22_deterministic():
    a = gen_claim22(2, (3, 3), seed=4)
    b = gen_claim22(2, (3, 3), seed=4)
    assert a.segments == b.segments
    assert gen_claim22(2, (3, 3), seed=5).segments != a.segments


def test_gen_star_is_star_shaped():
    for seed in range(6):
        poly = gen_star(seed=seed, n_vertices=11)
        assert len(poly.vertices) == 11
        assert ring_is_simple(poly.vertices)
        g = Gallery(polygon=PolygonWithHoles(poly.vertices, []), classes=(), name="s")
        k = kernel_simple(g)
        assert k.contains(pt((0, 0)))


def test_gen_star_deterministic():
    assert gen_star(seed=3, n_vertices=9).vertices == gen_star(seed=3, n_vertices=9).vertices
    assert gen_star(seed=3, n_vertices=9).vertices != gen_star(seed=4, n_vertices=9).vertices


def test_gen_simple_is_simple():
    for seed in range(6):
        poly = gen_simple(seed=seed, n_vertices=10)
        assert len(poly.vertices) == 10
        assert ring_is_simple(poly.vertices)


def test_gen_empty_kernel():
    for seed in range(3):
        poly = gen_empty_kernel(seed=seed)
        g = Gallery(polygon=PolygonWithHoles(poly.vertices, []), classes=(), name="ek")
        assert kernel_simple(g).is_empty()


def test_disc_polygon_modes():
    d = disc_polygon(verts=64, area=1)
    assert d.area() == 1
    assert len(d.vertices) == 64
    d2 = disc_polygon(verts=96, radius=2)
    # Inscribed 96-gon area slightly below pi*r^2.
    assert float(d2.area()) < math.pi * 4
    assert float(d2.area()) > math.pi * 4 * 0.997


def test_cone_halfplanes_contain_disc_with_apex_on_boundary():
    d = disc_polygon(verts=64, area=1)
    apex = pt((5, 0))
    h1, h2 = cone_halfplanes(apex, d)
    for h in (h1, h2):
        assert h.c - (h.a * apex[0] + h.b * apex[1]) == 0
        assert all(h.contains(v) for v in d.vertices)


def test_f_volume_exact_and_monotone():
    two = [0.0, math.pi]
    four = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    v2 = f_volume(two, disc_poly_verts=64)
    v4 = f_volume(four, disc_poly_verts=64)
    # The clipped core always contains the area-1 disc, and adding cone
    # directions can only cut it down further (exact rationals).
    assert v4 > 1
    assert v4 < v2


def test_estimate_m_returns_descent_result():
    me = estimate_m(4, budget=2, disc_poly_verts=64)
    assert me.value > 1
    assert len(me.angles) == 4
    assert me.evaluations > 0
    assert me.certified_global is False


def test_gen_spiked_parameter_relations():
    g, p = gen_spiked(n=4, disc_poly_verts=96, seed=0, budget=4)
    g.validate()
    # eps = 1/2 - 1/(2m) and delta = eps / (2 (1 - 2 eps)), both exact.
    assert p.eps == rat(1, 2) - 1 / (2 * p.m)
    assert p.delta == p.eps / (2 * (1 - 2 * p.eps))
    assert len(p.S) == len(p.tips)
    outer = set(g.polygon.outer.vertices)
    assert all(t in outer for t in p.tips)
    # scale is the rationalized 1/sqrt(m).
    assert abs(float(p.scale) ** 2 * float(p.m) - 1.0) < 1e-9


def test_gen_spiked_kernel_area_scales_exactly():
    g, p = gen_spiked(n=4, disc_poly_verts=96, seed=0, budget=4)
    k = kernel_simple(g)
    # Areas transform by scale^2 under the final similarity; the generator
    # recorded the prescale kernel area, so the identity must be exact.
    assert k.area() == p.scale ** 2 * p.kernel_area_prescale

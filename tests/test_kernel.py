"""Kernel computation: half-plane route, brute grid route, point membership."""

import random

from kernel_oracle import kernel_brute, kernel_conv_characterization, point_in_kernel

from artgallery.galleries import gen_empty_kernel, gen_star
from artgallery.gallery import Gallery
from artgallery.geom.polygon import PolygonWithHoles
from artgallery.geom.primitives import pt
from artgallery.kernel import kernel_halfplanes, kernel_simple
from artgallery.rational import rat
from artgallery.visibility import sees


def l_gallery():
    return Gallery(
        polygon=PolygonWithHoles([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], []),
        classes=(),
        name="L",
    )


def test_l_kernel_is_unit_square():
    k = kernel_simple(l_gallery())
    assert k.area() == 1
    assert k.vertices == (pt((0, 0)), pt((1, 0)), pt((1, 1)), pt((0, 1)))


def test_kernel_halfplanes_one_per_edge():
    g = l_gallery()
    assert len(kernel_halfplanes(g)) == 6


def test_point_in_kernel_both_methods_agree():
    g = l_gallery()
    for coords in [(rat(1, 2), rat(1, 2)), (rat(3, 2), rat(1, 2)), (1, 1), (0, 0), (rat(1, 2), rat(7, 4))]:
        p = pt(coords)
        a = point_in_kernel(g, p, method="halfplanes")
        b = point_in_kernel(g, p, method="triangles")
        assert a == b, coords


def test_kernel_point_sees_every_gallery_point():
    g = l_gallery()
    center = pt((rat(1, 2), rat(1, 2)))
    assert point_in_kernel(g, center)
    for i in range(9):
        for j in range(9):
            q = pt((rat(i, 4), rat(j, 4)))
            from artgallery.geom.polygon import locate_in_polygon

            if locate_in_polygon(q, g.polygon) == "out":
                continue
            assert sees(g, center, q)


def test_kernel_brute_matches_simple_on_grid():
    g = l_gallery()
    k = kernel_simple(g)
    pts = kernel_brute(g, resolution=8)
    assert pts
    assert all(k.contains(p) for p in pts)


def test_conv_characterization_from_vertices():
    g = l_gallery()
    kc = kernel_conv_characterization(g, list(g.polygon.outer.vertices))
    assert kc.area() == 1


def test_convex_polygon_kernel_is_itself():
    g = Gallery(polygon=PolygonWithHoles([(0, 0), (3, 0), (3, 2), (0, 2)], []), classes=(), name="box")
    k = kernel_simple(g)
    assert k.area() == 6


def test_star_kernels_nonempty_and_central():
    for seed in range(8):
        poly = gen_star(seed=seed, n_vertices=12)
        g = Gallery(polygon=PolygonWithHoles(poly.vertices, []), classes=(), name="star")
        k = kernel_simple(g)
        assert not k.is_empty()
        # gen_star builds around the origin; the origin must be in the kernel.
        assert k.contains(pt((0, 0)))


def test_empty_kernel_polygons_have_empty_kernel():
    for seed in range(4):
        poly = gen_empty_kernel(seed=seed)
        g = Gallery(polygon=PolygonWithHoles(poly.vertices, []), classes=(), name="ek")
        assert kernel_simple(g).is_empty()
        assert kernel_brute(g, resolution=10) == []


def test_kernel_vertices_lie_in_polygon_random():
    rng = random.Random(31)
    for _ in range(10):
        seed = rng.randrange(1000)
        poly = gen_star(seed=seed, n_vertices=9)
        g = Gallery(polygon=PolygonWithHoles(poly.vertices, []), classes=(), name="s")
        k = kernel_simple(g)
        from artgallery.geom.polygon import locate_in_polygon

        for v in k.vertices:
            assert locate_in_polygon(v, g.polygon) != "out"

"""Report pins: sha256 of the serialized report for the tuple-scan outcomes.

Each case stops its tuple scan a different way: the classic check at its cap
with violations found, the quantitative check after three violations, the
colorful check at its cap, and a quantitative check that tallies every tuple
as undetermined. The digests were recorded before the three scan loops were
folded into one, so they pin the verdicts, coverage and qualifiers. The
last case's k=2 is below the ellipse theorem's tuple size 5, so its report
also records the unmet precondition "tuple-size>=5".

The second group pins the paths that end without a full scan or that mix
qualifiers, recorded before the classic and quantitative checks came to
share one tuple scan and one report builder: the kernel-superset path of
both checks, the Helly edge triple at k = 3 and at k = 4 (padded with one
candidate), a quantitative check whose qualifiers list the scan's before
the kernel's "disc-lp-float", a pinched gallery whose kernel is a single
point, and the two-class colorful control on fig1.
"""

import hashlib

import pytest

from artgallery import docio
from artgallery.checkers import (
    CandidateSet,
    CheckConfig,
    check_classic,
    check_colorful_general,
    check_quantitative,
)
from artgallery.checkers import check_colorful_plane
from artgallery.galleries import gen_spider
from artgallery.galleries import gen_empty_kernel, gen_fig1, gen_star
from artgallery.gallery import Gallery
from artgallery.gallery import PinchedGallery
from artgallery.geom.polygon import PolygonWithHoles
from artgallery.rational import rat


def donut_gallery():
    return Gallery(
        polygon=PolygonWithHoles(
            [(0, 0), (6, 0), (6, 6), (0, 6)], [[(2, 2), (2, 4), (4, 4), (4, 2)]]
        ),
        classes=(),
        name="donut",
    )


def l_gallery():
    return Gallery(
        polygon=PolygonWithHoles([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], []),
        classes=(),
        name="L",
    )


def classic_truncated():
    return check_classic(donut_gallery(), None, CheckConfig(cap=40))


def quantitative_violated():
    cfg = CheckConfig(family="region-area", threshold=rat(2))
    return check_quantitative(l_gallery(), None, cfg)


def colorful_truncated():
    g = gen_spider()
    cfg = CheckConfig(theorem="colorful-general", cap=3)
    return check_colorful_general(g, [points for _, points in g.classes], cfg)


def quantitative_undetermined():
    g = donut_gallery()
    cand = CandidateSet.from_points(g, [(1, 1), (3, 1), (5, 1), (1, 5), (5, 5)])
    cfg = CheckConfig(family="ellipse", threshold=rat("1/100"), k=2)
    return check_quantitative(g, cand, cfg)


def star_gallery():
    return Gallery(gen_star(0, 12), name="star-0")


def bowtie_gallery():
    """Two triangles touching at (1, 1): the kernel is that one point."""
    triangles = (((0, 0), (2, 0), (1, 1)), ((1, 1), (2, 2), (0, 2)))
    return PinchedGallery(triangles, name="bowtie").validate()


def classic_kernel_superset():
    return check_classic(Gallery(gen_star(0, 12)), None, CheckConfig())


def classic_helly_triple():
    return check_classic(Gallery(gen_empty_kernel(1, 12)), None, CheckConfig(k=3))


def classic_helly_padded():
    return check_classic(Gallery(gen_empty_kernel(1, 12)), None, CheckConfig(k=4))


def quantitative_kernel_superset():
    cfg = CheckConfig(family="disc", threshold=rat("1/4"))
    return check_quantitative(star_gallery(), None, cfg)


def quantitative_scan_then_kernel_qualifiers():
    cfg = CheckConfig(family="disc", threshold=rat("7/20"), cap=2)
    return check_quantitative(star_gallery(), None, cfg)


def pinched_point_kernel_classic():
    return check_classic(bowtie_gallery(), None, CheckConfig())


def pinched_point_kernel_quantitative():
    cfg = CheckConfig(family="region-area", threshold=rat("1/2"))
    return check_quantitative(bowtie_gallery(), None, cfg)


def colorful_plane_control():
    g = gen_fig1()
    cls = dict(g.classes)
    return check_colorful_plane(g, cls["red"], cls["blue"], cls["blue"])


REPORT_PINS = {
    classic_truncated: "48668e1080dbdccc3281f38294e34e31d0af060a719d07035b910f97612bc349",
    quantitative_violated: "8796dba8dc2bfe8a70b2e7ac3442d875c70ccc3c04f3a4765727f19adeef6679",
    colorful_truncated: "4796a4585baf81100e227aa0fd20bbe6270f749add63ad372a52df9bc62a6068",
    quantitative_undetermined: "4198b7b49c9db6a19038f2a26cf071639e4dee0bbcafb49d812aab6793ed46e7",
}

PATH_PINS = {
    classic_kernel_superset: "d11b1404cd2a3f31ae762b555a0ff9c35791ac4c0e3a7289be3a6b741d561253",
    classic_helly_triple: "4a89dfa27cc889c8d674470324c4bff71a60689c60869e167d84e7e2960fce83",
    classic_helly_padded: "326e641381e2eb594835770c95bdce476a1bd5967ffba947a95b142ca9a811c3",
    quantitative_kernel_superset: "bed293a19f69d86fbd4b95444e44b6f7a6443b0cfb9fe7c9463ec68c6a652cba",
    quantitative_scan_then_kernel_qualifiers: "60eff85a5c23a269c84e744c89b12d340254eb0605b3c5d5afae6b28ddd7720d",
    pinched_point_kernel_classic: "4768d98623ee2fb93d98e9108da76ac59036fd08fd458c253f0f0b6423cfcbcd",
    pinched_point_kernel_quantitative: "60843fe84e78b0d98295959d84b6b11e5d0f8684b39009df04909a2bf1325f34",
    colorful_plane_control: "a2621e8c33aca55f67d35e029d53dfb62a9aa1011be090d6229ecd647c47aca7",
}


@pytest.mark.parametrize("run", list(REPORT_PINS), ids=lambda f: f.__name__)
def test_report_is_pinned(run):
    text = docio.dumps(docio.report_to_document(run()))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_PINS[run]


@pytest.mark.parametrize("run", list(PATH_PINS), ids=lambda f: f.__name__)
def test_report_path_is_pinned(run):
    text = docio.dumps(docio.report_to_document(run()))
    assert hashlib.sha256(text.encode()).hexdigest() == PATH_PINS[run]

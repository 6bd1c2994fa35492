"""Report pins: sha256 of the serialized report for the tuple-scan outcomes.

Each case stops its tuple scan a different way: the classic check at its cap
with violations found, the quantitative check after three violations, the
colorful check at its cap, and a quantitative check that tallies every tuple
as undetermined. The digests were recorded before the three scan loops were
folded into one, so they pin the verdicts, coverage and qualifiers. The
last case's k=2 is below the ellipse theorem's tuple size 5, so its report
also records the unmet precondition "tuple-size>=5".
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
from artgallery.galleries import gen_spider
from artgallery.gallery import Gallery
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


REPORT_PINS = {
    classic_truncated: "48668e1080dbdccc3281f38294e34e31d0af060a719d07035b910f97612bc349",
    quantitative_violated: "8796dba8dc2bfe8a70b2e7ac3442d875c70ccc3c04f3a4765727f19adeef6679",
    colorful_truncated: "4796a4585baf81100e227aa0fd20bbe6270f749add63ad372a52df9bc62a6068",
    quantitative_undetermined: "4198b7b49c9db6a19038f2a26cf071639e4dee0bbcafb49d812aab6793ed46e7",
}


@pytest.mark.parametrize("run", list(REPORT_PINS), ids=lambda f: f.__name__)
def test_report_is_pinned(run):
    text = docio.dumps(docio.report_to_document(run()))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_PINS[run]

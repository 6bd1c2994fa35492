"""Document serialization of exact values past Python's int/str digit limit."""

import json
import random

from artgallery import docio
from artgallery.galleries import SpikedGalleryParams
from artgallery.geom.primitives import Point2
from artgallery.rational import rat


def test_spiked_params_round_trip_numerators_above_2_pow_25000():
    m = rat(2**25002 + 1, 3**7000)
    eps = rat(1, 2) - 1 / (2 * m)
    delta = eps / (2 * (1 - 2 * eps))
    params = SpikedGalleryParams(
        n=4, M=1.5, Mp=2.0, disc_poly_verts=96, m=m, eps=eps, delta=delta, S=(0.0, 1.5),
        scale=rat(1, 3), tips=(Point2(rat(1), rat(-2, 3)),), kernel_area_prescale=m * m,
    )
    doc = json.loads(docio.dumps(docio.spiked_params_to_document(params)))
    assert m.numerator.bit_length() > 25000
    for key, value in (("m", m), ("eps", eps), ("delta", delta), ("kernel_area_prescale", m * m)):
        assert rat(doc[key]) == value


def test_small_values_serialize_as_before():
    rng = random.Random(5)
    for _ in range(200):
        q = rat(rng.randrange(-10**40, 10**40), rng.randrange(1, 10**30))
        assert docio.shape_to_document(("v", q))["value"] == str(q)

"""`PolygonWithHoles.validate` on galleries with two holes: the checks that
compare holes with each other, not only with the outer ring."""

import pytest

from artgallery.geom.polygon import PolygonWithHoles

ROOM = [(0, 0), (9, 0), (9, 9), (0, 9)]


def square(x, y, side):
    return [(x, y), (x, y + side), (x + side, y + side), (x + side, y)]


def test_two_separate_holes_are_valid():
    poly = PolygonWithHoles(ROOM, [square(1, 1, 2), square(5, 5, 2)])
    assert poly.validate() is poly


@pytest.mark.parametrize("holes, message", [
    ([square(1, 1, 2), square(3, 1, 2)], "holes intersect"),
    ([square(1, 1, 2), square(3, 3, 2)], "holes intersect"),
    ([square(1, 1, 7), square(3, 3, 2)], "nested holes"),
    ([square(3, 3, 2), square(1, 1, 7)], "nested holes"),
], ids=["shared-edge", "shared-corner", "second-inside-first", "first-inside-second"])
def test_holes_that_meet_are_invalid(holes, message):
    with pytest.raises(ValueError, match=message):
        PolygonWithHoles(ROOM, holes).validate()

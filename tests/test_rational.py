"""Exact rational layer: construction, formatting, rationalization."""

import pytest

from artgallery.rational import fmt, rat, rationalize


def test_rat_from_string():
    assert rat("3/7") == rat(3, 7)
    assert rat("1.25") == rat(5, 4)
    assert rat("-2/4") == rat(-1, 2)


def test_rat_from_float_is_exact_binary_value():
    # 0.5 and 0.25 are exact in binary, 0.1 is not.
    assert rat(0.5) == rat(1, 2)
    assert rat(0.25) == rat(1, 4)
    assert rat(0.1) != rat(1, 10)
    assert float(rat(0.1)) == 0.1


def test_rat_rejects_non_finite():
    with pytest.raises(ValueError):
        rat(float("nan"))
    with pytest.raises((ValueError, OverflowError)):
        rat(float("inf"))


def test_fmt_round_trips():
    for s in ("3/7", "2", "-1/2", "0", "123456789/987654321"):
        assert rat(fmt(rat(s))) == rat(s)


def test_fmt_round_trips_past_the_int_str_digit_limit():
    q = rat(-(2**25002 + 1), 3**9100)
    text = fmt(q)
    num, den = text.split("/")
    assert len(num) > 7500 and len(den) > 4300

    def digits_value(s):  # in chunks below the limit, independent of fmt
        value = 0
        for i in range(0, len(s), 1000):
            value = value * 10 ** len(s[i : i + 1000]) + int(s[i : i + 1000])
        return value

    assert -digits_value(num[1:]) == q.numerator and digits_value(den) == q.denominator
    assert rat(text) == q
    assert rat(num) == q.numerator and rat(" " + den + " ") == q.denominator


def test_rationalize_recovers_simple_fractions():
    assert rationalize(1.0 / 3.0) == rat(1, 3)


def test_exact_arithmetic_no_drift():
    # Summing 1/3 three hundred times stays exactly 100.
    acc = rat(0)
    for _ in range(300):
        acc += rat(1, 3)
    assert acc == rat(100)

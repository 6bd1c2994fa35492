"""Exact rational arithmetic helpers shared by the geometry core.

Everything in the geometry core computes over arbitrary-precision rationals so
that predicates (orientation, containment, emptiness) are decided exactly.
gmpy2.mpq is the backend when available (about an order of magnitude faster
than fractions.Fraction); the code only relies on Fraction-compatible
semantics, so Fraction works as a drop-in fallback.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

try:
    from gmpy2 import mpq as _Q

    _BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _Q = Fraction
    _BACKEND = "fractions"

#: Exact rational constructor. Accepts ints, rationals, "p/q" strings,
#: decimal strings and (exactly converted) floats.
Q = _Q


def rat(value, denom=None):
    """Build an exact rational.

    Floats convert exactly (their full binary expansion, no snapping); use
    :func:`rationalize` when a nearby small-denominator value is wanted.
    Strings accept "p/q", integer and decimal forms.
    """
    if denom is not None:
        return Q(value) / Q(denom)
    if isinstance(value, float):
        f = Fraction(value)
        return Q(f.numerator) / Q(f.denominator)
    if isinstance(value, str):
        return _parse(value.strip())
    return Q(value)


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse(text):
    if "/" in text:
        num, _, den = text.partition("/")
        return _parse_number(num.strip()) / _parse_number(den.strip())
    return _parse_number(text)


def _parse_number(text):
    # Decimal reads integers exactly and, unlike int(), past Python's
    # int/str digit limit (4,300 digits by default).
    if _INTEGER.fullmatch(text):
        return Q(int(Decimal(text)))
    return Q(Fraction(text))


MAX_DENOMINATOR = 10**9


def rationalize(value):
    """Nearest rational with denominator at most MAX_DENOMINATOR.

    This is the single sanctioned float->rational entry point for numeric
    results that feed back into exact constructions.
    """
    if isinstance(value, float):
        f = Fraction(value).limit_denominator(MAX_DENOMINATOR)
    else:
        f = Fraction(rat(value)).limit_denominator(MAX_DENOMINATOR)
    return Q(f.numerator) / Q(f.denominator)


def fmt(value) -> str:
    """Serialize exactly: "p" for integers, "p/q" otherwise, at any size
    (Decimal prints integers past Python's int/str digit limit)."""
    q = rat(value)
    num, den = (str(Decimal(int(part))) for part in (q.numerator, q.denominator))
    return num if den == "1" else f"{num}/{den}"

"""Exact rational truth degrees and the concrete residuated-lattice operations.

All degrees are `fractions.Fraction` values confined to the rational unit
interval.  The Lukasiewicz and product structures map rational pairs to
rationals, so the whole inference path stays exact: floating point is refused
at the boundary and never used internally.
"""

from __future__ import annotations

import enum
import re
import reprlib
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# The degree literal `N`, `N/D` or `N.F`: the only definition of its grammar.
_RATIONAL_TEXT = re.compile(r"(?P<num>\d+)(?:/(?P<den>\d+)|\.(?P<dec>\d+))?")

MAX_DECIMAL_DIGITS = 50

# Longest echo of an offending input value in an error message.
MAX_ECHO = 60


class Algebra(enum.Enum):
    """The three multiplication/residuum structures on the unit interval."""

    LUKASIEWICZ = "lukasiewicz"
    PRODUCT = "product"
    GOEDEL = "goedel"


LUKASIEWICZ = Algebra.LUKASIEWICZ
PRODUCT = Algebra.PRODUCT
GOEDEL = Algebra.GOEDEL


def tnorm(alg: Algebra, a: Fraction, b: Fraction) -> Fraction:
    """Fuzzy conjunction: commutative, associative, with unit 1."""
    if alg is Algebra.LUKASIEWICZ:
        s = a + b - 1
        return s if s > 0 else ZERO
    if alg is Algebra.PRODUCT:
        return a * b
    return a if a <= b else b


def residuum(alg: Algebra, a: Fraction, b: Fraction) -> Fraction:
    """Fuzzy implication, adjoint to tnorm: tnorm(a,c) <= b iff c <= residuum(a,b)."""
    if a <= b:
        return ONE
    if alg is Algebra.LUKASIEWICZ:
        return 1 - a + b
    if alg is Algebra.PRODUCT:
        return b / a
    return b


def as_unit_degree(value) -> Fraction:
    """Coerce to an exact degree in [0, 1].  Floats are refused outright."""
    if isinstance(value, float):
        raise TypeError(
            "floating-point degrees are not allowed; use Fraction, int, or a string"
        )
    if isinstance(value, str):
        return parse_rational(value)
    q = Fraction(value)
    if q < 0 or q > 1:
        raise ValueError(f"degree out of range [0, 1]: {q}")
    return q


def parse_rational(text: str) -> Fraction:
    """Parse `num/den` or a decimal literal exactly (0.7 becomes 7/10)."""
    literal = text.strip()
    m = _RATIONAL_TEXT.fullmatch(literal)
    if m is None:
        raise ValueError(f"malformed rational literal: {text!r}")
    try:
        return rational_from_match(m)
    except ValueError as exc:
        raise ValueError(f"{exc}: {literal}") from None


def rational_from_match(m: re.Match) -> Fraction:
    """Degree of a `_RATIONAL_TEXT` match; ValueError when it names none."""
    if m["dec"] is not None:
        q = Fraction(int(m["num"] + m["dec"]), 10 ** len(m["dec"]))
    else:
        den = int(m["den"] or 1)
        if den == 0:
            raise ValueError("zero denominator")
        q = Fraction(int(m["num"]), den)
    if q > 1:
        raise ValueError("degree out of range [0, 1]")
    return q


def brief(value) -> str:
    """Bounded `repr` of an untrusted value for an error message.

    `reprlib` keeps the work small for deep or wide values; the result is
    then cut to MAX_ECHO characters.
    """
    text = reprlib.repr(value)
    return text if len(text) <= MAX_ECHO else text[:MAX_ECHO - 3] + "..."


def rational_to_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def rational_from_json(obj) -> Fraction:
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise ValueError(f"malformed rational object: {brief(obj)}")
    num, den = obj["num"], obj["den"]
    if not isinstance(num, int) or not isinstance(den, int) or isinstance(num, bool) or isinstance(den, bool):
        raise ValueError(f"rational fields must be integers: {brief(obj)}")
    if den <= 0:
        raise ValueError(f"nonpositive denominator: {brief(obj)}")
    if not 0 <= num <= den:
        raise ValueError(f"degree out of range [0, 1]: {brief(obj)}")
    return Fraction(num, den)


def decimal_expansion(q: Fraction) -> str:
    """Exact decimal form, with a repeating block in parentheses: 1/3 -> 0.(3).

    An expansion that needs more than MAX_DECIMAL_DIGITS digits after the
    point is cut there and ends in `...`.
    """
    whole, rem = divmod(q.numerator, q.denominator)
    if rem == 0:
        return str(whole)
    digits: list[str] = []
    seen: dict[int, int] = {}
    while rem and rem not in seen:
        if len(digits) == MAX_DECIMAL_DIGITS:
            return f"{whole}." + "".join(digits) + "..."
        seen[rem] = len(digits)
        digit, rem = divmod(rem * 10, q.denominator)
        digits.append(str(digit))
    if rem:
        start = seen[rem]
        return f"{whole}." + "".join(digits[:start]) + "(" + "".join(digits[start:]) + ")"
    return f"{whole}." + "".join(digits)


def format_degree(q: Fraction) -> str:
    """Fraction plus decimal expansion, e.g. `9/10 = 0.9`; integers print bare."""
    frac = str(q)
    dec = decimal_expansion(q)
    return frac if dec == frac else f"{frac} = {dec}"

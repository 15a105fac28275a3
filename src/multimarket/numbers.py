"""Numeric backbone: exact rationals by default, machine floats on request.

Every model carries a single numeric mode fixed at construction time.  In
rational mode all values are `fractions.Fraction` and every comparison is
exact (zero tolerance); in float mode values are machine floats and every
comparison takes an explicit tolerance.  The mode propagates from the input
document to every LP solved downstream.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction
from math import gcd, isfinite, lcm
from typing import Sequence, Union

from .errors import SchemaError

Num = Union[Fraction, float]

# The tolerance policy: one row per mode, all zeros in rational mode.
FEAS_TOL = 1e-9  # LP feasibility and optimality, probability sums, budgets
MEMBER_TOL = 1e-8  # measure membership and orthogonality to gains
GAP_TOL = 1e-7  # duality gaps, certificates and price bounds
ZERO_TOL = 1e-12  # a witness entry this small counts as zero (boundary)
Tolerances = namedtuple("Tolerances", "feas member gap zero")
_TOLERANCES = {True: Tolerances(0, 0, 0, 0), False: Tolerances(FEAS_TOL, MEMBER_TOL, GAP_TOL, ZERO_TOL)}

# the exponent of a decimal string, read before `Fraction` expands it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def tolerances(exact: bool) -> Tolerances:
    """The tolerance row of a numeric mode: every check compares against it."""
    return _TOLERANCES[exact]


def parse_scalar(raw, exact: bool = True) -> Num:
    """Parse a scalar from a document value.

    Strings are treated as exact: ``"3/4"`` and ``"0.75"`` both give the same
    Fraction.  Ints are exact.  Floats are only exact in the binary sense and
    force float mode unless the caller insists on rational conversion.
    A non-finite float (JSON ``NaN`` or ``Infinity``), a value that
    overflows a float in float mode and anything else that is not a number
    raise SchemaError.  So does a string that Python could not print as a
    number: one whose decimal exponent, or in rational mode whose numerator
    or denominator, has more digits than the interpreter's limit
    (`digit_limit`).
    """
    if isinstance(raw, bool):
        raise SchemaError(f"boolean is not a number: {raw!r}")
    if isinstance(raw, Fraction):
        value: Num = raw
    elif isinstance(raw, int):
        value = Fraction(raw)
    elif isinstance(raw, float):
        if not isfinite(raw):
            raise SchemaError(f"non-finite number {raw!r}")
        value = Fraction(raw) if exact else raw
    elif isinstance(raw, str):
        limit = digit_limit()
        exponent = _EXPONENT.search(raw)
        # int() refuses an exponent of more digits than the limit, too
        if limit and exponent and (len(exponent[1]) > limit or abs(int(exponent[1])) > limit):
            raise SchemaError(f"number {raw!r} has more than {limit} digits")
        try:
            value = Fraction(raw.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"cannot parse number {raw!r}") from exc
        if exact and (past_digit_limit(value.numerator) or past_digit_limit(value.denominator)):
            raise SchemaError(f"number {raw!r} has more than {limit} digits")
    else:
        raise SchemaError(f"cannot parse number {raw!r}")
    if exact:
        return value if isinstance(value, Fraction) else Fraction(value)
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"number {raw!r} overflows a float") from None


def digit_limit() -> int:
    """The interpreter's limit on the digits of an int it converts to or
    from text, `sys.get_int_max_str_digits()`; 0 means no limit, as on
    Pythons before 3.10.7, which have none."""
    return getattr(sys, "get_int_max_str_digits", int)()


def past_digit_limit(n: int) -> bool:
    """Whether `str(n)` would exceed `digit_limit()`."""
    limit = digit_limit()
    return bool(limit) and n.bit_length() > 3 * limit and abs(n) >= 10**limit


def scalar_to_json(value: Num):
    """JSON encoding: Fractions as 'p/q' (or 'n') strings, floats rounded
    to 12 significant digits.  A computed Fraction whose numerator or
    denominator Python could not print (`past_digit_limit`) raises
    SchemaError: the document's numbers, each within the limit, combine
    past it."""
    if isinstance(value, Fraction):
        if past_digit_limit(value.numerator) or past_digit_limit(value.denominator):
            raise SchemaError(f"a computed number has more than {digit_limit()} digits")
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    return float(f"{value:.12g}")


def format_sig12(value: Num) -> str:
    """Fixed 12-significant-digit text form used for scalar CLI output."""
    return f"{float(value):.12g}"


def to_row(values: Sequence[Num], exact: bool) -> tuple[Sequence[Num], Num]:
    """The row format of every certificate check and of the simplex: in
    rational mode the numerators over the least common denominator, which
    leaves them in lowest terms (ints count as rationals over 1); in float
    mode ``values`` themselves, not copied, over 1.0."""
    if not exact:
        return values, 1.0
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def lowest(row: list[int], den: int) -> int:
    """Divide ``row`` in place and ``den`` by their common factor, as in
    `to_row`'s lowest terms; returns the reduced denominator."""
    g = gcd(den, *row)
    if g > 1:
        row[:] = [v // g for v in row]
        den //= g
    return den


def from_row(num, den, exact: bool) -> Num:
    """One entry of a row as a number: num/den in rational mode, num in
    float mode (where den is 1.0)."""
    return Fraction(num, den) if exact else num


def dot(a, b):
    total = 0
    for ai, bi in zip(a, b):
        total += ai * bi
    return total


def left_sum(values):
    """The sum of ``values`` added left to right, as `dot` adds them: from
    Python 3.12 on, the builtin `sum` compensates the rounding of floats."""
    total = 0
    for v in values:
        total += v
    return total

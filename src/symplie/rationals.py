"""Exact rational scalars.

Scalars are the stdlib ``Fraction``; every scalar enters the package
through :func:`as_q` or :func:`parse_rational`.

Serialized rationals are strings ``"p"`` or ``"p/q"`` in lowest terms
with a positive denominator and no whitespace; :func:`qstr` produces
exactly that grammar.  :func:`parse_literal` is its one reader and
accepts nothing else: it returns the (num, den) ints as written, which
documents put over one denominator without building a scalar, and
:func:`parse_rational` is that pair as a scalar.

The hot loops run over Python ints: :func:`integral` writes a family of
rationals as integer numerators over one common denominator, and
:func:`rational` turns one numerator back into a scalar.  They are the
only code that reads a scalar's numerator and denominator or builds a
scalar from a computed numerator and denominator; the fractions
elsewhere are literal constants ``Q(p, q)``.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction as Q

from .errors import SymplieError

# Fraction is the one backend; the flag stays for the benchmark labels
GMPY2_BACKEND = False

ZERO = Q(0)
ONE = Q(1)
THIRD = Q(1, 3)

_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?\Z")


class RationalSyntaxError(SymplieError, ValueError):
    """A string did not match the serialization grammar for rationals."""


class UnwritableNumberError(SymplieError):
    """A computed rational is too long for ``str`` to write.  Not a
    ValueError: the input was valid, so this is not an input error."""


def parse_literal(text: str) -> tuple:
    """(num, den) for ``"p"`` or ``"p/q"``: the ints as written, so
    text == num / den with den > 0 but not necessarily in lowest terms.

    The one reader of the grammar: malformed strings (whitespace,
    decimals, empty, q = 0) and a p or q longer than the interpreter's
    int-string limit raise :class:`RationalSyntaxError`.
    """
    if not isinstance(text, str) or _RATIONAL.match(text) is None:
        raise RationalSyntaxError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den) if den else 1
    except ValueError:
        digits = max(len(num.lstrip("+-")), len(den))
        raise RationalSyntaxError(
            f"literal of {digits} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits") from None
    if den == 0:
        raise RationalSyntaxError(f"zero denominator: {text!r}")
    return num, den


def parse_rational(text: str):
    """Parse ``"p"`` or ``"p/q"`` into an exact rational, through
    :func:`parse_literal`; non-lowest-terms input is normalized."""
    return rational(*parse_literal(text))


def as_q(value):
    """Coerce ints, rational strings and rational-like numbers to Q.

    Floats are rejected: everything in this package is exact.
    """
    if type(value) is type(ZERO):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; pass an int, string or rational")
    if hasattr(value, "numerator") and hasattr(value, "denominator"):
        den, (num,) = integral((value,))
        return rational(num, den)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def qstr(value) -> str:
    """Canonical string form: lowest terms, positive denominator.

    A value longer than the interpreter's int-string limit raises
    :class:`UnwritableNumberError`.
    """
    value = as_q(value)
    try:
        return str(value)
    except ValueError:
        # bits * 1233 >> 12 is about bits * log10(2), without a float
        den, (num,) = integral((value,))
        bits = max(abs(num).bit_length(), den.bit_length())
        raise UnwritableNumberError(
            f"cannot write a rational of about {bits * 1233 >> 12} digits; the "
            f"limit for int-string conversion is {sys.get_int_max_str_digits()} digits"
        ) from None


def integral(values) -> tuple:
    """(den, nums): den is the lcm of the denominators of values (1 when
    there are none) and nums[i] is the int with values[i] == nums[i] / den."""
    values = list(values)
    den = math.lcm(1, *(int(v.denominator) for v in values))
    return den, [int(v.numerator) * (den // int(v.denominator)) for v in values]


def rational(num: int, den: int):
    """The scalar num / den, in lowest terms."""
    return Q(num, den)

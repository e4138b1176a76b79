"""Exact nonnegative dyadic rationals k / 2^n.

All measure coefficients, capacities and flows in this package are dyadic,
and every operation here is exact: numerators are Python integers (arbitrary
precision, so there is no overflow path), and results are kept in the unique
canonical form where the numerator is odd or zero whenever the exponent is
positive.

Negative values are excluded from the type itself; subtraction below zero
raises :class:`errors.NegativeResult`.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import total_ordering

from .errors import NegativeResult, ParseError, PrecisionLoss
from .text import digits


class _Value:
    """An immutable value held in its class's slots.

    Assigning or deleting a field raises `dataclasses.FrozenInstanceError`,
    and copy and pickle rebuild the value through its class's constructor,
    called with the slots' values in the order `__slots__` lists them. A
    subclass sets its slots through their own descriptors, which
    `__setattr__` does not reach, and defines its own equality and hash.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __reduce__(self):
        return type(self), tuple(getattr(self, s) for s in self.__slots__)


@total_ordering
class Dyadic(_Value):
    """A nonnegative dyadic rational, value = num / 2**exp, in canonical form.

    An immutable value (`_Value`) with two slots, equal and hashed by
    `(num, exp)`. Every construction runs `__post_init__` once, through
    the attribute, which checks the sign and canonicalizes; it is kept as
    a method, not folded into `__init__`, so that wrapping
    `Dyadic.__post_init__` counts every value made.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int):
        _set_num(self, num)
        _set_exp(self, exp)
        self.__post_init__()

    def __post_init__(self):
        num, exp = self.num, self.exp
        if num < 0:
            raise NegativeResult("dyadic value would be negative: %d/2^%d"
                                 % (num, exp))
        if exp < 0:
            raise ValueError("exponent must be nonnegative")
        if num == 0:
            if exp:
                _set_exp(self, 0)
        elif exp and not num & 1:
            shift = (num & -num).bit_length() - 1  # trailing zero bits
            if shift > exp:
                shift = exp
            _set_num(self, num >> shift)
            _set_exp(self, exp - shift)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __hash__(self):
        return hash((self.num, self.exp))

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic(self.num * (1 << (e - self.exp))
                      + other.num * (1 << (e - other.exp)), e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        a = self.num * (1 << (e - self.exp))
        b = other.num * (1 << (e - other.exp))
        if a < b:
            raise NegativeResult("%s - %s is negative" % (self, other))
        return Dyadic(a - b, e)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.num * other.num, self.exp + other.exp)

    # -- order ----------------------------------------------------------

    def compare(self, other: "Dyadic") -> int:
        """-1, 0 or 1 as self <, =, > other (exact)."""
        e = max(self.exp, other.exp)
        a = self.num * (1 << (e - self.exp))
        b = other.num * (1 << (e - other.exp))
        return (a > b) - (a < b)

    def __lt__(self, other: "Dyadic") -> bool:
        return self.compare(other) < 0

    def is_zero(self) -> bool:
        return self.num == 0

    # -- scaling --------------------------------------------------------

    def rescale(self, n: int) -> int:
        """Return self * 2**n as an exact integer; requires exp <= n."""
        if self.exp > n:
            raise PrecisionLoss("cannot rescale %s to denominator 2^%d"
                                % (self, n))
        return self.num << (n - self.exp)

    # -- text form ------------------------------------------------------

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return "%d/2^%d" % (self.num, self.exp)

    def __repr__(self) -> str:
        return "Dyadic(%s)" % self


# the slots' own setters, which __setattr__ does not reach
_set_num = Dyadic.num.__set__
_set_exp = Dyadic.exp.__set__

ZERO = Dyadic(0, 0)
ONE = Dyadic(1, 0)

# parse-time ceiling on exponents: generous for any realistic depth, while
# keeping hostile inputs from forcing astronomically wide integer shifts
MAX_PARSED_EXPONENT = 10_000


def parse_dyadic(text: str) -> Dyadic:
    """Parse the textual form "k/2^n" or the integer shorthand "k", where k
    and n are ASCII decimal digits; surrounding whitespace is ignored.

    Round-trips exactly with str(): parse_dyadic(str(d)) == d.
    """
    text = text.strip()
    try:
        if "/" in text:
            num_part, den_part = text.split("/", 1)
            if not den_part.startswith("2^"):
                raise ValueError
            exp = digits(den_part[2:])
            if exp > MAX_PARSED_EXPONENT:
                raise ParseError("exponent %d too large" % exp)
            return Dyadic(digits(num_part), exp)
        return Dyadic(digits(text), 0)
    except (ValueError, NegativeResult):
        raise ParseError("not a dyadic rational: %r" % text)

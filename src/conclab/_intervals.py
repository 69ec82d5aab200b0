"""Certified rational enclosures of 2 cos(2 pi t) and their inverses.

The exact machinery in :mod:`conclab.seifert` works on the x-line via
x = 2 cos(2 pi t).  Whenever a rational sample point or a reported jump
position must be compared with an algebraic number of the form
2 cos(2 pi k/d), both directions run on integers alone.  With u = 2 t
and x = 2 cos(pi u), the doubling map x -> x^2 - 2 acts on u as the tent
map u -> 2u (u <= 1/2), 2 - 2u (u > 1/2), and the sign of x is the tent
bit [u > 1/2].  An enclosure of 2 cos(2 pi t) pulls the tent orbit of u
back through x -> +-sqrt(x + 2); a jump position is read from the signs
of x's doubling orbit, whose prefix XORs are the binary digits of u.
Square roots and squares are rounded outward, so every enclosure is
certified, and every decision made from one is a strict inequality
between disjoint intervals: precision only affects how much refinement
is needed, never correctness.

Every refinement loop, here and in :mod:`conclab.seifert`, doubles its
precision along one ladder, :func:`precisions`, which alone holds the cap
MAX_PRECISION_BITS and raises PrecisionLimitError past it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterator

from ._value import Value
from .errors import PrecisionLimitError

DEFAULT_PRECISION_BITS = 128
MAX_PRECISION_BITS = 65536


def precisions(start: int, what: str) -> Iterator[int]:
    """The precision ladder of one refinement: start, 2 start, 4 start,
    ...  The first rung is always start, even above MAX_PRECISION_BITS; a
    rung past that cap raises PrecisionLimitError, "<what> within <cap>
    bits".

    >>> ladder = precisions(64, "could not refine")
    >>> next(ladder), next(ladder)
    (64, 128)
    """
    prec = start
    while True:
        yield prec
        prec *= 2
        if prec > MAX_PRECISION_BITS:
            raise PrecisionLimitError(f"{what} within {MAX_PRECISION_BITS} bits")


class RatInterval(Value):
    """Closed interval with exact rational endpoints."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        Value.__init__(self, lo, hi)

    @staticmethod
    def point(x: Fraction) -> "RatInterval":
        return RatInterval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def disjoint_from(self, other: "RatInterval") -> bool:
        return self.hi < other.lo or other.hi < self.lo

    def strictly_below(self, other: "RatInterval") -> bool:
        return self.hi < other.lo

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _isqrt_up(n: int) -> int:
    """ceil(sqrt(n)) for n >= 0."""
    return isqrt(n - 1) + 1 if n else 0


def two_cos_two_pi(t: Fraction, prec_bits: int = DEFAULT_PRECISION_BITS) -> RatInterval:
    """Certified enclosure of 2 cos(2 pi t), at most 2^-(prec_bits - 2)
    wide.

    With t folded into [0, 1/2] and u = 2 t = a/c, the tent map runs
    exactly on a until u is 0, 1/2 or 1 (x = 2, 0, -2) or for prec_bits
    + 4 steps (x in [-2, 2]).  Pulling back through x -> +-sqrt(x + 2),
    minus where u > 1/2, halves the angle error at each step, so each
    step takes one more fractional bit, up to prec_bits + 20 +
    bitlength(c), and every rounding reaches the result equally damped.
    The orbit stays 1/(2c) away from 0, 1/2 and 1, so rounding near
    x = -2 costs at most bitlength(c) bits of angle.

    >>> x = two_cos_two_pi(Fraction(1, 3), 64)
    >>> x.contains(Fraction(-1)), x.width <= Fraction(1, 2 ** 62)
    (True, True)
    >>> print(two_cos_two_pi(Fraction(3, 4)))
    [0, 0]
    """
    t = Fraction(t)
    c = t.denominator
    a = 2 * (t.numerator % c)
    a = min(a, 2 * c - a)
    minus = []
    while a % c and 2 * a != c and len(minus) < prec_bits + 4:
        minus.append(2 * a > c)
        a = 2 * a if 2 * a < c else 2 * (c - a)
    bits = prec_bits + 20 + c.bit_length() - len(minus)
    if not a % c or 2 * a == c:               # u in {0, 1/2, 1}
        lo = hi = (2 - 4 * a // c) << bits     # x = 2 cos(pi u) = 2 - 4u
    else:
        lo, hi = -2 << bits, 2 << bits
    for neg in reversed(minus):
        r_lo = isqrt((lo + (2 << bits)) << (bits + 2))
        r_hi = _isqrt_up((hi + (2 << bits)) << (bits + 2))
        bits += 1
        lo, hi = (-r_hi, -r_lo) if neg else (r_lo, r_hi)
    return RatInterval(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits))


def invert_two_cos(x_encl, prec_bits: int = DEFAULT_PRECISION_BITS) -> RatInterval:
    """The dyadic cell [k/2^N, (k+1)/2^N], N = max(prec_bits, 8), holding
    the t in (0, 1/2) with 2 cos(2 pi t) = x, where ``x_encl(prec)`` is a
    RatInterval around x in (-2, 2) that tightens as prec grows.

    The signs of x_0 = x, x_(j+1) = x_j^2 - 2 are the tent bits c_j of
    u = 2 t, and u's binary digits are their prefix XORs, so N - 1
    certified signs give k = floor(2^N t).  Each precision squares the
    enclosure up to N - 1 times, rounded outward at prec + 16 fractional
    bits; a sign it cannot certify climbs the ``precisions`` ladder,
    which ends only if t is not a multiple of 2^-N.

    >>> cell = invert_two_cos(lambda p: RatInterval.point(Fraction(1)), 8)
    >>> cell.lo * 256, cell.hi * 256
    (Fraction(42, 1), Fraction(43, 1))
    """
    n = max(prec_bits, 8)
    for prec in precisions(max(64, prec_bits), "could not enclose a circle parameter"):
        x_iv = x_encl(prec)
        bits = prec + 16
        two = 2 << bits
        lo = max((x_iv.lo.numerator << bits) // x_iv.lo.denominator, -two)
        hi = min(-((-x_iv.hi.numerator << bits) // x_iv.hi.denominator), two)
        k = digit = 0
        for _ in range(n - 1):
            if lo > 0:
                lo, hi = (lo * lo >> bits) - two, -(-hi * hi >> bits) - two
            elif hi < 0:
                digit ^= 1
                lo, hi = (hi * hi >> bits) - two, -(-lo * lo >> bits) - two
            else:
                break
            k = 2 * k + digit
        else:
            return RatInterval(Fraction(k, 1 << n), Fraction(k + 1, 1 << n))

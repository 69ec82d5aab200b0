"""Certified rational enclosures of cosine values and their inverses.

The exact machinery in :mod:`conclab.seifert` works on the x-line via
x = 2 cos(2 pi t).  Whenever a rational sample point or a reported jump
position must be compared with an algebraic number of the form
2 cos(2 pi k/d), we use mpmath's rigorous interval arithmetic and convert
the binary endpoints to exact Fractions; a jump position t is read back
from x through atan2 as a dyadic cell.  Every decision made from these
enclosures is a strict inequality between disjoint intervals, so
precision only affects how much refinement is needed, never correctness.

Every refinement loop, here and in :mod:`conclab.seifert`, doubles its
precision along one ladder, :func:`precisions`, which alone holds the cap
MAX_PRECISION_BITS and raises PrecisionLimitError past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from mpmath import iv
from mpmath.libmp import to_rational

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


@dataclass(frozen=True)
class RatInterval:
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: Fraction) -> "RatInterval":
        return RatInterval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def disjoint_from(self, other: "RatInterval") -> bool:
        return self.hi < other.lo or other.hi < self.lo

    def strictly_below(self, other: "RatInterval") -> bool:
        return self.hi < other.lo

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _raw_mpf_to_fraction(raw) -> Fraction:
    if raw[1] == 0 and raw[2] != 0:
        raise ValueError("non-finite interval endpoint")
    return Fraction(*to_rational(raw))


def cos_two_pi(t: Fraction, prec_bits: int = DEFAULT_PRECISION_BITS) -> RatInterval:
    """Certified enclosure of cos(2 pi t).

    >>> iv_ = cos_two_pi(Fraction(1, 6), 64)
    >>> iv_.contains(Fraction(1, 2)), float(iv_.width) < 1e-15
    (True, True)
    """
    t = Fraction(t) % 1
    old = iv.prec
    try:
        iv.prec = max(prec_bits, 53)
        angle = 2 * iv.pi * (iv.mpf(t.numerator) / iv.mpf(t.denominator))
        return RatInterval(*map(_raw_mpf_to_fraction, iv.cos(angle)._mpi_))
    finally:
        iv.prec = old


def two_cos_two_pi(t: Fraction, prec_bits: int = DEFAULT_PRECISION_BITS) -> RatInterval:
    """Certified enclosure of 2 cos(2 pi t)."""
    c = cos_two_pi(t, prec_bits)
    return RatInterval(2 * c.lo, 2 * c.hi)


def invert_two_cos(x_encl, prec_bits: int = DEFAULT_PRECISION_BITS) -> RatInterval:
    """The dyadic cell [k/2^N, (k+1)/2^N], N = max(prec_bits, 8), holding
    the t in (0, 1/2) with 2 cos(2 pi t) = x, where ``x_encl(prec)`` is a
    RatInterval around x in (-2, 2) that tightens as prec grows.  Each
    precision costs one interval evaluation of t = atan2(sqrt(4 - x^2), x)
    / 2 pi; it climbs the ``precisions`` ladder until that lies in one
    cell, which needs t not dyadic (true unless x = 2 cos(2 pi k / 2^m)).

    >>> cell = invert_two_cos(lambda p: RatInterval.point(Fraction(1)), 8)
    >>> cell.lo * 256, cell.hi * 256
    (Fraction(42, 1), Fraction(43, 1))
    """
    scale = 2 ** max(prec_bits, 8)
    old = iv.prec
    try:
        for prec in precisions(max(64, prec_bits),
                               "could not enclose a circle parameter"):
            x_iv = x_encl(prec)
            iv.prec = prec + 16
            x = iv.mpf([iv.mpf(e.numerator) / e.denominator
                        for e in (max(x_iv.lo, -2), min(x_iv.hi, 2))])
            t = iv.atan2(iv.sqrt((2 - x) * (2 + x)), x) / (2 * iv.pi)
            k, k_hi = (_raw_mpf_to_fraction(raw) * scale // 1 for raw in t._mpi_)
            if k == k_hi:
                return RatInterval(Fraction(k, scale), Fraction(k + 1, scale))
    finally:
        iv.prec = old

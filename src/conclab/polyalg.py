"""Integer Laurent polynomials and branched-cover homology orders.

The central quantity is, for a polynomial f and d >= 1, the absolute value
of the product of f over all d-th roots of unity.  For f the Alexander
polynomial of a knot this is the order of the first homology of the d-fold
cyclic branched cover (Fox), and for a prime power d it is a positive
integer.  It is computed here as an exact integer resultant against
t**d - 1, never by floating evaluation at roots of unity.

From a finite collection D of Alexander polynomials we derive, for a prime
power d, the finite set of primes dividing one of these orders; a prime q
escapes the collection when it lies outside that set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from . import _poly
from ._primes import is_prime, prime_factors, prime_power_base
from .errors import ValidationError


@dataclass(frozen=True)
class LaurentPoly:
    """Integer-coefficient Laurent polynomial, stored as sorted
    (exponent, coefficient) pairs with no zero coefficients.

    >>> f = LaurentPoly.from_dict({1: 1, 0: -1, -1: 1})
    >>> str(f)
    't - 1 + t^-1'
    >>> f(1), f(-1)
    (1, -3)
    """

    pairs: tuple[tuple[int, int], ...]

    @staticmethod
    def from_dict(coeffs: Mapping[int, int]) -> "LaurentPoly":
        pairs = tuple(sorted((int(e), int(c)) for e, c in coeffs.items() if c != 0))
        return LaurentPoly(pairs)

    @staticmethod
    def from_coeffs(coeffs: Sequence[int], offset: int = 0) -> "LaurentPoly":
        """Coefficient list for t**offset, t**(offset+1), ..."""
        return LaurentPoly.from_dict({offset + i: c for i, c in enumerate(coeffs)})

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly.from_dict({0: 1})

    @staticmethod
    def t_power(k: int) -> "LaurentPoly":
        return LaurentPoly.from_dict({k: 1})

    def coeffs(self) -> dict[int, int]:
        return dict(self.pairs)

    def is_zero(self) -> bool:
        return not self.pairs

    @property
    def min_exp(self) -> int:
        return self.pairs[0][0]

    @property
    def max_exp(self) -> int:
        return self.pairs[-1][0]

    def coeff(self, k: int) -> int:
        for e, c in self.pairs:
            if e == k:
                return c
        return 0

    def __call__(self, x):
        if not self.pairs:
            return 0
        if x == 0:
            raise ZeroDivisionError("Laurent polynomial at 0")
        val = sum(c * Fraction(x) ** e for e, c in self.pairs)
        return int(val) if val.denominator == 1 else val

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = self.coeffs()
        for e, c in other.pairs:
            out[e] = out.get(e, 0) + c
        return LaurentPoly.from_dict(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.pairs))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.pairs:
            for e2, c2 in other.pairs:
                k = e1 + e2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly.from_dict(out)

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t**k."""
        return LaurentPoly(tuple((e + k, c) for e, c in self.pairs))

    def centered(self) -> "LaurentPoly":
        """Shift so the exponent range is symmetric about 0 (or off by one
        exponent when the range has odd length)."""
        if not self.pairs:
            return self
        return self.shifted(-((self.min_exp + self.max_exp) // 2))

    @property
    def is_symmetric(self) -> bool:
        """Coefficient symmetry a_k = a_{-k} of the centered representative."""
        c = self.centered()
        return all(c.coeff(-e) == v for e, v in c.pairs)

    @property
    def is_alexander_normalized(self) -> bool:
        """True when f(1) = +-1 and the centered coefficients are symmetric."""
        return (not self.is_zero()) and self(1) in (1, -1) and self.is_symmetric

    def as_int_poly(self) -> _poly.Poly:
        """Ordinary integer polynomial t**a * f with a = -min_exp."""
        if not self.pairs:
            return ()
        lo = self.min_exp
        out = [0] * (self.max_exp - lo + 1)
        for e, c in self.pairs:
            out[e - lo] = c
        return _poly.poly(out)

    @staticmethod
    def from_int_poly(p: _poly.Poly, offset: int = 0) -> "LaurentPoly":
        return LaurentPoly.from_dict({offset + i: int(c) for i, c in enumerate(p)})

    def __str__(self) -> str:
        if not self.pairs:
            return "0"
        parts = []
        for e, c in sorted(self.pairs, reverse=True):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                tpow = "t" if e == 1 else f"t^{e}"
                body = tpow if mag == 1 else f"{mag}*{tpow}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


@dataclass(frozen=True)
class PolySet:
    """Nonempty finite collection of Alexander-normalized polynomials."""

    polys: tuple[LaurentPoly, ...]

    def __post_init__(self):
        if not self.polys:
            raise ValidationError("polynomial collection must be nonempty")
        for i, f in enumerate(self.polys):
            if not f.is_alexander_normalized:
                raise ValidationError(
                    f"polys[{i}]: not Alexander-normalized (need f(1) = +-1 "
                    "and symmetric coefficients)")

    @staticmethod
    def of(*polys: LaurentPoly) -> "PolySet":
        return PolySet(tuple(polys))


@dataclass(frozen=True)
class PrimeSetComplement:
    """The primes dividing some branched-cover homology order of a
    collection D at covering degree d; a prime escapes D exactly when it
    is not in ``excluded``."""

    d: int
    excluded: frozenset[int]

    def contains_prime(self, q: int) -> bool:
        """Membership of q in the (cofinite) escape set."""
        return is_prime(q) and q not in self.excluded

    def sorted_excluded(self) -> list[int]:
        return sorted(self.excluded)


def normalize_poly(f: LaurentPoly) -> LaurentPoly:
    """Center; when symmetric with f(1) = -1, flip the sign so that
    f(1) = +1 (the unit-ambiguity convention for Alexander polynomials)."""
    f = f.centered()
    if f.is_symmetric and not f.is_zero() and f(1) == -1:
        f = -f
    return f


def normalize_alexander(coeffs: Sequence[int], offset: int = 0) -> LaurentPoly:
    """Center and zero-trim a raw coefficient list.  When the result is
    symmetric with f(1) = -1 the sign is flipped so that f(1) = +1; the
    caller checks ``is_alexander_normalized`` for acceptance.

    >>> str(normalize_alexander([1, -1, 1]))
    't - 1 + t^-1'
    >>> normalize_alexander([1, -2]).is_alexander_normalized
    False
    """
    if not coeffs:
        raise ValidationError("empty coefficient list")
    return normalize_poly(LaurentPoly.from_coeffs(coeffs, offset))


def resultant(f: LaurentPoly, g: LaurentPoly) -> int:
    """Resultant of the monic-shifted ordinary-polynomial representatives
    t**a f and t**b g, computed by fraction-free elimination on the
    Sylvester matrix.  Multiplicative in each argument.

    >>> t = LaurentPoly.t_power
    >>> resultant(t(1) - t(0), t(1) + t(0))
    2
    >>> resultant(LaurentPoly.from_coeffs([1, -1, 1]), LaurentPoly.from_coeffs([-1, 0, 1]))
    3
    """
    if f.is_zero() or g.is_zero():
        raise ValidationError("resultant of the zero polynomial")
    p = f.as_int_poly()
    q = g.as_int_poly()
    m, n = _poly.degree(p), _poly.degree(q)
    if m == 0:
        return int(p[0]) ** n
    if n == 0:
        return int(q[0]) ** m
    rows: list[list[int]] = []
    prow = [int(c) for c in reversed(p)]
    qrow = [int(c) for c in reversed(q)]
    for i in range(n):
        rows.append([0] * i + prow + [0] * (n - 1 - i))
    for i in range(m):
        rows.append([0] * i + qrow + [0] * (m - 1 - i))
    return _poly.det_bareiss(rows)


def branched_homology_order(f: LaurentPoly, d: int) -> int:
    """|product of f over all d-th roots of unity|, an exact integer: the
    homology order of the d-fold cyclic branched cover when f is the
    Alexander polynomial.  Zero is possible for non-prime-power d; for
    prime-power d and normalized f the result is positive.

    >>> branched_homology_order(LaurentPoly.from_coeffs([1, -1, 1]), 2)
    3
    >>> branched_homology_order(LaurentPoly.one(), 11)
    1
    """
    if f.is_zero():
        raise ValidationError("zero polynomial has no homology order")
    if d < 1:
        raise ValidationError("covering degree must be a positive integer")
    cyc = LaurentPoly.from_coeffs([-1] + [0] * (d - 1) + [1])  # t^d - 1
    return abs(resultant(f, cyc))


def excluded_primes(D: PolySet, d: int) -> PrimeSetComplement:
    """Union of the prime divisors of the degree-d homology orders of the
    members of D.  Requires d to be a prime power.

    >>> excluded_primes(PolySet.of(LaurentPoly.one()), 2).sorted_excluded()
    []
    """
    if prime_power_base(d) is None:
        raise ValidationError(f"covering degree {d} is not a prime power")
    primes: set[int] = set()
    for i, f in enumerate(D.polys):
        order = branched_homology_order(f, d)
        if order <= 0:
            raise ValidationError(
                f"polys[{i}]: homology order {order} at prime-power degree "
                f"{d}; polynomial is not Alexander-normalized")
        if order > 1:
            primes.update(prime_factors(order))
    return PrimeSetComplement(d=d, excluded=frozenset(primes))


def torus_knot_alexander(a: int, b: int) -> LaurentPoly:
    """Centered Alexander polynomial of the (a, b) torus knot,
    (t**(ab) - 1)(t - 1) / ((t**a - 1)(t**b - 1)) by exact division.

    >>> str(torus_knot_alexander(2, 3))
    't - 1 + t^-1'
    """
    if a < 2 or b < 2:
        raise ValidationError("torus knot parameters must be >= 2")
    if gcd(a, b) != 1:
        raise ValidationError(f"torus knot parameters ({a}, {b}) must be coprime")

    def cyc_minus_one(n: int) -> _poly.Poly:
        return _poly.poly([-1] + [0] * (n - 1) + [1])

    num = _poly.mul(cyc_minus_one(a * b), cyc_minus_one(1))
    quo = _poly.div_exact(_poly.div_exact(num, cyc_minus_one(a)), cyc_minus_one(b))
    f = LaurentPoly.from_int_poly(_poly.poly([int(c) for c in quo])).centered()
    if not f.is_alexander_normalized:
        raise AssertionError("torus knot polynomial failed normalization")
    return f


def torsion_coefficients(f: LaurentPoly) -> tuple[int, ...]:
    """Torsion coefficients (t_0, ..., t_g) of a normalized polynomial,
    t_i = sum_{j >= 1} j * a_{i+j} over the centered coefficients, with
    trailing zeros trimmed.

    >>> torsion_coefficients(LaurentPoly.from_coeffs([1, -1, 1]))
    (1,)
    >>> torsion_coefficients(LaurentPoly.one())
    ()
    """
    if not f.is_alexander_normalized:
        raise ValidationError("torsion coefficients need an Alexander-normalized input")
    c = f.centered()
    g = c.max_exp
    out = []
    for i in range(g + 1):
        out.append(sum((k - i) * c.coeff(k) for k in range(i + 1, g + 1)))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)

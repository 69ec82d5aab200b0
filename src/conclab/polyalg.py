"""Integer Laurent polynomials and branched-cover homology orders.

The central quantity is, for a polynomial f and d >= 1, the absolute value
of the product of f over all d-th roots of unity.  For f the Alexander
polynomial of a knot this is the order of the first homology of the d-fold
cyclic branched cover (Fox), and for a prime power d it is a positive
integer.  It is computed here as an exact resultant against t**d - 1,
never by floating evaluation at roots of unity.  For the 2-fold cover,
whose order the paper's topological obstruction uses, t**2 - 1 is monic
with roots +-1, so the resultant is f(1) f(-1) and the order is
|Delta(1) Delta(-1)|, two integer evaluations.  Every other d reduces
t**d mod f by repeated squaring and then runs a Euclidean remainder
sequence.

From a finite collection D of Alexander polynomials we derive, for a prime
power d, the finite set of primes dividing one of these orders; a prime q
escapes the collection when it lies outside that set.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from . import _poly
from ._primes import prime_factors, prime_power_base
from ._value import Value
from .errors import SizeBoundError, ValidationError

# Largest degree of a polynomial held densely, one int per coefficient; a
# sparse input such as t^(10^11) + 1 past it is refused before allocation.
_DENSE_DEGREE_BOUND = 1 << 22


class LaurentPoly(Value):
    """Integer-coefficient Laurent polynomial, stored as sorted
    (exponent, coefficient) pairs with no zero coefficients.

    >>> f = LaurentPoly.from_dict({1: 1, 0: -1, -1: 1})
    >>> str(f)
    't - 1 + t^-1'
    >>> f(1), f(-1)
    (1, -3)
    """

    __slots__ = _fields = ("pairs",)

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
        c = self.centered().pairs
        return all(e == -f and v == w for (e, v), (f, w) in zip(c, reversed(c)))

    @property
    def is_alexander_normalized(self) -> bool:
        """True when f(1) = +-1 and the centered coefficients are symmetric."""
        return sum(c for _, c in self.pairs) in (1, -1) and self.is_symmetric

    def as_int_poly(self) -> _poly.Poly:
        """Ordinary integer polynomial t**a * f with a = -min_exp;
        SizeBoundError past the dense-degree bound."""
        if not self.pairs:
            return ()
        lo = self.min_exp
        _check_dense_degree(self.max_exp - lo)
        out = [0] * (self.max_exp - lo + 1)
        for e, c in self.pairs:
            out[e - lo] = c
        return _poly.poly(out)

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


def _check_dense_degree(n: int) -> None:
    if n > _DENSE_DEGREE_BOUND:
        raise SizeBoundError(
            f"polynomial of degree {n} exceeds the dense-degree bound {_DENSE_DEGREE_BOUND}")


class PolySet(Value):
    """Nonempty finite collection of Alexander-normalized polynomials,
    stored in the normal form of ``normalize_poly``."""

    __slots__ = _fields = ("polys",)

    def __init__(self, polys: tuple[LaurentPoly, ...]):
        if not polys:
            raise ValidationError("polynomial collection must be nonempty")
        polys = tuple(map(normalize_poly, polys))
        for i, f in enumerate(polys):
            if not f.is_alexander_normalized:
                raise ValidationError(
                    f"polys[{i}]: not Alexander-normalized (need f(1) = +-1 "
                    "and symmetric coefficients)")
        Value.__init__(self, polys)

    @staticmethod
    def of(*polys: LaurentPoly) -> "PolySet":
        return PolySet(tuple(polys))


class PrimeSetComplement(Value):
    """The primes dividing some branched-cover homology order of a
    collection D at covering degree d; a prime escapes D exactly when it
    is not in ``excluded``."""

    __slots__ = _fields = ("d", "excluded")

    def sorted_excluded(self) -> list[int]:
        return sorted(self.excluded)


def normalize_poly(f: LaurentPoly) -> LaurentPoly:
    """Center; when symmetric with f(1) = -1, flip the sign so that
    f(1) = +1 (the unit-ambiguity convention for Alexander polynomials)."""
    f = f.centered()
    if sum(c for _, c in f.pairs) == -1 and f.is_symmetric:
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
    t**a f and t**b g, by the Euclidean remainder sequence (Collins 1967):
    Res(p, q) = (-1)^(deg p deg q) lc(q)^(deg p - deg r) Res(q, r) with
    r = p mod q, down to Res(p, c) = c^(deg p).  In integers r is the
    pseudo-remainder s (p mod q) = c r' with content c and r' primitive,
    and Res(q, s (p mod q)) = s^(deg q) Res(q, p mod q), so each step folds
    (c / s)^(deg q) into one rational scalar and goes on with r'.
    Multiplicative.

    >>> t = LaurentPoly.t_power
    >>> resultant(t(1) - t(0), t(1) + t(0))
    2
    >>> resultant(LaurentPoly.from_coeffs([1, -1, 1]), LaurentPoly.from_coeffs([-1, 0, 1]))
    3
    """
    if f.is_zero() or g.is_zero():
        raise ValidationError("resultant of the zero polynomial")
    return _resultant(f.as_int_poly(), g.as_int_poly())


def _resultant(p: _poly.Poly, q: _poly.Poly, res: Fraction = Fraction(1)) -> int:
    """res Res(p, q) for integer polynomials, q nonzero; an integer."""
    while _poly.degree(q) > 0:
        s, r = _poly.pseudo_remainder(p, q)
        if _poly.is_zero(r):
            return 0
        m, n = _poly.degree(p), _poly.degree(q)
        c = gcd(*r)
        res *= (-1) ** (m * n) * q[-1] ** (m - _poly.degree(r)) * Fraction(c, s) ** n
        p, q = q, tuple(x // c for x in r)
    res *= q[0] ** _poly.degree(p)
    if res.denominator != 1:
        raise AssertionError("resultant fold is not an integer")
    return res.numerator


def branched_homology_order(f: LaurentPoly, d: int) -> int:
    """|product of f over all d-th roots of unity|, an exact integer: the
    homology order of the d-fold cyclic branched cover when f is the
    Alexander polynomial.  Zero is possible for non-prime-power d; for
    prime-power d and normalized f the result is positive.

    At d = 2 it is |f(1) f(-1)| (Fox), as Res(t^2 - 1, q) = q(1) q(-1)
    for the monic t^2 - 1; every other d takes the resultant against
    t^d - 1, with t^d mod q by repeated squaring.

    >>> trefoil = LaurentPoly.from_coeffs([1, -1, 1])
    >>> branched_homology_order(trefoil, 2), abs(trefoil(1) * trefoil(-1))
    (3, 3)
    >>> branched_homology_order(LaurentPoly.one(), 11)
    1
    """
    if f.is_zero():
        raise ValidationError("zero polynomial has no homology order")
    if d < 1:
        raise ValidationError("covering degree must be a positive integer")
    q = f.as_int_poly()
    if d == 2:
        return abs(_poly.eval_at(q, 1) * _poly.eval_at(q, -1))
    n = _poly.degree(q)
    if n == 0:
        return abs(q[0]) ** d
    # resultant's first step, Res(t^d - 1, q) = +-lc(q)^(d - deg r) Res(q, r)
    # with r = (t^d - 1) mod q, from s t^d mod q by repeated squaring (so
    # t^d - 1 is never built), and Res(q, s r) = s^n Res(q, r)
    s, r = _poly.power_mod(d, q)
    r = _poly.sub(r, (s,))
    if _poly.is_zero(r):
        return 0
    return abs(_resultant(q, r, Fraction(q[-1] ** (d - _poly.degree(r)), s ** n)))


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
    """Centered Alexander polynomial of the (a, b) torus knot from its
    semigroup S = <a, b> of conductor 2g = (a - 1)(b - 1): Delta(t) =
    (1 - t) sum_(s in S, s < 2g) t^s + t^(2g), whose t^i coefficient is
    [i in S] - [i - 1 in S]; SizeBoundError when the degree ab + 1 of
    (t^(ab) - 1)(t - 1), the classical numerator, passes the dense bound.
    It is symmetric with Delta(1) = 1 by construction; the tests check it.

    >>> str(torus_knot_alexander(2, 3))
    't - 1 + t^-1'
    """
    if a < 2 or b < 2:
        raise ValidationError("torus knot parameters must be >= 2")
    if gcd(a, b) != 1:
        raise ValidationError(f"torus knot parameters ({a}, {b}) must be coprime")
    _check_dense_degree(a * b + 1)
    top = (a - 1) * (b - 1)
    in_s = bytearray(top + 1)
    for start in range(0, top + 1, b):
        in_s[start::a] = b"\x01" * len(range(start, top + 1, a))
    coeffs = [1] + [x - y for x, y in zip(in_s[1:], in_s)]
    return LaurentPoly.from_coeffs(coeffs, -(top // 2))


def torsion_coefficients(f: LaurentPoly) -> tuple[int, ...]:
    """Torsion coefficients (t_0, ..., t_g) of a normalized polynomial,
    t_i = sum_{j >= 1} j * a_{i+j} over the centered coefficients, with
    trailing zeros trimmed; in one pass, t_i = t_{i+1} + sum_{k > i} a_k.

    >>> torsion_coefficients(LaurentPoly.from_coeffs([1, -1, 1]))
    (1,)
    >>> torsion_coefficients(LaurentPoly.one())
    ()
    """
    if not f.is_alexander_normalized:
        raise ValidationError("torsion coefficients need an Alexander-normalized input")
    a = f.centered().coeffs()
    _check_dense_degree(max(a))
    out = [0] * (max(a) + 1)
    tail = 0
    for i in reversed(range(max(a))):
        tail += a.get(i + 1, 0)
        out[i] = out[i + 1] + tail
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)

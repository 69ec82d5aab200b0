"""Dense exact-coefficient polynomial utilities.

A polynomial is a tuple of coefficients indexed by degree, with no trailing
zeros; the empty tuple is the zero polynomial.  Coefficients are ints or
``fractions.Fraction``; all arithmetic is exact.  On top of the ring
operations this module provides Sturm sequences, real root isolation and
counting, squarefree parts, cyclotomic polynomials, and the
compaction that rewrites a symmetric Laurent polynomial restricted to the
unit circle as a polynomial in x = t + 1/t.  Exact determinants have one
integer path: fraction-free (Bareiss) elimination, with integer Newton
interpolation when a determinant is a polynomial sampled at 0..n.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Poly = tuple  # coefficients by ascending degree, trailing zeros trimmed


def poly(coeffs: Sequence) -> Poly:
    """Build a polynomial from a coefficient sequence (constant term first).

    >>> poly([1, 0, 2, 0])
    (1, 0, 2)
    >>> poly([0, 0])
    ()
    """
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def is_zero(p: Poly) -> bool:
    return len(p) == 0


def degree(p: Poly) -> int:
    """Degree; the zero polynomial has degree -1."""
    return len(p) - 1


def constant(c) -> Poly:
    return poly([c])


X = poly([0, 1])


def add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return poly(out)


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if is_zero(p) or is_zero(q):
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def scale(p: Poly, c) -> Poly:
    if c == 0:
        return ()
    return tuple(a * c for a in p)


def eval_at(p: Poly, x):
    """Horner evaluation; exact for Fraction/int arguments."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def valuation(p: Poly) -> int:
    """Largest k with x**k dividing p; 0 for the zero polynomial."""
    for i, c in enumerate(p):
        if c != 0:
            return i
    return 0


def derivative(p: Poly) -> Poly:
    return poly([i * c for i, c in enumerate(p)][1:])


def divmod_poly(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Euclidean division over the rationals."""
    if is_zero(q):
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = degree(q)
    lq = Fraction(q[-1])
    quo = [0] * max(0, len(p) - len(q) + 1)
    for i in range(len(rem) - 1, dq - 1, -1):
        if rem[i] == 0:
            continue
        f = Fraction(rem[i]) / lq
        quo[i - dq] = f
        for j in range(dq + 1):
            rem[i - dq + j] -= f * q[j]
    return poly(quo), poly(rem)


def div_exact(p: Poly, q: Poly) -> Poly:
    quo, rem = divmod_poly(p, q)
    if not is_zero(rem):
        raise ValueError("inexact polynomial division")
    return quo


def divides(q: Poly, p: Poly) -> bool:
    if is_zero(q):
        return is_zero(p)
    return is_zero(divmod_poly(p, q)[1])


def monic(p: Poly) -> Poly:
    if is_zero(p):
        return ()
    lead = Fraction(p[-1])
    return tuple(Fraction(c) / lead for c in p)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over the rationals."""
    a, b = p, q
    while not is_zero(b):
        a, b = b, divmod_poly(a, b)[1]
    if is_zero(a):
        return ()
    return monic(a)


def to_int_primitive(p: Poly) -> Poly:
    """Primitive integer polynomial with positive leading coefficient,
    equal to p up to a positive rational factor.

    >>> to_int_primitive((Fraction(1, 2), Fraction(3, 4)))
    (2, 3)
    """
    if is_zero(p):
        return ()
    den = lcm(*(Fraction(c).denominator for c in p)) if len(p) > 1 else Fraction(p[0]).denominator
    ints = [int(Fraction(c) * den) for c in p]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g:
        ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def reciprocal(p: Poly) -> Poly:
    """Reverse the coefficient list: x**deg(p) * p(1/x).  Assumes p(0) != 0
    if the reciprocal is to have the same degree."""
    return poly(list(reversed(p)))


def is_palindromic(p: Poly) -> bool:
    return not is_zero(p) and list(p) == list(reversed(p))


# ---------------------------------------------------------------------------
# squarefree parts and Sturm machinery


def squarefree_part(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p."""
    f = monic(p)
    if degree(f) <= 0:
        return f
    g = poly_gcd(f, derivative(f))
    return div_exact(f, g)


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain of p (callers should pass a squarefree polynomial for
    root counting)."""
    chain = [p, derivative(p)]
    while not is_zero(chain[-1]) and degree(chain[-1]) > 0:
        rem = divmod_poly(chain[-2], chain[-1])[1]
        if is_zero(rem):
            break
        chain.append(neg(rem))
    return [c for c in chain if not is_zero(c)]


def _scaled_value(p: Poly, x: Fraction):
    """d^deg(p) p(n/d) for x = n/d, d > 0: the sign of p(x), no division."""
    n, d = x.numerator, x.denominator
    acc, d_power = 0, 1
    for c in reversed(p):
        acc = acc * n + c * d_power
        d_power *= d
    return acc


def _variations_at(chain: list[Poly], x) -> int:
    """Sign changes along the chain at x, zeros skipped."""
    values = [v for v in (_scaled_value(c, x) for c in chain) if v != 0]
    return sum((a < 0) != (b < 0) for a, b in zip(values, values[1:]))


def count_roots_open(p_sf: Poly, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of squarefree p_sf in the open
    interval (a, b).  Requires p_sf(a) != 0 and p_sf(b) != 0."""
    if eval_at(p_sf, a) == 0 or eval_at(p_sf, b) == 0:
        raise ValueError("interval endpoint is a root")
    chain = sturm_chain(p_sf)
    return _variations_at(chain, a) - _variations_at(chain, b)


def _nonroot_point(p: Poly, a: Fraction, b: Fraction) -> tuple[Fraction, object]:
    """A rational x in (a, b) with p(x) != 0, and _scaled_value(p, x)."""
    step = (b - a) / 2
    x = a + step
    while (value := _scaled_value(p, x)) == 0:
        step /= 3
        x = a + step
    return x, value


def isolate_roots(p: Poly, a: Fraction, b: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open rational intervals inside (a, b), each containing
    exactly one distinct real root of p; endpoints are never roots.  One
    Sturm chain of the squarefree part serves every root count.

    >>> ivs = isolate_roots(poly([-2, 0, 1]), Fraction(-3), Fraction(3))
    >>> len(ivs)
    2
    """
    sf = squarefree_part(p)
    if degree(sf) <= 0:
        return []
    if eval_at(sf, a) == 0 or eval_at(sf, b) == 0:
        raise ValueError("interval endpoint is a root")
    chain = sturm_chain(sf)
    out: list[tuple[Fraction, Fraction]] = []

    def rec(lo: Fraction, hi: Fraction, v_lo: int, v_hi: int) -> None:
        # v_lo - v_hi roots of sf lie in (lo, hi)
        if v_lo - v_hi == 1:
            out.append((lo, hi))
        elif v_lo > v_hi:
            mid, _ = _nonroot_point(sf, lo, hi)
            v_mid = _variations_at(chain, mid)
            rec(lo, mid, v_lo, v_mid)
            rec(mid, hi, v_mid, v_hi)

    rec(a, b, _variations_at(chain, a), _variations_at(chain, b))
    out.sort()
    return out


def refine_root_interval(p_sf: Poly, lo: Fraction, hi: Fraction,
                         width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of squarefree p_sf by bisection until
    its width is at most ``width``.  The root inside is simple, so p_sf
    changes sign across it and nowhere else in (lo, hi): it lies left of a
    midpoint exactly when p_sf has opposite signs there and at lo, which
    is the choice a Sturm count would make."""
    lo_negative = _scaled_value(p_sf, lo) < 0
    while hi - lo > width:
        mid, value = _nonroot_point(p_sf, lo, hi)
        if (value < 0) != lo_negative:
            hi = mid
        else:
            lo = mid
    return lo, hi


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the unit-circle compaction

_cyclotomic_cache: dict[int, Poly] = {}


def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def cyclotomic(d: int) -> Poly:
    """The d-th cyclotomic polynomial with integer coefficients.

    >>> cyclotomic(6)
    (1, -1, 1)
    """
    if d in _cyclotomic_cache:
        return _cyclotomic_cache[d]
    num = poly([-1] + [0] * (d - 1) + [1])  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            num = div_exact(num, cyclotomic(e))
    result = tuple(int(c) for c in num)
    _cyclotomic_cache[d] = result
    return result


def chebyshev_basis(k: int) -> Poly:
    """Monic integer polynomial C_k with C_k(t + 1/t) = t^k + t^-k.

    >>> chebyshev_basis(3)
    (0, -3, 0, 1)
    """
    if k == 0:
        return poly([2])
    prev, cur = poly([2]), X
    for _ in range(k - 1):
        prev, cur = cur, sub(mul(X, cur), prev)
    return cur


def compact_symmetric(symmetric_coeffs: dict[int, object]) -> Poly:
    """Given a symmetric Laurent polynomial sum a_k (t^k + t^-k) for k > 0
    plus a_0, return the polynomial g with g(t + 1/t) equal to it.

    >>> compact_symmetric({0: -1, 1: 1})   # t - 1 + 1/t on the circle
    (-1, 1)
    """
    out: Poly = ()
    for k, a in symmetric_coeffs.items():
        if k < 0:
            raise ValueError("symmetric coefficients are indexed by k >= 0")
        term = scale(chebyshev_basis(k), a) if k > 0 else constant(a)
        out = add(out, term)
    return out


def circle_root_compaction(f_int: Poly) -> Poly:
    """For an integer polynomial f with f(0) != 0, return an integer
    polynomial whose real roots in the open interval (-2, 2) are exactly
    the numbers t0 + 1/t0 over the non-real unit-circle roots t0 of f.

    Works by compacting gcd(f, reciprocal(f)) after splitting off roots
    at t = 1 and t = -1.
    """
    if is_zero(f_int):
        raise ValueError("zero polynomial")
    if eval_at(f_int, 0) == 0:
        raise ValueError("f must not vanish at 0")
    g = to_int_primitive(poly_gcd(f_int, reciprocal(f_int)))
    if degree(g) <= 0:
        return poly([1])
    for root in (1, -1):
        lin = poly([-root, 1])
        while eval_at(g, root) == 0:
            g = to_int_primitive(div_exact(g, lin))
    if degree(g) <= 0:
        return poly([1])
    # remaining roots pair up as (t0, 1/t0) with t0 != 1/t0, so the degree
    # is even and the polynomial is palindromic up to sign
    d = degree(g)
    if d % 2 != 0 or not is_palindromic(g):
        raise ValueError("unexpected non-palindromic self-reciprocal factor")
    half = d // 2
    sym = {k: g[half + k] for k in range(half + 1)}
    return to_int_primitive(compact_symmetric(sym))


# ---------------------------------------------------------------------------
# exact integer determinants and interpolation


def det_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix: every
    division is exact, so all intermediate entries stay integers.

    >>> det_bareiss([[2, 1], [1, 3]])
    5
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in rows]
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def interpolate_integer(values: Sequence[int]) -> Poly:
    """The integer polynomial p of degree < len(values) with p(k) = values[k]
    for k = 0, 1, ..., by Newton divided differences.  At the nodes 0..n
    the k-th differences of an integer-coefficient polynomial are
    divisible by k!, so every division is exact; a Horner pass over the
    Newton form c_0 + t (c_1 + (t - 1) (c_2 + ...)) gives the monomial
    coefficients.  The values must come from such a polynomial.

    >>> interpolate_integer([1, 1, 3])   # t^2 - t + 1
    (1, -1, 1)
    """
    c = list(values)
    n = len(c) - 1
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) // k
    out: Poly = ()
    for k in range(n, -1, -1):
        out = add(mul(out, poly([-k, 1])), constant(c[k]))
    return out

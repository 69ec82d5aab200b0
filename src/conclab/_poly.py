"""Dense exact-coefficient polynomial utilities.

A polynomial is a tuple of coefficients indexed by degree, with no trailing
zeros; the empty tuple is the zero polynomial.  Coefficients are ints or
``fractions.Fraction``; all arithmetic is exact.  On top of the ring
operations this module provides Sturm sequences, real root isolation and
counting, Yun squarefree decomposition, cyclotomic polynomials, and the
compaction that rewrites a symmetric Laurent polynomial restricted to the
unit circle as a polynomial in x = t + 1/t.
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
# squarefree decomposition and Sturm machinery


def yun_squarefree(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: returns [(g, m), ...] with p = lc * prod g**m,
    the g monic, squarefree, and pairwise coprime.

    >>> f = mul(mul(X, X), poly([-1, 1]))  # x^2 (x-1)
    >>> sorted((g, m) for g, m in yun_squarefree(f))
    [((Fraction(-1, 1), Fraction(1, 1)), 1), ((Fraction(0, 1), Fraction(1, 1)), 2)]
    """
    f = monic(p)
    if degree(f) <= 0:
        return []
    df = derivative(f)
    a = poly_gcd(f, df)
    b = div_exact(f, a)
    c = div_exact(df, a)
    d = sub(c, derivative(b))
    out = []
    i = 1
    while degree(b) > 0:
        g = poly_gcd(b, d)
        if degree(g) > 0:
            out.append((g, i))
        b = div_exact(b, g)
        c = div_exact(d, g)
        d = sub(c, derivative(b))
        i += 1
    return out


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


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(signs: list[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def _variations_at(chain: list[Poly], x) -> int:
    return _variations([_sign(eval_at(c, x)) for c in chain])


def count_roots_open(p_sf: Poly, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of squarefree p_sf in the open
    interval (a, b).  Requires p_sf(a) != 0 and p_sf(b) != 0."""
    if eval_at(p_sf, a) == 0 or eval_at(p_sf, b) == 0:
        raise ValueError("interval endpoint is a root")
    chain = sturm_chain(p_sf)
    return _variations_at(chain, a) - _variations_at(chain, b)


def _nonroot_point(p: Poly, a: Fraction, b: Fraction) -> Fraction:
    """A rational in (a, b) that is not a root of p."""
    step = (b - a) / 2
    x = a + step
    while eval_at(p, x) == 0:
        step /= 3
        x = a + step
    return x


def isolate_roots(p: Poly, a: Fraction, b: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open rational intervals inside (a, b), each containing
    exactly one distinct real root of p; endpoints are never roots.

    >>> ivs = isolate_roots(poly([-2, 0, 1]), Fraction(-3), Fraction(3))
    >>> len(ivs)
    2
    """
    sf = squarefree_part(p)
    if degree(sf) <= 0:
        return []
    if eval_at(sf, a) == 0 or eval_at(sf, b) == 0:
        raise ValueError("interval endpoint is a root")
    out: list[tuple[Fraction, Fraction]] = []

    def rec(lo: Fraction, hi: Fraction, n: int | None = None) -> None:
        if n is None:
            n = count_roots_open(sf, lo, hi)
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = _nonroot_point(sf, lo, hi)
        left = count_roots_open(sf, lo, mid)
        rec(lo, mid, left)
        rec(mid, hi, n - left)

    rec(a, b)
    out.sort()
    return out


def refine_root_interval(p_sf: Poly, lo: Fraction, hi: Fraction,
                         width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of squarefree p_sf by bisection until
    its width is at most ``width``."""
    while hi - lo > width:
        mid = _nonroot_point(p_sf, lo, hi)
        if count_roots_open(p_sf, lo, mid) == 1:
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
# exact linear algebra helpers


def det_fraction(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            f = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


def det_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
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


def lagrange_interpolate(points: list[tuple[Fraction, Fraction]]) -> Poly:
    """Unique polynomial of degree < len(points) through the given points."""
    out: Poly = ()
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        term = constant(Fraction(yi))
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            term = scale(mul(term, poly([-xj, 1])), Fraction(1, xi - xj))
        out = add(out, term)
    return out

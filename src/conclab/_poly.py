"""Dense integer polynomial utilities.

A polynomial is a tuple of int coefficients indexed by degree, with no
trailing zeros; the empty tuple is the zero polynomial.  Results stay in
Z[x] as primitive positive multiples of their rational counterparts.
Quotients are exact long division by a primitive divisor, integral by
Gauss's lemma; remainders, behind gcds, squarefree parts, Sturm chains,
divisibility tests and modular powers, are one integer pseudo-remainder,
which builds no quotient.  Real roots are isolated and refined by one
integer engine: an interval is a pair of numerators over a power of two,
cut by one split rule, and one shift-Horner sign test serves Sturm
counts and refinement alike, so interval endpoints are dyadic rationals,
in and out.  Refinement jumps down the split rule's tree: the secant
through the endpoint values guesses the root's cell on a grid of
2^j parts, and a cell whose ends have the endpoint signs is the interval
the splits would reach; a missed guess takes one split.  Also here:
cyclotomic polynomials, a truncated Moebius product of factors 1 - x^e
(Phi_d(1) is p for d = p^k, else 1; Phi_d(-1) is Phi_(d/2)(1) for even
d, else 1), and the compaction of a self-reciprocal
polynomial, such as the Alexander pencil, into a polynomial in
x = t + 1/t on the unit circle, read straight off its palindromic
coefficients.  Exact determinants have one integer path: fraction-free
(Bareiss) elimination, which also gives the pencil as one determinant
at t = 2^b (Kronecker substitution).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd
from typing import Sequence

from ._primes import factorint

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


def pseudo_remainder(p: Poly, q: Poly) -> tuple[int, Poly]:
    """Integer pseudo-remainder: (s, rem) with s > 0, deg rem < deg q and
    s p = quo q + rem for an integer polynomial quo, which is not built.

    Each step clears the top of the deg q + 1 coefficients it reduces;
    when lc(q) does not divide that coefficient, the window and s are
    scaled by the least m > 0 that makes it divide.  A coefficient below
    the window is scaled by s only when it enters, and the cleared top is
    dropped, so a step costs deg q + 1 operations and only the window
    grows.  s = 1 when q is monic, and when q is primitive and divides p
    (by Gauss's lemma every partial remainder is integral).

    >>> pseudo_remainder(poly([1, 0, 1]), poly([1, 2]))  # 4 (x^2 + 1) = (2x - 1)(2x + 1) + 5
    (4, (5,))
    """
    if is_zero(q):
        raise ZeroDivisionError("polynomial division by zero")
    dq, lq = degree(q), q[-1]
    rem, s = list(p), 1
    for k in range(len(p) - 1 - dq, -1, -1):
        if s > 1:
            rem[k] *= s
        c = rem.pop()
        if c:
            m = abs(lq) // gcd(c, lq)
            if m > 1:
                for j in range(k, k + dq):
                    rem[j] *= m
                s *= m
            f = c * m // lq
            for j in range(dq):
                rem[k + j] -= f * q[j]
    return s, poly(rem)


def primitive(p: Poly) -> Poly:
    """p divided by its content, the positive gcd of its coefficients.

    >>> primitive((4, -6, 2))
    (2, -3, 1)
    """
    c = gcd(*p)
    return p if c <= 1 else tuple(x // c for x in p)


def normalize(p: Poly) -> Poly:
    """The primitive polynomial with positive leading coefficient that is
    a rational multiple of p.

    >>> normalize((4, -6, -2))
    (-2, 3, 1)
    """
    p = primitive(p)
    return neg(p) if p and p[-1] < 0 else p


def div_exact(p: Poly, q: Poly) -> Poly:
    """The primitive part of p / q, a positive multiple of it, by long
    division by primitive(q).  When q divides p, Gauss's lemma makes the
    quotient by a primitive divisor integral, so every step divides
    exactly; ValueError when one does not or a remainder is left."""
    if is_zero(q):
        raise ZeroDivisionError("polynomial division by zero")
    q = primitive(q)
    dq, lq = degree(q), q[-1]
    rem, quo = list(p), []
    for k in range(len(p) - 1 - dq, -1, -1):
        c, r = divmod(rem.pop(), lq)
        if r:
            raise ValueError("inexact polynomial division")
        quo.append(c)
        for j in range(dq):
            rem[k + j] -= c * q[j]
    if any(rem):
        raise ValueError("inexact polynomial division")
    return primitive(poly(quo[::-1]))


def divides(q: Poly, p: Poly) -> bool:
    return is_zero(p) if is_zero(q) else is_zero(pseudo_remainder(p, q)[1])


def power_mod(e: int, q: Poly) -> tuple[int, Poly]:
    """(s, r) with s > 0, s x^e = r mod q and deg r < deg q, by repeated
    squaring, so x^e itself is never built; s and r share no factor.

    >>> power_mod(5, poly([1, 0, 2]))  # x^2 = -1/2 mod 2x^2 + 1
    (4, (0, 1))
    """
    s, r = 1, (1,)
    for bit in bin(e)[2:]:
        sq = mul(r, r)
        k, r = pseudo_remainder((0,) + sq if bit == "1" and sq else sq, q)
        s *= s * k
        c = gcd(s, *r)
        s, r = s // c, tuple(x // c for x in r)
    return s, r


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor, normalized: primitive remainders down to
    the last nonzero one."""
    while not is_zero(q):
        p, q = q, primitive(pseudo_remainder(p, q)[1])
    return normalize(p)


# ---------------------------------------------------------------------------
# squarefree parts and Sturm machinery


def squarefree_part(p: Poly) -> Poly:
    """Normalized product of the distinct irreducible factors of p."""
    f = normalize(p)
    if degree(f) <= 0:
        return f
    return div_exact(f, poly_gcd(f, derivative(f)))


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain of p.  Each entry is a positive multiple of the
    classical one, divided by its content, so every sign along the chain
    is kept; for p not squarefree each is a multiple of gcd(p, p')."""
    chain = [primitive(p), primitive(derivative(p))]
    while degree(chain[-1]) > 0:
        rem = pseudo_remainder(chain[-2], chain[-1])[1]
        if is_zero(rem):
            break
        chain.append(primitive(neg(rem)))
    return [c for c in chain if not is_zero(c)]


def _value_at(p: Poly, m: int, k: int) -> int:
    """2^(k deg p) p(m / 2^k): the sign of p at the dyadic point m / 2^k,
    by one Horner pass of integer shifts and no division.

    >>> _value_at(poly([-2, 0, 1]), 3, 1)   # 4 ((3/2)^2 - 2)
    1
    """
    value, shift = 0, 0
    for c in reversed(p):
        value = value * m + (c << shift)
        shift += k
    return value


def _dyadic(*xs: Fraction) -> tuple[int, ...]:
    """The numerators of xs over their common denominator 2^k, then k;
    ValueError unless every x is a dyadic rational."""
    for x in xs:
        if x.denominator & (x.denominator - 1):
            raise ValueError(f"{x} is not a dyadic rational")
    den = max(x.denominator for x in xs)
    return tuple(x.numerator * (den // x.denominator) for x in xs) + (den.bit_length() - 1,)


def _split(p: Poly, a: int, b: int, k: int) -> tuple[int, int, int]:
    """(m, j, _value_at(p, m, k + j)) for the point m / 2^(k+j) that
    splits (a / 2^k, b / 2^k): the midpoint, or else lo + (hi - lo) / 2^j
    for the least j that is not a root of p.

    >>> _split(poly([0, 1]), -1, 1, 0)   # 0 is a root: split at -1/2
    (-2, 2, -2)
    """
    j = 1
    while True:
        m = (a << j) + b - a
        value = _value_at(p, m, k + j)
        if value:
            return m, j, value
        j += 1


def _variations_at(chain: list[Poly], m: int, k: int) -> int:
    """Sign changes along the chain at m / 2^k, zeros skipped."""
    values = [v for v in (_value_at(c, m, k) for c in chain) if v]
    return sum((a < 0) != (b < 0) for a, b in zip(values, values[1:]))


def isolate_roots(p: Poly, a: Fraction, b: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open intervals inside (a, b), ascending, each containing
    exactly one distinct real root of p; endpoints are never roots.  a
    and b must be dyadic (ValueError otherwise), and so is every endpoint
    returned.  One Sturm chain of p, squarefree or not, serves every
    count: between non-roots it counts the distinct roots.

    >>> isolate_roots(poly([-2, 0, 1]), Fraction(-3), Fraction(3))
    [(Fraction(-3, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(3, 1))]
    """
    lo, hi, k = _dyadic(a, b)
    if degree(p) <= 0:
        return []
    if _value_at(p, lo, k) == 0 or _value_at(p, hi, k) == 0:
        raise ValueError("interval endpoint is a root")
    chain = sturm_chain(p)
    out: list[tuple[Fraction, Fraction]] = []

    def rec(lo: int, hi: int, k: int, v_lo: int, v_hi: int) -> None:
        # v_lo - v_hi distinct roots of p lie in (lo / 2^k, hi / 2^k)
        if v_lo - v_hi == 1:
            out.append((Fraction(lo, 1 << k), Fraction(hi, 1 << k)))
        elif v_lo > v_hi:
            m, j, _ = _split(p, lo, hi, k)
            v_mid = _variations_at(chain, m, k + j)
            rec(lo << j, m, k + j, v_lo, v_mid)
            rec(m, hi << j, k + j, v_mid, v_hi)

    rec(lo, hi, k, _variations_at(chain, lo, k), _variations_at(chain, hi, k))
    return out


def refine_root_interval(p_sf: Poly, lo: Fraction, hi: Fraction,
                         width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of squarefree p_sf to the interval
    that splitting it by ``_split`` until its width is at most ``width``
    reaches; lo, hi and width must be dyadic and width positive
    (ValueError otherwise).  The root inside is simple, so it lies left
    of a split point exactly when p_sf has opposite signs there and at
    lo, which is the choice a Sturm count would make.

    The splits are mostly skipped, by quadratic interval refinement: the
    secant through the endpoint values guesses the root's cell on a grid
    of 2^j equal parts of the current interval, j at most the levels of
    splits still to go.  When p_sf has the endpoint signs, nonzero, at
    the cell's ends, the root is strictly inside it, so no midpoint on the
    way down is a root and the cell is the interval the splits would
    reach; j then doubles.  Otherwise j halves and one ``_split`` step is
    taken, which leaves the splits' own interval even when the midpoint
    is the root.  A jump costs at most two sign tests, and near a simple
    root the guess is right, so width 2^-128 takes about 20 of them, not
    128.

    >>> refine_root_interval(poly([-2, 0, 1]), Fraction(1), Fraction(2), Fraction(1, 8))
    (Fraction(11, 8), Fraction(3, 2))
    """
    a, b, k = _dyadic(lo, hi)
    w, kw = _dyadic(width)
    if w <= 0:
        raise ValueError(f"refinement width {width} is not positive")
    fa, fb = _value_at(p_sf, a, k), _value_at(p_sf, b, k)
    lo_negative, d = fa < 0, degree(p_sf)
    # the secant guesses a cell only between values of opposite signs
    secant, j = fa * fb < 0, 2
    while (b - a) << kw > w << k:   # (b - a) / 2^k > w / 2^kw
        if secant:
            step = b - a
            q = -(-(step << kw) // (w << k))      # ceil((b - a) 2^kw / (w 2^k))
            j = min(j, (q - 1).bit_length())      # the least L with 2^L >= q
            i = (fa << j) // (fa - fb)   # the secant's cell, 0 <= i < 2^j
            left = (a << j) + i * step
            v_left = fa << j * d if i == 0 else _value_at(p_sf, left, k + j)
            v_right = fb << j * d if i + 1 == 1 << j else \
                _value_at(p_sf, left + step, k + j)
            if (v_left < 0) == lo_negative != (v_right < 0) and v_left and v_right:
                a, b, k, fa, fb = left, left + step, k + j, v_left, v_right
                j *= 2
                continue
            j = max(j // 2, 1)
        m, s, value = _split(p_sf, a, b, k)
        a, b, k = a << s, b << s, k + s
        if (value < 0) != lo_negative:
            b, fa, fb = m, fa << s * d, value
        else:
            a, fa, fb = m, value, fb << s * d
    return Fraction(a, 1 << k), Fraction(b, 1 << k)


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the unit-circle compaction

@functools.cache
def cyclotomic(d: int) -> Poly:
    """The d-th cyclotomic polynomial with integer coefficients: for d > 1
    and r = rad d, Phi_d(x) = Phi_r(x^(d/r)) and Phi_r = prod_(e | r)
    (1 - x^e)^mu(r/e), a power series of degree n = phi(r), built modulo
    x^(n+1) by one pass of c_i -= c_(i-e) (or += for mu = -1) per factor.

    >>> cyclotomic(6)
    (1, -1, 1)
    """
    if d == 1:
        return (-1, 1)
    terms, n = [(1, 1)], 1              # (e, mu(e)) over the divisors e of r
    for p in factorint(d):
        terms += [(e * p, -mu) for e, mu in terms]
        n *= p - 1
    r = terms[-1][0]
    c = [1] + [0] * n
    for e, mu in terms:                 # mu(r/e) = mu(r) mu(e)
        if mu == terms[-1][1]:
            for i in range(n, e - 1, -1):
                c[i] -= c[i - e]
        else:
            for i in range(e, n + 1):
                c[i] += c[i - e]
    out = [0] * (n * (d // r) + 1)
    out[::d // r] = c
    return tuple(out)


def compact_palindromic(g: Poly) -> Poly:
    """The compaction of a palindromic g of even degree 2h: the polynomial
    c with c(t + 1/t) = t^-h g(t) = g_h + sum_(k>0) g_(h+k) (t^k + t^-k),
    each t^k + t^-k being C_k(t + 1/t) for the basis C_0 = 2, C_1 = x,
    C_(k+1) = x C_k - C_(k-1).

    >>> compact_palindromic(cyclotomic(5))  # x^2 + x - 1, the minimal polynomial of 2 cos(2 pi / 5)
    (-1, 1, 1)
    """
    half = degree(g) // 2
    out = [g[half]] + [0] * half
    prev, cur = [2], [0, 1]
    for a in g[half + 1:]:
        for i, c in enumerate(cur):
            out[i] += a * c
        prev, cur = cur, [x - y for x, y in zip([0] + cur, prev + [0, 0])]
    return poly(out)


def circle_root_compaction(f: Poly) -> Poly:
    """For a self-reciprocal integer polynomial f, f(t) = +-t^n f(1/t)
    with n = deg f, as the Alexander pencil is, return an integer
    polynomial whose real roots in the open interval (-2, 2) are exactly
    the numbers t0 + 1/t0 over the non-real unit-circle roots t0 of f:
    the compaction of f after splitting off roots at t = 1 and t = -1.
    ValueError when f is not self-reciprocal.
    """
    if is_zero(f):
        raise ValueError("zero polynomial")
    g = normalize(f)
    for root in (1, -1):
        lin = poly([-root, 1])
        while eval_at(g, root) == 0:
            g = div_exact(g, lin)
    if degree(g) <= 0:
        return poly([1])
    # for self-reciprocal f the remaining roots pair up as (t0, 1/t0) with
    # t0 != +-1, so g has even degree and, with no root at 1, is palindromic
    # rather than antipalindromic; g is primitive with positive leading
    # coefficient, and so is its compaction
    if degree(g) % 2 != 0 or g != g[::-1]:
        raise ValueError("f is not self-reciprocal: f(t) != +-t^n f(1/t)")
    return compact_palindromic(g)


# ---------------------------------------------------------------------------
# exact integer determinants


def det_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix: every
    division is exact, so all intermediate entries stay integers.

    A step with pivot p and previous pivot prev sends each row below to
    (p row - f top) / prev, with f its pivot-column entry.  A row with
    f = 0 is only scaled by p / prev, and these factors telescope, so it
    is left as it is and tagged with the pivot it was last updated under:
    its true entries are x prev / tag.  Its f stays zero exactly when the
    true one does, and when it is next nonzero the update
    (p (x prev / tag) - (f prev / tag) top) / prev is (p x - f top) / tag,
    one exact division by the tag.  The pivot row is caught up with
    x prev // tag before it is used, and a swap moves a row with its tag.
    In a banded matrix most rows are zero-multiplier rows at most steps.

    >>> det_bareiss([[2, 1], [1, 3]])
    5
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in rows]
    tags = [1] * n
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            tags[col], tags[pivot] = tags[pivot], tags[col]
            sign = -sign
        if tags[col] != prev:
            t = tags[col]
            m[col][col:] = [x * prev // t for x in m[col][col:]]
        top = m[col][col + 1:]
        p = m[col][col]
        for r in range(col + 1, n):
            row = m[r]
            f = row[col]
            if f:
                t = tags[r]
                row[col + 1:] = [(x * p - f * y) // t for x, y in zip(row[col + 1:], top)]
                tags[r] = p
        prev = p
    return sign * m[n - 1][n - 1] * prev // tags[n - 1]


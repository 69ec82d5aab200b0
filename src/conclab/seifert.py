"""Seifert matrix invariants: signature functions and their jumps.

For a square rational matrix A the signature function assigns to
t in (0, 1) the signature of the Hermitian form

    M(t) = (1 - w) A + (1 - conj(w)) A^T,   w = exp(2 pi i t).

Writing S = A + A^T and K = A - A^T, this is
M = 2 sin(pi t) (sin(pi t) S - i cos(pi t) K), so its signature is that
of S - i r K with r = cot(pi t).  At a rational r = u/v this is the
n x n Hermitian form v S - i u K over the Gaussian integers, and its
inertia is one fraction-free Hermitian elimination over Z[i] -- no
floating point, and no real form of twice the size.

The function is constant between consecutive roots of the Alexander
polynomial on the unit circle.  Substituting x = 2 cos(2 pi t) turns that
root locus into the real roots in (-2, 2) of an integer polynomial; roots
coming from cyclotomic factors sit at exact rational parameters k/d, in
their exact order (x ascends as t descends); a monic factor psi_d is tried
only when Phi_d(1) = psi_d(2) (p for d = p^k, else 1) and Phi_d(-1) =
|psi_d(-2)| (Phi_(d/2)(1) for even d, else 1) divide the values at +-2.
The rest are certified isolating intervals interleaved with them by
enclosures.  Jumps of the
signature are differences of the signatures on neighbouring gaps.  Next
to t = 0 that is 0 when det K != 0, and around t = 1/2 it is that of S
alone when f(-1) != 0.  As det M(t) is a nonvanishing multiple of
f(exp(2 pi i t)), Rellich's analytic eigenvalues bound a jump by twice
its root's multiplicity (Gilmer-Livingston, Proc. AMS 144, 2016): two
known gaps that differ by twice the sum of the bounds between them fix
every gap in between, and otherwise the middle gap is eliminated at a
short rational cotangent strictly inside it.  The roots' order is the
order of the positions in (0, 1/2); those in (1/2, 1) are mirrors 1 - t.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence, Union

from . import _poly
from ._primes import prime_power_base, totients
from ._intervals import (DEFAULT_PRECISION_BITS, RatInterval, invert_two_cos,
                         precisions, two_cos_two_pi)
from ._value import Value
from .errors import DegenerateFormError, JumpEvaluationError, ValidationError
from .polyalg import LaurentPoly

Position = Union[Fraction, RatInterval]

# first rung of the ladders that separate enclosures on the x-line: most
# circle roots and sample points part at 16 bits, where a cyclotomic
# enclosure takes about 20 pullback steps
_SEPARATION_START_BITS = 16


# ---------------------------------------------------------------------------
# Seifert matrices


class SeifertMatrix(Value):
    """Square matrix of exact rationals presenting a (generalized) Seifert
    form.  Genuine knot matrices have integer entries and unimodular
    antisymmetrization.

    An integral entry is stored as an ``int`` and ``Fraction`` is kept
    only for the others, so an integer matrix is its own cleared matrix.
    Entries compare and hash by value, so a matrix given ``Fraction``
    entries of denominator 1 equals, and hashes like, the one given
    ``int`` entries.

    >>> TREFOIL.size, TREFOIL.is_genuine
    (2, True)
    >>> SeifertMatrix.from_rows([[1, "1/2"], ["4/2", 0]]).entries
    ((1, Fraction(1, 2)), (2, 0))
    """

    # no __slots__: ``cleared`` and ``symmetric_parts`` are cached in the
    # instance __dict__
    _fields = ("entries", "label")

    def __init__(self, entries: tuple[tuple[int | Fraction, ...], ...],
                 label: str | None = None):
        if not all(type(x) is int for row in entries for x in row):
            entries = tuple(tuple(map(_exact_entry, row)) for row in entries)
        Value.__init__(self, entries, label)

    @staticmethod
    def from_rows(rows: Sequence[Sequence], label: str | None = None) -> "SeifertMatrix":
        n = len(rows)
        out = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValidationError(f"matrix[{i}]: expected {n} entries, got {len(row)}")
            out.append(tuple(row))
        return SeifertMatrix(tuple(out), label)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def is_integer(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)

    @property
    def is_genuine(self) -> bool:
        """Integer entries and det(A - A^T) = +-1."""
        return self.is_integer and abs(_poly.det_bareiss(self.symmetric_parts[1])) == 1

    @functools.cached_property
    def cleared(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, den A as integer rows), den the least common denominator
        of the entries; computed once per matrix, and the entries
        themselves when den = 1."""
        den = lcm(*(x.denominator for row in self.entries for x in row))
        if den == 1:
            return 1, self.entries
        return den, tuple(tuple(int(x * den) for x in row) for row in self.entries)

    @functools.cached_property
    def symmetric_parts(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """(S, K) = (E + E^T, E - E^T) for the cleared matrix E, as integer
        rows; computed once per matrix."""
        e = self.cleared[1]
        pairs = list(zip(e, zip(*e)))     # (row i, column i) of E
        return (tuple(tuple(map(operator.add, row, col)) for row, col in pairs),
                tuple(tuple(map(operator.sub, row, col)) for row, col in pairs))

    def transpose(self) -> "SeifertMatrix":
        n = self.size
        return SeifertMatrix(
            tuple(tuple(self.entries[j][i] for j in range(n)) for i in range(n)),
            self.label)

    def __neg__(self) -> "SeifertMatrix":
        return SeifertMatrix(
            tuple(tuple(-x for x in row) for row in self.entries), self.label)


def _exact_entry(x) -> int | Fraction:
    """x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


UNKNOT = SeifertMatrix((), "unknot")
TREFOIL = SeifertMatrix.from_rows([[-1, 1], [0, -1]], "trefoil")
FIGURE_EIGHT = SeifertMatrix.from_rows([[-1, 1], [0, 1]], "figure-eight")


def connected_sum(a: SeifertMatrix, b: SeifertMatrix) -> SeifertMatrix:
    """Block-diagonal sum; realizes connected sum of knots."""
    zero_a, zero_b = (0,) * a.size, (0,) * b.size
    return SeifertMatrix(tuple(row + zero_b for row in a.entries)
                         + tuple(zero_a + row for row in b.entries))


def reverse(a: SeifertMatrix) -> SeifertMatrix:
    """Matrix of the reversed knot: the transpose."""
    return a.transpose()


def mirror(a: SeifertMatrix) -> SeifertMatrix:
    """Matrix of the mirror image: the negative."""
    return -a


def pencil_polynomial(a: SeifertMatrix) -> _poly.Poly:
    """The integer polynomial f(t) = det(t E - E^T) for the cleared matrix
    E = den A, that is den^n det(t A - A^T), from one determinant.

    On |t| = 1 row i of t E - E^T has Euclidean norm at most
    |E_i| + |(E^T)_i|, its row and column in E; with each norm rounded up
    to an integer, their product h bounds |f| on the circle (Hadamard's
    inequality) and so every coefficient of f (Cauchy's estimate).  With
    2^b > 2h the coefficients are the balanced base-2^b digits, each in
    [-2^(b-1), 2^(b-1)), of the one fraction-free determinant
    f(2^b) = det(2^b E - E^T) (Kronecker substitution).

    >>> pencil_polynomial(TREFOIL)
    (1, -1, 1)
    """
    _, e = a.cleared
    pairs = list(zip(e, zip(*e)))         # (row i, column i) of E
    h = 1
    for pair in pairs:
        squares = (sum(x * x for x in v) for v in pair)
        h *= sum(isqrt(s - 1) + 1 for s in squares if s)      # norms rounded up
    b = h.bit_length() + 1                # 2^b > 2h
    v = _poly.det_bareiss([[(x << b) - y for x, y in zip(row, col)] for row, col in pairs])
    half, mask = 1 << (b - 1), (1 << b) - 1
    digits = []
    for _ in range(a.size + 1):
        digits.append(((v + half) & mask) - half)
        v = (v + half) >> b
    return _poly.poly(digits)


def alexander_from_seifert(a: SeifertMatrix) -> LaurentPoly:
    """Alexander polynomial det(t^(1/2) A - t^(-1/2) A^T).

    For integer matrices the result is exact, so a genuine matrix gives
    f(1) = det(A - A^T) = +-1.  Rational matrices are cleared to a
    primitive integer polynomial (proportional up to a positive rational).

    >>> str(alexander_from_seifert(TREFOIL))
    't - 1 + t^-1'
    >>> str(alexander_from_seifert(UNKNOT))
    '1'
    """
    f = pencil_polynomial(a)
    if _poly.is_zero(f):
        return LaurentPoly.from_dict({})
    if not a.is_integer:
        f = _poly.normalize(f)
    n = a.size
    lp = LaurentPoly.from_coeffs(f)
    if n % 2 == 0:
        return lp.shifted(-(n // 2))
    return lp.shifted(-(n // 2)).centered()


# ---------------------------------------------------------------------------
# exact signatures at a rational cotangent


def _inertia(re: list[list[int]], im: list[list[int]]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts, with multiplicity, of
    the Hermitian matrix re + i im over the Gaussian integers (re
    symmetric, im antisymmetric), by fraction-free elimination (Bareiss
    over Z[i], with the zero-pivot step of Bunch and Kaufman).

    Each pivot p is a leading principal minor of a matrix congruent to the
    input, hence real, and the previous pivot prev is the one before it,
    so p / prev is a diagonal entry of an L D L^* factorization and, by
    Sylvester's law of inertia, sign(p) * sign(prev) is one eigenvalue
    sign.  Every division is by the real prev and exact in Z[i].  When
    the whole remaining diagonal is zero, the congruence
    row_i += c row_j, col_i += conj(c) col_j turns h_ii into
    2 Re(conj(c) h_ij), nonzero for c = 1 when Re h_ij != 0 and for c = i
    otherwise; it only touches the remainder, which is multilinear in the
    rows and columns of the original matrix, so the exact divisions stay
    valid.  An all-zero remainder is a zero Schur complement: its size is
    the zero count.  Only the upper triangle of the remainder is updated;
    the lower one is filled in before a swap or a zero-pivot step.

    A row i whose pivot-row entry h_ki is zero is only scaled by
    p / prev.  These factors telescope, so the row is left as it is and
    tagged with the pivot it was last updated under: its true entries are
    x prev / tag, and it is caught up with that one exact division when it
    next becomes the pivot row or gets a nonzero multiplier.  Every row is
    caught up before the lower triangle is filled in, since that mixes
    rows.  In a banded matrix most rows are deferred at most steps.

    >>> _inertia([[0, 1], [1, 0]], [[0, 0], [0, 0]])
    (1, 1, 0)
    >>> _inertia([[0, 0], [0, 0]], [[0, 1], [-1, 0]])
    (1, 1, 0)
    """
    n = len(re)
    R = [list(row) for row in re]
    I = [list(row) for row in im]
    tags = [1] * n
    pos = neg = 0
    prev = 1

    def catch_up(i: int) -> None:
        t = tags[i]
        if t != prev:
            R[i][i:] = [x * prev // t for x in R[i][i:]]
            I[i][i:] = [y * prev // t for y in I[i][i:]]
            tags[i] = prev

    for k in range(n):
        if not R[k][k]:
            for i in range(k, n):
                catch_up(i)
                for j in range(i + 1, n):
                    R[j][i], I[j][i] = R[i][j], -I[i][j]
            piv = next((i for i in range(k + 1, n) if R[i][i]), None)
            if piv is None:
                pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                             if R[i][j] or I[i][j]), None)
                if pair is None:
                    return pos, neg, n - k
                piv, other = pair
                cr, ci = (1, 0) if R[piv][other] else (0, 1)    # c = cr + i ci
                rp, ip, ro, io = R[piv], I[piv], R[other], I[other]
                for j in range(k, n):
                    rp[j], ip[j] = rp[j] + cr * ro[j] - ci * io[j], ip[j] + cr * io[j] + ci * ro[j]
                for rr, ri in zip(R[k:], I[k:]):
                    rr[piv], ri[piv] = (rr[piv] + cr * rr[other] + ci * ri[other],
                                        ri[piv] + cr * ri[other] - ci * rr[other])
            if piv != k:
                R[k], R[piv] = R[piv], R[k]
                I[k], I[piv] = I[piv], I[k]
                for M in (R, I):
                    for row in M[k:]:
                        row[k], row[piv] = row[piv], row[k]
        catch_up(k)
        p = R[k][k]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        rk, ik = R[k], I[k]
        for i in range(k + 1, n):
            # h_ij <- (p h_ij - h_ik h_kj) / prev for j >= i, h_ik = conj(a + i b)
            a, b = rk[i], ik[i]
            if a or b:
                catch_up(i)
                ri, ii = R[i], I[i]
                ri[i:] = [(p * x - a * c - b * d) // prev
                          for x, c, d in zip(ri[i:], rk[i:], ik[i:])]
                ii[i:] = [(p * y - a * d + b * c) // prev
                          for y, c, d in zip(ii[i:], rk[i:], ik[i:])]
                tags[i] = p
        prev = p
    return pos, neg, 0


def _signature_at_c(a: SeifertMatrix, r: Fraction) -> int:
    """Signature of the form at the parameter t with cot(pi t) = r.

    M(t) = 2 sin(pi t) (sin(pi t) S - i cos(pi t) K) and sin(pi t) > 0,
    so M(t) has the signature of the Hermitian S - i r K.  With r = u/v
    that is the signature of the n x n form v S - i u K over the Gaussian
    integers, which _inertia reads off directly.
    """
    r = Fraction(r)
    u, v = r.numerator, r.denominator
    s, k = a.symmetric_parts
    pos, neg, zero = _inertia([[v * x for x in row] for row in s],
                              [[-u * x for x in row] for row in k])
    if zero:
        raise JumpEvaluationError("the form is singular at this parameter")
    return pos - neg


# ---------------------------------------------------------------------------
# circle root structure


class _CycRoot(Value):
    """Root x = 2 cos(2 pi k/d) of a cyclotomic factor; exact parameter."""

    __slots__ = _fields = ("d", "k")

    @property
    def t(self) -> Fraction:
        return Fraction(self.k, self.d)

    def enclosure(self, prec: int) -> RatInterval:
        return two_cos_two_pi(self.t, prec)


class _RemRoot(Value):
    """Isolated real root of the cyclotomic-free remainder factor.

    Enclosures are kept per precision, outside equality and repr.  A new
    one continues the refinement from the tightest kept one of lower
    precision; refinement is deterministic, so it equals the enclosure
    refined from (lo, hi)."""

    _fields = ("poly_sf", "lo", "hi")
    __slots__ = _fields + ("_enclosures",)

    def __init__(self, poly_sf: _poly.Poly, lo: Fraction, hi: Fraction):
        Value.__init__(self, poly_sf, lo, hi)
        object.__setattr__(self, "_enclosures", {})

    def enclosure(self, prec: int) -> RatInterval:
        if prec not in self._enclosures:
            below = [p for p in self._enclosures if p < prec]
            start = self._enclosures[max(below)] if below else self
            lo, hi = _poly.refine_root_interval(self.poly_sf, start.lo, start.hi,
                                                Fraction(1, 2) ** prec)
            self._enclosures[prec] = RatInterval(lo, hi)
        return self._enclosures[prec]


class _CircleData(Value):
    """The signature data of one form class, shared by a matrix, its
    transpose and any relabelling (see ``_circle_data``): the circle roots
    of the pencil polynomial of ``matrix``, the class representative,
    ascending in x (``_CycRoot`` or ``_RemRoot``), a bound on each root's
    multiplicity, whether f(-1) = 0 (t = 1/2 is a root) and whether
    f(1) = det(E - E^T) = 0.  Outside equality and repr it keeps the gap
    signatures computed so far and the walls of the gaps: those of the
    separation that interleaved remainder roots, or else of one made when
    a gap first needs a cotangent other than 0.  It holds lists, so it is
    not hashable."""

    _fields = ("matrix", "root_at_minus_one", "root_at_one", "roots", "bounds")
    __slots__ = _fields + ("_walls", "_gap_sigs")
    __hash__ = None

    def __init__(self, matrix: SeifertMatrix, root_at_minus_one: bool,
                 root_at_one: bool, roots: list, bounds: list[int],
                 walls: list[RatInterval] | None = None):
        Value.__init__(self, matrix, root_at_minus_one, root_at_one, roots, bounds)
        object.__setattr__(self, "_walls", walls)
        object.__setattr__(self, "_gap_sigs", {})

    def cotangent(self, gap: int) -> Fraction:
        """A short rational cot(pi t) for a t in the gap; 0 if t = 1/2 is."""
        if gap == 0 and not self.root_at_minus_one:
            return Fraction(0)
        if self._walls is None:
            object.__setattr__(self, "_walls", _separate(self.roots)[1])
        return _gap_cotangent(self._walls[gap].hi, self._walls[gap + 1].lo)

    def gap_signature(self, gap: int) -> int:
        if gap not in self._gap_sigs:
            # next to t = 0, v S - i u K tends to -i u K, whose spectrum is
            # symmetric: sigma is 0 on that gap when K is nonsingular
            self._gap_sigs[gap] = 0 if gap == len(self.roots) and not self.root_at_one \
                else _signature_at_c(self.matrix, self.cotangent(gap))
        return self._gap_sigs[gap]

    def gap_signatures(self) -> list[int]:
        """Every gap's signature, by bisection between known gaps lo < hi:
        when sigma changes by twice the sum of the bounds between, each of
        those jumps is twice its bound, all of one sign."""
        def fill(lo: int, hi: int) -> None:
            sig = self.gap_signature(lo)
            change = self.gap_signature(hi) - sig
            step = 2 if change > 0 else -2
            if change == step * sum(self.bounds[lo:hi]):
                for gap in range(lo + 1, hi):
                    sig += step * self.bounds[gap - 1]
                    self._gap_sigs[gap] = sig
            elif hi - lo > 1:
                fill(lo, (lo + hi) // 2)
                fill((lo + hi) // 2, hi)

        fill(0, len(self.roots))
        return [self._gap_sigs[gap] for gap in range(len(self.roots) + 1)]


@functools.lru_cache(maxsize=None)
def _psi(d: int) -> _poly.Poly:
    """Minimal polynomial of 2 cos(2 pi / d) for d >= 3: the compaction of
    the d-th cyclotomic polynomial, which is palindromic of even degree
    phi(d) with no root at +-1, so it needs no splitting."""
    return _poly.compact_palindromic(_poly.cyclotomic(d))


@functools.lru_cache(maxsize=None)
def _psi_ends(d: int) -> tuple[int, int]:
    """(psi_d(2), |psi_d(-2)|) = (Phi_d(1), Phi_d(-1)), d >= 3, in closed form."""
    return prime_power_base(d) or 1, (prime_power_base(d // 2) or 1) if d % 2 == 0 else 1


def _cyclotomic_split(g: _poly.Poly) -> tuple[dict[int, int], _poly.Poly]:
    """({d: exponent of psi_d}, cyclotomic-free remainder r) of the compaction g by trial
    division: d is tried while phi(d)/2 <= deg r (phi(d) >= sqrt d for d > 6 bounds d) and
    psi_d(+-2) | r(+-2), both nonzero; no prime power d is tried when Delta(1) = +-1."""
    cyc: dict[int, int] = {}
    rem, deg, ends = g, _poly.degree(g), (_poly.eval_at(g, 2), _poly.eval_at(g, -2))
    phi = totients(max((2 * deg) ** 2, 6))
    for d in range(3, len(phi)):
        if d > max((2 * deg) ** 2, 6):
            break
        if phi[d] // 2 > deg:
            continue
        one, minus_one = _psi_ends(d)
        while not (ends[0] % one or ends[1] % minus_one) and _poly.divides(_psi(d), rem):
            cyc[d] = cyc.get(d, 0) + 1
            rem = _poly.div_exact(rem, _psi(d))
            deg, ends = _poly.degree(rem), (_poly.eval_at(rem, 2), _poly.eval_at(rem, -2))
    return cyc, rem


# far above the working set of any perfbench workload (14 matrices per job list)
_CIRCLE_CACHE_SIZE = 256


def _separate(roots: list) -> tuple[list[int], list[RatInterval]]:
    """Order circle roots on the x-line, their enclosures refined up the
    precision ladder until they lie strictly apart and strictly inside
    (-2, 2): their indices in ascending order, and the walls -2, their
    enclosures in that order, 2."""
    for prec in precisions(_SEPARATION_START_BITS, "failed to separate circle roots"):
        encl = [r.enclosure(prec) for r in roots]
        order = sorted(range(len(encl)), key=lambda i: encl[i].lo)
        walls = [RatInterval.point(Fraction(-2))] + [encl[i] for i in order] \
            + [RatInterval.point(Fraction(2))]
        if all(walls[i].strictly_below(walls[i + 1]) for i in range(len(walls) - 1)):
            return order, walls


@functools.lru_cache(maxsize=_CIRCLE_CACHE_SIZE)
def _circle_data(a: SeifertMatrix) -> _CircleData:
    """The signature data of a's form class, cached per class.  The label
    does not change the form, and the transpose (the reversed knot) has
    the same pencil and the complex-conjugate Hermitian form, so the same
    signatures: every matrix maps to the class representative, entries
    min(A, A^T) without a label, and shares its entry."""
    transposed = tuple(zip(*a.entries))
    if a.label is not None or transposed < a.entries:
        return _circle_data(SeifertMatrix(min(a.entries, transposed)))
    f = pencil_polynomial(a)
    if _poly.is_zero(f):
        raise DegenerateFormError(
            "det(t A - A^T) vanishes identically; signature data undefined")
    f = f[_poly.valuation(f):]
    g = _poly.circle_root_compaction(f)

    # cyclotomic factors, tried at orders d with Phi_d(+-1) | rem(+-2)
    cyc, rem = _cyclotomic_split(g)

    # parameters k/d < 1/2 by descending t, each as often as its factor;
    # a remainder root has multiplicity at most 1 + deg rem - deg rem_sf
    roots: list = sorted((_CycRoot(d, k) for d in cyc for k in range(1, (d + 1) // 2)
                          if gcd(k, d) == 1), key=operator.attrgetter("t"), reverse=True)
    rem_sf = _poly.squarefree_part(rem)
    rem_roots = [_RemRoot(rem_sf, lo, hi)
                 for lo, hi in _poly.isolate_roots(rem_sf, Fraction(-2), Fraction(2))]
    walls = None
    if rem_roots:
        roots += rem_roots
        order, walls = _separate(roots)
        roots = [roots[i] for i in order]
    rem_bound = 1 + _poly.degree(rem) - _poly.degree(rem_sf)
    bounds = [cyc[r.d] if isinstance(r, _CycRoot) else rem_bound for r in roots]

    return _CircleData(a, _poly.eval_at(f, -1) == 0, _poly.eval_at(f, 1) == 0,
                       roots, bounds, walls)


def _gap_cotangent(lo: Fraction, hi: Fraction) -> Fraction:
    """A rational r = cot(pi t) > 0 whose x = 2 cos(2 pi t) = 2 (r^2 - 1) /
    (r^2 + 1) lies strictly in the gap (lo, hi) of (-2, 2): the square root
    of (2 + x) / (2 - x) at the gap midpoint, truncated to the fewest
    binary digits that land inside.  Short cotangents keep the integer
    form small.  All on integers: with lo = a / den and hi = b / den,
    (2 + x) / (2 - x) = (4 den + a + b) / (4 den - a - b), and for
    r = s / 2^k the test is den (s^2 + 4^k) times the inequalities."""
    den = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    num, dnm = 4 * den + a + b, 4 * den - a - b
    k = 0
    while True:
        w = 4 ** k
        s = isqrt(num * w // dnm)
        s2 = s * s
        if a * (s2 + w) < 2 * den * (s2 - w) < b * (s2 + w):
            return Fraction(s, 2 ** k)
        k += 1


# ---------------------------------------------------------------------------
# public signature operations


def signature_at(a: SeifertMatrix, t: Fraction) -> int:
    """Exact signature of the form at the rational circle parameter
    t in (0, 1).  Raises JumpEvaluationError when the Alexander polynomial
    vanishes at exp(2 pi i t).

    >>> signature_at(TREFOIL, Fraction(1, 2))
    -2
    >>> signature_at(TREFOIL, Fraction(1, 100))
    0
    """
    t = Fraction(t)
    if not 0 < t < 1:
        raise ValidationError(f"parameter {t} outside (0, 1)")
    if a.size == 0:
        return 0
    data = _circle_data(a)
    tt = t if t <= Fraction(1, 2) else 1 - t
    if tt == Fraction(1, 2):
        if data.root_at_minus_one:
            raise JumpEvaluationError("t = 1/2 is a jump point of this matrix")
        return data.gap_signature(0)

    # the gap index is the number of roots below x = 2 cos(2 pi tt): a
    # cyclotomic root by its exact parameter (cos decreasing, so a larger
    # t is a smaller x), a remainder root by enclosures refined together
    # with x's until they lie apart
    below, rem = 0, []
    for r in data.roots:
        if isinstance(r, _RemRoot):
            rem.append(r)
        elif r.t == tt:
            raise JumpEvaluationError(f"t = {t} is a jump point of this matrix")
        else:
            below += r.t > tt
    if not rem:
        return data.gap_signature(below)
    for prec in precisions(_SEPARATION_START_BITS, "failed to separate parameter from root"):
        x = two_cos_two_pi(tt, prec)
        encl = [r.enclosure(prec) for r in rem]
        if all(e.disjoint_from(x) for e in encl):
            return data.gap_signature(below + sum(e.strictly_below(x) for e in encl))


def jump_locations(a: SeifertMatrix,
                   precision_bits: int = DEFAULT_PRECISION_BITS) -> list[Position]:
    """All t in (0, 1) where the Alexander polynomial vanishes on the unit
    circle: exact rationals for cyclotomic factors, certified isolating
    intervals otherwise.

    >>> jump_locations(TREFOIL)
    [Fraction(1, 6), Fraction(5, 6)]
    >>> jump_locations(FIGURE_EIGHT)
    []
    """
    data = _circle_data(a)
    low = _materialize_sorted(data, range(len(data.roots)), precision_bits)
    half = [Fraction(1, 2)] if data.root_at_minus_one else []
    return low + half + [_mirror(p) for p in reversed(low)]


def _remainder_position(data: _CircleData, root_index: int, prec: int) -> RatInterval:
    # keep strictly inside (0, 1/2)
    for p in precisions(prec, "position enclosure refinement failed"):
        t_iv = invert_two_cos(data.roots[root_index].enclosure, p)
        if t_iv.lo > 0 and t_iv.hi < Fraction(1, 2):
            return t_iv


def _position_lo(p: Position) -> Fraction:
    return p.lo if isinstance(p, RatInterval) else p


def _position_hi(p: Position) -> Fraction:
    return p.hi if isinstance(p, RatInterval) else p


def _mirror(p: Position) -> Position:
    """1 - p, the position of the conjugate root."""
    return 1 - p if isinstance(p, Fraction) else RatInterval(1 - p.hi, 1 - p.lo)


def _materialize_sorted(data: _CircleData, indices: Sequence[int],
                        prec: int) -> list[Position]:
    """The parameters t in (0, 1/2) of the roots data.roots[i], i in the
    ascending ``indices``, in reverse root order, which is ascending t (x
    = 2 cos(2 pi t) decreases): k/d for a cyclotomic root, a dyadic cell
    for the others, refined until each lies below the next.  _circle_data
    certified the order, so only neighbours are checked."""
    for p in precisions(prec, "failed to separate jump positions"):
        out = [r.t if isinstance(r := data.roots[i], _CycRoot)
               else _remainder_position(data, i, p) for i in reversed(indices)]
        if all(_position_hi(x) < _position_lo(y) for x, y in zip(out, out[1:])):
            return out


# ---------------------------------------------------------------------------
# jump functions


class Jump(Value):
    """A signature jump: its position and its nonzero even value."""

    __slots__ = _fields = ("position", "value")


class JumpFunction(Value):
    """Finite multiset of signature jumps with an ambient period.

    The jump convention is the full two-sided difference
    sigma(t+) - sigma(t-).  Positions lie in [0, P); values are nonzero
    even integers summing to zero over a period.
    """

    __slots__ = _fields = ("ambient_period", "jumps", "precision_bits")

    def __init__(self, ambient_period: Fraction, jumps: tuple[Jump, ...],
                 precision_bits: int | None = None):
        if ambient_period <= 0:
            raise ValidationError("ambient period must be positive")
        for j in jumps:
            if j.value == 0 or j.value % 2 != 0:
                raise ValidationError(
                    f"jump value {j.value} at {j.position}: values must be "
                    "nonzero even integers")
            if _position_lo(j.position) < 0 or _position_hi(j.position) >= ambient_period:
                raise ValidationError(
                    f"jump position {j.position} outside [0, {ambient_period})")
            # an interval position is never rational (minimal_period relies
            # on it); a point is given as the rational it is
            if isinstance(j.position, RatInterval) and j.position.lo == j.position.hi:
                raise ValidationError(
                    f"jump position {j.position} is a point; give it as a rational")
        if sum(j.value for j in jumps) != 0:
            raise ValidationError("jump values must sum to zero over a period")
        spans = [( _position_lo(j.position), _position_hi(j.position)) for j in jumps]
        if any(spans[i][1] >= spans[i + 1][0] for i in range(len(spans) - 1)):
            raise ValidationError("jump positions must be strictly increasing")
        Value.__init__(self, ambient_period, jumps, precision_bits)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(j.position, Fraction) for j in self.jumps)

    @property
    def exactness(self) -> str:
        if self.is_exact:
            return "exact"
        return f"numeric({self.precision_bits or DEFAULT_PRECISION_BITS})"

    def is_zero_function(self) -> bool:
        return not self.jumps


def jump_function(a: SeifertMatrix, c: int = 1,
                  precision_bits: int = DEFAULT_PRECISION_BITS) -> JumpFunction:
    """Signature jump function with the complexity-c reparametrization:
    the jump of sigma at t0 is reported at position c * t0, and the
    ambient period is c.

    >>> [(str(j.position), j.value) for j in jump_function(TREFOIL).jumps]
    [('1/6', -2), ('5/6', 2)]
    """
    if c < 1:
        raise ValidationError("complexity parameter must be a positive integer")
    return _jump_function(a, c, precision_bits, 1)


def _jump_function(a: SeifertMatrix, c: int, precision_bits: int, weight: int) -> JumpFunction:
    """jump_function with every value times ``weight``, validated once."""
    if a.size == 0:
        return JumpFunction(Fraction(c), ())
    data = _circle_data(a)
    sigs = data.gap_signatures()
    values = [sigs[idx] - sigs[idx + 1] for idx in range(len(data.roots))]
    jumped = [idx for idx, value in enumerate(values) if value]
    low = list(zip(_materialize_sorted(data, jumped, precision_bits),
                   (weight * values[idx] for idx in reversed(jumped))))
    ordered = low + [(_mirror(pos), -value) for pos, value in reversed(low)]
    jumps = tuple(Jump(_scale_position(pos, c), val) for pos, val in ordered)
    exact = all(isinstance(j.position, Fraction) for j in jumps)
    return JumpFunction(Fraction(c), jumps,
                        None if exact else precision_bits)


def _scale_position(p: Position, q: int) -> Position:
    if isinstance(p, Fraction):
        return p * q
    return RatInterval(p.lo * q, p.hi * q)


def scale_jump_function(jf: JumpFunction, q: int) -> JumpFunction:
    """Precompose with theta -> theta / q: positions and the ambient
    period are multiplied by q, values are unchanged."""
    if q < 1:
        raise ValidationError("scaling factor must be a positive integer")
    return JumpFunction(jf.ambient_period * q,
                        tuple(Jump(_scale_position(j.position, q), j.value)
                              for j in jf.jumps),
                        jf.precision_bits)


# ---------------------------------------------------------------------------
# minimal periods


class MinimalPeriod(Value):
    """Outcome of the minimal-period search: ``kind`` is one of
    "exact" (value holds c0), "zero-function", or "numeric-unknown"."""

    __slots__ = _fields = ("kind", "value")
    _defaults = {"value": None}


def minimal_period(jf: JumpFunction) -> MinimalPeriod:
    """Minimal positive period c0 of the jump function; every period is an
    integer multiple of c0 and c0 divides the ambient period.

    A translation by P/k maps the jump multiset to itself only if k
    divides the number of jumps (orbits have size exactly k), so only
    divisors k > 1 are tested, from the largest down.  Exact positions
    are compared as integer residues p den mod N = P den over one common
    denominator den, translated by N/k (no match when k does not divide
    N); an interval position, never rational, meets only intervals, and
    non-matches are certified by disjointness.  An unrefuted k gives
    c0 = P/k if every position is exact, and numeric-unknown otherwise.

    >>> minimal_period(jump_function(TREFOIL))
    MinimalPeriod(kind='exact', value=Fraction(1, 1))
    """
    if jf.is_zero_function():
        return MinimalPeriod("zero-function")
    P = jf.ambient_period
    exact = [j for j in jf.jumps if isinstance(j.position, Fraction)]
    den = lcm(P.denominator, *(j.position.denominator for j in exact))
    N = P.numerator * (den // P.denominator)
    residues = {j.position.numerator * (den // j.position.denominator): j.value
                for j in exact}
    n = len(jf.jumps)
    for k in (k for k in range(n, 1, -1) if n % k == 0):
        shift, inexact = divmod(N, k)
        if exact and (inexact or any(residues.get((r + shift) % N) != v
                                     for r, v in residues.items())):
            continue
        if not _refute_translation(jf, k):
            return MinimalPeriod("exact", P / k) if jf.is_exact \
                else MinimalPeriod("numeric-unknown")
    return MinimalPeriod("exact", P)


def _refute_translation(jf: JumpFunction, k: int) -> bool:
    """True when the translate by P/k of some interval jump meets no interval of its value."""
    P = jf.ambient_period
    shift = P / k
    intervals = [j for j in jf.jumps if isinstance(j.position, RatInterval)]
    for j in intervals:
        # shift <= P/2, so a translate wraps at most once
        lo, hi = j.position.lo + shift, j.position.hi + shift
        if lo >= P:
            lo, hi = lo - P, hi - P
        pieces = [(lo, hi)] if hi < P else [(lo, P), (Fraction(0), hi - P)]
        if not any(c.value == j.value and not (c.position.hi < plo or phi < c.position.lo)
                   for plo, phi in pieces for c in intervals):
            return True
    return False

"""Seifert matrix invariants: signature functions and their jumps.

For a square rational matrix A the signature function assigns to
t in (0, 1) the signature of the Hermitian form

    M(t) = (1 - w) A + (1 - conj(w)) A^T,   w = exp(2 pi i t).

Writing S = A + A^T and K = A - A^T, this is
M = 2 sin(pi t) (sin(pi t) S - i cos(pi t) K), so its signature is that
of S - i r K with r = cot(pi t).  At a rational r this is an integer form
after rescaling, and its inertia is one fraction-free symmetric
elimination -- no floating point.

The function is constant between consecutive roots of the Alexander
polynomial on the unit circle.  Substituting x = 2 cos(2 pi t) turns that
root locus into the real roots in (-2, 2) of an integer polynomial; roots
coming from cyclotomic factors sit at exact rational parameters k/d, the
rest are certified isolating intervals.  Jumps of the signature are read
off as differences of the (exact) signatures on neighbouring gaps, each
taken at one short rational cotangent strictly inside its gap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence, Union

from . import _poly
from ._intervals import (DEFAULT_PRECISION_BITS, RatInterval, two_cos_two_pi,
                         invert_two_cos)
from .errors import (DegenerateFormError, JumpEvaluationError, ValidationError)
from .polyalg import LaurentPoly

Position = Union[Fraction, RatInterval]


# ---------------------------------------------------------------------------
# Seifert matrices


@dataclass(frozen=True)
class SeifertMatrix:
    """Square matrix of exact rationals presenting a (generalized) Seifert
    form.  Genuine knot matrices have integer entries and unimodular
    antisymmetrization.

    >>> TREFOIL.size, TREFOIL.is_genuine
    (2, True)
    """

    entries: tuple[tuple[Fraction, ...], ...]
    label: str | None = None

    @staticmethod
    def from_rows(rows: Sequence[Sequence], label: str | None = None) -> "SeifertMatrix":
        n = len(rows)
        out = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValidationError(f"matrix[{i}]: expected {n} entries, got {len(row)}")
            out.append(tuple(Fraction(x) for x in row))
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
        if not self.is_integer:
            return False
        n = self.size
        skew = [[self.entries[i][j] - self.entries[j][i] for j in range(n)]
                for i in range(n)]
        return abs(_poly.det_fraction(skew)) == 1

    def transpose(self) -> "SeifertMatrix":
        n = self.size
        return SeifertMatrix(
            tuple(tuple(self.entries[j][i] for j in range(n)) for i in range(n)),
            self.label)

    def __neg__(self) -> "SeifertMatrix":
        return SeifertMatrix(
            tuple(tuple(-x for x in row) for row in self.entries), self.label)


UNKNOT = SeifertMatrix((), "unknot")
TREFOIL = SeifertMatrix.from_rows([[-1, 1], [0, -1]], "trefoil")
FIGURE_EIGHT = SeifertMatrix.from_rows([[-1, 1], [0, 1]], "figure-eight")


def connected_sum(a: SeifertMatrix, b: SeifertMatrix) -> SeifertMatrix:
    """Block-diagonal sum; realizes connected sum of knots."""
    n, m = a.size, b.size
    rows = []
    for i in range(n):
        rows.append(tuple(a.entries[i]) + (Fraction(0),) * m)
    for i in range(m):
        rows.append((Fraction(0),) * n + tuple(b.entries[i]))
    return SeifertMatrix(tuple(rows))


def reverse(a: SeifertMatrix) -> SeifertMatrix:
    """Matrix of the reversed knot: the transpose."""
    return a.transpose()


def mirror(a: SeifertMatrix) -> SeifertMatrix:
    """Matrix of the mirror image: the negative."""
    return -a


def pencil_polynomial(a: SeifertMatrix) -> _poly.Poly:
    """det(t A - A^T) as an exact rational-coefficient polynomial,
    computed by interpolation of exact determinants."""
    n = a.size
    if n == 0:
        return _poly.poly([1])
    integer = a.is_integer
    points = []
    for t in range(n + 1):
        if integer:
            m = [[t * int(a.entries[i][j]) - int(a.entries[j][i])
                  for j in range(n)] for i in range(n)]
            det = Fraction(_poly.det_bareiss(m))
        else:
            m = [[t * a.entries[i][j] - a.entries[j][i] for j in range(n)]
                 for i in range(n)]
            det = _poly.det_fraction(m)
        points.append((Fraction(t), det))
    return _poly.lagrange_interpolate(points)


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
    n = a.size
    if a.is_integer:
        ints = [int(c) for c in f]
    else:
        ints = list(_poly.to_int_primitive(f))
    lp = LaurentPoly.from_coeffs(ints)
    if n % 2 == 0:
        return lp.shifted(-(n // 2))
    return lp.shifted(-(n // 2)).centered()


# ---------------------------------------------------------------------------
# exact signatures at a rational cotangent


def _inertia(m: list[list[int]]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts, with multiplicity, of
    a symmetric integer matrix, by symmetric fraction-free elimination
    (Bareiss, with the zero-pivot step of Bunch and Kaufman).

    Each pivot p is a leading principal minor of a matrix congruent to m
    and the previous pivot prev is the one before it, so p / prev is a
    diagonal entry of an LDL^T factorization and, by Sylvester's law of
    inertia, sign(p) * sign(prev) is one eigenvalue sign.  When the
    whole remaining diagonal is zero, the congruence row_i += row_j,
    col_i += col_j turns m_ii into 2 m_ij; it only touches the remainder,
    which is multilinear in the rows and columns of the original matrix,
    so the exact divisions stay valid.  An all-zero remainder is a zero
    Schur complement: its size is the zero count.

    >>> _inertia([[0, 1], [1, 0]])
    (1, 1, 0)
    """
    m = [list(row) for row in m]
    n = len(m)
    pos = neg = 0
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                         if m[i][j]), None)
            if pair is None:
                return pos, neg, n - k
            piv, other = pair
            for c in range(k, n):
                m[piv][c] += m[other][c]
            for row in m[k:]:
                row[piv] += row[other]
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            for row in m[k:]:
                row[k], row[piv] = row[piv], row[k]
        p = m[k][k]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        mk = m[k]
        for i in range(k + 1, n):
            mi = m[i]
            mik = mi[k]
            for j in range(i, n):
                mi[j] = m[j][i] = (p * mi[j] - mik * mk[j]) // prev
        prev = p
    return pos, neg, 0


def _signature_at_c(a: SeifertMatrix, r: Fraction) -> int:
    """Signature of the form at the parameter t with cot(pi t) = r.

    M(t) = 2 sin(pi t) (sin(pi t) S - i cos(pi t) K) and sin(pi t) > 0,
    so M(t) has the signature of the Hermitian S - i r K.  With r = u/v
    its real form [[v S, u K], [-u K, v S]] is an integer matrix that
    carries each eigenvalue twice.
    """
    r = Fraction(r)
    u, v = r.numerator, r.denominator
    n = a.size
    den = lcm(*(x.denominator for row in a.entries for x in row))
    e = [[int(x * den) for x in row] for row in a.entries]
    s = [[e[i][j] + e[j][i] for j in range(n)] for i in range(n)]
    k = [[e[i][j] - e[j][i] for j in range(n)] for i in range(n)]
    m = [[v * x for x in s[i]] + [u * x for x in k[i]] for i in range(n)] + \
        [[-u * x for x in k[i]] + [v * x for x in s[i]] for i in range(n)]
    pos, neg, zero = _inertia(m)
    if zero:
        raise JumpEvaluationError("the form is singular at this parameter")
    return (pos - neg) // 2


# ---------------------------------------------------------------------------
# circle root structure


@dataclass(frozen=True)
class _CycRoot:
    """Root x = 2 cos(2 pi k/d) of a cyclotomic factor; exact parameter."""
    d: int
    k: int

    @property
    def t(self) -> Fraction:
        return Fraction(self.k, self.d)

    def enclosure(self, prec: int) -> RatInterval:
        return two_cos_two_pi(self.t, prec)


@dataclass(frozen=True)
class _RemRoot:
    """Isolated real root of the cyclotomic-free remainder factor."""
    poly_sf: _poly.Poly
    lo: Fraction
    hi: Fraction

    def enclosure(self, prec: int) -> RatInterval:
        width = Fraction(1, 2) ** prec
        lo, hi = _poly.refine_root_interval(self.poly_sf, self.lo, self.hi, width)
        return RatInterval(lo, hi)


@dataclass
class _CircleData:
    matrix: SeifertMatrix
    f_int: _poly.Poly                 # primitive integer pencil, t^v stripped
    mult_at_minus_one: int
    g: _poly.Poly                     # circle compaction, roots in (-2, 2)
    cyclotomic_orders: dict[int, int]
    remainder: _poly.Poly
    roots: list                       # ascending in x, _CycRoot | _RemRoot
    enclosures: list[RatInterval]     # pairwise disjoint, inside (-2, 2)
    cotangents: list[Fraction]        # one cot(pi t) > 0 per gap
    _gap_sigs: dict[int, int] = field(default_factory=dict)

    def gap_signature(self, gap: int) -> int:
        if gap not in self._gap_sigs:
            self._gap_sigs[gap] = _signature_at_c(self.matrix, self.cotangents[gap])
        return self._gap_sigs[gap]


@functools.lru_cache(maxsize=None)
def _psi(d: int) -> _poly.Poly:
    """Minimal polynomial of 2 cos(2 pi / d) for d >= 3: the compaction of
    the d-th cyclotomic polynomial."""
    return _poly.circle_root_compaction(_poly.cyclotomic(d))


def _root_multiplicity(p: _poly.Poly, x) -> int:
    mult = 0
    while not _poly.is_zero(p) and _poly.eval_at(p, x) == 0:
        p = _poly.div_exact(p, _poly.poly([-x, 1]))
        mult += 1
    return mult


@functools.lru_cache(maxsize=None)
def _circle_data(a: SeifertMatrix) -> _CircleData:
    f = pencil_polynomial(a)
    if _poly.is_zero(f):
        raise DegenerateFormError(
            "det(t A - A^T) vanishes identically; signature data undefined")
    f_int = _poly.to_int_primitive(f)
    v = _poly.valuation(f_int)
    f_int = _poly.poly(f_int[v:])
    mult_minus_one = _root_multiplicity(f_int, -1)

    g = _poly.circle_root_compaction(f_int)

    # split off cyclotomic factors; psi_d can divide only while its degree
    # fits, and phi(d) >= sqrt(d/2) bounds the orders to scan
    cyc: dict[int, int] = {}
    rem = g
    bound_phi = 2 * max(_poly.degree(g), 0)
    d_max = 2 * bound_phi * bound_phi + 2
    for d in range(3, d_max + 1):
        if _poly.euler_phi(d) // 2 > _poly.degree(rem):
            continue
        psi = _psi(d)
        while _poly.divides(psi, rem):
            cyc[d] = cyc.get(d, 0) + 1
            rem = _poly.to_int_primitive(_poly.div_exact(rem, psi))

    roots: list = []
    for d in sorted(cyc):
        for k in range(1, (d + 1) // 2):
            if gcd(k, d) == 1 and Fraction(k, d) < Fraction(1, 2):
                roots.append(_CycRoot(d, k))
    rem_sf = _poly.to_int_primitive(_poly.squarefree_part(rem)) \
        if _poly.degree(rem) > 0 else ()
    if not _poly.is_zero(rem_sf) and _poly.degree(rem_sf) > 0:
        for lo, hi in _poly.isolate_roots(rem_sf, Fraction(-2), Fraction(2)):
            roots.append(_RemRoot(rem_sf, lo, hi))

    # order all roots on the x-line with certified disjoint enclosures
    prec = 64
    while True:
        encl = [r.enclosure(prec) for r in roots]
        clipped = [RatInterval(max(e.lo, Fraction(-2)), min(e.hi, Fraction(2)))
                   for e in encl]
        ok = all(e.lo > -2 and e.hi < 2 for e in clipped)
        if ok:
            order = sorted(range(len(roots)), key=lambda i: clipped[i].lo)
            ok = all(clipped[order[i]].strictly_below(clipped[order[i + 1]])
                     for i in range(len(order) - 1))
        if ok:
            roots = [roots[i] for i in order]
            encl = [clipped[i] for i in order]
            break
        prec *= 2
        if prec > 65536:
            raise ArithmeticError("failed to separate circle roots")

    walls = [RatInterval.point(Fraction(-2))] + encl + [RatInterval.point(Fraction(2))]
    cotangents = [_gap_cotangent(walls[i].hi, walls[i + 1].lo)
                  for i in range(len(walls) - 1)]

    return _CircleData(matrix=a, f_int=f_int, mult_at_minus_one=mult_minus_one,
                       g=g, cyclotomic_orders=cyc, remainder=rem, roots=roots,
                       enclosures=encl, cotangents=cotangents)


def _gap_cotangent(lo: Fraction, hi: Fraction) -> Fraction:
    """A rational r = cot(pi t) > 0 whose x = 2 cos(2 pi t) = 2 (r^2 - 1) /
    (r^2 + 1) lies strictly in the gap (lo, hi) of (-2, 2): the square root
    of (2 + x) / (2 - x) at the gap midpoint, truncated to the fewest
    binary digits that land inside.  Short cotangents keep the integer
    form small."""
    x = (lo + hi) / 2
    q = (2 + x) / (2 - x)
    k = 0
    while True:
        r = Fraction(isqrt(q.numerator * 4 ** k // q.denominator), 2 ** k)
        if lo < 2 * (r * r - 1) / (r * r + 1) < hi:
            return r
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
        if data.mult_at_minus_one > 0:
            raise JumpEvaluationError("t = 1/2 is a jump point of this matrix")
        return _signature_at_c(a, Fraction(0))

    for r in data.roots:
        if isinstance(r, _CycRoot) and r.t == tt:
            raise JumpEvaluationError(f"t = {t} is a jump point of this matrix")

    # gap index: number of roots with x strictly below 2 cos(2 pi tt)
    below = 0
    prec = 64
    for r in data.roots:
        if isinstance(r, _CycRoot):
            if r.t > tt:          # cos decreasing: larger t means smaller x
                below += 1
        else:
            while True:
                x_iv = two_cos_two_pi(tt, prec)
                r_iv = r.enclosure(prec)
                if r_iv.strictly_below(x_iv):
                    below += 1
                    break
                if x_iv.strictly_below(r_iv):
                    break
                prec *= 2
                if prec > 65536:
                    raise ArithmeticError("failed to separate parameter from root")
    return data.gap_signature(below)


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
    items: list[tuple[object, None]] = []
    for idx, r in enumerate(data.roots):
        if isinstance(r, _CycRoot):
            items.append((r.t, None))
            items.append((1 - r.t, None))
        else:
            items.append((("rem", idx, False), None))
            items.append((("rem", idx, True), None))
    if data.mult_at_minus_one > 0:
        items.append((Fraction(1, 2), None))
    return [pos for pos, _ in _materialize_sorted(items, data, precision_bits)]


def _remainder_position(data: _CircleData, root_index: int, prec: int) -> RatInterval:
    r = data.roots[root_index]

    def x_encl(p: int) -> RatInterval:
        return r.enclosure(p)

    t_iv = invert_two_cos(x_encl, prec)
    # keep strictly inside (0, 1/2)
    p = prec
    while not (t_iv.lo > 0 and t_iv.hi < Fraction(1, 2)):
        p *= 2
        if p > 65536:
            raise ArithmeticError("position enclosure refinement failed")
        t_iv = invert_two_cos(x_encl, p)
    return t_iv


def _position_lo(p: Position) -> Fraction:
    return p.lo if isinstance(p, RatInterval) else p


def _position_hi(p: Position) -> Fraction:
    return p.hi if isinstance(p, RatInterval) else p


def _positions_disjoint(positions: Sequence[Position]) -> bool:
    spans = sorted((_position_lo(p), _position_hi(p)) for p in positions)
    return all(spans[i][1] < spans[i + 1][0] for i in range(len(spans) - 1))


def _materialize_sorted(items: list[tuple[object, object]], data: _CircleData,
                        prec: int) -> list[tuple[Position, object]]:
    """Resolve tagged positions to Fractions/intervals, refining the
    interval ones until the whole family is certified pairwise disjoint,
    then sort ascending.

    A tagged position is either an exact Fraction or a triple
    ("rem", root_index, mirrored) naming a remainder-root parameter in
    (0, 1/2) or its mirror in (1/2, 1).
    """
    p = prec
    while True:
        out: list[tuple[Position, object]] = []
        for key, val in items:
            if isinstance(key, Fraction):
                out.append((key, val))
            else:
                _, idx, mirrored = key
                t_iv = _remainder_position(data, idx, p)
                pos = RatInterval(1 - t_iv.hi, 1 - t_iv.lo) if mirrored else t_iv
                out.append((pos, val))
        if _positions_disjoint([pos for pos, _ in out]):
            return sorted(out, key=lambda pv: _position_lo(pv[0]))
        p *= 2
        if p > 65536:
            raise ArithmeticError("failed to separate jump positions")


# ---------------------------------------------------------------------------
# jump functions


@dataclass(frozen=True)
class Jump:
    position: Position
    value: int


@dataclass(frozen=True)
class JumpFunction:
    """Finite multiset of signature jumps with an ambient period.

    The jump convention is the full two-sided difference
    sigma(t+) - sigma(t-).  Positions lie in [0, P); values are nonzero
    even integers summing to zero over a period.
    """

    ambient_period: Fraction
    jumps: tuple[Jump, ...]
    precision_bits: int | None = None

    def __post_init__(self):
        if self.ambient_period <= 0:
            raise ValidationError("ambient period must be positive")
        for j in self.jumps:
            if j.value == 0 or j.value % 2 != 0:
                raise ValidationError(
                    f"jump value {j.value} at {j.position}: values must be "
                    "nonzero even integers")
            if _position_lo(j.position) < 0 or _position_hi(j.position) >= self.ambient_period:
                raise ValidationError(
                    f"jump position {j.position} outside [0, {self.ambient_period})")
        if sum(j.value for j in self.jumps) != 0:
            raise ValidationError("jump values must sum to zero over a period")
        spans = [( _position_lo(j.position), _position_hi(j.position)) for j in self.jumps]
        if any(spans[i][1] >= spans[i + 1][0] for i in range(len(spans) - 1)):
            raise ValidationError("jump positions must be strictly increasing")

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
    if a.size == 0:
        return JumpFunction(Fraction(c), ())
    data = _circle_data(a)
    items: list[tuple[object, int]] = []
    for idx, r in enumerate(data.roots):
        value = data.gap_signature(idx) - data.gap_signature(idx + 1)
        if value == 0:
            continue
        if isinstance(r, _CycRoot):
            items.append((r.t, value))
            items.append((1 - r.t, -value))
        else:
            items.append((("rem", idx, False), value))
            items.append((("rem", idx, True), -value))
    ordered = _materialize_sorted(items, data, precision_bits)
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


def merge_jump_functions(a: JumpFunction, b: JumpFunction) -> JumpFunction:
    """Pointwise sum of two exact jump functions with equal periods
    (matching positions add their values; zero sums drop out)."""
    if a.ambient_period != b.ambient_period:
        raise ValidationError("cannot merge jump functions with different periods")
    if not (a.is_exact and b.is_exact):
        raise ValidationError("merge requires exact jump positions")
    acc: dict[Fraction, int] = {}
    for j in list(a.jumps) + list(b.jumps):
        acc[j.position] = acc.get(j.position, 0) + j.value
    jumps = tuple(Jump(p, v) for p, v in sorted(acc.items()) if v != 0)
    return JumpFunction(a.ambient_period, jumps)


# ---------------------------------------------------------------------------
# minimal periods


@dataclass(frozen=True)
class MinimalPeriod:
    """Outcome of the minimal-period search: ``kind`` is one of
    "exact" (value holds c0), "zero-function", or "numeric-unknown"."""

    kind: str
    value: Fraction | None = None


def _divisors_desc(n: int) -> list[int]:
    return sorted((d for d in range(1, n + 1) if n % d == 0), reverse=True)


def minimal_period(jf: JumpFunction) -> MinimalPeriod:
    """Minimal positive period c0 of the jump function; every period is an
    integer multiple of c0 and c0 divides the ambient period.

    A translation by P/k maps the jump multiset to itself only if k
    divides the number of jumps (orbits have size exactly k), so only
    divisors are tested.  With interval positions, non-matches are
    certified by disjointness; a candidate k > 1 that cannot be refuted
    makes the result numeric-unknown.

    >>> minimal_period(jump_function(TREFOIL))
    MinimalPeriod(kind='exact', value=Fraction(1, 1))
    """
    if jf.is_zero_function():
        return MinimalPeriod("zero-function")
    P = jf.ambient_period
    n = len(jf.jumps)
    if jf.is_exact:
        table = {j.position: j.value for j in jf.jumps}
        for k in _divisors_desc(n):
            shift = P / k
            if all(table.get((p + shift) % P) == v for p, v in table.items()):
                return MinimalPeriod("exact", P / k)
        raise AssertionError("translation by P/1 must always match")

    for k in _divisors_desc(n):
        if k == 1:
            return MinimalPeriod("exact", P)
        if not _refute_translation(jf, k):
            return MinimalPeriod("numeric-unknown")
    raise AssertionError("unreachable")


def _refute_translation(jf: JumpFunction, k: int) -> bool:
    """True when translation by P/k certifiably fails to preserve the
    jump multiset."""
    P = jf.ambient_period
    shift = P / k
    exact = {j.position: j.value for j in jf.jumps if isinstance(j.position, Fraction)}
    intervals = [j for j in jf.jumps if isinstance(j.position, RatInterval)]
    for j in jf.jumps:
        if isinstance(j.position, Fraction):
            # rational translate must match a rational position exactly
            target = (j.position + shift) % P
            if exact.get(target) != j.value:
                return True
        else:
            # interval translate must overlap some interval position with
            # the same value; positions of interval jumps are never rational
            lo = j.position.lo + shift
            hi = j.position.hi + shift
            pieces = []
            if hi < P:
                pieces.append((lo, hi))
            elif lo >= P:
                pieces.append((lo - P, hi - P))
            else:
                pieces.append((lo, P))
                pieces.append((Fraction(0), hi - P))
            overlap = False
            for plo, phi in pieces:
                for cand in intervals:
                    if cand.value != j.value:
                        continue
                    if not (cand.position.hi < plo or phi < cand.position.lo):
                        overlap = True
            if not overlap:
                return True
    return False

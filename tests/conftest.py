import math
import random
from collections import deque
from fractions import Fraction

import pytest

from conclab import SeifertMatrix, ValidationError
from conclab import _poly as P
from conclab._intervals import RatInterval, precisions
from conclab._primes import factorint, is_prime, prime_factors, totients
from conclab.abgroup import FiniteAbelianGroup, Subgroup, subgroups_of_order
from conclab.dinv import DTable
from conclab.polyalg import LaurentPoly
from conclab.seifert import (Jump, JumpFunction, MinimalPeriod, _psi,
                             connected_sum, mirror, pencil_polynomial, reverse, UNKNOT)


def det_fraction(rows) -> Fraction:
    """Reference determinant by fraction Gaussian elimination."""
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


def plain_det(rows) -> int:
    """Cofactor-expansion determinant; independent of the package's
    linear algebra."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * plain_det(minor)
    return total


def structured_pattern(rng: random.Random, n: int, kind: str) -> list[list[bool]]:
    """Where an n x n matrix may be nonzero: a band of half-width 0-2
    around the diagonal ("banded"), diagonal blocks of size 1-3
    ("block"), or about one entry in five ("sparse").  The patterns make
    most rows zero in most pivot columns, which fraction-free
    elimination defers."""
    if kind == "banded":
        w = rng.randint(0, 2)
        return [[abs(i - j) <= w for j in range(n)] for i in range(n)]
    if kind == "block":
        block, start = [0] * n, 0
        while start < n:
            size = rng.randint(1, 3)
            for i in range(start, min(n, start + size)):
                block[i] = start
            start += size
        return [[block[i] == block[j] for j in range(n)] for i in range(n)]
    return [[rng.random() < 0.2 for _ in range(n)] for _ in range(n)]


def divmod_rational(p, q):
    """Reference Euclidean division over the rationals: (quo, rem) with
    p = quo q + rem and deg rem < deg q, coefficients Fractions."""
    rem = [Fraction(c) for c in p]
    dq = P.degree(q)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    for i in range(len(rem) - 1, dq - 1, -1):
        f = rem[i] / q[-1]
        quo[i - dq] = f
        for j in range(dq + 1):
            rem[i - dq + j] -= f * q[j]
    return P.poly(quo), P.poly(rem)


def gcd_rational(p, q):
    """Reference monic gcd by the rational Euclidean algorithm."""
    while not P.is_zero(q):
        p, q = q, divmod_rational(p, q)[1]
    return tuple(Fraction(c) / p[-1] for c in p) if p else ()


def sturm_chain_rational(p):
    """Reference Sturm chain p, p', -rem, ... over the rationals."""
    chain = [p, P.derivative(p)]
    while P.degree(chain[-1]) > 0:
        rem = divmod_rational(chain[-2], chain[-1])[1]
        if P.is_zero(rem):
            break
        chain.append(P.neg(rem))
    return [c for c in chain if not P.is_zero(c)]


def count_roots_open(p_sf, a, b) -> int:
    """Reference: distinct real roots of squarefree p_sf in the open
    interval (a, b), from a fresh Sturm chain whose signs are read off
    Fraction values; a and b must not be roots."""
    assert P.eval_at(p_sf, a) != 0 and P.eval_at(p_sf, b) != 0
    chain = P.sturm_chain(p_sf)

    def variations(x):
        signs = [v > 0 for v in (P.eval_at(c, Fraction(x)) for c in chain) if v != 0]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(a) - variations(b)


def int_primitive(p) -> P.Poly:
    """Reference: the primitive integer polynomial with positive leading
    coefficient that is a rational multiple of the Fraction polynomial p."""
    den = math.lcm(*(Fraction(c).denominator for c in p))
    ints = [int(Fraction(c) * den) for c in p]
    g = math.gcd(*ints)
    sign = -1 if ints[-1] < 0 else 1
    return tuple(sign * c // g for c in ints)


def interpolate_integer(values) -> P.Poly:
    """Reference: the integer polynomial p of degree < len(values) with
    p(k) = values[k] for k = 0, 1, ..., by Newton divided differences at
    the nodes 0..n, where the k-th differences are divisible by k!."""
    c = list(values)
    n = len(c) - 1
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) // k
    out: P.Poly = ()
    for k in range(n, -1, -1):
        out = P.add(P.mul(out, P.poly([-k, 1])), P.poly([c[k]]))
    return out


def pencil_at_0_to_n(a: SeifertMatrix) -> P.Poly:
    """Reference pencil det(t E - E^T) of the cleared matrix E: Bareiss
    determinants at t = 0..n and integer Newton interpolation."""
    _, e = a.cleared
    n = a.size
    return interpolate_integer(
        [P.det_bareiss([[t * e[i][j] - e[j][i] for j in range(n)] for i in range(n)])
         for t in range(n + 1)])


def refine_rational(p_sf, lo, hi, width):
    """Reference bisection over Fractions: the midpoint of (lo, hi), or
    lo + (hi - lo) / 2^j for the least j whose point is not a root, kept
    on the side where p_sf changes sign."""
    lo_negative = P.eval_at(p_sf, lo) < 0
    while hi - lo > width:
        step = (hi - lo) / 2
        while (value := P.eval_at(p_sf, lo + step)) == 0:
            step /= 2
        if (value < 0) != lo_negative:
            hi = lo + step
        else:
            lo = lo + step
    return lo, hi


def cyclotomic_by_divisors(d: int, _cache={}) -> P.Poly:
    """Reference Phi_d: x^d - 1 divided exactly by Phi_e for every proper
    divisor e of d."""
    if d not in _cache:
        num = P.poly([-1] + [0] * (d - 1) + [1])
        for e in range(1, d):
            if d % e == 0:
                num = P.div_exact(num, cyclotomic_by_divisors(e))
        _cache[d] = num
    return _cache[d]


def euler_phi(n: int) -> int:
    """Reference totient from the distinct prime factors of n."""
    for p in prime_factors(n):
        n = n // p * (p - 1)
    return n


def real_form_inertia(m) -> tuple:
    """Reference inertia of a symmetric integer matrix by symmetric
    fraction-free elimination; when the remaining diagonal is zero,
    row_i += row_j, col_i += col_j makes m_ii = 2 m_ij."""
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


def real_form(re, im):
    """The real symmetric 2n x 2n matrix [[re, -im], [im, re]] of the
    Hermitian re + i im; it carries each eigenvalue twice."""
    n = len(re)
    return [list(re[i]) + [-x for x in im[i]] for i in range(n)] + \
        [list(im[i]) + list(re[i]) for i in range(n)]


def lagrange_interpolate(points) -> P.Poly:
    """Reference: the polynomial of degree < len(points) through the given
    (x, y) points, as a sum of Fraction Lagrange basis polynomials."""
    out: P.Poly = ()
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        term = P.poly([Fraction(yi)])
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            term = tuple(c / (xi - xj) for c in P.mul(term, P.poly([-xj, 1])))
        out = P.add(out, term)
    return out


def primary_part(group, p):
    """The p-primary part G_p together with its embedding: the i-th entry
    of the returned tuple is the image in G of the i-th standard generator
    of G_p.  |G_p| is the maximal power of p dividing |G|.  The square-root
    search runs on the |G|_p-torsion in ambient coordinates instead; this
    is the reference it is checked against.

    >>> G = FiniteAbelianGroup((12,))
    >>> Gp, emb = primary_part(G, 2)
    >>> Gp.invariant_factors, emb
    ((4,), ((3,),))
    """
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    factors = []
    images = []
    for i, d in enumerate(group.invariant_factors):
        pk = 1
        m = d
        while m % p == 0:
            m //= p
            pk *= p
        if pk > 1:
            factors.append(pk)
            gen = [0] * group.rank
            gen[i] = d // pk
            images.append(tuple(gen))
    return FiniteAbelianGroup(tuple(factors)), tuple(images)


def closure_reference(group, generators):
    """Reference subgroup closure: breadth first over every generator,
    every sum reduced by the validating ``FiniteAbelianGroup.reduce``.
    Returns the nonzero reduced generators in the given order and the
    element set, which is what ``generated_subgroup`` reports as
    ``generators`` and ``elements``."""
    gens = [group.reduce(g) for g in generators]
    closed = {group.zero}
    queue = deque([group.zero])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = group.reduce([a + b for a, b in zip(x, g)])
            if y not in closed:
                closed.add(y)
                queue.append(y)
    return tuple(g for g in gens if g != group.zero), frozenset(closed)


def subgroups_of_order_reference(group, n, closures=None):
    """Reference subgroup search: the frontier loop of
    ``subgroups_of_order`` with every closure built by
    ``closure_reference`` and no pool element skipped.  Returns
    (generators, sorted elements) of each subgroup of order n, sorted by
    elements; the generators are those of the first closure that finds it.
    ``closures`` (a dict from generator tuples to closures) may be shared
    by the searches of one group, which build many of the same closures."""
    closures = {} if closures is None else closures

    def closure(gens):
        key = tuple(gens)
        if key not in closures:
            closures[key] = closure_reference(group, gens)
        return closures[key]

    trivial = closure([])
    if n == 1:
        return [(trivial[0], sorted(trivial[1]))]
    pool = group.elements()
    seen = {trivial[1]}
    frontier = [trivial]
    found = {}
    while frontier:
        gens, elems = frontier.pop()
        for x in pool:
            if x in elems:
                continue
            j = closure(list(gens) + [x])
            if len(j[1]) > n or j[1] in seen:
                continue
            seen.add(j[1])
            if len(j[1]) == n:
                found[j[1]] = j
            else:
                frontier.append(j)
    return sorted(((gens, sorted(elems)) for gens, elems in found.values()),
                  key=lambda s: s[1])


def embed(group, embedding, x):
    """Reference: image in the ambient group of an element of a primary
    part, given the embedding returned by ``primary_part``."""
    out = group.zero
    for coord, gen in zip(x, embedding):
        out = group.add(out, group.scalar(coord, gen))
    return out


def square_root_subgroups_via_primary_part(group, q):
    """Reference square-root search: enumerate in the q-primary part's own
    coordinates, then re-embed every candidate into the ambient group.
    Returns (primary order, is square, sorted candidates)."""
    gq, embedding = primary_part(group, q)
    e = 0
    while gq.order % q ** (e + 1) == 0:
        e += 1
    if e % 2:
        return gq.order, False, []
    cands = []
    for h in subgroups_of_order(gq, q ** (e // 2)):
        gens = tuple(embed(group, embedding, g) for g in h.generators)
        elems = frozenset(embed(group, embedding, x) for x in h.elements)
        cands.append(Subgroup(group, gens, elems))
    cands.sort(key=lambda s: s.sorted_elements())
    return gq.order, True, cands


def _divisors_desc(n: int) -> list[int]:
    return sorted((d for d in range(1, n + 1) if n % d == 0), reverse=True)


def refute_translation_reference(jf, k) -> bool:
    """Reference: True when translation by P/k certifiably fails to
    preserve the jump multiset, every jump tried in turn: a rational
    translate must match a rational position exactly (as a Fraction),
    an interval translate must overlap an interval position with the same
    value, its wrapped piece included."""
    P_ = jf.ambient_period
    shift = P_ / k
    exact = {j.position: j.value for j in jf.jumps if isinstance(j.position, Fraction)}
    intervals = [j for j in jf.jumps if isinstance(j.position, RatInterval)]
    for j in jf.jumps:
        if isinstance(j.position, Fraction):
            if exact.get((j.position + shift) % P_) != j.value:
                return True
        else:
            lo, hi = j.position.lo + shift, j.position.hi + shift
            if lo >= P_:
                lo, hi = lo - P_, hi - P_
            pieces = [(lo, hi)] if hi < P_ else [(lo, P_), (Fraction(0), hi - P_)]
            if not any(c.value == j.value and not (c.position.hi < plo or phi < c.position.lo)
                       for plo, phi in pieces for c in intervals):
                return True
    return False


def minimal_period_exact_branch(jf):
    """Reference minimal period: exact positions are compared by table
    lookup, functions with interval positions through
    ``refute_translation_reference``."""
    if jf.is_zero_function():
        return MinimalPeriod("zero-function")
    P_ = jf.ambient_period
    n = len(jf.jumps)
    if jf.is_exact:
        table = {j.position: j.value for j in jf.jumps}
        for k in _divisors_desc(n):
            shift = P_ / k
            if all(table.get((p + shift) % P_) == v for p, v in table.items()):
                return MinimalPeriod("exact", P_ / k)
        raise AssertionError("translation by P/1 must always match")
    for k in _divisors_desc(n):
        if k == 1:
            return MinimalPeriod("exact", P_)
        if not refute_translation_reference(jf, k):
            return MinimalPeriod("numeric-unknown")
    raise AssertionError("unreachable")


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


def coeff(f: LaurentPoly, k: int) -> int:
    """The coefficient of t^k in f."""
    return dict(f.pairs).get(k, 0)


def torus_knot_alexander_by_division(a: int, b: int) -> LaurentPoly:
    """Reference Delta of T(a, b): (t^(ab) - 1)(t - 1) / ((t^a - 1)(t^b - 1))
    by two exact dense divisions, centered."""
    def t_power_minus_one(n: int) -> P.Poly:
        return P.poly([-1] + [0] * (n - 1) + [1])

    num = P.mul(t_power_minus_one(a * b), t_power_minus_one(1))
    quo = P.div_exact(P.div_exact(num, t_power_minus_one(a)), t_power_minus_one(b))
    return LaurentPoly.from_coeffs(quo).centered()


def check_conjugation_symmetry(t: DTable, c=None) -> bool:
    """Whether d(c - s) = d(s) at every label s of t, conjugation being
    s -> c - s; c is the zero element (conjugation is negation) unless
    given.  The labels are reduced, so each is mapped directly."""
    facs = t.group.invariant_factors
    c = t.group.zero if c is None else c
    nums = t.numerators
    return all(nums.get(tuple([(b - a) % d for b, a, d in zip(c, k, facs)])) == v
               for k, v in nums.items())


def mobius(n: int) -> int:
    """Reference Moebius function from the factorization of n."""
    exps = factorint(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


def cyclotomic_at_units_by_mobius(d: int) -> tuple[Fraction, Fraction]:
    """Reference (Phi_d(1), Phi_d(-1)) for d >= 3 from the product
    Phi_d(x) = prod_(e | d) (x^e - 1)^mu(d/e), each factor that vanishes
    replaced by its derivative: (x^e - 1) / (x - 1) is e at x = 1, and for
    even e, (x^e - 1) / (x + 1) is -e at x = -1.  The powers of x - 1 and
    of x + 1 cancel, their exponents being sums of mu over all divisors
    of d and of d/2."""
    at_one = at_minus_one = Fraction(1)
    for e in range(1, d + 1):
        if d % e == 0 and mobius(d // e):
            mu = mobius(d // e)
            at_one *= Fraction(e) ** mu
            at_minus_one *= Fraction(-e if e % 2 == 0 else -2) ** mu
    return at_one, at_minus_one


def circle_compaction(a: SeifertMatrix) -> P.Poly:
    """The primitive compaction g that ``seifert._circle_data`` splits: the
    pencil without its powers of t, its roots at +-1 split off, in x."""
    f = pencil_polynomial(a)
    return P.circle_root_compaction(f[P.valuation(f):])


def cyclotomic_split_unfiltered(g):
    """Reference cyclotomic split of a primitive compaction g: every order d
    whose psi_d fits the remainder's degree is tried by trial division,
    with no test at +-2.  Returns ({d: exponent}, remainder)."""
    cyc, rem = {}, g
    d_max = max((2 * P.degree(g)) ** 2, 6)
    phi = totients(d_max)
    for d in range(3, d_max + 1):
        if phi[d] // 2 > P.degree(rem):
            continue
        while P.divides(_psi(d), rem):
            cyc[d] = cyc.get(d, 0) + 1
            rem = P.div_exact(rem, _psi(d))
    return cyc, rem


def torus_2_strand_matrix(genus: int) -> SeifertMatrix:
    """Standard 2g x 2g Seifert matrix of the (2, 2g+1) torus knot:
    -1 on the diagonal, +1 on the superdiagonal."""
    n = 2 * genus
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = -1
        if i + 1 < n:
            rows[i][i + 1] = 1
    return SeifertMatrix.from_rows(rows)


def cable_matrix(a: SeifertMatrix, p: int) -> SeifertMatrix:
    """Seifert matrix of the (p, 1) cable of the knot with matrix a: p
    parallel copies of its surface joined by p - 1 bands, so block (i, j)
    is A for i <= j and A^T below the diagonal.  Its Alexander polynomial
    is f(t^p) and, by Litherland's cabling formula, its signature at t
    is that of a at p t."""
    n = a.size
    rows = []
    for i in range(p):
        for r in range(n):
            row = []
            for j in range(p):
                row += [a.entries[r][c] if i <= j else a.entries[c][r]
                        for c in range(n)]
            rows.append(row)
    return SeifertMatrix.from_rows(rows)


def random_genuine_matrix(rng: random.Random, genus: int,
                          entry_bound: int = 2) -> SeifertMatrix:
    """Random 2g x 2g integer matrix with det(A - A^T) = 1: fix the
    antisymmetrization to the standard symplectic form and randomize the
    rest."""
    n = 2 * genus
    J = [[0] * n for _ in range(n)]
    for i in range(genus):
        J[2 * i][2 * i + 1] = 1
        J[2 * i + 1][2 * i] = -1
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = rng.randint(-entry_bound, entry_bound)
        for j in range(i + 1, n):
            a[i][j] = rng.randint(-entry_bound, entry_bound)
            a[j][i] = a[i][j] - J[i][j]
    return SeifertMatrix.from_rows(a)


def random_unimodular(rng: random.Random, n: int, steps: int = 4):
    """Product of random elementary row operations (determinant 1)."""
    u = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n >= 2 else (0, 0)
        if i == j:
            continue
        c = rng.randint(-1, 1)
        for k in range(n):
            u[i][k] += c * u[j][k]
    return u


def congruent(a: SeifertMatrix, u) -> SeifertMatrix:
    """U A U^T for a unimodular U; preserves all invariants in play."""
    n = a.size
    ua = [[sum(u[i][k] * a.entries[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    uaut = [[sum(ua[i][k] * u[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]
    return SeifertMatrix.from_rows(uaut)


def elementary_enlargement(a: SeifertMatrix, alpha, kind: int) -> SeifertMatrix:
    """An elementary enlargement of A by an integer row alpha, an
    S-equivalence: kind 0 is [[A, 0, 0], [alpha, 0, 1], [0, 0, 0]], kind 1
    is [[A, alpha^T, 0], [0, 0, 0], [0, 1, 0]].  Either multiplies
    det(t A - A^T) by a unit +-t and keeps det(A - A^T) up to sign."""
    n = a.size
    rows = [list(row) + [0, 0] for row in a.entries] + [[0] * (n + 2), [0] * (n + 2)]
    if kind == 0:
        rows[n][:n], rows[n][n + 1] = alpha, 1
    else:
        for i in range(n):
            rows[i][n] = alpha[i]
        rows[n + 1][n] = 1
    return SeifertMatrix.from_rows(rows)


def metabolic_sum(a: SeifertMatrix, b, d) -> SeifertMatrix:
    """A block-summed with the metabolic M = [[0, B], [B^T - I, D]] for k x k
    integer B and D: M - M^T = [[0, I], [-I, D - D^T]] is unimodular, and
    the form of M has signature 0 wherever it is nonsingular, since its
    first k coordinates span a half-dimensional isotropic subspace.  Its
    Alexander polynomial is +-det((t - 1) B + I) det((t - 1) B^T - t I),
    whose roots are t = 1 - 1/lambda and its inverse over the nonzero
    eigenvalues lambda of B: on the unit circle only when Re lambda = 1/2."""
    k = len(b)
    m = [[0] * k + list(b[i]) for i in range(k)] + \
        [[b[j][i] - (i == j) for j in range(k)] + list(d[i]) for i in range(k)]
    return connected_sum(a, SeifertMatrix.from_rows(m))


def cyclotomic_jump_matrix(rng: random.Random) -> SeifertMatrix:
    """A matrix whose signature jumps all sit at exact rational
    parameters: block sums of (2, odd) torus knot forms and their
    reverses/mirrors, twisted by a unimodular congruence."""
    blocks = []
    for _ in range(rng.randint(1, 2)):
        base = torus_2_strand_matrix(rng.randint(1, 2))
        if rng.random() < 0.5:
            base = mirror(base)
        if rng.random() < 0.5:
            base = reverse(base)
        blocks.append(base)
    out = UNKNOT
    for b in blocks:
        out = connected_sum(out, b)
    return congruent(out, random_unimodular(rng, out.size))


def gap_cotangent_reference(lo: Fraction, hi: Fraction) -> Fraction:
    """Reference for ``seifert._gap_cotangent`` on Fractions: the square
    root of (2 + x) / (2 - x) at the gap midpoint x, truncated to the
    fewest binary digits whose r has 2 (r^2 - 1) / (r^2 + 1) strictly
    inside (lo, hi)."""
    x = (lo + hi) / 2
    q = (2 + x) / (2 - x)
    k = 0
    while True:
        r = Fraction(math.isqrt(q.numerator * 4 ** k // q.denominator), 2 ** k)
        if lo < 2 * (r * r - 1) / (r * r + 1) < hi:
            return r
        k += 1


def _mpf_to_fraction(raw) -> Fraction:
    from mpmath.libmp import to_rational
    if raw[1] == 0 and raw[2] != 0:
        raise ValueError("non-finite interval endpoint")
    return Fraction(*to_rational(raw))


def cos_two_pi_reference(t: Fraction, prec_bits: int) -> RatInterval:
    """Reference enclosure of cos(2 pi t): mpmath's interval cosine at
    max(prec_bits, 53) bits with its binary endpoints as Fractions."""
    from mpmath import iv
    t = Fraction(t) % 1
    old = iv.prec
    try:
        iv.prec = max(prec_bits, 53)
        angle = 2 * iv.pi * (iv.mpf(t.numerator) / iv.mpf(t.denominator))
        return RatInterval(*map(_mpf_to_fraction, iv.cos(angle)._mpi_))
    finally:
        iv.prec = old


def invert_two_cos_reference(x_encl, prec_bits: int) -> RatInterval:
    """Reference inversion: the dyadic cell [k/2^N, (k+1)/2^N], N =
    max(prec_bits, 8), read from mpmath's interval t = atan2(sqrt(4 -
    x^2), x) / 2 pi, climbing the precision ladder from max(64,
    prec_bits) until both ends of t lie in one cell."""
    from mpmath import iv
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
            k, k_hi = (_mpf_to_fraction(raw) * scale // 1 for raw in t._mpi_)
            if k == k_hi:
                return RatInterval(Fraction(k, scale), Fraction(k + 1, scale))
    finally:
        iv.prec = old


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)

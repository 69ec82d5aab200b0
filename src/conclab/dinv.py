"""Heegaard Floer correction terms at desk scale.

Lens-space d-invariants come from the standard Euclidean recursion

    d(L(p, q), i) = ((2i + 1 - p - q)^2 - pq) / (4pq) - d(L(q, p mod q), i mod q)

with d(S^3) = 0, whose labeling convention is pinned by the closed form
d(L(p, 1), i) = ((2i - p)^2 - p) / (4p) and the set {1/4, -1/4} for
L(2, 1).  n-surgery tables on an L-space knot use, for every n >= 1,
Ni-Wu's formula (J. reine angew. Math. 706, 2015, Prop. 1.6)

    d(S^3_n(K), i) = d(L(n, 1), i) - 2 max(V_i, V_{n-i})

where the V-sequence equals the torsion coefficients of the (staircase)
Alexander polynomial.  Surgery tables are labeled by H_1 = Z_n so that
the spin structure sits at 0, where conjugation is negation; a lens table
keeps the recursion's labels, where conjugation is i -> q - 1 - i.

The obstruction consumed downstream: a reduced table dbar = d - d(0) must
vanish on some subgroup H of the q-primary part with |H|^2 = |H_1|_q.

A table is integer numerators over one denominator, the lcm of its
values' denominators, and every table operation works on those integers.
The lens table is built for all p labels at once, down the Euclidean
chain (p, q), (q, p mod q), ..., (1, 0) from the bottom up: one integer
list per level, the numerators of d over 4p at that level's order p.
They are integers because L(p, q) bounds a negative definite plumbing
whose intersection form has determinant p, so d lies in Z/(4p).  A
single label keeps the O(log p) recursion and its cache.

A table's labels are validated once, where it enters: the JSON loader
reduces an external table's keys and refuses two that name one element.
Tables built here have reduced labels and are conjugation symmetric by
construction, which the tests check; nothing here re-checks either.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm

from ._value import Value
from .abgroup import (SUBGROUP_ENUMERATION_BOUND, Element, FiniteAbelianGroup,
                      square_root_subgroups)
from .errors import NotLSpaceKnotError, SizeBoundError, ValidationError
from .polyalg import LaurentPoly, torsion_coefficients


def lens_d_invariant(p: int, q: int, i: int) -> Fraction:
    """Correction term of L(p, q) at label i (0 <= i < p), gcd(p, q) = 1.

    >>> lens_d_invariant(1, 0, 0)
    Fraction(0, 1)
    >>> [lens_d_invariant(2, 1, i) for i in range(2)]
    [Fraction(1, 4), Fraction(-1, 4)]
    """
    if p < 1:
        raise ValidationError("lens space order p must be >= 1")
    if not 0 <= i < p:
        raise ValidationError(f"label {i} outside 0..{p - 1}")
    if p == 1:
        return Fraction(0)
    q %= p
    if gcd(p, q) != 1:
        raise ValidationError(f"lens space parameters ({p}, {q}) share a factor")
    return _lens_rec(p, q, i)


# single labels only: tables do not use the recursion, and one label adds
# at most one entry per level of the Euclidean chain, O(log p)
_LENS_CACHE_SIZE = 1 << 14


@functools.lru_cache(maxsize=_LENS_CACHE_SIZE)
def _lens_rec(p: int, q: int, i: int) -> Fraction:
    if p == 1:
        return Fraction(0)
    num = (2 * i + 1 - p - q) ** 2 - p * q
    term = Fraction(num, 4 * p * q)
    return term - _lens_rec(q, p % q, i % q)


class VSequence(Value):
    """Nonincreasing nonnegative integers ending at 0 with steps in {0, 1}
    of an L-space knot; n-surgery reads max(V_i, V_{n-i}) = V_min(i, n-i).

    >>> VSequence((1, 0)).genus
    1
    """

    __slots__ = _fields = ("values",)

    def __init__(self, values: tuple[int, ...]):
        v = values
        if not v or v[-1] != 0:
            raise ValidationError("V-sequence must be nonempty and end at 0")
        for j in range(len(v) - 1):
            if v[j] - v[j + 1] not in (0, 1):
                raise ValidationError(
                    f"V-sequence step V_{j} - V_{j + 1} = {v[j] - v[j + 1]} not in {{0, 1}}")
        if any(x < 0 for x in v):
            raise ValidationError("V-sequence values must be nonnegative")
        Value.__init__(self, values)

    @property
    def genus(self) -> int:
        return len(self.values) - 1

    def at(self, j: int) -> int:
        if j < 0:
            raise ValidationError("V-sequence index must be nonnegative")
        return self.values[j] if j < len(self.values) else 0

    @staticmethod
    def zero() -> "VSequence":
        return VSequence((0,))


def is_lspace_knot_polynomial(f: LaurentPoly) -> bool:
    """Staircase coefficient test: nonzero centered coefficients are +-1,
    strictly alternate in sign, and the top one is +1."""
    if not f.is_alexander_normalized:
        return False
    pairs = sorted(f.centered().pairs, reverse=True)
    if not pairs or pairs[0][1] != 1:
        return False
    signs = [c for _, c in pairs]
    if any(c not in (1, -1) for c in signs):
        return False
    return all(signs[j] == -signs[j + 1] for j in range(len(signs) - 1))


def lspace_v_sequence(f: LaurentPoly) -> VSequence:
    """V-sequence of an L-space knot from its Alexander polynomial: the
    torsion coefficients, extended by the terminal zero.

    >>> from .polyalg import torus_knot_alexander
    >>> lspace_v_sequence(torus_knot_alexander(2, 3)).values
    (1, 0)
    >>> lspace_v_sequence(LaurentPoly.one()).values
    (0,)
    """
    if not is_lspace_knot_polynomial(f):
        raise NotLSpaceKnotError(
            "polynomial fails the alternating +-1 coefficient test; torsion "
            "coefficients do not give correction terms for it")
    return VSequence(torsion_coefficients(f) + (0,))


class DTable(Value):
    """Map from H_1 labels (= Spin^c structures) to rational correction
    terms: one dict of integer numerators on reduced labels in label
    order, over one positive denominator.  The constructor divides out
    their common factor, so the denominator is the lcm of the values'
    denominators and equal tables are equal records.  The labels are
    validated where a table is loaded (``jsonio``), not here; tables
    built here are total and conjugation symmetric by construction,
    which the tests check.  Externally loaded tables may be partial.  A
    table holds a dict, so it is not hashable.

    >>> DTable(FiniteAbelianGroup((2,)), {(0,): 2, (1,): -2}, 8).denominator
    4
    """

    __slots__ = _fields = ("group", "numerators", "denominator", "provenance")
    __hash__ = None

    def __init__(self, group: FiniteAbelianGroup, numerators: dict[Element, int],
                 denominator: int, provenance: str | None = None):
        g = gcd(denominator, *numerators.values())
        if g != 1:
            numerators = {k: v // g for k, v in numerators.items()}
            denominator //= g
        Value.__init__(self, group, numerators, denominator, provenance)

    @classmethod
    def from_values(cls, group: FiniteAbelianGroup, values: dict[Element, Fraction | int],
                    provenance: str | None = None) -> "DTable":
        """The table of the given rational values, over the lcm of their
        denominators."""
        den = lcm(*(v.denominator for v in values.values()))
        return cls(group, {k: v.numerator * (den // v.denominator) for k, v in values.items()},
                   den, provenance)

    def value_at(self, x: Element) -> Fraction | None:
        num = self.numerators.get(self.group.reduce(x))
        return None if num is None else Fraction(num, self.denominator)


def table_group(n: int) -> FiniteAbelianGroup:
    """Z_n, the labels of a full table of order n (a lens space, an
    n-surgery, or H_1 of the surgery model), refused past the enumeration
    bound."""
    if n > SUBGROUP_ENUMERATION_BOUND:
        raise SizeBoundError(
            f"table of order {n} exceeds the enumeration bound {SUBGROUP_ENUMERATION_BOUND}")
    return FiniteAbelianGroup.cyclic(n)


def _labels(n: int) -> list[Element]:
    """The elements of Z_n in label order."""
    return [(i,) for i in range(n)] if n > 1 else [()]


def lens_d_table(p: int, q: int, orientation: int = +1) -> DTable:
    """Full correction-term table of L(p, q) on Z_p labels; orientation -1
    negates the table.  Each level (p, q) of the Euclidean chain turns
    the numerators N' of its successor (q, p mod q) over 4q into its own
    over 4p, by the recursion times 4p:

        N(i) = ((2i + 1 - p - q)^2 - pq - p N'(i mod q)) / q,

    starting from N = [0] at (1, 0), S^3.

    >>> lens_d_table(2, 1).value_at((1,))
    Fraction(-1, 4)
    """
    if p < 1:
        raise ValidationError("lens space order p must be >= 1")
    if orientation not in (1, -1):
        raise ValidationError("orientation must be +1 or -1")
    group = table_group(p)
    q %= p
    if gcd(p, q) != 1:
        raise ValidationError(f"lens space parameters ({p}, {q}) share a factor")
    chain = []
    a, b = p, q
    while a > 1:
        chain.append((a, b))
        a, b = b, a % b
    nums = [0]
    for a, b in reversed(chain):
        ab = a * b
        # the division is exact: d of L(a, b) lies in Z/(4a)
        nums = [(x * x - ab - a * n) // b
                for x, n in zip(range(1 - a - b, a - b, 2), nums * (a // b + 1))]
    if orientation < 0:
        nums = [-n for n in nums]
    return DTable(group, dict(zip(_labels(p), nums)), 4 * p)


def large_surgery_d_table(n: int, v: VSequence) -> DTable:
    """Table of d(L(n, 1), i) - 2 max(V_i, V_{n-i}) on Z_n for every n >= 1,
    the numerators (2i - n)^2 - n - 8n V_min(i, n-i) over 4n; the spin
    structure is the label 0 and conjugation is negation."""
    if n < 1:
        raise ValidationError("surgery coefficient must be >= 1")
    group = table_group(n)
    h = n // 2 + 1
    half = (list(v.values) + [0] * h)[:h]            # V_j for j <= n / 2
    vmin = half + half[n - h:0:-1]                   # V_min(i, n-i) for i < n
    eight_n = 8 * n
    nums = [x * x - n - eight_n * w for x, w in zip(range(-n, n, 2), vmin)]
    return DTable(group, dict(zip(_labels(n), nums)), 4 * n)


def dbar_table(t: DTable) -> DTable:
    """Reduced table dbar(s) = d(s) - d(0); dbar(0) = 0 by construction.
    The base point is always label 0.  For a surgery table that is the
    spin structure; a lens table L(p, q) keeps the recursion's labels,
    where conjugation is i -> q - 1 - i, so for p >= 3 and q != 1 (mod p)
    label 0 is not a spin structure and this is not d - d(spin)."""
    nums = t.numerators
    base = nums.get(t.group.zero)
    if base is None:
        raise ValidationError("table has no value at the basepoint 0")
    return DTable(t.group, dict(zip(nums, [v - base for v in nums.values()])),
                  t.denominator, t.provenance)


# ---------------------------------------------------------------------------
# the vanishing obstruction


class CandidateReport(Value):
    """One candidate subgroup of the vanishing test: its elements with a
    nonzero dbar value (``violations``) and those without data
    (``missing``)."""

    __slots__ = _fields = ("subgroup", "violations", "missing")

    @property
    def vanishes(self) -> bool:
        return not self.violations and not self.missing


class MetabolizerVerdict(Value):
    """Outcome of the dbar-vanishing test.  ``status`` is one of
    "PASSES" (some candidate subgroup has dbar = 0, reported as witness),
    "OBSTRUCTED" (every candidate fails, or there are none), or
    "INCONCLUSIVE" (some candidate is undetermined for lack of data)."""

    __slots__ = _fields = ("status", "search", "reports", "witness")
    _defaults = {"witness": None}

    @property
    def missing_elements(self) -> tuple[Element, ...]:
        out = []
        for r in self.reports:
            out.extend(r.missing)
        return tuple(sorted(set(out)))


def dbar_vanishing_obstruction(dbar: DTable, q: int) -> MetabolizerVerdict:
    """Test whether some square-root-order subgroup H of the q-primary
    part of ``dbar.group`` has dbar = 0 on it.  The table is read as
    given: its labels are reduced where it was loaded or built.  dbar(0)
    = 0 always, listed or not; values are consulted only on candidate
    subgroups, and candidates with missing values make the verdict
    INCONCLUSIVE unless they already exhibit a nonzero value.

    >>> G = FiniteAbelianGroup((9,))
    >>> dbar_vanishing_obstruction(DTable(G, {(3,): 2, (6,): 2}, 1), 3).status
    'OBSTRUCTED'
    """
    group, data, den = dbar.group, dbar.numerators, dbar.denominator
    zero = group.zero
    if data.get(zero, 0) != 0:
        raise ValidationError("dbar at the basepoint 0 must be 0")

    search = square_root_subgroups(group, q)
    reports = []
    witness = None
    for h in search.candidates:
        violations = []
        missing = []
        for x in h.sorted_elements():
            val = data.get(x)
            if val is None:
                if x != zero:
                    missing.append(x)
            elif val:
                violations.append((x, Fraction(val, den)))
        rep = CandidateReport(h, tuple(violations), tuple(missing))
        reports.append(rep)
        if rep.vanishes and witness is None:
            witness = h

    if witness is not None:
        status = "PASSES"
    elif any(not r.violations and r.missing for r in reports):
        status = "INCONCLUSIVE"
    else:
        status = "OBSTRUCTED"
    return MetabolizerVerdict(status, search, tuple(reports), witness)

"""Heegaard Floer correction terms at desk scale.

Lens-space d-invariants come from the standard Euclidean recursion

    d(L(p, q), i) = ((2i + 1 - p - q)^2 - pq) / (4pq) - d(L(q, p mod q), i mod q)

with d(S^3) = 0, whose labeling convention is pinned by the closed form
d(L(p, 1), i) = ((2i - p)^2 - p) / (4p) and the set {1/4, -1/4} for
L(2, 1).  Large n-surgery tables on an L-space knot use

    d(S^3_n(K), i) = d(L(n, 1), i) - 2 V_{min(i, n-i)}

where the V-sequence equals the torsion coefficients of the (staircase)
Alexander polynomial.  Tables are labeled by H_1 so that the spin
structure sits at 0, where conjugation is negation.

The obstruction consumed downstream: a reduced table dbar = d - d(0) must
vanish on some subgroup H of the q-primary part with |H|^2 = |H_1|_q.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping

from .abgroup import (Element, FiniteAbelianGroup, SquareRootSearch, Subgroup,
                      square_root_subgroups)
from .errors import (NotLSpaceKnotError, SurgeryCoefficientError,
                     ValidationError)
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


@functools.lru_cache(maxsize=None)
def _lens_rec(p: int, q: int, i: int) -> Fraction:
    if p == 1:
        return Fraction(0)
    num = (2 * i + 1 - p - q) ** 2 - p * q
    term = Fraction(num, 4 * p * q)
    return term - _lens_rec(q, p % q, i % q)


@dataclass(frozen=True)
class VSequence:
    """Nonincreasing nonnegative integers ending at 0 with steps in {0, 1};
    the large-surgery correction data of an L-space knot.

    >>> VSequence((1, 0)).genus
    1
    """

    values: tuple[int, ...]

    def __post_init__(self):
        v = self.values
        if not v or v[-1] != 0:
            raise ValidationError("V-sequence must be nonempty and end at 0")
        for j in range(len(v) - 1):
            if v[j] - v[j + 1] not in (0, 1):
                raise ValidationError(
                    f"V-sequence step V_{j} - V_{j + 1} = {v[j] - v[j + 1]} not in {{0, 1}}")
        if any(x < 0 for x in v):
            raise ValidationError("V-sequence values must be nonnegative")

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


@dataclass(frozen=True)
class DTable:
    """Map from H_1 labels (= Spin^c structures, spin at 0) to rational
    correction terms.  Internally produced tables are total and
    conjugation symmetric; externally loaded ones may be partial."""

    group: FiniteAbelianGroup
    values: tuple[tuple[Element, Fraction], ...]
    provenance: str | None = None

    @staticmethod
    def from_map(group: FiniteAbelianGroup, mapping: Mapping[Element, Fraction],
                 provenance: str | None = None) -> "DTable":
        items = tuple(sorted((group.reduce(k), Fraction(v))
                             for k, v in mapping.items()))
        return DTable(group, items, provenance)

    def as_dict(self) -> dict[Element, Fraction]:
        return dict(self.values)

    def value_at(self, x: Element) -> Fraction | None:
        return self.as_dict().get(self.group.reduce(x))

    @property
    def is_total(self) -> bool:
        return len(self.values) == self.group.order

    def check_conjugation_symmetry(self) -> bool:
        table = self.as_dict()
        return all(table.get(self.group.negate(k)) == v for k, v in table.items())


def lens_d_table(p: int, q: int, orientation: int = +1) -> DTable:
    """Full correction-term table of L(p, q) on Z_p labels; orientation -1
    negates the table."""
    if orientation not in (1, -1):
        raise ValidationError("orientation must be +1 or -1")
    group = FiniteAbelianGroup.cyclic(p)
    table = {}
    for i in range(p):
        label = (i,) if p > 1 else ()
        table[label] = orientation * lens_d_invariant(p, q, i)
    return DTable.from_map(group, table)


def large_surgery_d(n: int, v: VSequence, i: int) -> Fraction:
    """Correction term of n-surgery at label i for a knot with the given
    V-sequence; requires the large-surgery range n >= 2g - 1.

    >>> large_surgery_d(9, VSequence((1, 0)), 0)
    Fraction(0, 1)
    """
    if n < 1:
        raise ValidationError("surgery coefficient must be >= 1")
    if n < 2 * v.genus - 1:
        raise SurgeryCoefficientError(
            f"surgery coefficient {n} below the large-surgery threshold "
            f"{2 * v.genus - 1}")
    if not 0 <= i < n:
        raise ValidationError(f"label {i} outside 0..{n - 1}")
    return lens_d_invariant(n, 1, i) - 2 * v.at(min(i, n - i))


def large_surgery_d_table(n: int, v: VSequence) -> DTable:
    """Full table of large n-surgery correction terms on Z_n; the spin
    structure is the label 0 and conjugation is negation."""
    group = FiniteAbelianGroup.cyclic(n)
    table = {((i,) if n > 1 else ()): large_surgery_d(n, v, i) for i in range(n)}
    out = DTable.from_map(group, table)
    if not out.check_conjugation_symmetry():
        raise AssertionError("surgery table lost conjugation symmetry")
    return out


def dbar_table(t: DTable) -> DTable:
    """Reduced table dbar(s) = d(s) - d(0); dbar(0) = 0 by construction."""
    base = t.value_at(t.group.zero)
    if base is None:
        raise ValidationError("table has no value at the basepoint 0")
    return DTable(t.group, tuple((k, v - base) for k, v in t.values), t.provenance)


# ---------------------------------------------------------------------------
# the vanishing obstruction


@dataclass(frozen=True)
class CandidateReport:
    subgroup: Subgroup
    violations: tuple[tuple[Element, Fraction], ...]  # nonzero dbar values
    missing: tuple[Element, ...]                      # elements without data

    @property
    def vanishes(self) -> bool:
        return not self.violations and not self.missing


@dataclass(frozen=True)
class MetabolizerVerdict:
    """Outcome of the dbar-vanishing test.  ``status`` is one of
    "PASSES" (some candidate subgroup has dbar = 0, reported as witness),
    "OBSTRUCTED" (every candidate fails, or there are none), or
    "INCONCLUSIVE" (some candidate is undetermined for lack of data)."""

    status: str
    search: SquareRootSearch
    reports: tuple[CandidateReport, ...]
    witness: Subgroup | None = None

    @property
    def missing_elements(self) -> tuple[Element, ...]:
        out = []
        for r in self.reports:
            out.extend(r.missing)
        return tuple(sorted(set(out)))


def dbar_vanishing_obstruction(group: FiniteAbelianGroup, q: int,
                               dbar: Mapping[Element, Fraction] | DTable) \
        -> MetabolizerVerdict:
    """Test whether some square-root-order subgroup H of the q-primary
    part has dbar = 0 on it.  dbar(0) = 0 always; values are consulted
    only on candidate subgroups, and candidates with missing values make
    the verdict INCONCLUSIVE unless they already exhibit a nonzero value.

    >>> G = FiniteAbelianGroup((9,))
    >>> dbar_vanishing_obstruction(G, 3, {(3,): Fraction(2), (6,): Fraction(2)}).status
    'OBSTRUCTED'
    """
    if isinstance(dbar, DTable):
        if dbar.group != group:
            raise ValidationError("dbar table group does not match")
        data = dbar.as_dict()
    else:
        data = {group.reduce(k): Fraction(v) for k, v in dbar.items()}
    zero = group.zero
    if data.get(zero, Fraction(0)) != 0:
        raise ValidationError("dbar at the basepoint 0 must be 0")
    data[zero] = Fraction(0)

    search = square_root_subgroups(group, q)
    reports = []
    witness = None
    for h in search.candidates:
        violations = []
        missing = []
        for x in h.sorted_elements():
            val = data.get(x)
            if val is None:
                missing.append(x)
            elif val != 0:
                violations.append((x, val))
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

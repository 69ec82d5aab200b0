"""Verdict pipelines for the two-component link family L(m, J).

The family ties a band with -m full twists through a companion knot J,
with the first component concordant to a fixed knot with Alexander
polynomial J0.  Writing q = 2m + 1, the 2-fold covering knot has
signature jump function 2 * delta_J(theta / q), so its minimal period is
q times that of delta_J.

Topological pipeline: a link concordant to one whose first component has
Alexander polynomial in a collection D forces the covering knot to be
rationally concordant to a knot whose complexity is an integer period of
the jump function with all prime factors among the primes dividing the
degree-2 homology orders of D.  If the smallest integer period has a
prime factor outside that set, no such complexity exists: OBSTRUCTED.

Smooth pipeline: 1-surgery on the covering knot is the connected sum of
the double branched cover of J0 and M, the (2m+1)^2-surgery on
T(2m+1, 2m) # J # J^r.  For prime q outside the excluded set, the
q-primary part of H_1 is Z_{q^2} from the M side, and the reduced
correction terms dbar must vanish on a square-root-order subgroup.
Failure on every candidate subgroup: OBSTRUCTED.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ._intervals import DEFAULT_PRECISION_BITS
from ._primes import is_prime, prime_factors
from .abgroup import FiniteAbelianGroup
from .dinv import (DTable, MetabolizerVerdict, dbar_table,
                   dbar_vanishing_obstruction, large_surgery_d_table,
                   lspace_v_sequence)
from .errors import (CoprimalityError, FamilyChoiceError, MissingDataError,
                     ValidationError)
from .polyalg import (LaurentPoly, PolySet, PrimeSetComplement,
                      branched_homology_order, excluded_primes,
                      torus_knot_alexander)
from .seifert import (Jump, JumpFunction, MinimalPeriod, SeifertMatrix,
                      jump_function, minimal_period)

OBSTRUCTED = "OBSTRUCTED"
NOT_OBSTRUCTED = "NOT_OBSTRUCTED"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class LinkFamilySpec:
    """Parameters of the link L(m, J): the twisting integer m >= 1, the
    companion knot J as a Seifert matrix, and the Alexander polynomial of
    the knot the first component is concordant to (default 1)."""

    m: int
    J: SeifertMatrix
    J0_alexander: LaurentPoly = LaurentPoly.one()

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("twisting parameter m must be >= 1")
        if not self.J0_alexander.is_alexander_normalized:
            raise ValidationError("J0 polynomial is not Alexander-normalized")

    @property
    def q(self) -> int:
        return 2 * self.m + 1


def covering_jump_function(spec: LinkFamilySpec,
                           precision_bits: int = DEFAULT_PRECISION_BITS) -> JumpFunction:
    """Jump function of the 2-fold covering knot, 2 * delta_J(theta / q):
    the jumps of J at complexity q with their values doubled (J # J^r has
    twice the signature function of J).

    >>> from .seifert import TREFOIL
    >>> jf = covering_jump_function(LinkFamilySpec(1, TREFOIL))
    >>> [(str(j.position), j.value) for j in jf.jumps]
    [('1/2', -4), ('5/2', 4)]
    """
    jf = jump_function(spec.J, spec.q, precision_bits)
    return dataclasses.replace(
        jf, jumps=tuple(Jump(j.position, 2 * j.value) for j in jf.jumps))


@dataclass(frozen=True)
class PeriodCheck:
    """Coprimality check of the integer periods against the excluded
    primes: ``verdict`` is OBSTRUCTED when no integer period can serve as
    a complexity (some prime factor of the smallest integer period
    escapes the excluded set), else NOT_OBSTRUCTED with a witness."""

    verdict: str
    smallest_integer_period: int
    offending_primes: tuple[int, ...]
    witness_period: int | None


def period_coprimality_check(c0: Fraction, excluded: PrimeSetComplement) -> PeriodCheck:
    """Decide whether some integer period of a jump function with minimal
    period c0 has all its prime factors in the excluded set.

    Integer periods are exactly the positive multiples of the numerator a
    of c0 = a/b in lowest terms, so the answer is determined by the prime
    factors of a.

    >>> period_coprimality_check(Fraction(3), PrimeSetComplement(2, frozenset())).verdict
    'OBSTRUCTED'
    """
    c0 = Fraction(c0)
    if c0 <= 0:
        raise ValidationError("minimal period must be positive")
    a = c0.numerator
    offending = tuple(p for p in (prime_factors(a) if a > 1 else [])
                      if p not in excluded.excluded)
    if offending:
        return PeriodCheck(OBSTRUCTED, a, offending, None)
    return PeriodCheck(NOT_OBSTRUCTED, a, (), a)


@dataclass(frozen=True)
class TopologicalVerdict:
    """Full audit record of the topological pipeline."""

    verdict: str
    spec: LinkFamilySpec
    covering_degree: int
    excluded: PrimeSetComplement
    jumps: JumpFunction
    minimal: MinimalPeriod
    period_check: PeriodCheck | None
    note: str = ""


def obstruct_topological(spec: LinkFamilySpec, D: PolySet, d: int = 2,
                         precision_bits: int = DEFAULT_PRECISION_BITS) -> TopologicalVerdict:
    """Topological concordance obstruction for L(m, J) against links whose
    first component has Alexander polynomial in D.

    Only the 2-fold cover is supported (the covering jump formula is for
    that case).  When q = 2m + 1 is a prime in the excluded set the
    family parameters contradict the construction recipe and are
    rejected.

    >>> from .seifert import TREFOIL, UNKNOT
    >>> D1 = PolySet.of(LaurentPoly.one())
    >>> obstruct_topological(LinkFamilySpec(1, TREFOIL), D1).verdict
    'OBSTRUCTED'
    >>> obstruct_topological(LinkFamilySpec(1, UNKNOT), D1).verdict
    'NOT_OBSTRUCTED'
    """
    if d != 2:
        raise ValidationError(
            f"covering degree {d} unsupported: the covering-knot jump "
            "formula for this family is for the 2-fold cover")
    excl = excluded_primes(D, 2)
    if is_prime(spec.q) and spec.q in excl.excluded:
        raise FamilyChoiceError(
            f"q = {spec.q} divides a degree-2 homology order of D and is "
            "not an allowed covering parameter for this collection")
    jumps = covering_jump_function(spec, precision_bits)
    minimal = minimal_period(jumps)
    if minimal.kind == "zero-function":
        return TopologicalVerdict(
            NOT_OBSTRUCTED, spec, d, excl, jumps, minimal,
            PeriodCheck(NOT_OBSTRUCTED, 1, (), 1),
            note="jump function vanishes identically; every complexity is a period")
    if minimal.kind == "numeric-unknown":
        return TopologicalVerdict(
            INCONCLUSIVE, spec, d, excl, jumps, minimal, None,
            note="minimal period could not be certified from interval positions")
    check = period_coprimality_check(minimal.value, excl)
    return TopologicalVerdict(check.verdict, spec, d, excl, jumps, minimal, check)


@dataclass(frozen=True)
class SurgeryModel:
    """The q^2-surgery side M of the covering manifold: H_1(M) = Z_{q^2},
    core L-space knot T(q, q-1) # J # J^r, with |H_1(M_0)| coprime to q.
    ``external_dbar`` holds the provenance-tagged reduced table when one
    is supplied to the smooth pipeline."""

    spec: LinkFamilySpec
    n: int
    core_polynomial: LaurentPoly
    h1_m: FiniteAbelianGroup
    h1_m0_order: int
    external_dbar: DTable | None = None

    @property
    def q(self) -> int:
        return self.spec.q


def build_surgery_model(spec: LinkFamilySpec) -> SurgeryModel:
    """Assemble the surgery model for prime q = 2m + 1, checking that the
    double-branched-cover order of J0 is coprime to q.

    >>> from .seifert import UNKNOT
    >>> model = build_surgery_model(LinkFamilySpec(1, UNKNOT))
    >>> model.n, model.h1_m0_order
    (9, 1)
    """
    q = spec.q
    if not is_prime(q):
        raise ValidationError(f"q = {q} must be prime for the surgery model")
    m0_order = branched_homology_order(spec.J0_alexander, 2)
    if gcd(m0_order, q) != 1:
        raise CoprimalityError(
            f"|H_1(M_0)| = {m0_order} shares the factor {q}; the q-primary "
            "part of the model is not Z_{q^2} for this J0")
    return SurgeryModel(
        spec=spec,
        n=q * q,
        core_polynomial=torus_knot_alexander(q, q - 1),
        h1_m=FiniteAbelianGroup.cyclic(q * q),
        h1_m0_order=m0_order)


@dataclass(frozen=True)
class SmoothVerdict:
    """Full audit record of the smooth (correction-term) pipeline."""

    verdict: str
    spec: LinkFamilySpec
    excluded: PrimeSetComplement
    model: SurgeryModel
    dbar_source: str
    metabolizer: MetabolizerVerdict
    dbar: DTable | None = None
    note: str = ""


def obstruct_smooth(spec: LinkFamilySpec, D: PolySet,
                    external_dbar: DTable | None = None) -> SmoothVerdict:
    """Smooth concordance obstruction for L(m, J) against links whose
    first component has Alexander polynomial in D.

    The reduced correction terms on H_1(M) = Z_{q^2} come either from an
    external provenance-tagged table (required whenever J is nontrivial;
    the tool never fabricates values it cannot compute) or, for empty J,
    are computed exactly from the torus-knot V-sequence.

    >>> from .seifert import UNKNOT
    >>> D1 = PolySet.of(LaurentPoly.one())
    >>> obstruct_smooth(LinkFamilySpec(1, UNKNOT), D1).verdict
    'NOT_OBSTRUCTED'
    """
    q = spec.q
    if not is_prime(q):
        raise ValidationError(f"q = {q} must be an odd prime for the smooth pipeline")
    excl = excluded_primes(D, 2)
    if q in excl.excluded:
        raise FamilyChoiceError(
            f"q = {q} divides a degree-2 homology order of D; choose a "
            "different twisting parameter")
    model = build_surgery_model(spec)
    group = model.h1_m

    if external_dbar is not None:
        if external_dbar.group != group:
            raise ValidationError(
                f"external table is over {external_dbar.group}, model needs {group}")
        base = external_dbar.value_at(group.zero)
        if base not in (None, Fraction(0)):
            raise ValidationError("external dbar table must have dbar(0) = 0")
        model = dataclasses.replace(model, external_dbar=external_dbar)
        dbar = external_dbar
        source = f"external ({external_dbar.provenance or 'untagged'})"
    else:
        if spec.J.size != 0:
            raise MissingDataError(
                "J is nontrivial: the correction terms of M are not "
                "computable here; supply an external dbar table")
        v = lspace_v_sequence(model.core_polynomial)
        dbar = dbar_table(large_surgery_d_table(model.n, v))
        source = "computed (L-space surgery formula, J empty)"

    meta = dbar_vanishing_obstruction(group, q, dbar)
    verdict = {"PASSES": NOT_OBSTRUCTED,
               "OBSTRUCTED": OBSTRUCTED,
               "INCONCLUSIVE": INCONCLUSIVE}[meta.status]
    note = ""
    if meta.status == "INCONCLUSIVE":
        missing = ", ".join(str(x) for x in meta.missing_elements)
        note = f"missing dbar values at: {missing}"
    return SmoothVerdict(verdict, spec, excl, model, source, meta, dbar, note)

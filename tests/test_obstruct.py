"""The two pipelines on the link family, with the period-check oracle."""

import json
import random
from fractions import Fraction

import pytest

from conclab import (CoprimalityError, FamilyChoiceError, MissingDataError,
                     ValidationError, polyalg)
from conclab import _poly as P
from conclab.abgroup import FiniteAbelianGroup
from conclab.cli import main
from conclab.dinv import DTable
from conclab.obstruct import (INCONCLUSIVE, NOT_OBSTRUCTED, OBSTRUCTED,
                              LinkFamilySpec, _allowed_excluded_primes,
                              build_surgery_model,
                              covering_jump_function, obstruct_smooth,
                              obstruct_topological, period_coprimality_check)
from conclab.jsonio import topological_verdict_to_json
from conclab.polyalg import (LaurentPoly, PolySet, PrimeSetComplement,
                             branched_homology_order, excluded_primes,
                             normalize_alexander)
from conclab.seifert import (FIGURE_EIGHT, TREFOIL, UNKNOT, alexander_from_seifert,
                             connected_sum, jump_function, minimal_period,
                             reverse, scale_jump_function)
from conclab._primes import is_prime, prime_factors

from conftest import cyclotomic_jump_matrix, metabolic_sum, random_genuine_matrix

D_UNIT = PolySet.of(LaurentPoly.one())
D_GOLDEN = PolySet.of(normalize_alexander([1, -3, 1]))


def period_check_oracle(c0: Fraction, excluded: frozenset, bound=10 ** 4):
    """Brute force: search integer multiples k*c0 <= bound for one whose
    prime factors all lie in the excluded set."""
    c0 = Fraction(c0)
    k = 1
    while True:
        m = c0 * k
        if m > bound:
            return None
        if m.denominator == 1:
            n = m.numerator
            if n == 1 or all(p in excluded for p in prime_factors(n)):
                return n
        k += 1


# --- covering jump function ----------------------------------------------------

def test_covering_jumps_spec_examples():
    jf = covering_jump_function(LinkFamilySpec(1, TREFOIL))
    assert jf.ambient_period == 3
    assert [(j.position, j.value) for j in jf.jumps] == \
        [(Fraction(1, 2), -4), (Fraction(5, 2), 4)]
    assert covering_jump_function(LinkFamilySpec(2, UNKNOT)).is_zero_function()
    jf5 = covering_jump_function(LinkFamilySpec(2, TREFOIL))
    assert [(j.position, j.value) for j in jf5.jumps] == \
        [(Fraction(5, 6), -4), (Fraction(25, 6), 4)]


def test_covering_jumps_equal_connected_sum_with_reverse(rng):
    """2 delta_J(theta / q) against the jump function of J # J^r scaled by
    q, on exact inputs and on inputs with interval positions."""
    cases = [cyclotomic_jump_matrix(rng) for _ in range(10)]
    numeric = 0
    while numeric < 10:
        a = random_genuine_matrix(rng, rng.randint(1, 2))
        if not jump_function(a).is_exact:
            cases.append(a)
            numeric += 1
    for a in cases:
        spec = LinkFamilySpec(rng.randint(1, 3), a)
        reference = scale_jump_function(
            jump_function(connected_sum(a, reverse(a)), 1), spec.q)
        assert covering_jump_function(spec) == reference


def test_covering_minimal_period_is_q_for_trefoil():
    for q in (3, 5, 7, 11):
        spec = LinkFamilySpec((q - 1) // 2, TREFOIL)
        mp = minimal_period(covering_jump_function(spec))
        assert mp.kind == "exact" and mp.value == q


# --- period/coprimality check -----------------------------------------------------

def test_period_check_spec_examples():
    empty = PrimeSetComplement(2, frozenset())
    res = period_coprimality_check(Fraction(3), empty)
    assert res.verdict == OBSTRUCTED and res.offending_primes == (3,)
    res1 = period_coprimality_check(Fraction(1), PrimeSetComplement(2, frozenset({7})))
    assert res1.verdict == NOT_OBSTRUCTED and res1.witness_period == 1
    res15 = period_coprimality_check(Fraction(15, 2),
                                     PrimeSetComplement(2, frozenset({3, 5})))
    assert res15.verdict == NOT_OBSTRUCTED and res15.witness_period == 15


def test_period_check_matches_brute_force(rng):
    excl_pool = [frozenset(), frozenset({2}), frozenset({3}), frozenset({3, 5}),
                 frozenset({2, 7}), frozenset({5})]
    for _ in range(200):
        c0 = Fraction(rng.randint(1, 40), rng.randint(1, 12))
        excluded = rng.choice(excl_pool)
        res = period_coprimality_check(c0, PrimeSetComplement(2, excluded))
        oracle = period_check_oracle(c0, excluded)
        if res.verdict == NOT_OBSTRUCTED:
            assert oracle == res.witness_period
        else:
            assert oracle is None


# --- topological pipeline -----------------------------------------------------------

def test_topological_spec_examples():
    assert obstruct_topological(LinkFamilySpec(1, TREFOIL), D_UNIT).verdict == OBSTRUCTED
    res = obstruct_topological(LinkFamilySpec(1, UNKNOT), D_UNIT)
    assert res.verdict == NOT_OBSTRUCTED
    assert res.period_check.witness_period == 1
    assert obstruct_topological(LinkFamilySpec(1, TREFOIL), D_GOLDEN).verdict == OBSTRUCTED


def test_topological_takes_no_covering_degree(capsys):
    # the covering is always the 2-fold one: obstruct-top has no --d, and
    # a batch job that gives "d" fails while the next job still runs
    assert main(["obstruct-top", "--m", "1", "--J", "trefoil", "--D", "unit", "--d", "2"]) == 2
    assert capsys.readouterr().err == "error: obstruct-top has no field 'd'\n"
    job = {"op": "obstruct-top", "m": 1, "J": "trefoil", "D": "unit"}
    assert main(["batch", "--jobs", json.dumps({"jobs": [dict(job, d=2), job]})]) == 0
    bad, good = json.loads(capsys.readouterr().out)["results"]
    assert not bad["ok"] and bad["error_kind"] == "ValidationError" and "'d'" in bad["error"]
    assert good["ok"] and good["result"]["covering_degree"] == 2
    with pytest.raises(TypeError):
        obstruct_topological(LinkFamilySpec(1, TREFOIL), D_UNIT, d=2)


def test_topological_rejects_bad_family_choice():
    # q = 5 divides the degree-2 order of t^2 - 3t + 1
    with pytest.raises(FamilyChoiceError):
        obstruct_topological(LinkFamilySpec(2, TREFOIL), D_GOLDEN)


def test_topological_zero_jump_always_not_obstructed(rng):
    # figure-eight has no circle roots either
    for j in (UNKNOT, FIGURE_EIGHT):
        for m in (1, 2, 4):
            res = obstruct_topological(LinkFamilySpec(m, j), D_UNIT)
            assert res.verdict == NOT_OBSTRUCTED


def test_topological_trefoil_obstructed_for_prime_q(rng):
    for q in (3, 5, 7, 11):
        res = obstruct_topological(LinkFamilySpec((q - 1) // 2, TREFOIL), D_UNIT)
        assert res.verdict == OBSTRUCTED
        assert res.minimal.value == q


def test_topological_record_is_unchanged_by_an_algebraically_slice_summand():
    # J # K for a metabolic K has J's jump function, so the obstruct-top
    # records of L(m, J) and L(m, J # K) differ only in the family.  A
    # triangular B keeps the circle roots; B = [[1, -c], [1, 0]] adds some.
    # 40 companions with jumps
    rng = random.Random(31)
    case = 0
    while case < 40:
        j = random_genuine_matrix(rng, rng.randint(1, 2))
        if not jump_function(j).jumps:
            continue
        case += 1
        m, k = rng.randint(1, 3), rng.randint(1, 2)
        b = ([[rng.randint(-2, 2) if r <= c else 0 for c in range(k)] for r in range(k)]
             if case % 2 else [[1, -rng.randint(1, 3)], [1, 0]])
        d = [[rng.randint(-2, 2) for _ in b] for _ in b]
        records = []
        for companion in (j, metabolic_sum(j, b, d)):
            record = topological_verdict_to_json(
                obstruct_topological(LinkFamilySpec(m, companion), D_UNIT))
            records.append(json.dumps({**record, "family": None}))
        assert records[0] == records[1]


def test_least_prime_escaping_d_obstructs_the_trefoil_family(rng):
    # the paper's second claim: for a finite D, L((q - 1)/2, trefoil) is
    # obstructed once q is a prime dividing no degree-2 homology order of
    # D; the least odd one is taken (2 divides none, but q = 2m + 1 is odd).
    # The trefoil's roots are cyclotomic, so its jumps sit at exact positions
    for _ in range(40):
        D = PolySet(tuple(alexander_from_seifert(random_genuine_matrix(rng, rng.randint(1, 2)))
                          for _ in range(rng.randint(1, 3))))
        excluded = excluded_primes(D, 2).excluded
        q = next(p for p in range(3, 1000, 2) if is_prime(p) and p not in excluded)
        res = obstruct_topological(LinkFamilySpec((q - 1) // 2, TREFOIL), D)
        assert res.verdict == OBSTRUCTED and res.period_check.offending_primes == (q,)
        assert res.jumps.is_exact


def test_topological_verdict_record_is_recomputable():
    res = obstruct_topological(LinkFamilySpec(1, TREFOIL), D_GOLDEN)
    # the record carries enough to re-derive the verdict
    again = period_coprimality_check(res.minimal.value, res.excluded)
    assert again.verdict == res.verdict
    assert minimal_period(res.jumps) == res.minimal


# --- family choice ----------------------------------------------------------------

def random_normalized(rng: random.Random) -> LaurentPoly:
    """A random symmetric polynomial of span 2-8 with f(1) = +-1."""
    a = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
    a[-1] = a[-1] or 1
    sign = rng.choice((1, -1))
    return normalize_alexander([sign * c for c in a[::-1] + [1 - 2 * sum(a)] + a])


def test_family_choice_rule_matches_the_factored_excluded_set(rng):
    # one remainder per member refuses exactly the primes q that the
    # factored excluded set holds, and returns that set otherwise
    refusals = 0
    for _ in range(40):
        D = PolySet(tuple(random_normalized(rng) for _ in range(rng.randint(1, 3))))
        excl = excluded_primes(D, 2)
        for f in D.polys:
            assert abs(P.eval_at(f.as_int_poly(), -1)) == branched_homology_order(f, 2)
        for q in range(3, 200, 2):
            if is_prime(q) and q in excl.excluded:
                with pytest.raises(FamilyChoiceError):
                    _allowed_excluded_primes(D, q, "")
                refusals += 1
            else:
                assert _allowed_excluded_primes(D, q, "") == excl, (D, q)
    assert refusals > 40


# |Delta(-1)| = 100000000000097 * 300000000000139 with q = 100000000000097
LARGE_A, LARGE_B = 7500000000010750000000003371, 15000000000021500000000006741
LARGE_D = f"{LARGE_A}t - {LARGE_B} + {LARGE_A}t^-1"
LARGE_M = 50000000000048


def test_family_choice_is_refused_without_factoring_an_order(capsys, monkeypatch):
    message = "q = 100000000000097 divides a degree-2 homology order of D"
    for op in ("obstruct-top", "obstruct-smooth"):
        assert main([op, "--D", LARGE_D, "--J", "trefoil", "--m", str(LARGE_M)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
    jobs = [{"op": "obstruct-top", "m": LARGE_M, "J": "trefoil", "D": LARGE_D},
            {"op": "obstruct-smooth", "m": LARGE_M, "J": "trefoil", "D": LARGE_D},
            {"op": "obstruct-top", "m": 1, "J": "trefoil", "D": "unit"}]
    assert main(["batch", "--jobs", json.dumps(jobs)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [r.get("error_kind") for r in results[:2]] == ["FamilyChoiceError"] * 2
    assert all(message in r["error"] for r in results[:2])
    assert results[2]["ok"] and results[2]["result"]["verdict"] == OBSTRUCTED

    def refuse(n):
        raise AssertionError(f"factored {n} before the family choice")

    monkeypatch.setattr(polyalg, "prime_factors", refuse)
    spec = LinkFamilySpec(LARGE_M, TREFOIL)
    D = PolySet.of(normalize_alexander([LARGE_A, -LARGE_B, LARGE_A]))
    for pipeline in (obstruct_topological, obstruct_smooth):
        with pytest.raises(FamilyChoiceError, match=message):
            pipeline(spec, D)


# --- surgery model --------------------------------------------------------------------

def test_surgery_model_spec_examples():
    model = build_surgery_model(LinkFamilySpec(1, UNKNOT))
    assert model.n == 9
    assert model.h1_m.invariant_factors == (9,)
    assert model.h1_m0_order == 1
    assert model.core_polynomial.pairs == ((-1, 1), (0, -1), (1, 1))


def test_surgery_model_coprimality_violations():
    trefoil_poly = normalize_alexander([1, -1, 1])
    with pytest.raises(CoprimalityError):
        build_surgery_model(LinkFamilySpec(1, UNKNOT, trefoil_poly))
    fig8_poly = normalize_alexander([1, -3, 1])
    with pytest.raises(CoprimalityError):
        build_surgery_model(LinkFamilySpec(2, UNKNOT, fig8_poly))
    # q = 3 instead passes: gcd(5, 3) = 1
    model = build_surgery_model(LinkFamilySpec(1, UNKNOT, fig8_poly))
    assert model.h1_m0_order == 5


def test_surgery_model_requires_prime_q():
    with pytest.raises(ValidationError):
        build_surgery_model(LinkFamilySpec(4, UNKNOT))  # q = 9


def test_surgery_model_invariants(rng):
    for m in (1, 2, 3, 5, 6):
        q = 2 * m + 1
        if not is_prime(q):
            continue
        model = build_surgery_model(LinkFamilySpec(m, UNKNOT))
        assert model.n == q * q
        assert model.h1_m.order == q * q
        from math import gcd
        assert gcd(model.h1_m0_order, q) == 1


def test_surgery_model_reads_the_j0_order_at_minus_one(rng):
    # |H_1(M_0)| = |J0(-1)| is the degree-2 branched-cover order of J0
    for _ in range(30):
        j0 = random_normalized(rng)
        order = branched_homology_order(j0, 2)
        for m in (1, 2, 3, 5, 6):
            spec = LinkFamilySpec(m, UNKNOT, j0)
            if order % spec.q == 0:
                with pytest.raises(CoprimalityError):
                    build_surgery_model(spec)
            else:
                assert build_surgery_model(spec).h1_m0_order == order


# --- smooth pipeline --------------------------------------------------------------------

def hlr_table() -> DTable:
    return DTable.from_values(FiniteAbelianGroup((9,)), {(3,): Fraction(2), (6,): Fraction(2)},
                              provenance="external bound")


def test_smooth_external_obstructed():
    res = obstruct_smooth(LinkFamilySpec(1, UNKNOT), D_UNIT, external_dbar=hlr_table())
    assert res.verdict == OBSTRUCTED
    assert len(res.metabolizer.reports) == 1
    assert res.metabolizer.reports[0].subgroup.sorted_elements() == \
        [(0,), (3,), (6,)]


def test_smooth_external_zero_not_obstructed():
    zero = DTable.from_values(FiniteAbelianGroup((9,)), {(i,): Fraction(0) for i in range(9)})
    res = obstruct_smooth(LinkFamilySpec(1, UNKNOT), D_UNIT, external_dbar=zero)
    assert res.verdict == NOT_OBSTRUCTED
    assert res.metabolizer.witness.sorted_elements() == [(0,), (3,), (6,)]


def test_smooth_computed_torus_only_regression():
    # frozen regression value: the 9-surgery on the (3,2) torus knot alone
    # has dbar = 0 on the unique candidate {0, 3, 6}
    res = obstruct_smooth(LinkFamilySpec(1, UNKNOT), D_UNIT)
    assert res.verdict == NOT_OBSTRUCTED
    assert res.dbar_source.startswith("computed")
    assert res.dbar.value_at((3,)) == 0
    assert res.dbar.value_at((1,)) == Fraction(10, 9)


def test_smooth_requires_external_table_for_nontrivial_j():
    with pytest.raises(MissingDataError):
        obstruct_smooth(LinkFamilySpec(1, TREFOIL), D_UNIT)
    # but an external table unblocks it
    res = obstruct_smooth(LinkFamilySpec(1, TREFOIL), D_UNIT,
                          external_dbar=hlr_table())
    assert res.verdict == OBSTRUCTED


def test_smooth_partial_table_inconclusive():
    partial = DTable.from_values(FiniteAbelianGroup((9,)), {(3,): Fraction(0)})
    res = obstruct_smooth(LinkFamilySpec(1, UNKNOT), D_UNIT, external_dbar=partial)
    assert res.verdict == INCONCLUSIVE
    assert "(6,)" in res.note  # the note lists the missing elements


def test_smooth_rejects_composite_or_excluded_q():
    with pytest.raises(ValidationError):
        obstruct_smooth(LinkFamilySpec(4, UNKNOT), D_UNIT)  # q = 9 composite
    with pytest.raises(FamilyChoiceError):
        obstruct_smooth(LinkFamilySpec(2, UNKNOT), D_GOLDEN)  # q = 5 excluded


def test_smooth_wrong_group_rejected():
    bad = DTable.from_values(FiniteAbelianGroup((25,)), {(5,): Fraction(2)})
    with pytest.raises(ValidationError):
        obstruct_smooth(LinkFamilySpec(1, UNKNOT), D_UNIT, external_dbar=bad)


def test_smooth_computed_q5_regression():
    # frozen: 25-surgery on T(5,4) alone has dbar = 0 on 5 Z_25
    res = obstruct_smooth(LinkFamilySpec(2, UNKNOT), D_UNIT)
    assert res.verdict == NOT_OBSTRUCTED
    assert res.model.n == 25
    witness = res.metabolizer.witness
    assert witness.sorted_elements() == [(0,), (5,), (10,), (15,), (20,)]
    from conclab.dinv import lspace_v_sequence
    from conclab.polyalg import torus_knot_alexander
    assert lspace_v_sequence(torus_knot_alexander(5, 4)).values == \
        (3, 2, 1, 1, 1, 1, 0)


def test_smooth_verdict_record_is_recomputable():
    from conclab.dinv import dbar_vanishing_obstruction
    res = obstruct_smooth(LinkFamilySpec(1, UNKNOT), D_UNIT,
                          external_dbar=hlr_table())
    again = dbar_vanishing_obstruction(res.dbar, res.spec.q)
    assert again.status == res.metabolizer.status
    assert res.dbar == hlr_table() and res.dbar_source.startswith("external (")

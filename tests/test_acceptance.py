"""Acceptance suite: one criterion per test, each printing a PASS line
with its runtime and asserting the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import random
import time
from fractions import Fraction

import pytest

from conclab import FamilyChoiceError
from conclab.abgroup import FiniteAbelianGroup, subgroups_of_order
from conclab.dinv import (DTable, VSequence, dbar_vanishing_obstruction,
                          large_surgery_d_table, lens_d_invariant,
                          lens_d_table, lspace_v_sequence)
from conclab.obstruct import (NOT_OBSTRUCTED, OBSTRUCTED, LinkFamilySpec,
                              covering_jump_function, obstruct_smooth,
                              obstruct_topological)
from conclab.polyalg import (LaurentPoly, PolySet, branched_homology_order,
                             normalize_alexander)
from conclab.seifert import (TREFOIL, UNKNOT, alexander_from_seifert,
                             connected_sum, jump_function, jump_locations,
                             minimal_period, reverse, signature_at)

from conftest import (cyclotomic_jump_matrix, merge_jump_functions, plain_det,
                      random_genuine_matrix)

D_UNIT = PolySet.of(LaurentPoly.one())


class Budget:
    def __init__(self, number: int, description: str, seconds: float):
        self.number = number
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {status} ({elapsed:.3f}s / "
              f"{self.seconds:.0f}s budget): {self.description}")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"criterion {self.number} exceeded its {self.seconds}s budget"
        return False


def test_criterion_1_trefoil_signature_data():
    with Budget(1, "trefoil jumps at {1/6, 5/6} with values -2/+2", 1.0):
        assert jump_locations(TREFOIL) == [Fraction(1, 6), Fraction(5, 6)]
        jf = jump_function(TREFOIL, 1)
        assert [(j.position, j.value) for j in jf.jumps] == \
            [(Fraction(1, 6), -2), (Fraction(5, 6), 2)]
        assert jf.exactness == "exact"


def test_criterion_2_minimal_period_scaling():
    with Budget(2, "covering jump function has minimal period q for "
                   "q in {3,5,7,11}", 1.0):
        for q in (3, 5, 7, 11):
            spec = LinkFamilySpec((q - 1) // 2, TREFOIL)
            mp = minimal_period(covering_jump_function(spec))
            assert mp.kind == "exact" and mp.value == Fraction(q)


def test_criterion_3_topological_pipeline():
    with Budget(3, "topological pipeline: trefoil OBSTRUCTED, unknot "
                   "NOT_OBSTRUCTED for D = {1}", 1.0):
        assert obstruct_topological(LinkFamilySpec(1, TREFOIL), D_UNIT).verdict \
            == OBSTRUCTED
        assert obstruct_topological(LinkFamilySpec(1, UNKNOT), D_UNIT).verdict \
            == NOT_OBSTRUCTED


def test_criterion_4_generalized_collection():
    with Budget(4, "D = {t^2-3t+1}: excluded = {5}, q=3 OBSTRUCTED, "
                   "q=5 rejected", 1.0):
        golden = PolySet.of(normalize_alexander([1, -3, 1]))
        from conclab.polyalg import excluded_primes
        assert excluded_primes(golden, 2).sorted_excluded() == [5]
        assert obstruct_topological(LinkFamilySpec(1, TREFOIL), golden).verdict \
            == OBSTRUCTED
        with pytest.raises(FamilyChoiceError):
            obstruct_topological(LinkFamilySpec(2, TREFOIL), golden)


def test_criterion_5_fox_formula_oracle():
    with Budget(5, "Fox formula on 200 random Seifert matrices of size "
                   "<= 6", 10.0):
        rng = random.Random(5)
        for k in range(200):
            genus = (k % 3) + 1  # sizes 2, 4, 6
            a = random_genuine_matrix(rng, genus)
            f = alexander_from_seifert(a)
            n = a.size
            s = [[int(a.entries[i][j] + a.entries[j][i]) for j in range(n)]
                 for i in range(n)]
            assert branched_homology_order(f, 2) == abs(plain_det(s))


def test_criterion_6_lens_space_recursion():
    with Budget(6, "lens recursion equals the L(p,1) closed form for "
                   "p <= 50", 5.0):
        for p in range(1, 51):
            for i in range(p):
                assert lens_d_invariant(p, 1, i) == \
                    Fraction((2 * i - p) ** 2 - p, 4 * p)
        assert {lens_d_invariant(2, 1, i) for i in range(2)} == \
            {Fraction(1, 4), Fraction(-1, 4)}


def test_criterion_7_smooth_pipeline():
    with Budget(7, "smooth pipeline with the external dbar bound: "
                   "OBSTRUCTED via the unique metabolizer {0,3,6}", 1.0):
        external = DTable(
            FiniteAbelianGroup((9,)),
            {(3,): Fraction(2), (6,): Fraction(2)},
            provenance="external bound dbar(M, q) >= 2; not recomputable "
                       "at desk scale")
        res = obstruct_smooth(LinkFamilySpec(1, UNKNOT), D_UNIT,
                              external_dbar=external)
        assert res.verdict == OBSTRUCTED
        assert len(res.metabolizer.reports) == 1
        candidate = res.metabolizer.reports[0]
        assert candidate.subgroup.sorted_elements() == [(0,), (3,), (6,)]
        assert candidate.violations == (((3,), Fraction(2)), ((6,), Fraction(2)))


def test_criterion_8_property_suites():
    with Budget(8, "nine randomized property suites, >= 100 cases each", 60.0):
        rng = random.Random(8)

        # (a) sigma(t) = sigma(1 - t)
        done = 0
        while done < 100:
            a = random_genuine_matrix(rng, rng.randint(1, 3))
            t = Fraction(rng.randint(1, 49), rng.choice([100, 101, 360]))
            try:
                assert signature_at(a, t) == signature_at(a, 1 - t)
            except Exception as e:
                from conclab import JumpEvaluationError
                if isinstance(e, JumpEvaluationError):
                    continue
                raise
            done += 1

        # (b) jump additivity under block sum
        for _ in range(100):
            a, b = cyclotomic_jump_matrix(rng), cyclotomic_jump_matrix(rng)
            c = rng.randint(1, 3)
            assert jump_function(connected_sum(a, b), c) == \
                merge_jump_functions(jump_function(a, c), jump_function(b, c))

        # (c) transpose invariance
        for k in range(100):
            a = random_genuine_matrix(rng, rng.randint(1, 2)) if k % 2 \
                else cyclotomic_jump_matrix(rng)
            assert jump_function(reverse(a), 1) == jump_function(a, 1)

        # (d) values even, total zero per period
        for _ in range(100):
            jf = jump_function(random_genuine_matrix(rng, rng.randint(1, 2)),
                               rng.randint(1, 3))
            assert sum(j.value for j in jf.jumps) == 0
            assert all(j.value % 2 == 0 and j.value != 0 for j in jf.jumps)

        # (e) multiplicativity of the homology order
        done = 0
        while done < 100:
            f = LaurentPoly.from_dict(
                {rng.randint(-3, 3): rng.randint(-2, 2) for _ in range(3)})
            g = LaurentPoly.from_dict(
                {rng.randint(-3, 3): rng.randint(-2, 2) for _ in range(3)})
            if f.is_zero() or g.is_zero():
                continue
            d = rng.randint(1, 12)
            assert branched_homology_order(f * g, d) == \
                branched_homology_order(f, d) * branched_homology_order(g, d)
            done += 1

        # (f) subgroup counts
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            assert len(subgroups_of_order(FiniteAbelianGroup((p * p,)), p)) == 1
            assert len(subgroups_of_order(FiniteAbelianGroup((p, p)), p)) == p + 1

        # (g) V-sequence step condition on accepted inputs
        for _ in range(100):
            r = rng.randint(0, 4)
            exps = sorted(rng.sample(range(1, 10), r + 1), reverse=True)
            coeffs = {}
            sign = 1
            for e in exps:
                coeffs[e] = coeffs[-e] = sign
                sign = -sign
            coeffs[0] = sign
            v = lspace_v_sequence(LaurentPoly.from_dict(coeffs)).values
            assert all(v[j] - v[j + 1] in (0, 1) for j in range(len(v) - 1))
            assert v[-1] == 0 and min(v) >= 0

        # (h) zero V-sequence reduces to the lens table
        for _ in range(100):
            n = rng.randint(1, 50)
            assert large_surgery_d_table(n, VSequence.zero()).values == \
                lens_d_table(n, 1).values

        # (i) monotonicity: adding nonzero dbar values never flips
        # OBSTRUCTED to PASSES
        for _ in range(100):
            g = FiniteAbelianGroup(rng.choice([(9,), (3, 3), (4,), (25,)]))
            q = rng.choice([2, 3, 5])
            data = {}
            for x in g.elements():
                if x == g.zero:
                    continue
                roll = rng.random()
                if roll < 0.4:
                    data[x] = Fraction(0)
                elif roll < 0.7:
                    data[x] = Fraction(rng.randint(1, 3))
            before = dbar_vanishing_obstruction(DTable(g, data), q)
            extended = dict(data)
            for x in g.elements():
                if x != g.zero and x not in extended and rng.random() < 0.5:
                    extended[x] = Fraction(rng.randint(1, 4))
            after = dbar_vanishing_obstruction(DTable(g, extended), q)
            if before.status == "OBSTRUCTED":
                assert after.status == "OBSTRUCTED"

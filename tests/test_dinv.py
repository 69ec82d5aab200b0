"""Correction terms: recursion vs closed form, V-sequences, surgery
tables, and the vanishing obstruction (including monotonicity)."""

import random
from fractions import Fraction
from math import gcd

import pytest

from conclab import NotLSpaceKnotError, SizeBoundError, ValidationError
from conclab.abgroup import SUBGROUP_ENUMERATION_BOUND, FiniteAbelianGroup
from conclab.dinv import (DTable, VSequence, dbar_table,
                          dbar_vanishing_obstruction,
                          is_lspace_knot_polynomial, large_surgery_d,
                          large_surgery_d_table, lens_d_invariant,
                          lens_d_table, lspace_v_sequence)
from conclab.polyalg import LaurentPoly, torus_knot_alexander

from conftest import check_conjugation_symmetry


def closed_form_lp1(p: int, i: int) -> Fraction:
    return Fraction((2 * i - p) ** 2 - p, 4 * p)


# --- lens spaces -----------------------------------------------------------------

def test_lens_base_cases():
    assert lens_d_invariant(1, 0, 0) == 0
    assert lens_d_invariant(1, 5, 0) == 0


def test_lens_l21_and_l31():
    assert {lens_d_invariant(2, 1, i) for i in range(2)} == \
        {Fraction(1, 4), Fraction(-1, 4)}
    vals = sorted(lens_d_invariant(3, 1, i) for i in range(3))
    assert vals == [Fraction(-1, 6), Fraction(-1, 6), Fraction(1, 2)]


def test_lens_recursion_matches_closed_form_all_p_up_to_50():
    for p in range(1, 51):
        for i in range(p):
            assert lens_d_invariant(p, 1, i) == closed_form_lp1(p, i)


def test_lens_orientation_reversal():
    # L(3, 2) = -L(3, 1): the value multisets are negatives of each other
    direct = sorted(lens_d_invariant(3, 2, i) for i in range(3))
    reversed_ = sorted(-lens_d_invariant(3, 1, i) for i in range(3))
    assert direct == reversed_ == \
        [Fraction(-1, 2), Fraction(1, 6), Fraction(1, 6)]


def test_lens_validation():
    with pytest.raises(ValidationError):
        lens_d_invariant(4, 2, 0)
    with pytest.raises(ValidationError):
        lens_d_invariant(3, 1, 3)
    with pytest.raises(ValidationError):
        lens_d_invariant(0, 1, 0)


def test_lens_table_conjugation_symmetric():
    for p, q in ((5, 1), (7, 1), (9, 1), (25, 1)):
        t = lens_d_table(p, q)
        assert check_conjugation_symmetry(t)
    neg = lens_d_table(5, 1, orientation=-1)
    assert neg.value_at((0,)) == -lens_d_table(5, 1).value_at((0,))


# --- V-sequences ------------------------------------------------------------------

def test_tables_past_the_enumeration_bound_are_refused():
    # refused before a single label is computed
    n = SUBGROUP_ENUMERATION_BOUND + 1
    with pytest.raises(SizeBoundError, match=f"table of order {n} exceeds"):
        lens_d_table(n, 1)
    with pytest.raises(SizeBoundError, match=f"table of order {n} exceeds"):
        large_surgery_d_table(n, VSequence.zero())


def test_vsequence_validation():
    VSequence((0,))
    VSequence((2, 1, 1, 0))
    with pytest.raises(ValidationError):
        VSequence(())
    with pytest.raises(ValidationError):
        VSequence((1,))            # must end at 0
    with pytest.raises(ValidationError):
        VSequence((3, 1, 0))       # step 2
    with pytest.raises(ValidationError):
        VSequence((0, 1, 0))       # increasing


def test_lspace_test_accepts_and_rejects():
    assert is_lspace_knot_polynomial(LaurentPoly.one())
    assert is_lspace_knot_polynomial(torus_knot_alexander(3, 4))
    trefoil = torus_knot_alexander(2, 3)
    assert not is_lspace_knot_polynomial(trefoil * trefoil)
    fig8 = LaurentPoly.from_dict({-1: -1, 0: 3, 1: -1})
    assert not is_lspace_knot_polynomial(fig8)


def test_vseq_spec_examples():
    assert lspace_v_sequence(LaurentPoly.one()).values == (0,)
    assert lspace_v_sequence(torus_knot_alexander(2, 3)).values == (1, 0)
    with pytest.raises(NotLSpaceKnotError):
        f = torus_knot_alexander(2, 3)
        lspace_v_sequence(f * f)


def random_staircase(rng: random.Random) -> LaurentPoly:
    """Random symmetric alternating +-1 polynomial (always passes the
    staircase test by construction)."""
    r = rng.randint(0, 4)
    exps = sorted(rng.sample(range(1, 10), r + 1), reverse=True)
    coeffs = {}
    sign = 1
    for e in exps:
        coeffs[e] = sign
        coeffs[-e] = sign
        sign = -sign
    coeffs[0] = sign
    return LaurentPoly.from_dict(coeffs)


def test_vseq_steps_property(rng):
    # acceptance property: V_i >= V_{i+1} >= V_i - 1 >= 0 on all accepted
    # inputs, 100 randomized staircases (validated in VSequence, checked
    # explicitly here)
    for _ in range(100):
        f = random_staircase(rng)
        assert is_lspace_knot_polynomial(f)
        v = lspace_v_sequence(f).values
        assert v[-1] == 0
        for j in range(len(v) - 1):
            assert v[j] - v[j + 1] in (0, 1)
            assert v[j + 1] >= 0


# --- large surgeries ---------------------------------------------------------------

def test_large_surgery_zero_v_is_lens(rng):
    # exact equality for n <= 50
    for n in range(1, 51):
        tab = large_surgery_d_table(n, VSequence.zero())
        lens = lens_d_table(n, 1)
        assert tab == lens


def test_large_surgery_trefoil_nine():
    v = lspace_v_sequence(torus_knot_alexander(2, 3))
    tab = large_surgery_d_table(9, v)
    # closed-form cross-check over all 9 labels
    for i in range(9):
        expected = closed_form_lp1(9, i) - 2 * (1 if min(i, 9 - i) == 0 else 0)
        assert large_surgery_d(9, v, i) == expected
        assert tab.value_at((i,)) == expected
    assert tab.value_at((0,)) == 0
    assert check_conjugation_symmetry(tab)


def test_large_surgery_closed_form_matches_lens_recursion_up_to_200():
    # the surgery side reads d(L(n, 1), i) from its closed form; the lens
    # recursion agrees on every label, and a table adds nothing to its cache
    from conclab.dinv import _lens_rec
    zero = VSequence.zero()
    for n in range(1, 201):
        for i in range(n):
            assert large_surgery_d(n, zero, i) == lens_d_invariant(n, 1, i)
    before = _lens_rec.cache_info()
    large_surgery_d_table(21 * 21, lspace_v_sequence(torus_knot_alexander(3, 2)))
    after = _lens_rec.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_lens_cache_is_bounded():
    from conclab.dinv import _lens_rec
    p = _lens_rec.cache_info().maxsize + 1
    for i in range(p):       # p + 1 distinct entries: L(p, 1) at every label, then S^3
        lens_d_invariant(p, 1, i)
    assert _lens_rec.cache_info().currsize <= _lens_rec.cache_info().maxsize
    assert lens_d_table(5, 2) == lens_d_table(5, 2)


def test_lens_table_level_by_level_matches_the_recursion():
    # every coprime (p, q) with p <= 60, both orientations: the integer
    # levels give the recursion's value at every label, over a denominator
    # dividing 4p, and leave the recursion's cache alone
    from conclab.dinv import _lens_rec
    pairs = [(p, q) for p in range(1, 61) for q in range(p) if gcd(p, q) == 1]
    before = _lens_rec.cache_info()
    tables = {(p, q, o): lens_d_table(p, q, o) for p, q in pairs for o in (1, -1)}
    assert _lens_rec.cache_info()[:2] == before[:2]
    for (p, q, o), t in tables.items():
        assert (4 * p) % t.denominator == 0
        assert len(t.numerators) == p
        assert all(t.value_at((i,) if p > 1 else ()) == o * lens_d_invariant(p, q, i)
                   for i in range(p))


def random_v_sequence(rng: random.Random) -> VSequence:
    """A V-sequence of random length up to 120 with random steps in {0, 1}."""
    v = [0]
    for _ in range(rng.randrange(120)):
        v.append(v[-1] + rng.randint(0, 1))
    return VSequence(tuple(reversed(v)))


def test_surgery_numerators_match_the_fraction_closed_form(rng):
    # over 4n the numerators are (2i - n)^2 - n - 8n V_min(i, n-i), and
    # each value is the Fraction closed form, for every n <= 200
    for n in range(1, 201):
        v = random_v_sequence(rng)
        t = large_surgery_d_table(n, v)
        scale = 4 * n // t.denominator
        assert scale * t.denominator == 4 * n
        for i in range(n):
            num = t.numerators[(i,) if n > 1 else ()]
            assert num * scale == (2 * i - n) ** 2 - n - 8 * n * v.at(min(i, n - i))
            assert Fraction(num, t.denominator) == \
                Fraction((2 * i - n) ** 2 - n, 4 * n) - 2 * v.at(min(i, n - i))


def test_surgery_below_the_old_large_surgery_threshold():
    # Ni-Wu's formula holds for every n >= 1, below 2g - 1 = 5 too; at
    # n = 1 it is Ozsvath-Szabo's d(S^3_1(K)) = -2 V_0
    v = VSequence((2, 1, 1, 0))
    assert [large_surgery_d(4, v, i) for i in range(4)] == [
        Fraction(-13, 4), -2, Fraction(-9, 4), -2]
    assert large_surgery_d(1, v, 0) == -4 == -2 * v.at(0)
    assert check_conjugation_symmetry(large_surgery_d_table(4, v))


def _dbar_at_multiples_of_q(q: int, v: VSequence) -> list[Fraction]:
    dbar = dbar_table(large_surgery_d_table(q * q, v))
    return [dbar.value_at((k * q,)) for k in range(1, (q - 1) // 2 + 1)]


def test_paper_identity_on_the_order_q_subgroup():
    # the paper's identity 2 (V_0 - V_kq) = k (q - k) for T(q, q - 1), so
    # dbar of q^2-surgery vanishes on the subgroup of order q
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        v = lspace_v_sequence(torus_knot_alexander(q, q - 1))
        for k in range(1, (q - 1) // 2 + 1):
            assert 2 * (v.at(0) - v.at(k * q)) == k * (q - k)
        assert _dbar_at_multiples_of_q(q, v) == [0] * ((q - 1) // 2)


def test_dbar_at_multiples_of_q_for_random_v_sequences(rng):
    # dbar(kq) = 2 (V_0 - V_kq) - k (q - k) on q^2-surgery for any V,
    # whatever its genus
    for _ in range(100):
        q = rng.randrange(3, 16, 2)
        v = lspace_v_sequence(random_staircase(rng))
        assert _dbar_at_multiples_of_q(q, v) == [
            2 * (v.at(0) - v.at(k * q)) - k * (q - k) for k in range(1, (q - 1) // 2 + 1)]


# --- dbar ---------------------------------------------------------------------------

def test_dbar_examples():
    G = FiniteAbelianGroup((2,))
    t = DTable.from_values(G, {(0,): Fraction(1, 4), (1,): Fraction(-1, 4)})
    red = dbar_table(t)
    assert red.value_at((0,)) == 0
    assert red.value_at((1,)) == Fraction(-1, 2)
    # constant table reduces to zero
    tc = DTable.from_values(G, {(0,): Fraction(3), (1,): Fraction(3)})
    assert all(v == 0 for v in dbar_table(tc).numerators.values())


def test_dbar_preserves_conjugation_symmetry():
    t = lens_d_table(9, 1)
    assert check_conjugation_symmetry(dbar_table(t))


def test_internal_tables_are_conjugation_symmetric_by_construction(rng):
    # no table is checked when it is built: n-surgery tables are symmetric
    # about the spin label 0 at every n <= 60 for random staircases; the
    # lens recursion's labels put the conjugation of L(p, q) at
    # i -> q - 1 - i, which is negation only at q = 1 (or p <= 2); dbar
    # keeps both
    staircases = [VSequence.zero()] + [lspace_v_sequence(random_staircase(rng))
                                       for _ in range(12)]
    for v in staircases:
        for n in range(1, 61):
            t = large_surgery_d_table(n, v)
            assert check_conjugation_symmetry(t) and check_conjugation_symmetry(dbar_table(t))
    for p in range(1, 41):
        for q in range(p):
            if gcd(p, q) == 1:
                t = lens_d_table(p, q)
                c = ((q - 1) % p,) if p > 1 else ()
                assert check_conjugation_symmetry(t, c)
                assert check_conjugation_symmetry(dbar_table(t), c)
                assert check_conjugation_symmetry(t) == (p <= 2 or q == 1)


def test_dbar_requires_basepoint():
    G = FiniteAbelianGroup((2,))
    with pytest.raises(ValidationError):
        dbar_table(DTable.from_values(G, {(1,): Fraction(1)}))


# --- the vanishing obstruction --------------------------------------------------------

def test_obstruction_spec_example_obstructed():
    G = FiniteAbelianGroup((9,))
    res = dbar_vanishing_obstruction(
        DTable.from_values(G, {(0,): Fraction(0), (1,): Fraction(7, 3), (3,): Fraction(2),
                               (6,): Fraction(2)}), 3)
    assert res.status == "OBSTRUCTED"
    assert res.reports[0].violations == (((3,), Fraction(2)), ((6,), Fraction(2)))


def test_obstruction_all_zero_passes():
    G = FiniteAbelianGroup((9,))
    res = dbar_vanishing_obstruction(
        DTable.from_values(G, {(i,): Fraction(0) for i in range(9)}), 3)
    assert res.status == "PASSES"
    assert res.witness is not None
    assert res.witness.sorted_elements() == [(0,), (3,), (6,)]


def test_obstruction_plane_single_vanishing_line():
    G = FiniteAbelianGroup((3, 3))
    # zero exactly on the diagonal subgroup {(0,0),(1,1),(2,2)}
    data = {}
    for a in range(3):
        for b in range(3):
            data[(a, b)] = Fraction(0) if a == b else Fraction(1)
    res = dbar_vanishing_obstruction(DTable.from_values(G, data), 3)
    assert res.status == "PASSES"
    assert res.witness.sorted_elements() == [(0, 0), (1, 1), (2, 2)]


def test_obstruction_missing_data_inconclusive():
    G = FiniteAbelianGroup((9,))
    res = dbar_vanishing_obstruction(DTable.from_values(G, {(3,): Fraction(0)}), 3)
    assert res.status == "INCONCLUSIVE"
    assert res.missing_elements == ((6,),)


def test_obstruction_not_square_vacuously_obstructed():
    G = FiniteAbelianGroup((3,))
    res = dbar_vanishing_obstruction(
        DTable.from_values(G, {(1,): Fraction(0), (2,): Fraction(0)}), 3)
    assert res.status == "OBSTRUCTED"
    assert res.search.is_square is False
    assert res.reports == ()


def test_obstruction_rejects_nonzero_basepoint():
    G = FiniteAbelianGroup((9,))
    with pytest.raises(ValidationError):
        dbar_vanishing_obstruction(DTable.from_values(G, {(0,): Fraction(1)}), 3)


def test_obstruction_monotone_under_adding_nonzero(rng):
    # adding nonzero dbar values never flips OBSTRUCTED to PASSES;
    # 100 randomized cases
    cases = 0
    while cases < 100:
        factors = rng.choice([(9,), (3, 3), (4,), (2, 2), (25,), (2, 4)])
        G = FiniteAbelianGroup(factors)
        q = rng.choice([2, 3, 5])
        elements = G.elements()
        data = {}
        for x in elements:
            if x == G.zero:
                continue
            roll = rng.random()
            if roll < 0.4:
                data[x] = Fraction(0)
            elif roll < 0.7:
                data[x] = Fraction(rng.randint(1, 3))
        before = dbar_vanishing_obstruction(DTable.from_values(G, data), q)
        # add nonzero values at some previously missing elements
        extended = dict(data)
        for x in elements:
            if x != G.zero and x not in extended and rng.random() < 0.5:
                extended[x] = Fraction(rng.randint(1, 4))
        after = dbar_vanishing_obstruction(DTable.from_values(G, extended), q)
        if before.status == "OBSTRUCTED":
            assert after.status == "OBSTRUCTED"
        if before.status == "PASSES" and after.status == "PASSES":
            pass  # witnesses may differ; nothing to assert
        cases += 1


# --- theorem-level cross-checks of the lens recursion ------------------------------

def test_lens_orientation_reversal_theorem():
    # L(p, p-q) is L(p, q) with reversed orientation: the correction-term
    # multisets must be negatives of each other
    from math import gcd
    for p in range(2, 31):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            direct = sorted(lens_d_invariant(p, q, i) for i in range(p))
            rev = sorted(-lens_d_invariant(p, p - q, i) for i in range(p))
            assert direct == rev


def test_lens_homeomorphism_invariance():
    # L(p, q) and L(p, q') are orientation-preserving homeomorphic when
    # q q' = 1 mod p, so the multisets agree
    from math import gcd
    for p in range(2, 31):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            qbar = pow(q, -1, p)
            a = sorted(lens_d_invariant(p, q, i) for i in range(p))
            b = sorted(lens_d_invariant(p, qbar, i) for i in range(p))
            assert a == b


# --- semigroup-gap oracle for torus knot V-sequences ---------------------------------

def semigroup_gap_v_oracle(a: int, b: int) -> tuple:
    """V_s of the (a, b) torus knot from the numerical semigroup <a, b>:
    V_s counts the semigroup gaps that are >= g + s."""
    g = (a - 1) * (b - 1) // 2
    frobenius = a * b - a - b
    semigroup = set()
    for i in range(0, frobenius + a * b):
        for x in range(0, i // a + 1):
            if (i - a * x) % b == 0:
                semigroup.add(i)
                break
    gaps = [k for k in range(1, frobenius + 1) if k not in semigroup]
    assert len(gaps) == g
    return tuple(sum(1 for k in gaps if k >= g + s) for s in range(g + 1))


def test_vseq_matches_semigroup_oracle():
    from math import gcd
    for a in range(2, 7):
        for b in range(a + 1, 9):
            if gcd(a, b) != 1:
                continue
            v = lspace_v_sequence(torus_knot_alexander(a, b))
            assert v.values == semigroup_gap_v_oracle(a, b)

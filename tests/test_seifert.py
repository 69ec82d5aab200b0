"""Signature machinery: spec'd examples, float oracle, randomized
properties (symmetry, additivity, transpose invariance, parity)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conclab import (DegenerateFormError, JumpEvaluationError, ValidationError)
from conclab.polyalg import LaurentPoly
from conclab.seifert import (FIGURE_EIGHT, TREFOIL, UNKNOT, Jump, JumpFunction,
                             MinimalPeriod, SeifertMatrix,
                             alexander_from_seifert, connected_sum,
                             jump_function, jump_locations,
                             merge_jump_functions, minimal_period, mirror,
                             reverse, scale_jump_function, signature_at,
                             _inertia)
from conclab._intervals import RatInterval

from conftest import (cyclotomic_jump_matrix, random_genuine_matrix,
                      torus_2_strand_matrix)

FIVE_TWO = SeifertMatrix.from_rows([[-1, 1], [0, -2]], "5_2")


def numpy_signature(a: SeifertMatrix, t: float) -> tuple[int, float]:
    """Floating-point signature oracle: eigenvalues of the Hermitian form,
    plus the smallest absolute eigenvalue for degeneracy screening."""
    n = a.size
    if n == 0:
        return 0, math.inf
    m = np.array([[float(x) for x in row] for row in a.entries])
    w = complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))
    h = (1 - w) * m + (1 - w.conjugate()) * m.T
    eigs = np.linalg.eigvalsh(h)
    sig = int(np.sum(eigs > 0) - np.sum(eigs < 0))
    return sig, float(np.min(np.abs(eigs))) if n else math.inf


# --- alexander_from_seifert ---------------------------------------------------

def test_alexander_spec_examples():
    assert alexander_from_seifert(TREFOIL).pairs == ((-1, 1), (0, -1), (1, 1))
    assert alexander_from_seifert(UNKNOT) == LaurentPoly.one()
    assert alexander_from_seifert(FIGURE_EIGHT).pairs == ((-1, -1), (0, 3), (1, -1))


def test_alexander_genuine_gives_unit_at_one(rng):
    for _ in range(100):
        a = random_genuine_matrix(rng, rng.randint(1, 3))
        f = alexander_from_seifert(a)
        assert f(1) in (1, -1)
        assert f.is_symmetric


def test_alexander_stabilized_unknot():
    a = SeifertMatrix.from_rows([[0, 1], [0, 0]])
    assert alexander_from_seifert(a) == LaurentPoly.one()


# --- signature_at ----------------------------------------------------------------

def test_signature_spec_examples():
    assert signature_at(TREFOIL, Fraction(1, 2)) == -2
    assert signature_at(TREFOIL, Fraction(1, 100)) == 0
    assert signature_at(UNKNOT, Fraction(1, 3)) == 0


def test_signature_at_jump_point_rejected():
    with pytest.raises(JumpEvaluationError):
        signature_at(TREFOIL, Fraction(1, 6))
    with pytest.raises(JumpEvaluationError):
        signature_at(TREFOIL, Fraction(5, 6))


def test_signature_outside_domain_rejected():
    with pytest.raises(ValidationError):
        signature_at(TREFOIL, Fraction(0))
    with pytest.raises(ValidationError):
        signature_at(TREFOIL, Fraction(3, 2))


def test_signature_degenerate_pencil_rejected():
    z = SeifertMatrix.from_rows([[0]])
    with pytest.raises(DegenerateFormError):
        signature_at(z, Fraction(1, 3))


def test_signature_matches_numpy_oracle(rng):
    checked = 0
    while checked < 120:
        a = random_genuine_matrix(rng, rng.randint(1, 2))
        t = Fraction(rng.randint(1, 99), 100)
        try:
            exact = signature_at(a, t)
        except JumpEvaluationError:
            continue
        approx, min_abs = numpy_signature(a, float(t))
        if min_abs < 1e-8:
            continue
        assert exact == approx
        checked += 1


def test_inertia_matches_numpy_eigvalsh(rng):
    """Exact congruence counts against float eigenvalue signs.  Entries are
    small enough that every nonzero eigenvalue is far above the float
    error: their product over any rank-sized set is a nonzero integer."""
    cases = [[[0] * n for _ in range(n)] for n in range(4)]
    cases += [[[0, 1], [1, 0]],
              [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
              [[1, 0, 0], [0, 0, 2], [0, 2, 0]],
              [[1, 1, 0], [1, 1, 0], [0, 0, 0]]]
    for kind in range(300):
        n = rng.randint(1, 6)
        if kind % 3 == 2:
            # sum of rank-one terms +-v v^T: singular whenever rank < n
            m = [[0] * n for _ in range(n)]
            for _ in range(rng.randint(0, min(n, 3))):
                v = [rng.randint(-1, 1) for _ in range(n)]
                s = rng.choice([-1, 1])
                for i in range(n):
                    for j in range(n):
                        m[i][j] += s * v[i] * v[j]
        else:
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.randint(-3, 3)
            if kind % 3 == 1:
                for i in range(n):
                    m[i][i] = 0
        cases.append(m)
    for m in cases:
        eigs = np.linalg.eigvalsh(np.array(m, dtype=float).reshape(len(m), len(m)))
        expected = (int(np.sum(eigs > 1e-9)), int(np.sum(eigs < -1e-9)),
                    int(np.sum(np.abs(eigs) <= 1e-9)))
        assert _inertia(m) == expected, m


def test_signature_symmetry_property(rng):
    # sigma(t) = sigma(1 - t), 100 randomized cases
    checked = 0
    while checked < 100:
        a = random_genuine_matrix(rng, rng.randint(1, 3))
        t = Fraction(rng.randint(1, 49), rng.choice([100, 101, 360]))
        try:
            left = signature_at(a, t)
            right = signature_at(a, 1 - t)
        except JumpEvaluationError:
            continue
        assert left == right
        checked += 1


def test_signature_additive_under_block_sum(rng):
    checked = 0
    while checked < 100:
        a = random_genuine_matrix(rng, 1)
        b = random_genuine_matrix(rng, rng.randint(1, 2))
        t = Fraction(rng.randint(1, 999), 1000)
        try:
            assert signature_at(connected_sum(a, b), t) == \
                signature_at(a, t) + signature_at(b, t)
        except JumpEvaluationError:
            continue
        checked += 1


# --- jump locations ---------------------------------------------------------------

def test_jump_locations_spec_examples():
    assert jump_locations(TREFOIL) == [Fraction(1, 6), Fraction(5, 6)]
    assert jump_locations(FIGURE_EIGHT) == []
    assert jump_locations(UNKNOT) == []


def test_jump_locations_t25():
    # (2,5) torus knot: zeros at the primitive 10th roots of unity
    locs = jump_locations(torus_2_strand_matrix(2))
    assert locs == [Fraction(1, 10), Fraction(3, 10), Fraction(7, 10), Fraction(9, 10)]


def test_jump_locations_non_cyclotomic_interval():
    locs = jump_locations(FIVE_TWO)
    assert len(locs) == 2
    assert all(isinstance(p, RatInterval) for p in locs)
    lo, hi = locs
    # the roots of 2t^2 - 3t + 2 on the circle: cos(2 pi t) = 3/4
    assert abs(math.cos(2 * math.pi * float(lo.mid)) - 0.75) < 1e-12
    assert abs(math.cos(2 * math.pi * float(hi.mid)) - 0.75) < 1e-12
    assert float(lo.mid) < 0.5 < float(hi.mid)
    assert lo.width <= Fraction(1, 2) ** 100


def test_jump_locations_degenerate():
    with pytest.raises(DegenerateFormError):
        jump_locations(SeifertMatrix.from_rows([[0, 0], [0, 1]]))


# --- jump functions ---------------------------------------------------------------

def test_jump_function_trefoil():
    jf = jump_function(TREFOIL, 1)
    assert jf.ambient_period == 1
    assert [(j.position, j.value) for j in jf.jumps] == \
        [(Fraction(1, 6), -2), (Fraction(5, 6), 2)]
    assert jf.exactness == "exact"


def test_jump_function_unknot_empty():
    for c in (1, 4):
        jf = jump_function(UNKNOT, c)
        assert jf.is_zero_function()
        assert jf.ambient_period == c


def test_jump_function_reparametrized():
    jf = jump_function(TREFOIL, 3)
    assert [(j.position, j.value) for j in jf.jumps] == \
        [(Fraction(1, 2), -2), (Fraction(5, 2), 2)]
    assert jf.ambient_period == 3


def test_jump_function_mirror_negates():
    jf = jump_function(mirror(TREFOIL), 1)
    assert [(j.position, j.value) for j in jf.jumps] == \
        [(Fraction(1, 6), 2), (Fraction(5, 6), -2)]


def test_jump_function_connected_sum_with_reverse_doubles():
    jf = jump_function(connected_sum(TREFOIL, reverse(TREFOIL)), 1)
    assert [(j.position, j.value) for j in jf.jumps] == \
        [(Fraction(1, 6), -4), (Fraction(5, 6), 4)]


def test_jump_function_sum_with_unknot_identity(rng):
    a = cyclotomic_jump_matrix(rng)
    assert jump_function(connected_sum(a, UNKNOT), 1) == jump_function(a, 1)


def test_jump_additivity_block_sum(rng):
    # multiset additivity on exact (cyclotomic) matrices, 100 cases
    for _ in range(100):
        a = cyclotomic_jump_matrix(rng)
        b = cyclotomic_jump_matrix(rng)
        c = rng.randint(1, 4)
        left = jump_function(connected_sum(a, b), c)
        right = merge_jump_functions(jump_function(a, c), jump_function(b, c))
        assert left == right


def test_jump_transpose_invariance(rng):
    # 100 randomized cases, mixing genuine and cyclotomic matrices
    for k in range(100):
        a = random_genuine_matrix(rng, rng.randint(1, 2)) if k % 2 else \
            cyclotomic_jump_matrix(rng)
        assert jump_function(reverse(a), 1) == jump_function(a, 1)


def test_jump_values_even_and_sum_zero(rng):
    # parity and zero-sum, 100 randomized cases (validated on
    # construction; re-checked here explicitly)
    for _ in range(100):
        a = random_genuine_matrix(rng, rng.randint(1, 2))
        jf = jump_function(a, rng.randint(1, 3))
        assert sum(j.value for j in jf.jumps) == 0
        for j in jf.jumps:
            assert j.value % 2 == 0 and j.value != 0


def test_jump_function_grid_scan_oracle(rng):
    """Brute-force scan of signature_at straddling each jump."""
    cases = 0
    while cases < 25:
        a = random_genuine_matrix(rng, rng.randint(1, 2))
        jf = jump_function(a, 1)
        spans = []
        for j in jf.jumps:
            if isinstance(j.position, Fraction):
                spans.append((j.position, j.position, j.value))
            else:
                spans.append((j.position.lo, j.position.hi, j.value))
        walls = [Fraction(0)] + [s for span in spans for s in span[:2]] + [Fraction(1)]
        mids = []
        for i in range(0, len(walls) - 1, 2):
            lo, hi = walls[i], walls[i + 1]
            mids.append(lo + (hi - lo) / 2 if lo != 0 else hi / 2)
        # mids[k] sits strictly between jump k-1 and jump k
        sigs = []
        ok = True
        for t in mids:
            try:
                sigs.append(signature_at(a, t))
            except JumpEvaluationError:
                ok = False
                break
        if not ok:
            continue
        for k, (_, _, value) in enumerate(spans):
            assert sigs[k + 1] - sigs[k] == value
        cases += 1


# --- scaling and merging ------------------------------------------------------------

def test_scale_spec_examples():
    jf = jump_function(TREFOIL, 1)
    scaled = scale_jump_function(jf, 3)
    assert [(j.position, j.value) for j in scaled.jumps] == \
        [(Fraction(1, 2), -2), (Fraction(5, 2), 2)]
    assert scaled.ambient_period == 3
    assert scale_jump_function(jf, 1) == jf
    doubled = merge_jump_functions(jf, jf)
    five = scale_jump_function(doubled, 5)
    assert [(j.position, j.value) for j in five.jumps] == \
        [(Fraction(5, 6), -4), (Fraction(25, 6), 4)]
    assert five.ambient_period == 5


def test_scale_rejects_bad_factor():
    with pytest.raises(ValidationError):
        scale_jump_function(jump_function(TREFOIL, 1), 0)


def test_jump_validation():
    with pytest.raises(ValidationError):
        JumpFunction(Fraction(1), (Jump(Fraction(1, 3), 1),))   # odd value
    with pytest.raises(ValidationError):
        JumpFunction(Fraction(1), (Jump(Fraction(1, 3), 2),))   # nonzero sum
    with pytest.raises(ValidationError):
        JumpFunction(Fraction(1), (Jump(Fraction(2, 3), -2),
                                   Jump(Fraction(1, 3), 2)))    # out of order


# --- minimal periods -----------------------------------------------------------------

def test_minimal_period_spec_examples():
    assert minimal_period(jump_function(TREFOIL, 1)) == \
        MinimalPeriod("exact", Fraction(1))
    scaled = scale_jump_function(jump_function(TREFOIL, 1), 3)
    assert minimal_period(scaled) == MinimalPeriod("exact", Fraction(3))
    assert minimal_period(jump_function(UNKNOT, 1)).kind == "zero-function"


def test_minimal_period_finer_symmetry():
    jf = JumpFunction(Fraction(1), (
        Jump(Fraction(1, 8), -2), Jump(Fraction(3, 8), 2),
        Jump(Fraction(5, 8), -2), Jump(Fraction(7, 8), 2)))
    # translation by 1/2 preserves the multiset; by 1/4 it does not
    assert minimal_period(jf) == MinimalPeriod("exact", Fraction(1, 2))


def test_minimal_period_divides_ambient_and_translation_preserves(rng):
    for _ in range(60):
        a = cyclotomic_jump_matrix(rng)
        c = rng.randint(1, 4)
        jf = jump_function(a, c)
        mp = minimal_period(jf)
        if mp.kind == "zero-function":
            continue
        assert mp.kind == "exact"
        ratio = Fraction(jf.ambient_period) / mp.value
        assert ratio.denominator == 1
        table = {j.position: j.value for j in jf.jumps}
        shifted = {(p + mp.value) % jf.ambient_period: v for p, v in table.items()}
        assert shifted == table


def test_minimal_period_non_cyclotomic_refuted_to_exact():
    # 5_2 has a single interval-position jump pair; every k > 1 is
    # refutable by disjointness, so the period is still certified
    jf = jump_function(FIVE_TWO, 1)
    assert not jf.is_exact
    assert minimal_period(jf) == MinimalPeriod("exact", Fraction(1))


def test_minimal_period_numeric_unknown():
    def iv(lo, hi):
        return RatInterval(Fraction(lo), Fraction(hi))
    jf = JumpFunction(Fraction(1), (
        Jump(iv("1/10", "11/100"), -2), Jump(iv("35/100", "36/100"), 2),
        Jump(iv("6/10", "61/100"), -2), Jump(iv("85/100", "86/100"), 2)),
        precision_bits=64)
    # translation by 1/2 is value-compatible on overlapping intervals and
    # cannot be refuted from this data
    assert minimal_period(jf) == MinimalPeriod("numeric-unknown")


# --- degenerate forms ----------------------------------------------------------------

def test_zero_matrix_fully_degenerate():
    with pytest.raises(DegenerateFormError):
        jump_function(SeifertMatrix.from_rows([[0]]), 1)

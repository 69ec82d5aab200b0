"""Signature machinery: spec'd examples, float oracle, randomized
properties (symmetry, additivity, transpose invariance, parity)."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conclab import (DegenerateFormError, JumpEvaluationError, ValidationError)
from conclab import _poly, seifert
from conclab.obstruct import LinkFamilySpec, obstruct_topological
from conclab.polyalg import LaurentPoly, PolySet
from conclab.seifert import (FIGURE_EIGHT, TREFOIL, UNKNOT, Jump, JumpFunction,
                             MinimalPeriod, SeifertMatrix,
                             alexander_from_seifert, connected_sum,
                             jump_function, jump_locations, minimal_period,
                             mirror, reverse, scale_jump_function, signature_at,
                             _inertia)
from conclab._intervals import RatInterval
from conclab._primes import totients

from conftest import (cable_matrix, circle_compaction, congruent,
                      cyclotomic_at_units_by_mobius, cyclotomic_jump_matrix,
                      cyclotomic_split_unfiltered, det_fraction,
                      elementary_enlargement, gap_cotangent_reference, int_primitive,
                      lagrange_interpolate, merge_jump_functions, metabolic_sum,
                      minimal_period_exact_branch,
                      pencil_at_0_to_n, random_genuine_matrix, random_unimodular,
                      real_form, real_form_inertia, structured_pattern,
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


def test_pencil_matches_newton_interpolation_at_0_to_n(rng):
    # the balanced base-2^b digits of det(2^b E - E^T) against all n + 1
    # determinants at 0..n: odd and even n, singular E (with det E = 0 the
    # pencil drops degree), rational matrices (denominators up to 10^6),
    # zero pencils, and entries up to 10^15.  c I_n has the coefficients
    # +-c^n C(n, k); for even n, c times a sum of blocks [[0, 1], [0, 0]]
    # has f = c^n t^(n/2), whose one coefficient equals the bound h, which
    # a b one bit lower could not hold as a digit.
    cases = [UNKNOT, SeifertMatrix.from_rows([[0]]),
             SeifertMatrix.from_rows([[0, 0], [0, 0]]),
             SeifertMatrix.from_rows([[1, 2], [2, 4]])]   # (t - 1)^2 det E = 0
    for n in range(13):
        for _ in range(4):
            cases.append(SeifertMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]))
            cases.append(SeifertMatrix.from_rows(
                [[Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(n)]
                 for _ in range(n)]))
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            if n:
                rows[-1] = [2 * x for x in rows[0]]                # det E = 0
            cases.append(SeifertMatrix.from_rows(rows))
        cases.append(SeifertMatrix.from_rows([[0] * n for _ in range(n)]))
        for c in (1, -1, 2, 3, -7, 2 ** 29, 10 ** 9, -(10 ** 9)):
            cases.append(SeifertMatrix.from_rows(
                [[c * (i == j) for j in range(n)] for i in range(n)]))
            cases.append(SeifertMatrix.from_rows(
                [[c * (j == i + 1 and i % 2 == 0) for j in range(n)] for i in range(n)]))
        cases.append(SeifertMatrix.from_rows(
            [[rng.randint(-10 ** 15, 10 ** 15) for _ in range(n)] for _ in range(n)]))
        dens = [rng.randint(1, 10 ** 6) for _ in range(2 if n > 5 else n * n)]
        cases.append(SeifertMatrix.from_rows(
            [[Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.choice(dens))
              for _ in range(n)] for _ in range(n)]))
        rows = [[rng.randint(-10 ** 15, 10 ** 15) for _ in range(n)] for _ in range(n)]
        if n:
            rows[0] = [0] * n                                      # det E = 0
        cases.append(SeifertMatrix.from_rows(rows))
    zero_pencils = 0
    for a in cases:
        f = seifert.pencil_polynomial(a)
        assert f == pencil_at_0_to_n(a), a.entries
        if _poly.is_zero(f):
            assert alexander_from_seifert(a).is_zero()
            zero_pencils += 1
    assert zero_pencils >= 13


def test_alexander_stabilized_unknot():
    a = SeifertMatrix.from_rows([[0, 1], [0, 0]])
    assert alexander_from_seifert(a) == LaurentPoly.one()


def test_pencil_matches_fraction_lagrange_reference(rng):
    # the old route: det(t A - A^T) by fraction elimination at t = 0..n,
    # then Lagrange interpolation over the rationals; the integer pencil of
    # den A is den^n times it.  Integer and non-integer, genus up to 5.
    cases = [random_genuine_matrix(rng, g) for g in range(1, 6)]
    cases += [SeifertMatrix.from_rows([[0, 1], [0, 0]]),     # pencil t
              SeifertMatrix.from_rows([[0, Fraction(1, 2)], [0, 0]])]
    for n in range(1, 11):
        cases.append(SeifertMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]))
        cases.append(SeifertMatrix.from_rows(
            [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)]))
    for a in cases:
        n, e = a.size, a.entries
        exact = lagrange_interpolate(
            [(Fraction(t), det_fraction([[t * e[i][j] - e[j][i] for j in range(n)]
                                         for i in range(n)]))
             for t in range(n + 1)])
        den, cleared = a.cleared
        assert cleared == tuple(tuple(x * den for x in row) for row in e)
        assert seifert.pencil_polynomial(a) == tuple(c * den ** n for c in exact)
        if not _poly.is_zero(exact):
            want = (tuple(int(c) for c in exact) if den == 1
                    else int_primitive(exact))
            f = alexander_from_seifert(a)
            assert f.as_int_poly() == want[_poly.valuation(want):]


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


def test_signature_next_to_the_ends_reads_cyclotomic_roots_exactly(rng, monkeypatch):
    """A sample is placed among cyclotomic roots by its exact parameter and
    separated only from the remainder roots: next to t = 0 or t = 1/2 the
    trefoil needs no enclosure at all, and a matrix with remainder roots
    agrees with its jump function there."""
    tiny = Fraction(1, 10 ** 4000)
    seifert._circle_data(TREFOIL)

    def no_enclosure(*args):
        raise AssertionError("2 cos(2 pi t) enclosed for cyclotomic roots only")

    with monkeypatch.context() as m:
        m.setattr(seifert, "two_cos_two_pi", no_enclosure)
        assert signature_at(TREFOIL, tiny) == 0
        assert signature_at(TREFOIL, 1 - tiny) == 0
        assert signature_at(TREFOIL, Fraction(1, 2) - tiny) == -2
        with pytest.raises(JumpEvaluationError):
            signature_at(TREFOIL, Fraction(1, 6))
    checked = 0
    while checked < 12:
        a = random_genuine_matrix(rng, rng.randint(1, 3))
        data = seifert._circle_data(a)
        if not any(isinstance(r, seifert._RemRoot) for r in data.roots):
            continue
        jumps = jump_function(a, 1).jumps
        his = [j.position.hi if isinstance(j.position, RatInterval) else j.position
               for j in jumps]
        for t in (tiny, Fraction(1, 2) - tiny, Fraction(1, 2) + tiny, 1 - tiny):
            want = sum(j.value for j, hi in zip(jumps, his) if hi < t)
            assert signature_at(a, t) == want, (a, t)
        checked += 1


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
        assert _inertia(m, [[0] * len(m) for _ in m]) == expected, m
        assert real_form_inertia(m) == expected, m


def random_hermitian(rng, n, kind):
    """(re, im) of a random Hermitian Gaussian-integer matrix: dense
    (kind 0), zero diagonal (kind 1), purely imaginary with zero diagonal
    (kind 2, so every pivot pair is imaginary) or a sum of rank-one terms
    +-v v^* (kind 3, singular whenever the rank is below n)."""
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    if kind == 3:
        for _ in range(rng.randint(0, min(n, 3))):
            v = [complex(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(n)]
            s = rng.choice([-1, 1])
            for i in range(n):
                for j in range(n):
                    z = s * v[i] * v[j].conjugate()
                    re[i][j] += int(z.real)
                    im[i][j] += int(z.imag)
        return re, im
    for i in range(n):
        if kind == 0:
            re[i][i] = rng.randint(-3, 3)
        for j in range(i + 1, n):
            re[i][j] = re[j][i] = 0 if kind == 2 else rng.randint(-3, 3)
            im[i][j] = rng.randint(-3, 3)
            im[j][i] = -im[i][j]
    return re, im


def test_hermitian_inertia_matches_numpy_and_real_form(rng):
    """The n x n kernel over Z[i] against complex float eigenvalue signs
    and against the real-form reference, which counts each eigenvalue
    twice."""
    cases = [([[0] * n for _ in range(n)], [[0] * n for _ in range(n)]) for n in range(4)]
    cases += [([[0, 0], [0, 0]], [[0, 1], [-1, 0]]),            # pair i, -i
              ([[0, 0, 0], [0, 0, 0], [0, 0, 0]],
               [[0, 2, 0], [-2, 0, 1], [0, -1, 0]]),           # imaginary, singular
              ([[1, 1], [1, 1]], [[0, 0], [0, 0]]),            # singular real
              ([[2, 1], [1, 1]], [[0, 1], [-1, 0]])]           # singular complex
    for kind in range(400):
        re, im = random_hermitian(rng, rng.randint(1, 6), kind % 4)
        cases.append((re, im))
    purely_imaginary = 0
    for re, im in cases:
        n = len(re)
        h = np.array(re, dtype=float).reshape(n, n) + 1j * np.array(im, dtype=float).reshape(n, n)
        eigs = np.linalg.eigvalsh(h)
        expected = (int(np.sum(eigs > 1e-9)), int(np.sum(eigs < -1e-9)),
                    int(np.sum(np.abs(eigs) <= 1e-9)))
        assert _inertia(re, im) == expected, (re, im)
        doubled = real_form_inertia(real_form(re, im))
        assert doubled == tuple(2 * x for x in expected), (re, im)
        purely_imaginary += n > 0 and not any(map(any, re)) and any(map(any, im))
    assert purely_imaginary > 50


def test_hermitian_inertia_with_deferred_rows_matches_oracles():
    """Banded, block-diagonal and sparse Hermitian forms, where most rows
    are deferred at most steps: a zero diagonal forces the congruence
    step and swaps, which catch every row up first, and a symmetric
    shuffle hides the band so deferred rows become pivot rows.  Against
    the real-form reference always, and against complex float eigenvalue
    signs whenever no eigenvalue lies near zero without being zero."""
    rng = random.Random(32)
    by_numpy = zero_pivots = 0
    for case in range(900):
        n = rng.randint(1, 10)
        pattern = structured_pattern(rng, n, ("banded", "block", "sparse")[case % 3])
        re = [[0] * n for _ in range(n)]
        im = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if pattern[i][j] or pattern[j][i]:
                    re[i][j] = re[j][i] = rng.randint(-2, 2)
                    if j > i:
                        im[i][j] = rng.randint(-2, 2)
                        im[j][i] = -im[i][j]
        if case % 2:
            for i in range(n):
                re[i][i] = 0
            zero_pivots += any(map(any, re)) or any(map(any, im))
        if case % 4 >= 2:
            order = rng.sample(range(n), n)
            re = [[re[i][j] for j in order] for i in order]
            im = [[im[i][j] for j in order] for i in order]
        got = _inertia(re, im)
        assert real_form_inertia(real_form(re, im)) == tuple(2 * x for x in got), (re, im)
        h = np.array(re, dtype=float).reshape(n, n) + 1j * np.array(im, dtype=float).reshape(n, n)
        eigs = np.abs(np.linalg.eigvalsh(h))
        if np.all((eigs < 1e-9) | (eigs > 1e-6)):
            eigs = np.linalg.eigvalsh(h)
            assert got == (int(np.sum(eigs > 1e-9)), int(np.sum(eigs < -1e-9)),
                           int(np.sum(np.abs(eigs) <= 1e-9))), (re, im)
            by_numpy += 1
    assert by_numpy > 850 and zero_pivots > 300


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
    assert abs(math.cos(2 * math.pi * float((lo.lo + lo.hi) / 2)) - 0.75) < 1e-12
    assert abs(math.cos(2 * math.pi * float((hi.lo + hi.hi) / 2)) - 0.75) < 1e-12
    assert float((lo.lo + lo.hi) / 2) < 0.5 < float((hi.lo + hi.hi) / 2)
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
    # 100 randomized cases, mixing genuine and cyclotomic matrices.  The
    # signature data of a form class is cached once for A and A^T, so the
    # cache is cleared between the sides and every gap's cached signature
    # is checked against the form of A^T itself, evaluated directly
    for k in range(100):
        a = random_genuine_matrix(rng, rng.randint(1, 2)) if k % 2 else \
            cyclotomic_jump_matrix(rng)
        seifert._circle_data.cache_clear()
        left = jump_function(reverse(a), 1)
        seifert._circle_data.cache_clear()
        assert left == jump_function(a, 1)
        data = seifert._circle_data(reverse(a))
        for gap in range(len(data.roots) + 1):
            r = data.cotangent(gap)
            assert data.gap_signature(gap) == seifert._signature_at_c(reverse(a), r) \
                == seifert._signature_at_c(a, r)


def test_signature_data_is_invariant_under_concordance_moves():
    # a unimodular congruence and either elementary enlargement is an
    # S-equivalence, and a metabolic summand has signature 0 wherever it is
    # nonsingular.  Each move gives another form class, whose circle data
    # are computed afresh.  A triangular B has integer eigenvalues, so the
    # summand adds no circle root and every gap stays a gap, but mostly a
    # factor to the remainder: each root is refined with another
    # polynomial, whose secants guess other cells.  B = [[1, -c], [1, 0]]
    # has eigenvalues of real part 1/2, so that summand adds circle roots,
    # the remainder roots are isolated from other intervals, and only the
    # jumps are compared.  100 matrices with jumps, 94 of them numeric
    rng = random.Random(23)
    cases = numeric = 0
    while cases < 100:
        a = random_genuine_matrix(rng, rng.randint(1, 3))
        jf = jump_function(a)
        if not jf.jumps:
            continue
        cases, numeric = cases + 1, numeric + (not jf.is_exact)
        n, k = a.size, rng.randint(1, 2)
        alpha = [rng.randint(-2, 2) for _ in range(n)]
        b = [[rng.randint(-2, 2) if i <= j else 0 for j in range(k)] for i in range(k)]
        d = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        gaps = seifert._circle_data(a).gap_signatures()
        for moved in (congruent(a, random_unimodular(rng, n)),
                      elementary_enlargement(a, alpha, 0),
                      elementary_enlargement(a, alpha, 1),
                      metabolic_sum(a, b, d)):
            assert jump_function(moved) == jf
            assert seifert._circle_data(moved).gap_signatures() == gaps
        d = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        assert jump_function(metabolic_sum(a, [[1, -rng.randint(1, 3)], [1, 0]], d)) == jf
    assert numeric >= 90


def test_pencil_is_invariant_under_s_equivalence_up_to_a_unit():
    # det(t P A P^T - P A^T P^T) = det(P)^2 f(t) = f(t) for a unimodular P,
    # and an elementary enlargement multiplies f by a unit +-t^k
    def up_to_unit(f):
        low = next(i for i, c in enumerate(f) if c)
        return f[low:] if f[-1] > 0 else tuple(-c for c in f[low:])

    rng = random.Random(29)
    for _ in range(60):
        a = random_genuine_matrix(rng, rng.randint(1, 3))
        n, f = a.size, seifert.pencil_polynomial(a)
        alpha = [rng.randint(-2, 2) for _ in range(n)]
        assert seifert.pencil_polynomial(congruent(a, random_unimodular(rng, n))) == f
        for kind in (0, 1):
            g = seifert.pencil_polynomial(elementary_enlargement(a, alpha, kind))
            assert up_to_unit(g) == up_to_unit(f)


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


def translate_overlaps_reference(jf, j, shift):
    """Reference: whether the interval of jump j moved by shift meets, modulo
    the period, the interval of a jump with the same value; each candidate
    is tried at its three lifts by -P, 0 and +P."""
    P_ = jf.ambient_period
    lo, hi = j.position.lo + shift, j.position.hi + shift
    return any(c.value == j.value and c.position.lo + m * P_ <= hi and
               lo <= c.position.hi + m * P_
               for c in jf.jumps for m in (-1, 0, 1))


def test_refute_translation_wrap_around_piece():
    # the jump at (49/100, 13/25) moves by 1/2 across the period end; only
    # the wrapped piece (0, 1/50) can meet the jump at (1/200, 3/200)
    def jf_with(first):
        def iv(lo, hi):
            return RatInterval(Fraction(lo), Fraction(hi))
        return JumpFunction(Fraction(1), (
            Jump(iv(*first), -2), Jump(iv("1/5", "3/10"), 2),
            Jump(iv("49/100", "13/25"), -2), Jump(iv("7/10", "4/5"), 2)),
            precision_bits=64)

    verdicts = []
    for first in (("1/200", "3/200"), ("3/100", "1/25")):
        jf = jf_with(first)
        unrefuted = all(translate_overlaps_reference(jf, j, Fraction(1, 2))
                        for j in jf.jumps)
        assert seifert._refute_translation(jf, 2) == (not unrefuted)
        assert minimal_period(jf) == (MinimalPeriod("numeric-unknown") if unrefuted
                                      else MinimalPeriod("exact", Fraction(1)))
        verdicts.append(unrefuted)
    assert verdicts == [True, False]


def test_half_period_symmetric_interval_jumps_are_inconclusive():
    # the (2, 1) cable of 5_2 has signature sigma(2 t) by Litherland's
    # formula, so its jumps repeat after half a period, they sit at
    # irrational parameters, and no interval refinement can refute the
    # translation by P/2: the topological verdict is INCONCLUSIVE
    cable = cable_matrix(FIVE_TWO, 2)
    for t in (0.03, 0.2, 0.31, 0.45, 0.6, 0.77, 0.9):
        assert numpy_signature(cable, t)[0] == numpy_signature(FIVE_TWO, 2 * t % 1)[0]
    for m in (1, 2):
        res = obstruct_topological(LinkFamilySpec(m, cable),
                                   PolySet.of(LaurentPoly.one()))
        assert res.jumps.exactness == "numeric(128)" and len(res.jumps.jumps) == 4
        assert res.minimal == MinimalPeriod("numeric-unknown")
        assert res.verdict == "INCONCLUSIVE" and res.period_check is None


def test_cleared_matrix_computed_once():
    a = SeifertMatrix.from_rows([["1/2", 1], [0, "-1/3"]])
    assert a.cleared is a.cleared == (6, ((3, 6), (0, -2)))
    assert a == SeifertMatrix.from_rows([["1/2", 1], [0, "-1/3"]])


def _translated(jf, shift):
    """Exact jump function with every position moved by shift mod P."""
    P_ = jf.ambient_period
    return JumpFunction(P_, tuple(sorted(
        (Jump((j.position + shift) % P_, j.value) for j in jf.jumps),
        key=lambda j: j.position)))


def test_minimal_period_matches_exact_branch_reference(rng):
    functions = []
    for _ in range(30):
        jf = jump_function(cyclotomic_jump_matrix(rng), rng.randint(1, 4))
        functions += [jf, scale_jump_function(jf, rng.randint(2, 5)),
                      merge_jump_functions(jf, jf)]
        # self-merged with its translates by P/k: period divides P/k
        for k in (2, 3, 4):
            acc = jf
            for i in range(1, k):
                acc = merge_jump_functions(
                    acc, _translated(jf, jf.ambient_period * i / k))
            functions.append(acc)
    for seed in range(4):
        jf = jump_function(random_genuine_matrix(random.Random(seed), 2))
        functions += [jf, scale_jump_function(jf, 3)]
    functions.append(jump_function(FIVE_TWO, 2))
    functions.append(JumpFunction(Fraction(1), tuple(
        Jump(RatInterval(Fraction(lo, 100), Fraction(lo + 1, 100)), v)
        for lo, v in ((10, -2), (35, 2), (60, -2), (85, 2))), precision_bits=64))
    kinds = set()
    for jf in functions:
        mp = minimal_period(jf)
        assert mp == minimal_period_exact_branch(jf)
        kinds.add((mp.kind, jf.is_exact,
                   mp.value is not None and mp.value < jf.ambient_period))
    # exact finer periods, exact full periods, interval ones and zeros
    assert {("exact", True, True), ("exact", True, False),
            ("exact", False, False), ("zero-function", True, False),
            ("numeric-unknown", False, False)} <= kinds


# --- degenerate forms ----------------------------------------------------------------

def test_zero_matrix_fully_degenerate():
    with pytest.raises(DegenerateFormError):
        jump_function(SeifertMatrix.from_rows([[0]]), 1)


# --- enclosure cache and work counts ------------------------------------------

def test_cached_enclosures_equal_fresh_ones():
    # 5_2: circle root x = 3/2
    rem = [r for r in seifert._circle_data(FIVE_TWO).roots
           if isinstance(r, seifert._RemRoot)]
    assert len(rem) == 1

    def fresh():
        return seifert._RemRoot(rem[0].poly_sf, rem[0].lo, rem[0].hi)

    root = fresh()
    e256 = root.enclosure(256)
    assert root.enclosure(64) == fresh().enclosure(64)
    assert root.enclosure(128) == fresh().enclosure(128)
    assert root.enclosure(256) is e256 and e256 == fresh().enclosure(256)
    assert e256.width <= Fraction(1, 2) ** 256 and e256.lo < Fraction(3, 2) < e256.hi


def test_obstruct_top_refines_each_root_once_per_precision(monkeypatch):
    a = random_genuine_matrix(random.Random(21), 3)
    refined = []
    original = _poly.refine_root_interval

    def recording(p_sf, lo, hi, width):
        out = original(p_sf, lo, hi, width)
        refined.append((p_sf, width, out))   # out identifies the root
        return out

    monkeypatch.setattr(_poly, "refine_root_interval", recording)
    seifert._circle_data.cache_clear()
    res = obstruct_topological(LinkFamilySpec(1, a), PolySet.of(LaurentPoly.one()))
    rem = [r for r in seifert._circle_data(a).roots
           if isinstance(r, seifert._RemRoot)]
    assert len(rem) == 2 and res.jumps.exactness == "numeric(128)"
    assert refined and len(set(refined)) == len(refined)
    # the same positions again reuse every kept enclosure
    calls = len(refined)
    assert jump_locations(a) and jump_function(a).jumps
    assert len(refined) == calls


def _signature_or_jump(a: SeifertMatrix, t: Fraction):
    try:
        return signature_at(a, t)
    except JumpEvaluationError:
        return "jump"


def test_circle_data_is_computed_once_per_form_class(monkeypatch):
    # J, its reverse J^r = J^T and J under another label: one pencil, one
    # circle split, one set of gap signatures
    calls = []
    pencil = seifert.pencil_polynomial
    monkeypatch.setattr(seifert, "pencil_polynomial",
                        lambda a: calls.append(a) or pencil(a))
    ts = [Fraction(k, 60) for k in range(1, 60)]
    for a in (TREFOIL, FIVE_TWO, random_genuine_matrix(random.Random(21), 3),
              SeifertMatrix.from_rows([["1/2", 1], [-2, "-1/3"]])):
        assert reverse(a).entries != a.entries
        seifert._circle_data.cache_clear()
        calls.clear()
        data = seifert._circle_data(a)
        others = (reverse(a), SeifertMatrix(a.entries, "another label"))
        assert all(seifert._circle_data(b) is data for b in others)
        assert len(calls) == 1 and data.matrix.label is None
        for b in others:
            assert jump_function(b, 2) == jump_function(a, 2)
            assert jump_locations(b) == jump_locations(a)
            assert [_signature_or_jump(b, t) for t in ts] == \
                [_signature_or_jump(a, t) for t in ts]
        assert len(calls) == 1
    seifert._circle_data.cache_clear()


def test_signature_is_zero_next_to_t_zero_when_det_k_is_nonzero(rng):
    # near t = 0, v S - i u K tends to -i u K, whose spectrum is symmetric;
    # the elimination, done here directly, agrees with the cached 0
    rational = [SeifertMatrix.from_rows(
        [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
         for _ in range(n)]) for n in (2, 2, 3, 4, 4) for _ in range(10)]
    genuine = [random_genuine_matrix(rng, rng.randint(1, 3)) for _ in range(50)]
    checked = 0
    for a in genuine + rational:
        f = seifert.pencil_polynomial(a)
        if _poly.is_zero(f) or _poly.eval_at(f, 1) == 0:
            continue
        data = seifert._circle_data(a)
        assert not data.root_at_one
        assert seifert._signature_at_c(a, data.cotangent(len(data.roots))) == 0 \
            == data.gap_signature(len(data.roots))
        checked += 1
    assert checked >= 80


def test_end_gap_signature_is_computed_when_det_k_is_zero():
    # f(1) = 0 for [[k]] and every odd size: the end gap is eliminated
    for k in (-3, -1, 1, 2):
        seifert._circle_data.cache_clear()
        a = SeifertMatrix.from_rows([[k]])
        assert seifert._circle_data(a).root_at_one
        assert signature_at(a, Fraction(1, 4)) == (1 if k > 0 else -1)
    # the trefoil's sigma is 0 next to t = 0, and [[1]]'s is 1 everywhere
    a = connected_sum(TREFOIL, SeifertMatrix.from_rows([[1]]))
    data = seifert._circle_data(a)
    assert data.root_at_one and len(data.roots) == 1
    assert data.gap_signature(1) == seifert._signature_at_c(a, data.cotangent(1)) == 1
    assert signature_at(a, Fraction(1, 100)) == 1 and signature_at(a, Fraction(1, 2)) == -1
    seifert._circle_data.cache_clear()


def _torus_jumps(g: int) -> list:
    # T(2, 2g+1): a jump of -2 at each (2i - 1)/(4g + 2) < 1/2, mirrored
    low = [Jump(Fraction(2 * i - 1, 4 * g + 2), -2) for i in range(1, g + 1)]
    return low + [Jump(1 - j.position, 2) for j in reversed(low)]


def test_filled_gap_signatures_match_the_elimination_at_every_gap(rng):
    # the jump bound fills the gaps it can; every gap, filled or eliminated,
    # agrees with the form evaluated directly at its cotangent
    def check(a):
        seifert._circle_data.cache_clear()
        data = seifert._circle_data(a)
        assert data.gap_signatures() == [
            seifert._signature_at_c(data.matrix, data.cotangent(gap))
            for gap in range(len(data.roots) + 1)]
        return jump_function(a, 1)

    for g in range(1, 17):
        t2 = torus_2_strand_matrix(g)
        assert check(t2).jumps == tuple(_torus_jumps(g))
        assert check(connected_sum(t2, t2)).jumps == \
            tuple(Jump(j.position, 2 * j.value) for j in _torus_jumps(g))
        assert check(connected_sum(t2, mirror(t2))).is_zero_function()
    for _ in range(40):
        a = random_genuine_matrix(rng, rng.randint(1, 3))
        single = check(a)
        double = check(connected_sum(a, a))
        assert [j.value for j in double.jumps] == [2 * j.value for j in single.jumps]
        assert [j.position for j in double.jumps if isinstance(j.position, Fraction)] == \
            [j.position for j in single.jumps if isinstance(j.position, Fraction)]
        assert check(connected_sum(a, mirror(a))).is_zero_function()
        check(cyclotomic_jump_matrix(rng))
    seifert._circle_data.cache_clear()


def test_torus_knot_jumps_take_one_elimination_and_no_enclosure(monkeypatch):
    # T(2, 2k+1): sigma is 0 next to t = 0 and that of S at t = 1/2, which
    # differ by twice the k simple roots between, so only S is eliminated,
    # and the cyclotomic roots are ordered by their exact parameters
    calls = []
    signature = seifert._signature_at_c
    monkeypatch.setattr(seifert, "_signature_at_c",
                        lambda a, r: calls.append(r) or signature(a, r))

    def no_enclosure(*args):
        raise AssertionError("2 cos(2 pi t) enclosed for cyclotomic roots only")

    monkeypatch.setattr(seifert, "two_cos_two_pi", no_enclosure)
    for k in range(1, 17):
        seifert._circle_data.cache_clear()
        calls.clear()
        assert jump_function(torus_2_strand_matrix(k), 1).jumps == tuple(_torus_jumps(k))
        assert calls == [0]
    seifert._circle_data.cache_clear()


@st.composite
def _dyadic_gaps(draw):
    """(lo, hi) with -2 <= lo < hi <= 2 on a grid of 2^-m, m <= 64, so
    gaps down to 2^-64 wide; ends at -2 and 2 are drawn too."""
    m = draw(st.integers(0, 64))
    top = 2 << m
    lo = draw(st.integers(-top, top - 1))
    hi = draw(st.integers(lo + 1, min(lo + draw(st.sampled_from([1, 2, 1 << m, top])), top)))
    return Fraction(lo, 1 << m), Fraction(hi, 1 << m)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_dyadic_gaps())
@example((Fraction(-2), Fraction(2)))
@example((Fraction(-2), Fraction(-2) + Fraction(1, 2 ** 60)))
@example((Fraction(2) - Fraction(1, 2 ** 60), Fraction(2)))
@example((Fraction(1, 3) - Fraction(1, 2 ** 50), Fraction(1, 3) + Fraction(1, 2 ** 50)))
def test_gap_cotangent_on_integers_matches_the_fraction_reference(gap):
    lo, hi = gap
    assert seifert._gap_cotangent(lo, hi) == gap_cotangent_reference(lo, hi)


def test_circle_cache_is_bounded():
    maxsize = seifert._circle_data.cache_info().maxsize
    for k in range(1, maxsize + 10):     # det(t [k] - [k]) = k (t - 1)
        seifert._circle_data(SeifertMatrix.from_rows([[k]]))
    assert seifert._circle_data.cache_info().currsize <= maxsize
    seifert._circle_data.cache_clear()


# --- cyclotomic split ------------------------------------------------------------

def test_psi_ends_closed_forms_match_psi_and_the_mobius_product():
    # Phi_d(1) = p for d = p^k (else 1) and Phi_d(-1) = Phi_(d/2)(1) for
    # even d (1 for odd d), against the Moebius product for every d <= 2000
    # and against psi_d(2), |psi_d(-2)| read off _psi(d) wherever deg psi_d
    # <= 100, the orders the split can try on a compaction of degree 100
    phi = totients(2000)
    built = 0
    for d in range(3, 2001):
        ends = seifert._psi_ends(d)
        assert ends == cyclotomic_at_units_by_mobius(d), d
        if phi[d] <= 200:
            psi = seifert._psi(d)
            assert ends == (_poly.eval_at(psi, 2), abs(_poly.eval_at(psi, -2))), d
            built += 1
    assert built > 350


def _random_factor(rng: random.Random) -> tuple:
    """A random integer polynomial of degree 1-4, no root at +-2."""
    while True:
        h = _poly.poly([rng.randint(-4, 4) for _ in range(rng.randint(2, 5))])
        if _poly.degree(h) >= 1 and _poly.eval_at(h, 2) and _poly.eval_at(h, -2):
            return h


def test_cyclotomic_split_matches_the_unfiltered_trials(rng):
    # the test at +-2 only skips trials: the factors found and the
    # remainder are those of trying every order whose degree fits
    phi = totients(200)
    cases = []
    for _ in range(40):
        g, budget = (1,), 24
        for _ in range(rng.randint(1, 3)):
            fitting = [d for d in range(3, 201) if phi[d] // 2 <= budget]
            if fitting:
                d = rng.choice(fitting)
                g, budget = _poly.mul(g, seifert._psi(d)), budget - phi[d] // 2
        for _ in range(rng.randint(0, 2)):
            g = _poly.mul(g, _random_factor(rng))
        cases.append(_poly.normalize(g))
    cases += [circle_compaction(torus_2_strand_matrix(g)) for g in range(1, 21)]
    cases += [circle_compaction(random_genuine_matrix(rng, rng.randint(1, 3)))
              for _ in range(15)]
    cases += [circle_compaction(cyclotomic_jump_matrix(rng)) for _ in range(10)]
    for _ in range(15):   # rational entries
        n = rng.choice([2, 4])
        cases.append(circle_compaction(SeifertMatrix.from_rows(
            [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)])))
    odd = 0
    while odd < 15:       # odd size: det(E - E^T) = 0, so f(1) = 0
        n = rng.choice([1, 3, 5])
        a = SeifertMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)]
                                     for _ in range(n)])
        if _poly.is_zero(seifert.pencil_polynomial(a)):
            continue
        assert _poly.eval_at(seifert.pencil_polynomial(a), 1) == 0
        cases.append(circle_compaction(a))
        odd += 1
    split = 0
    for g in cases:
        cyc, rem = seifert._cyclotomic_split(g)
        assert (cyc, rem) == cyclotomic_split_unfiltered(g)
        split += bool(cyc)
    assert split >= 60


# --- minimal period on random exact and mixed functions -------------------------

def _random_jump_function(rng: random.Random, mixed: bool) -> JumpFunction:
    """A jump function made of k translates of one pattern of m jumps in
    [0, P/k), each jump an exact point or (when mixed) a short interval in
    its own cell; sometimes one copy is disturbed, so that P/k is no
    period, or an interval moved so that its translates cannot meet."""
    P_ = Fraction(rng.randint(1, 6), rng.choice([1, 1, 2, 3, 7]))
    k = rng.choice([1, 2, 3, 4, 6])
    m = rng.randint(2, 4)
    cells = 2 * m + rng.randint(0, 3)
    w = P_ / (k * cells)
    chosen = sorted(rng.sample(range(cells), m))
    values = [0]
    while not values[-1]:
        values = [rng.choice([-4, -2, 2, 4]) for _ in range(m - 1)]
        values.append(-sum(values))
    kinds = [mixed and rng.random() < 0.5 for _ in range(m)]
    if mixed and not any(kinds):
        kinds[0] = True
    offsets = [Fraction(rng.randint(1, 7), 8) for _ in range(m)]
    disturb = rng.random() < 0.4
    jumps = []
    for copy in range(k):
        for i, cell in enumerate(chosen):
            start = (copy * cells + cell) * w
            off = offsets[i]
            if disturb and copy == k - 1 and i == 0:
                off = Fraction(1, 16) if off > Fraction(1, 2) else Fraction(15, 16)
            if kinds[i]:
                pos = RatInterval(start + off * w - w / 32, start + off * w + w / 32)
            else:
                pos = start + off * w
            jumps.append(Jump(pos, values[i]))
    return JumpFunction(P_, tuple(jumps), 64 if any(kinds) else None)


def test_minimal_period_matches_the_fraction_reference_on_random_functions(rng):
    kinds = set()
    for i in range(400):
        jf = _random_jump_function(rng, mixed=i % 2 == 1)
        mp = minimal_period(jf)
        assert mp == minimal_period_exact_branch(jf), jf
        kinds.add((mp.kind, jf.is_exact,
                   mp.value is not None and mp.value < jf.ambient_period))
    assert {("exact", True, True), ("exact", True, False), ("exact", False, False),
            ("numeric-unknown", False, False)} <= kinds

"""Certified enclosures, generalized (rational-entry) Seifert matrices,
and doctest coverage of the public modules."""

import doctest
import math
import random
from fractions import Fraction

import pytest

import conclab._intervals as intervals
import conclab._poly
import conclab._poly as P
import conclab._primes
import conclab.abgroup
import conclab.dinv
import conclab.exprparse
import conclab.obstruct
import conclab.polyalg
import conclab.seifert
from conclab import JumpEvaluationError, PrecisionLimitError
from conclab.exprparse import parse_poly
from conclab.errors import ValidationError
from conclab.seifert import (SeifertMatrix, _RemRoot,
                             alexander_from_seifert, jump_function,
                             jump_locations, signature_at)

from conftest import _psi, cos_two_pi_reference, invert_two_cos_reference


# --- enclosures -----------------------------------------------------------------

def test_cos_enclosure_contains_truth():
    for num, den in ((1, 6), (1, 4), (1, 3), (2, 5), (3, 7), (5, 11)):
        t = Fraction(num, den)
        encl = intervals.two_cos_two_pi(t, 96)
        truth = 2 * math.cos(2 * math.pi * num / den)
        assert float(encl.lo) - 1e-15 <= truth <= float(encl.hi) + 1e-15
        assert encl.width <= Fraction(1, 2) ** 94


def test_cos_enclosure_special_values():
    assert intervals.two_cos_two_pi(Fraction(1, 2), 64).contains(Fraction(-2))
    assert intervals.two_cos_two_pi(Fraction(1, 6), 64).contains(Fraction(1))
    assert intervals.two_cos_two_pi(Fraction(1, 4), 64).contains(Fraction(0))


def test_enclosure_width_shrinks_with_precision():
    t = Fraction(1, 7)
    w64 = intervals.two_cos_two_pi(t, 64).width
    w256 = intervals.two_cos_two_pi(t, 256).width
    assert w256 < w64


def seeded_parameters(seed, count):
    """0, 1/4, 1/2, 1/3, values k/2^m and their neighbours at 10^-30,
    then seeded rationals in [-1, 2) with denominators up to 10^30."""
    rng = random.Random(seed)
    tiny = Fraction(1, 10 ** 30)
    ts = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1, 3), Fraction(1),
          Fraction(1, 4) + tiny, Fraction(1, 4) - tiny, Fraction(1, 2) - tiny, tiny,
          Fraction(1, 3) + tiny]
    ts += [Fraction(rng.randrange(2 ** m), 2 ** m) for m in range(1, 41)]
    while len(ts) < count:
        den = rng.choice([3, 7, 12, 1000, 10 ** 15, 10 ** 30, 2 ** 40, 3 ** 60,
                          rng.randrange(1, 10 ** 30)])
        ts.append(Fraction(rng.randrange(-den, 2 * den), den))
    return ts


def test_two_cos_enclosure_contains_the_mpmath_reference():
    # mpmath's enclosure at prec bits can be 80 * 2^-prec wide, wider than
    # the bound, so the reference starts at prec + 16 bits; where the true
    # value lies closer than that to an endpoint (t = 1/4 + 10^-30, whose
    # enclosure ends at 0) it climbs until it fits.  Only 4t in Z gives
    # an exact point, which must lie in the reference.
    for t in seeded_parameters(12, 1000):
        for prec in (8, 16, 53, 64, 128, 512):
            encl = intervals.two_cos_two_pi(t, prec)
            assert encl.width <= Fraction(1, 2 ** (prec - 2))
            bits = prec + 16
            while True:
                ref = cos_two_pi_reference(t, bits)
                ref = intervals.RatInterval(2 * ref.lo, 2 * ref.hi)
                if encl.width == 0:
                    assert ref.contains(encl.lo) and (2 * t).denominator <= 2
                    break
                if encl.lo <= ref.lo and ref.hi <= encl.hi:
                    break
                assert not ref.disjoint_from(encl) and bits < 4096, (t, prec)
                bits *= 2


def test_interval_type_invariants():
    with pytest.raises(ValueError):
        intervals.RatInterval(Fraction(1), Fraction(0))
    iv = intervals.RatInterval(Fraction(0), Fraction(1))
    assert (iv.lo + iv.hi) / 2 == Fraction(1, 2)
    assert iv.disjoint_from(intervals.RatInterval(Fraction(2), Fraction(3)))


def invert_by_cos_bisection(x_encl, prec_bits):
    """Reference inversion: bisect t in [0, 1/2] down to width
    2^-max(prec_bits, 8), comparing mpmath's certified cosines at each
    midpoint with the enclosure of x and doubling the precision of both
    until they separate."""
    lo, hi = Fraction(0), Fraction(1, 2)
    target = Fraction(1, 2) ** max(prec_bits, 8)
    prec = max(64, prec_bits)
    x_iv = x_encl(prec)
    while hi - lo > target:
        tm = (lo + hi) / 2
        while True:
            c = cos_two_pi_reference(tm, prec)
            c = intervals.RatInterval(2 * c.lo, 2 * c.hi)
            if c.lo > x_iv.hi:
                lo = tm
                break
            if c.hi < x_iv.lo:
                hi = tm
                break
            prec *= 2
            x_iv = x_encl(prec)
    return intervals.RatInterval(lo, hi)


def circle_roots_with_non_dyadic_parameter(seed, count):
    """Isolated roots in (-2, 2) of seeded squarefree integer polynomials
    free of the factors psi_(2^m), whose roots have dyadic t, plus roots
    within 2^-20 of -2 and of 2."""
    rng = random.Random(seed)
    polys = [P.poly([-(2 ** 22 - 1), 2 ** 21]), P.poly([2 ** 22 - 1, 2 ** 21]),
             P.poly([-(2 ** 22 - 1), 0, 2 ** 20])]
    while len(polys) < count:
        f = P.poly([rng.randint(-5, 5) for _ in range(rng.randint(2, 6))])
        if P.degree(f) < 1:
            continue
        sf = P.squarefree_part(f)
        if P.eval_at(sf, 2) and P.eval_at(sf, -2) and \
                not any(P.degree(P.poly_gcd(sf, _psi(2 ** m))) > 0 for m in (2, 3, 4)):
            polys.append(sf)
    return [_RemRoot(sf, a, b) for sf in polys
            for a, b in P.isolate_roots(sf, Fraction(-2), Fraction(2))]


def test_atan2_inversion_matches_cos_bisection_reference():
    roots = circle_roots_with_non_dyadic_parameter(7, 14)
    near_ends = [r for r in roots if r.enclosure(64).lo > 2 - Fraction(1, 2 ** 20)
                 or r.enclosure(64).hi < -2 + Fraction(1, 2 ** 20)]
    assert len(roots) >= 12 and len(near_ends) == 4
    for r in roots:
        for prec in (8, 64, 128, 256):
            cell = intervals.invert_two_cos(r.enclosure, prec)
            assert cell == invert_two_cos_reference(r.enclosure, prec)
            assert cell == invert_by_cos_bisection(r.enclosure, prec)


def test_inversion_near_cell_boundaries_and_circle_ends():
    # rational, non-dyadic t0 just beside a cell boundary k/2^N, with
    # enclosures of x widened by 2^-p: the first evaluation straddles the
    # boundary, and next to t = 0 and t = 1/2 the enclosure crosses x = 2
    # and x = -2
    for n in (64, 128, 256):
        for k in (1, 2 ** (n - 3), 2 ** (n - 1) - 1):
            for side in (1, -1):
                t0 = Fraction(k, 2 ** n) + side * Fraction(1, 3 * 2 ** (n + 20))

                def x_encl(p, t0=t0):
                    c = intervals.two_cos_two_pi(t0, p)
                    return intervals.RatInterval(c.lo - Fraction(1, 2 ** p),
                                                 c.hi + Fraction(1, 2 ** p))

                k = (t0 * 2 ** n) // 1
                cell = intervals.invert_two_cos(x_encl, n)
                assert cell == intervals.RatInterval(Fraction(k, 2 ** n),
                                                     Fraction(k + 1, 2 ** n))
                assert cell == invert_two_cos_reference(x_encl, n)


def test_inversion_raises_precision_limit_error():
    # an enclosure that never tightens cannot pin t to one dyadic cell
    with pytest.raises(PrecisionLimitError):
        intervals.invert_two_cos(
            lambda p: intervals.RatInterval(Fraction(-1), Fraction(1)))


def test_inversion_never_certifies_a_dyadic_parameter(monkeypatch):
    # at t = k/2^m, m <= N, some doubling iterate is exactly 0, so however
    # tight the enclosure of x, an outward-rounded sign stays uncertain
    monkeypatch.setattr(intervals, "MAX_PRECISION_BITS", 512)
    for m in range(3, 12):
        for k in range(1, 2 ** (m - 1), 2):
            t = Fraction(k, 2 ** m)
            with pytest.raises(PrecisionLimitError):
                intervals.invert_two_cos(
                    lambda p, t=t: intervals.two_cos_two_pi(t, p + 64), 64)


# --- generalized rational matrices -------------------------------------------------

def test_rational_matrix_signature_constant():
    a = SeifertMatrix.from_rows([["1/2"]])
    for t in (Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
        assert signature_at(a, t) == 1
    assert jump_locations(a) == []


def test_rational_matrix_with_cyclotomic_jumps():
    # det(tA - A^T) is proportional to t^2 + 1: jumps at 1/4 and 3/4
    a = SeifertMatrix.from_rows([["1/3", "1/3"], ["-1/3", "1/3"]])
    assert jump_locations(a) == [Fraction(1, 4), Fraction(3, 4)]
    jf = jump_function(a, 1)
    assert [(j.position, j.value) for j in jf.jumps] == \
        [(Fraction(1, 4), 2), (Fraction(3, 4), -2)]
    assert signature_at(a, Fraction(1, 8)) == 0
    assert signature_at(a, Fraction(3, 8)) == 2
    with pytest.raises(JumpEvaluationError):
        signature_at(a, Fraction(1, 4))
    assert not a.is_genuine
    f = alexander_from_seifert(a)
    assert f.pairs == ((-1, 1), (1, 1))  # primitive integer, centered


def test_non_cyclotomic_signature_near_root():
    # 5_2: circle root at cos(2 pi t) = 3/4, t ~ 0.11503
    a = SeifertMatrix.from_rows([[-1, 1], [0, -2]])
    assert signature_at(a, Fraction(11, 100)) == 0
    assert signature_at(a, Fraction(12, 100)) == -2
    assert signature_at(a, Fraction(115, 1000)) == 0
    assert signature_at(a, Fraction(1151, 10000)) == -2


# --- expression parser ---------------------------------------------------------------

def test_parse_poly_forms():
    assert str(parse_poly("t^2-t+1")) == "t^2 - t + 1"
    assert parse_poly("t + t^-1 - 1").pairs == ((-1, 1), (0, -1), (1, 1))
    assert parse_poly("2(t-1)(t+1)").pairs == ((0, -2), (2, 2))
    assert parse_poly("3t^-2").pairs == ((-2, 3),)
    assert parse_poly("T(2,5)") == conclab.polyalg.torus_knot_alexander(2, 5)


def test_parse_poly_rejects_garbage():
    for bad in ("t^", "x + 1", "(t", "t**2", ""):
        with pytest.raises(ValidationError):
            parse_poly(bad)


# --- doctests --------------------------------------------------------------------------

@pytest.mark.parametrize("module", [
    conclab._intervals, conclab._poly, conclab._primes, conclab.abgroup,
    conclab.dinv, conclab.exprparse, conclab.obstruct, conclab.polyalg,
    conclab.seifert,
])
def test_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_jump_location_at_one_half():
    # det(tA - A^T) proportional to (t+1)^2: the circle root sits at
    # t = 1/2, where the two-sided jump vanishes by symmetry
    a = SeifertMatrix.from_rows([["1/2", 1], [0, "1/2"]])
    assert jump_locations(a) == [Fraction(1, 2)]
    assert jump_function(a, 1).is_zero_function()
    with pytest.raises(JumpEvaluationError):
        signature_at(a, Fraction(1, 2))
    assert signature_at(a, Fraction(1, 3)) == signature_at(a, Fraction(2, 3))

"""Laurent polynomial layer: spec'd examples and randomized properties,
with independent oracles (Sylvester determinants via plain fraction
elimination, brute-force double sums for torsion coefficients)."""

import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from conclab import (LaurentPoly, PolySet, SizeBoundError, ValidationError,
                     branched_homology_order, excluded_primes,
                     normalize_alexander, normalize_poly, resultant,
                     torsion_coefficients, torus_knot_alexander)
from conclab import _primes
from conclab._primes import factorint, is_prime, prime_factors
from conclab.cli import main
from conftest import coeff, det_fraction, torus_knot_alexander_by_division


def sylvester_resultant_oracle(f: LaurentPoly, g: LaurentPoly) -> Fraction:
    """Resultant of the shifted representatives straight from the
    Sylvester matrix, by fraction Gaussian elimination."""
    p = [int(c) for c in f.as_int_poly()]
    q = [int(c) for c in g.as_int_poly()]
    m, n = len(p) - 1, len(q) - 1
    if m == 0:
        return Fraction(p[0]) ** n
    if n == 0:
        return Fraction(q[0]) ** m
    rows = []
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in reversed(p)]
                    + [Fraction(0)] * (n - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in reversed(q)]
                    + [Fraction(0)] * (m - 1 - i))
    return det_fraction(rows)


def torsion_oracle(f: LaurentPoly) -> tuple:
    """Direct double summation t_i = sum_{j>=1} j * a_{i+j}."""
    c = f.centered()
    g = c.max_exp
    out = []
    for i in range(g + 1):
        acc = 0
        for j in range(1, 2 * g + 2):
            acc += j * coeff(c, i + j)
        out.append(acc)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def random_laurent(rng: random.Random, max_deg=4, bound=3) -> LaurentPoly:
    coeffs = {rng.randint(-max_deg, max_deg): rng.randint(-bound, bound)
              for _ in range(rng.randint(1, 5))}
    return LaurentPoly.from_dict(coeffs)


# --- normalize_alexander -----------------------------------------------------

def test_normalize_unit_polynomial():
    f = normalize_alexander([1])
    assert f == LaurentPoly.one()
    assert f.is_alexander_normalized


def test_normalize_trefoil():
    f = normalize_alexander([1, -1, 1])
    assert f.pairs == ((-1, 1), (0, -1), (1, 1))
    assert f.is_alexander_normalized


def test_normalize_asymmetric_rejected_as_alexander_but_kept():
    f = normalize_alexander([1, -2])
    assert not f.is_alexander_normalized
    assert f(1) == -1


def test_normalize_empty_rejected():
    with pytest.raises(ValidationError):
        normalize_alexander([])


def test_normalize_sign_fix():
    # symmetric with f(1) = -1 gets flipped to f(1) = +1
    f = normalize_alexander([1, -3, 1])
    assert f(1) == 1
    assert f.is_alexander_normalized


def test_symmetry_and_value_at_one_match_their_definitions(rng):
    # is_symmetric pairs the centered terms with their mirror, and the
    # normalization reads f(1) as the coefficient sum; both against the
    # definitions a_k = a_{-k} (by coefficient lookup) and f(1) in rationals
    for _ in range(300):
        f = LaurentPoly.from_dict({rng.randint(-4, 4): rng.choice((-2, -1, 1, 2))
                                   for _ in range(rng.randint(0, 5))})
        if rng.random() < 0.5:  # a symmetric one, shifted
            f = (f + LaurentPoly.from_dict({-e: c for e, c in f.pairs})).shifted(
                rng.randint(-3, 3))
        c = f.centered()
        assert f.is_symmetric == all(coeff(c, -e) == v for e, v in c.pairs)
        assert f.is_alexander_normalized == (f(1) in (1, -1) and f.is_symmetric)
        assert normalize_poly(f) == (-c if f(1) == -1 and f.is_symmetric else c)
    assert PolySet.of(LaurentPoly.from_coeffs([-1, 3, -1], 5)).polys == (
        normalize_alexander([1, -3, 1]),)


# --- resultant ---------------------------------------------------------------

def test_resultant_spec_values():
    t = LaurentPoly.t_power
    assert resultant(t(1) - t(0), t(1) + t(0)) == 2
    assert resultant(LaurentPoly.from_coeffs([1, -1, 1]), LaurentPoly.one()) == 1
    assert resultant(LaurentPoly.from_coeffs([1, -1, 1]),
                     LaurentPoly.from_coeffs([-1, 0, 1])) == 3


def test_resultant_zero_rejected():
    with pytest.raises(ValidationError):
        resultant(LaurentPoly.from_dict({}), LaurentPoly.one())


def test_resultant_matches_sylvester_oracle(rng):
    checked = 0
    while checked < 150:
        f = random_laurent(rng)
        g = random_laurent(rng)
        if f.is_zero() or g.is_zero():
            continue
        assert resultant(f, g) == sylvester_resultant_oracle(f, g)
        checked += 1


def test_resultant_with_cyclic_and_edge_inputs_matches_sylvester_oracle():
    # t^d - 1 up to d = 256 in both argument orders, non-monic and constant
    # f, and common roots (a zero resultant)
    t = LaurentPoly.t_power
    fs = [LaurentPoly.from_coeffs(c) for c in
          ([3, -1, 2], [5, 0, 0, -2, 7], [-4], [1, -1, 1], [1, 1], [-2, 3])]
    for d in (1, 2, 3, 6, 64, 256):
        cyc = t(d) - t(0)
        for f in (fs if d < 256 else fs[:2]):
            assert resultant(f, cyc) == sylvester_resultant_oracle(f, cyc)
            assert resultant(cyc, f) == sylvester_resultant_oracle(cyc, f)
    assert resultant(fs[3], t(6) - t(0)) == resultant(fs[4], t(2) - t(0)) == 0
    assert resultant(fs[2], LaurentPoly.from_coeffs([7])) == 1


def test_resultant_multiplicative(rng):
    checked = 0
    while checked < 100:
        f1, f2, g = (random_laurent(rng, 3, 2) for _ in range(3))
        if f1.is_zero() or f2.is_zero() or g.is_zero():
            continue
        assert resultant(f1 * f2, g) == resultant(f1, g) * resultant(f2, g)
        checked += 1


# --- branched homology orders -------------------------------------------------

def test_order_of_unit_is_one():
    for d in (1, 2, 3, 5, 8, 12):
        assert branched_homology_order(LaurentPoly.one(), d) == 1


def test_order_spec_values():
    trefoil = LaurentPoly.from_coeffs([1, -1, 1])
    assert branched_homology_order(trefoil, 2) == 3
    f = normalize_alexander([1, -3, 1])
    assert branched_homology_order(f, 2) == 5


def test_order_at_degree_one_is_abs_value_at_one(rng):
    for _ in range(100):
        f = random_laurent(rng)
        if f.is_zero():
            continue
        assert branched_homology_order(f, 1) == abs(f(1))


def test_order_multiplicative(rng):
    checked = 0
    while checked < 100:
        f, g = random_laurent(rng, 3, 2), random_laurent(rng, 3, 2)
        d = rng.randint(1, 12)
        if f.is_zero() or g.is_zero():
            continue
        assert branched_homology_order(f * g, d) == \
            branched_homology_order(f, d) * branched_homology_order(g, d)
        checked += 1


def test_order_by_repeated_squaring_matches_resultant_with_cyclic(rng):
    # the order never builds t^d - 1; the reference is the remainder
    # sequence of resultant against t^d - 1 itself (and, for small d, the
    # Sylvester determinant): non-monic and non-primitive f, degree above
    # and below d, constants, and common roots with t^d - 1
    t = LaurentPoly.t_power
    fs = [LaurentPoly.from_coeffs(c, rng.randint(-3, 3)) for c in
          ([2, -3, 3, -3, 2], [4, 6, -2], [3, 0, 0, 0, 0, 0, 5], [-7], [6],
           [1, 1], [1, 0, 1], [2, -2], [9, -6, 1], [1, -1, 1])]
    while len(fs) < 40:
        f = random_laurent(rng, 4, 6)
        if not f.is_zero():
            fs.append(f)
    for f in fs:
        for d in (1, 2, 3, 4, 5, 6, 7, 12, 31, 64, 97):
            cyc = t(d) - t(0)
            assert branched_homology_order(f, d) == abs(resultant(f, cyc))
            if d <= 12:
                assert branched_homology_order(f, d) == abs(sylvester_resultant_oracle(f, cyc))
    assert branched_homology_order(LaurentPoly.from_coeffs([1, 0, 1]), 4) == 0
    assert branched_homology_order(LaurentPoly.from_coeffs([-7], 5), 9) == 7 ** 9


def test_order_memory_stays_small_at_large_degree():
    # a non-monic f: dividing t^d - 1 by it directly holds a quotient of
    # about d^2 bits (over 10 MB here); t^d mod f holds O(d deg f) bits
    f = LaurentPoly.from_coeffs([2, -3, 3, -3, 2], -2)
    tracemalloc.start()
    try:
        order = branched_homology_order(f, 8192)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        # the remainder sequence keeps no pseudo-quotient either
        res = resultant(f, LaurentPoly.t_power(8192) - LaurentPoly.one())
        res_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order == abs(res)
    assert peak < 1 << 20 and res_peak < 1 << 20


def test_order_zero_representable():
    # t - 1 kills every root of unity product
    f = LaurentPoly.from_coeffs([-1, 1])
    assert branched_homology_order(f, 6) == 0


# --- excluded prime sets --------------------------------------------------------

def test_excluded_unit_collection_empty():
    ps = excluded_primes(PolySet.of(LaurentPoly.one()), 2)
    assert ps.sorted_excluded() == []


def test_excluded_spec_values():
    f = normalize_alexander([1, -3, 1])
    assert excluded_primes(PolySet.of(f), 2).sorted_excluded() == [5]
    trefoil = normalize_alexander([1, -1, 1])
    assert excluded_primes(PolySet.of(trefoil), 2).sorted_excluded() == [3]


def test_excluded_requires_prime_power_degree():
    with pytest.raises(ValidationError):
        excluded_primes(PolySet.of(LaurentPoly.one()), 6)


def test_excluded_monotone_in_collection(rng):
    pool = [normalize_alexander(c) for c in
            ([1], [1, -1, 1], [1, -3, 1], [2, -3, 2], [1, -1, 1, -1, 1])]
    pool = [f for f in pool if f.is_alexander_normalized]
    for _ in range(100):
        k = rng.randint(1, len(pool) - 1)
        small = rng.sample(pool, k)
        large = small + rng.sample(pool, rng.randint(1, len(pool) - 1))
        d = rng.choice([2, 3, 4, 5, 8, 9])
        ex_small = excluded_primes(PolySet(tuple(small)), d).excluded
        ex_large = excluded_primes(PolySet(tuple(large)), d).excluded
        assert ex_small <= ex_large


# --- torus knots ---------------------------------------------------------------

def test_torus_knot_spec_values():
    assert torus_knot_alexander(2, 3).pairs == ((-1, 1), (0, -1), (1, 1))
    assert torus_knot_alexander(2, 5).pairs == \
        ((-2, 1), (-1, -1), (0, 1), (1, -1), (2, 1))
    assert torus_knot_alexander(3, 2) == torus_knot_alexander(2, 3)


def test_torus_knot_rejects_non_coprime():
    with pytest.raises(ValidationError):
        torus_knot_alexander(2, 4)
    with pytest.raises(ValidationError):
        torus_knot_alexander(1, 3)


def test_torus_knot_always_normalized(rng):
    # torus_knot_alexander does not check its output: normalization holds
    # by construction, here also for the smooth side's cores T(q, q - 1)
    pairs = [(a, b) for a in range(2, 8) for b in range(2, 8)
             if a < b and __import__("math").gcd(a, b) == 1]
    for a, b in pairs + [(q, q - 1) for q in (23, 101, 211)]:
        f = torus_knot_alexander(a, b)
        assert f.is_alexander_normalized
        assert f(1) == 1


def test_torus_knot_from_the_semigroup_matches_the_division_formula():
    # every coprime pair a < b <= 13, either order, and three smooth-side
    # cores T(q, q - 1) against (t^(ab) - 1)(t - 1) / ((t^a - 1)(t^b - 1))
    import math
    pairs = [(a, b) for b in range(3, 14) for a in range(2, b) if math.gcd(a, b) == 1]
    assert len(pairs) == 45
    for a, b in pairs + [(q, q - 1) for q in (23, 101, 211)]:
        expected = torus_knot_alexander_by_division(a, b)
        assert torus_knot_alexander(a, b) == expected == torus_knot_alexander(b, a), (a, b)


# --- torsion coefficients --------------------------------------------------------

def test_torsion_unit_all_zero():
    assert torsion_coefficients(LaurentPoly.one()) == ()


def test_torsion_trefoil():
    assert torsion_coefficients(torus_knot_alexander(2, 3)) == (1,)


def test_torsion_t25_matches_brute_force_double_sum():
    f = torus_knot_alexander(2, 5)
    expected = torsion_oracle(f)
    assert expected == (1, 1)  # frozen from the double-sum oracle
    assert torsion_coefficients(f) == expected


def test_torsion_rejects_unnormalized():
    with pytest.raises(ValidationError):
        torsion_coefficients(LaurentPoly.from_coeffs([1, -2]))


def test_torsion_matches_oracle_on_torus_knots():
    import math
    for a in range(2, 7):
        for b in range(a + 1, 9):
            if math.gcd(a, b) != 1:
                continue
            f = torus_knot_alexander(a, b)
            assert torsion_coefficients(f) == torsion_oracle(f)


# --- primes helper ----------------------------------------------------------------

def test_factorint_roundtrip(rng):
    for _ in range(200):
        n = rng.randint(1, 10 ** 9)
        fac = factorint(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p ** e
        assert prod == n


def test_unsplit_factor_raises_size_bound_error(monkeypatch, capsys):
    # with gcd patched to return n, Pollard rho never splits a product of
    # two primes past the trial-division bound 10^5
    n = 100003 * 100049
    assert factorint(n) == {100003: 1, 100049: 1}
    monkeypatch.setattr(_primes, "gcd", lambda a, b: b)
    with pytest.raises(SizeBoundError, match=f"failed to factor {n}"):
        factorint(n)
    # a t^2 - (2a - 1) t + a has |Delta(-1)| = 4a - 1 = n
    a = (n + 1) // 4
    poly = f"{a}t^2-{2 * a - 1}t+{a}"
    assert main(["primeset", "--D", poly, "--d", "2"]) == 2
    assert "failed to factor" in capsys.readouterr().err


PSI_13 = 3317044064679887385961981    # 1287836182261 * 2575672364521


def test_is_prime_is_certified_only_below_psi_13():
    # psi_13 passes all 13 Miller-Rabin witnesses; below it they are proved
    # (Sorenson-Webster), so at and past it a pass is refused, not True
    with pytest.raises(SizeBoundError, match="82-bit number"):
        is_prime(PSI_13)
    with pytest.raises(SizeBoundError):
        is_prime(2 ** 89 - 1)                  # a Mersenne prime past psi_13
    # psi_9 passes the bases 2..23 and fails 29; a failed witness proves
    # compositeness at any size, as does a small factor
    assert is_prime(3825123056546413051) is False
    assert is_prime(PSI_13 + 20) is False and is_prime(3 * (2 ** 89 - 1)) is False
    assert is_prime(2 ** 61 - 1) and is_prime(PSI_13 - 168)


def test_uncertified_primality_exits_2_and_batch_continues(capsys):
    code = main(["primeset", "--D", "t-1+t^-1", "--d", str(PSI_13)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "cannot certify that a 82-bit number is prime" in captured.err
    # |Delta(-1)| = 4a + 1 = psi_13 for Delta = -a t + (2a + 1) - a t^-1
    a = (PSI_13 - 1) // 4
    delta = f"-{a}t+{2 * a + 1}-{a}t^-1"
    # q = 1287836182261 divides psi_13, so the family choice is refused by
    # divisibility although psi_13 cannot be factored with a certificate
    m = 1287836182261 // 2
    for op in ("obstruct-top", "obstruct-smooth"):
        assert main([op, "--m", str(m), "--J", "trefoil", f"--D={delta}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "q = 1287836182261 divides a degree-2 homology order of D" in captured.err
    jobs = [{"op": "primeset", "D": "t-1+t^-1", "d": PSI_13},
            {"op": "obstruct-top", "m": m, "J": "trefoil", "D": delta},
            {"op": "obstruct-smooth", "m": m, "J": "trefoil", "D": delta},
            # q = 3 divides no order, so the uncertified factoring stands
            {"op": "obstruct-top", "m": 1, "J": "trefoil", "D": delta},
            {"op": "primeset", "D": "t-1+t^-1", "d": 5}]
    assert main(["batch", "--jobs", json.dumps(jobs)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [r["ok"] for r in results] == [False, False, False, False, True]
    assert [r.get("error_kind") for r in results[:4]] == \
        ["SizeBoundError", "FamilyChoiceError", "FamilyChoiceError", "SizeBoundError"]


def test_prime_factors_simple():
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(-15) == [3, 5]
    with pytest.raises(ValueError):
        prime_factors(0)


def test_order_rejects_zero_degree():
    with pytest.raises(ValidationError):
        branched_homology_order(LaurentPoly.one(), 0)


def test_order_at_one_is_unity_for_normalized(rng):
    pool = [normalize_alexander(c) for c in
            ([1], [1, -1, 1], [1, -3, 1], [2, -3, 2], [1, -1, 1, -1, 1])]
    for f in pool:
        assert f.is_alexander_normalized
        assert branched_homology_order(f, 1) == 1

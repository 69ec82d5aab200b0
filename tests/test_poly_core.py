"""Internal polynomial machinery against independent oracles."""

import random
import signal
from fractions import Fraction
from math import ceil, gcd

import pytest

from conclab import _poly as P
from conclab._primes import totients
from conftest import (count_roots_open, cyclotomic_by_divisors, det_fraction,
                      divmod_rational, euler_phi, gcd_rational, interpolate_integer,
                      lagrange_interpolate, plain_det, refine_rational,
                      structured_pattern, sturm_chain_rational)


def brute_force_roots(p, lo, hi, steps=4000):
    """Sign-change scan: lower bound on the number of roots in (lo, hi)."""
    count = 0
    prev = None
    for i in range(steps + 1):
        x = Fraction(lo) + (Fraction(hi) - Fraction(lo)) * i / steps
        v = P.eval_at(p, x)
        s = (v > 0) - (v < 0)
        if s == 0:
            count += 1
            prev = None
            continue
        if prev is not None and s != prev:
            count += 1
        prev = s
    return count


def test_divmod_and_gcd():
    # pseudo-remainder contract: s > 0, deg r < deg g, and s f = q g + r
    # with q and r s times the rational Euclidean (quotient, remainder), q
    # integral; exact division of a multiple gives the primitive cofactor
    rng = random.Random(1)
    for _ in range(200):
        f = P.poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 6))])
        g = P.poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
        if P.is_zero(g):
            continue
        s, r = P.pseudo_remainder(f, g)
        assert s > 0
        assert P.degree(r) < P.degree(g)
        ref_q, ref_r = divmod_rational(f, g)
        assert r == tuple(c * s for c in ref_r)
        assert all((c * s).denominator == 1 for c in ref_q)
        assert P.div_exact(P.mul(f, g), g) == P.primitive(f)


def test_gcd_of_known_product():
    f = P.mul(P.poly([1, 1]), P.poly([-2, 1]))     # (x+1)(x-2)
    g = P.mul(P.poly([1, 1]), P.poly([3, 1]))      # (x+1)(x+3)
    assert P.poly_gcd(f, g) == (Fraction(1), Fraction(1))


def test_sturm_counts_match_scan():
    rng = random.Random(3)
    for _ in range(60):
        f = P.poly([rng.randint(-4, 4) for _ in range(rng.randint(2, 6))])
        if P.degree(f) < 1:
            continue
        sf = P.squarefree_part(f)
        lo, hi = Fraction(-5), Fraction(5)
        if P.eval_at(sf, lo) == 0 or P.eval_at(sf, hi) == 0:
            continue
        ivs = P.isolate_roots(f, lo, hi)
        # the chain of f itself isolates as its squarefree part's does,
        # repeated factors or not
        assert ivs == P.isolate_roots(sf, lo, hi) == \
            P.isolate_roots(P.mul(f, P.mul(sf, sf)), lo, hi)
        # independent certificate: each isolating interval brackets a sign
        # change of the squarefree part (simple roots), and a dense scan
        # can only undercount the root total
        for a, b in ivs:
            assert P.eval_at(sf, a) * P.eval_at(sf, b) < 0
        assert len(ivs) >= brute_force_roots(sf, lo, hi, 800)
        assert count_roots_open(sf, lo, hi) == len(ivs)


def test_isolation_refinement_narrows():
    f = P.poly([-2, 0, 1])  # x^2 - 2
    (a1, b1), (a2, b2) = P.isolate_roots(f, Fraction(-3), Fraction(3))
    sf = P.squarefree_part(f)
    a2r, b2r = P.refine_root_interval(sf, a2, b2, Fraction(1, 2 ** 30))
    assert b2r - a2r <= Fraction(1, 2 ** 30)
    # sqrt(2) stays inside
    assert P.eval_at(f, a2r) * P.eval_at(f, b2r) < 0


def refine_by_sturm_count(p_sf, lo, hi, width):
    """Reference bisection: the root side of each split point chosen by a
    Sturm count, with the kernel's split rule (the midpoint, else
    lo + (hi - lo) / 2^j for the least j that misses a root)."""
    while hi - lo > width:
        step = (hi - lo) / 2
        while P.eval_at(p_sf, lo + step) == 0:
            step /= 2
        mid = lo + step
        if count_roots_open(p_sf, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


# roots 3/2^40 and 2 + 5/2^70, on the bisection grid deep in the tree
GRID_ROOT_POLYS = [P.squarefree_part(P.mul(f, g)) for f, g in
                   [((-3, 2 ** 40), (-2, 0, 1)), ((-(2 ** 71 + 5), 2 ** 70), (-3, 0, 1))]]


def test_dyadic_refinement_matches_fraction_reference():
    # dyadic starts (as isolate_roots makes them) and widths, and
    # midpoints that are roots, against the Fraction loop; a non-dyadic
    # start or width is refused
    cases = 0
    for sf in seeded_squarefree_polys(13, 16):
        for a, b in P.isolate_roots(sf, Fraction(-8), Fraction(8)):
            for width in (Fraction(1, 2), Fraction(1, 2) ** 10, Fraction(1, 2) ** 30,
                          Fraction(1, 2) ** 60, Fraction(1, 2) ** 90,
                          Fraction(3, 2 ** 50), Fraction(5, 2 ** 70), b - a):
                assert P.refine_root_interval(sf, a, b, width) == \
                    refine_rational(sf, a, b, width)
                cases += 1
            for lo, width in [(a - Fraction(1, 3 * 2 ** 40), Fraction(1, 2) ** 30),
                              (a, Fraction(1, 10 ** 12))]:
                with pytest.raises(ValueError, match="not a dyadic rational"):
                    P.refine_root_interval(sf, lo, b, width)
                cases += 1
    with pytest.raises(ValueError, match="not a dyadic rational"):
        P.isolate_roots(P.poly([-2, 0, 1]), Fraction(-3), Fraction(5, 3))
    # midpoints that are roots: 0 of (-1, 1), the 21st one in (1, 2) and
    # 5/8 of (1/2, 3/4); and 1/3, which no dyadic midpoint hits
    for sf, lo, hi in [(P.poly([0, -2, 0, 1]), Fraction(-1), Fraction(1)),
                       (P.poly([-1, 3]), Fraction(0), Fraction(1)),
                       (P.poly([-(2 ** 22 - 1), 2 ** 21]), Fraction(1), Fraction(2)),
                       (P.poly([-5, 8]), Fraction(1, 2), Fraction(3, 4))]:
        for bits in (1, 3, 40):
            assert P.refine_root_interval(sf, lo, hi, Fraction(1, 2) ** bits) == \
                refine_rational(sf, lo, hi, Fraction(1, 2) ** bits)
            cases += 1
    # roots on the grid deep in the tree, next to irrational ones: the
    # secant's cells must be the bisection's nodes, also after a split off
    # the midpoint
    for sf in GRID_ROOT_POLYS:
        for a, b in P.isolate_roots(sf, Fraction(-8), Fraction(8)):
            for bits in (1, 20, 39, 40, 41, 42, 69, 70, 71, 128, 300):
                assert P.refine_root_interval(sf, a, b, Fraction(1, 2) ** bits) == \
                    refine_rational(sf, a, b, Fraction(1, 2) ** bits)
                cases += 1
    assert cases > 350


def test_refinement_refuses_a_width_that_is_not_positive():
    # such a width can never be reached; the alarm turns a hang into a failure
    def hang(signum, frame):
        raise TimeoutError("refine_root_interval did not return within 5 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        for width in (Fraction(0), Fraction(-1, 4)):
            with pytest.raises(ValueError, match="is not positive"):
                P.refine_root_interval(P.poly([-2, 0, 1]), Fraction(1), Fraction(2), width)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def seeded_squarefree_polys(seed, count):
    """Primitive squarefree integer polynomials of degree 1..7 with no
    root at +-8, after four fixed ones: two with roots that bisection
    midpoints hit, two with roots within 2^-20 of 2 or -2."""
    rng = random.Random(seed)
    out = [P.poly([0, -2, 0, 1]), P.poly([3, 5, -2]),
           P.poly([-(2 ** 22 - 1), 2 ** 21]), P.poly([-(2 ** 22 - 1), 0, 2 ** 20])]
    while len(out) < count:
        f = P.poly([rng.randint(-6, 6) for _ in range(rng.randint(2, 8))])
        if P.degree(f) < 1:
            continue
        sf = P.squarefree_part(f)
        if P.eval_at(sf, 8) and P.eval_at(sf, -8):
            out.append(sf)
    return out


def test_sign_change_refinement_matches_sturm_count_reference():
    cases = 0
    for sf in seeded_squarefree_polys(11, 16):
        for a, b in P.isolate_roots(sf, Fraction(-8), Fraction(8)):
            for bits in (1, 20, 100):
                width = Fraction(1, 2) ** bits
                assert P.refine_root_interval(sf, a, b, width) == \
                    refine_by_sturm_count(sf, a, b, width)
                cases += 1
    assert cases > 60


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(P, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(P, name, counting)
    return calls


def test_refinement_takes_few_sign_tests(monkeypatch):
    # width 2^-128 from an isolating interval in at most 48 sign tests,
    # where the bisection reference takes one per halving: on polynomials
    # with roots that bisection hits, then on seeded ones of degree <= 12
    sign_tests = count_calls(monkeypatch, "_value_at")
    evaluations = count_calls(monkeypatch, "eval_at")
    width = Fraction(1, 2) ** 128
    rng = random.Random(29)
    polys = GRID_ROOT_POLYS + seeded_squarefree_polys(13, 4)
    while len(polys) < 80:
        sf = P.squarefree_part(P.poly([rng.randint(-6, 6) for _ in range(rng.randint(2, 13))]))
        if P.degree(sf) > 0 and P.eval_at(sf, 8) and P.eval_at(sf, -8):
            polys.append(sf)
    for sf in polys:
        for a, b in P.isolate_roots(sf, Fraction(-8), Fraction(8)):
            del sign_tests[:], evaluations[:]
            assert P.refine_root_interval(sf, a, b, width) == \
                refine_rational(sf, a, b, width)
            levels = (ceil((b - a) / width) - 1).bit_length()
            assert len(sign_tests) <= 48 < levels < len(evaluations)


def test_isolation_builds_one_sturm_chain_and_refinement_none(monkeypatch):
    built = count_calls(monkeypatch, "sturm_chain")
    for sf in seeded_squarefree_polys(12, 20):
        before = len(built)
        ivs = P.isolate_roots(sf, Fraction(-8), Fraction(8))
        assert len(built) == before + 1
        for a, b in ivs:
            P.refine_root_interval(sf, a, b, Fraction(1, 2) ** 100)
        assert len(built) == before + 1


def is_int_poly(p):
    return all(type(c) is int for c in p)


def positive_multiple(p, ref):
    """True when p = c ref for some rational c > 0."""
    if P.is_zero(ref):
        return P.is_zero(p)
    c = Fraction(p[-1]) / ref[-1]
    return c > 0 and len(p) == len(ref) and all(a == c * b for a, b in zip(p, ref))


def seeded_divisors(rng):
    """Monic, non-monic primitive and non-primitive integer divisors."""
    body = [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]
    lead = rng.choice([1, -1, 2, -3, 6])
    g = P.poly(body + [lead])
    k = rng.choice([2, -3, 4])
    return [g, tuple(c * k for c in g)]


def test_pseudo_division_matches_rational_reference_on_seeded_divisors():
    rng = random.Random(21)
    kinds = set()
    for _ in range(300):
        f = P.poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 9))])
        for g in seeded_divisors(rng):
            s, r = P.pseudo_remainder(f, g)
            ref_q, ref_r = divmod_rational(f, g)
            assert s > 0 and is_int_poly(r)
            assert r == tuple(c * s for c in ref_r)
            assert all((c * s).denominator == 1 for c in ref_q)
            if g[-1] in (1, -1):
                assert s == 1
            kinds.add((g[-1] in (1, -1), P.primitive(g) == g))
            # a primitive divisor of a multiple needs no scaling, and exact
            # division by any divisor gives the primitive cofactor
            if P.primitive(g) == g:
                assert P.pseudo_remainder(P.mul(f, g), g) == (1, ())
            quo = P.div_exact(P.mul(f, g), g)
            assert is_int_poly(quo) and quo == P.primitive(f)
    assert kinds == {(True, True), (False, True), (False, False)}


def test_div_exact_is_long_division_by_the_primitive_divisor():
    # (x^2 - 1) / (2x + 2): the quotient by the primitive divisor x + 1
    assert P.div_exact(P.poly([-1, 0, 1]), P.poly([2, 2])) == (-1, 1)
    assert P.div_exact(P.poly([2, 0, -2]), P.poly([-2, -2])) == (-1, 1)
    assert P.div_exact((), P.poly([3, 6])) == ()
    # a step that is not an integer division, then a remainder left over
    for p, q in [(P.poly([1, 0, 1]), P.poly([1, 2])),
                 (P.poly([1, 0, 1]), P.poly([1, 1])),
                 (P.poly([1, 0, 1]), P.poly([0, 0, 0, 1]))]:
        with pytest.raises(ValueError, match="inexact polynomial division"):
            P.div_exact(p, q)
    with pytest.raises(ZeroDivisionError):
        P.div_exact(P.poly([1, 1]), ())


def test_power_mod_is_the_rational_remainder_of_x_power():
    # s x^e = r mod g: r / s is the rational remainder of x^e itself, and
    # s and r share no factor
    rng = random.Random(23)
    for _ in range(60):
        for g in seeded_divisors(rng):
            for e in (0, 1, 2, rng.randint(3, 12), rng.randint(13, 80)):
                s, r = P.power_mod(e, g)
                ref_r = divmod_rational(P.poly([0] * e + [1]), g)[1]
                assert s > 0 and is_int_poly(r) and P.degree(r) < P.degree(g)
                assert r == tuple(c * s for c in ref_r)
                assert gcd(s, *r) == 1


def test_integer_results_are_positive_multiples_of_rational_ones():
    rng = random.Random(22)
    for _ in range(150):
        f = P.poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 8))])
        g = P.poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
        if P.is_zero(f) or P.is_zero(g):
            continue
        h = P.mul(f, P.mul(g, g))
        quo = P.div_exact(h, g)
        assert is_int_poly(quo) and P.primitive(quo) == quo
        assert positive_multiple(quo, divmod_rational(h, g)[0])
        gcd = P.poly_gcd(f, h)
        assert is_int_poly(gcd) and P.normalize(gcd) == gcd
        assert positive_multiple(gcd, gcd_rational(f, h))
        sf = P.squarefree_part(h)
        assert is_int_poly(sf) and P.normalize(sf) == sf
        monic = tuple(Fraction(c) / h[-1] for c in h)
        ref_sf = divmod_rational(monic, gcd_rational(monic, P.derivative(monic)))[0]
        assert positive_multiple(sf, ref_sf)
        chain = P.sturm_chain(sf)
        ref_chain = sturm_chain_rational(sf)
        assert len(chain) == len(ref_chain)
        for entry, ref in zip(chain, ref_chain):
            assert is_int_poly(entry) and P.primitive(entry) == entry
            assert positive_multiple(entry, ref)
    for d in range(1, 40):
        assert is_int_poly(P.cyclotomic(d))
        if d >= 3:
            assert P.circle_root_palindrome(P.cyclotomic(d)) == P.cyclotomic(d)
            psi = P.compact_palindromic(P.cyclotomic(d))
            assert is_int_poly(psi) and P.normalize(psi) == psi
    # self-reciprocal inputs, f(t) = +-t^n f(1/t), as the Alexander pencil
    # is: the gcd with the reciprocal that they make redundant is f itself
    for _ in range(60):
        n, sign = rng.randint(1, 8), rng.choice([1, -1])
        f = [0] * (n + 1)
        for k in range(n // 2 + 1):
            f[k] = rng.randint(-3, 3) if k else rng.choice([-2, -1, 1, 2])
            f[n - k] = sign * f[k] if 2 * k != n or sign == 1 else 0
        f = P.poly(f)
        assert P.poly_gcd(f, f[::-1]) == P.normalize(f)
        g = P.circle_root_palindrome(f)
        assert is_int_poly(g) and P.normalize(g) == g
        assert g == g[::-1] and P.eval_at(g, 1) and P.eval_at(g, -1)
        c = P.compact_palindromic(g)
        assert is_int_poly(c) and P.normalize(c) == c
    with pytest.raises(ValueError, match="not self-reciprocal"):
        P.circle_root_palindrome(P.poly([1, 2, 3]))


def test_cyclotomic_by_prime_factor_matches_divisor_construction():
    # the truncated Moebius product against dividing x^d - 1 by every Phi_e,
    # e a proper divisor; d = 2^9, 3^5, 2 * 3 * 5 * 7 and 3 * 5 * 7 * 11
    # take prime powers and up to 16 factors 1 - x^e
    for d in list(range(1, 241)) + [512, 243, 210, 1155]:
        assert P.cyclotomic(d) == cyclotomic_by_divisors(d), d


def test_cyclotomic_small_orders():
    assert P.cyclotomic(1) == (-1, 1)
    assert P.cyclotomic(2) == (1, 1)
    assert P.cyclotomic(3) == (1, 1, 1)
    assert P.cyclotomic(4) == (1, 0, 1)
    assert P.cyclotomic(6) == (1, -1, 1)
    assert P.cyclotomic(12) == (1, 0, -1, 0, 1)
    # product over divisors reassembles x^n - 1
    for n in (6, 8, 12):
        prod = P.poly([1])
        for d in range(1, n + 1):
            if n % d == 0:
                prod = P.mul(prod, P.cyclotomic(d))
        assert prod == P.poly([-1] + [0] * (n - 1) + [1])


def test_chebyshev_identity():
    # the compaction of t^(2k) + 1 is C_k, with C_k(t + 1/t) = t^k + t^-k:
    # monic of degree k for k > 0, and C_0 = 2
    assert P.compact_palindromic(P.poly([2])) == (2,)
    assert P.compact_palindromic(P.poly([1, 0, 0, 0, 0, 0, 1])) == (0, -3, 0, 1)
    for k in range(1, 8):
        ck = P.compact_palindromic(P.poly([1] + [0] * (2 * k - 1) + [1]))
        assert P.degree(ck) == k and ck[-1] == 1
        # evaluate both sides at several rationals
        for t in (Fraction(2), Fraction(1, 3), Fraction(-5, 2)):
            lhs = P.eval_at(ck, t + 1 / t)
            assert lhs == t ** k + t ** (-k)


def test_circle_compaction_trefoil_and_friends():
    # t^2 - t + 1: circle roots at the primitive 6th roots of unity
    def compaction(f):
        return P.compact_palindromic(P.circle_root_palindrome(f))

    g = compaction(P.poly([1, -1, 1]))
    assert g == (-1, 1)
    # figure-eight numerator: real reciprocal pair off the circle
    g8 = compaction(P.poly([-1, 3, -1]))
    assert P.isolate_roots(g8, Fraction(-2), Fraction(2)) == []
    # (t^2+1)(t^2-t+1): roots at i and 6th roots
    f = P.mul(P.poly([1, 0, 1]), P.poly([1, -1, 1]))
    g2 = compaction(f)
    roots = P.isolate_roots(g2, Fraction(-2), Fraction(2))
    assert len(roots) == 2  # x = 0 and x = 1


def test_bareiss_matches_fraction_det():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert P.det_bareiss(rows) == det_fraction(rows)


def test_bareiss_deferred_rows_match_oracles():
    # banded, block-diagonal and sparse matrices leave most rows with a
    # zero pivot-column entry, so they are deferred; zeros on the diagonal
    # and a row shuffle make zero pivots, so rows with different tags are
    # swapped and deferred rows caught up as pivot rows.  Against the
    # cofactor expansion up to 7 x 7 and Fraction elimination beyond.
    rng = random.Random(31)
    swapped = 0
    for case in range(600):
        n = rng.randint(1, 12)
        pattern = structured_pattern(rng, n, ("banded", "block", "sparse")[case % 3])
        rows = [[rng.randint(-4, 4) if allowed else 0 for allowed in row]
                for row in pattern]
        if case % 2:
            for i in rng.sample(range(n), rng.randint(1, n)):
                rows[i][i] = 0
        if case % 4 >= 2:
            rng.shuffle(rows)
        swapped += n > 1 and rows[0][0] == 0 and any(row[0] for row in rows)
        det = P.det_bareiss(rows)
        assert det == det_fraction(rows), rows
        if n <= 7:
            assert det == plain_det(rows), rows
    assert swapped > 100


def test_lagrange_interpolation_roundtrip():
    # the integer Newton reference at nodes 0..n and the Fraction Lagrange
    # reference at 0..n and at the nodes j, 1/j, on integer polynomials
    # with zero and sign-changing values
    rng = random.Random(5)
    for _ in range(80):
        f = P.poly([rng.randint(-40, 40) for _ in range(rng.randint(1, 11))])
        n = max(P.degree(f), 0) + rng.randint(0, 2)
        values = [P.eval_at(f, x) for x in range(n + 1)]
        pts = [(Fraction(x), Fraction(y)) for x, y in enumerate(values)]
        assert interpolate_integer(values) == lagrange_interpolate(pts) == f
        nodes = [Fraction(0), Fraction(1)] + [x for j in range(2, n + 2)
                                              for x in (Fraction(j), Fraction(1, j))]
        pts = [(x, P.eval_at(f, x)) for x in nodes[:n + 1]]
        assert lagrange_interpolate(pts) == f
    assert interpolate_integer([]) == interpolate_integer([0, 0, 0]) == ()


def test_totient_sieve_matches_prime_factor_reference():
    phi = totients(10 ** 4)
    assert len(phi) == 10 ** 4 + 1 and phi[0] == 0
    assert all(phi[d] == euler_phi(d) for d in range(1, 10 ** 4 + 1))
    # phi(d) >= sqrt(d) except at 2 and 6: the cyclotomic scan bound
    assert [d for d in range(1, 10 ** 4 + 1) if phi[d] ** 2 < d] == [2, 6]
    assert totients(0) == [0] and totients(1) == [0, 1]

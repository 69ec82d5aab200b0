"""Finite abelian groups: primary parts, subgroup enumeration,
square-root searches; all enumerations re-verified by closure checks."""


from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from conclab import SizeBoundError, ValidationError, abgroup
from conclab.abgroup import (FiniteAbelianGroup, generated_subgroup,
                             square_root_subgroups, subgroups_of_order)
from conclab.jsonio import subgroup_to_json

from conftest import (closure_reference, embed, primary_part,
                      square_root_subgroups_via_primary_part,
                      subgroups_of_order_reference)


def assert_closed(subgroup):
    g = subgroup.group
    elems = subgroup.elements
    assert g.zero in elems
    for x in elems:
        assert g.negate(x) in elems
        for y in elems:
            assert g.add(x, y) in elems


def test_invariant_factor_validation():
    with pytest.raises(ValidationError):
        FiniteAbelianGroup((4, 6))     # 4 does not divide 6
    with pytest.raises(ValidationError):
        FiniteAbelianGroup((1, 2))
    assert FiniteAbelianGroup(()).order == 1
    assert FiniteAbelianGroup((2, 4, 8)).order == 64


def test_primary_part_examples():
    G = FiniteAbelianGroup((12,))
    G2, emb2 = primary_part(G, 2)
    assert G2.invariant_factors == (4,)
    assert emb2 == ((3,),)
    G9 = FiniteAbelianGroup((9,))
    assert primary_part(G9, 3)[0].invariant_factors == (9,)
    assert primary_part(G9, 2)[0].invariant_factors == ()


def test_primary_part_requires_prime():
    with pytest.raises(ValidationError):
        primary_part(FiniteAbelianGroup((12,)), 4)


def test_primary_decomposition_reassembles(rng):
    pool = [(2,), (4,), (6,), (12,), (2, 4), (3, 9), (2, 6), (30,), (5, 25)]
    for factors in pool:
        G = FiniteAbelianGroup(factors)
        total = 1
        for p in (2, 3, 5, 7):
            Gp, emb = primary_part(G, p)
            total *= Gp.order
            # embedding is injective with the right image order
            if Gp.order <= 1000:
                images = {embed(G, emb, x) for x in Gp.elements()}
                assert len(images) == Gp.order
        assert total == G.order


def test_subgroup_counts_cyclic_and_plane():
    assert len(subgroups_of_order(FiniteAbelianGroup((9,)), 3)) == 1
    assert subgroups_of_order(FiniteAbelianGroup((9,)), 3)[0].sorted_elements() == \
        [(0,), (3,), (6,)]
    for p in (2, 3, 5):
        plane = FiniteAbelianGroup((p, p))
        subs = subgroups_of_order(plane, p)
        assert len(subs) == p + 1
        for s in subs:
            assert_closed(s)
    # trivial case
    triv = subgroups_of_order(FiniteAbelianGroup(()), 1)
    assert len(triv) == 1 and triv[0].order == 1


def test_subgroup_counts_p_squared_cyclic():
    for p in (2, 3, 5):
        G = FiniteAbelianGroup((p * p,))
        assert len(subgroups_of_order(G, p)) == 1


def test_subgroups_of_z4xz2():
    G = FiniteAbelianGroup((2, 4))
    subs2 = subgroups_of_order(G, 2)
    assert len(subs2) == 3  # three involutions
    subs4 = subgroups_of_order(G, 4)
    # Z_2 x Z_4 has one Z_4-free plane and two cyclic C4s: 3 subgroups of order 4
    assert len(subs4) == 3
    for s in subs2 + subs4:
        assert_closed(s)
        assert G.order % s.order == 0


def test_subgroup_order_must_divide_a_p_group_order():
    # n < 1 and non-divisors are ValidationErrors, not ZeroDivisionError or
    # a factoring error; a group that is not a p-group is refused too
    z9 = FiniteAbelianGroup((9,))
    for n in (0, -3, 2, 27):
        with pytest.raises(ValidationError, match=f"{n} is not a valid p-power"):
            subgroups_of_order(z9, n)
    with pytest.raises(ValidationError, match="is not a p-group"):
        subgroups_of_order(FiniteAbelianGroup((6,)), 3)


def test_subgroups_random_closure(rng):
    pools = [(2, 2), (3, 3), (4,), (8,), (2, 4), (9,), (3, 9), (25,)]
    for _ in range(100):
        factors = rng.choice(pools)
        G = FiniteAbelianGroup(factors)
        p = min(f for f in factors)
        p = {4: 2, 8: 2, 9: 3, 25: 5}.get(p, p)
        valid_orders = [p ** k for k in range(0, 6) if G.order % (p ** k) == 0]
        n = rng.choice(valid_orders)
        subs = subgroups_of_order(G, n)
        for s in subs:
            assert s.order == n
            assert_closed(s)
        # no duplicates
        assert len({s.elements for s in subs}) == len(subs)


def test_subgroup_enumeration_bound():
    with pytest.raises(SizeBoundError):
        FiniteAbelianGroup((1048576 * 2,)).elements()


def test_square_root_unique_in_cyclic_q_squared():
    res = square_root_subgroups(FiniteAbelianGroup((9,)), 3)
    assert res.is_square and res.primary_order == 9
    assert len(res.candidates) == 1
    assert res.candidates[0].sorted_elements() == [(0,), (3,), (6,)]


def test_square_root_plane_has_four():
    res = square_root_subgroups(FiniteAbelianGroup((3, 3)), 3)
    assert len(res.candidates) == 4
    for s in res.candidates:
        assert_closed(s)


def test_square_root_odd_power_flagged():
    res = square_root_subgroups(FiniteAbelianGroup((3,)), 3)
    assert not res.is_square
    assert res.candidates == ()


def test_square_root_in_ambient_coordinates():
    # q-primary part of Z_18 is Z_9 embedded as multiples of 2
    res = square_root_subgroups(FiniteAbelianGroup((18,)), 3)
    assert res.is_square
    assert res.candidates[0].sorted_elements() == [(0,), (6,), (12,)]


def test_square_root_search_matches_primary_part_reference(monkeypatch):
    closures = []
    closure = abgroup.generated_subgroup
    monkeypatch.setattr(abgroup, "generated_subgroup",
                        lambda g, gens: closures.append(g) or closure(g, gens))
    groups = [(18,), (45,), (6, 18), (12, 36), (10, 50), (2, 2, 4), (4, 8),
              (9, 9), (3, 27)]
    for factors in groups:
        G = FiniteAbelianGroup(factors)
        for q in (2, 3, 5, 7):
            res = square_root_subgroups(G, q)
            ambient = len(closures)
            order, square, cands = square_root_subgroups_via_primary_part(G, q)
            assert (res.primary_order, res.is_square) == (order, square)
            assert [subgroup_to_json(s) for s in res.candidates] == \
                [subgroup_to_json(s) for s in cands]
            assert all(s.group == G for s in res.candidates)
            # the same element pool: one closure per closure of the reference
            assert ambient == len(closures) - ambient
            closures.clear()


def test_torsion_is_the_kernel_of_multiplication():
    for factors in [(), (6,), (12,), (2, 4), (3, 9), (6, 18), (2, 2, 4)]:
        G = FiniteAbelianGroup(factors)
        for n in range(1, 40):
            tors = G.torsion(n)
            assert tors == sorted(x for x in G.elements() if G.scalar(n, x) == G.zero)
    with pytest.raises(SizeBoundError):
        FiniteAbelianGroup((2 ** 21,)).torsion(2 ** 21)
    assert len(FiniteAbelianGroup((2 ** 21,)).torsion(4)) == 4


def test_square_root_trivial_primary_part():
    res = square_root_subgroups(FiniteAbelianGroup((4,)), 3)
    assert res.is_square and res.primary_order == 1
    assert len(res.candidates) == 1
    assert res.candidates[0].order == 1


def test_generated_subgroup_order_divides(rng):
    for _ in range(100):
        factors = rng.choice([(6,), (12,), (2, 4), (3, 9), (30,)])
        G = FiniteAbelianGroup(factors)
        gens = [tuple(rng.randrange(d) for d in factors)
                for _ in range(rng.randint(0, 2))]
        s = generated_subgroup(G, gens)
        assert G.order % s.order == 0
        assert_closed(s)


@st.composite
def _group_and_generators(draw):
    """A group of order <= 200 (rank 0-3) and 0-5 generators whose
    coordinates may be unreduced, negative or zero; a generator may
    repeat an earlier one or be an integer combination of earlier ones,
    so that it lies in the span already built."""
    factors: list[int] = []
    for _ in range(draw(st.integers(0, 3))):
        d = factors[-1] * draw(st.integers(1, 12)) if factors else draw(st.integers(2, 200))
        if prod(factors) * d > 200:
            break
        factors.append(d)
    G = FiniteAbelianGroup(tuple(factors))
    element = st.one_of(st.just(G.zero),
                        st.tuples(*(st.integers(-2 * d, 2 * d) for d in factors)))
    gens: list = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["new", "repeat", "span"]) if gens else st.just("new"))
        if kind == "new":
            gens.append(draw(element))
        elif kind == "repeat":
            gens.append(draw(st.sampled_from(gens)))
        else:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(gens),
                                   max_size=len(gens)))
            gens.append(tuple(sum(c * g[i] for c, g in zip(coeffs, gens))
                              for i in range(G.rank)))
    return G, gens


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_group_and_generators())
def test_generated_subgroup_matches_the_reference_closure(case):
    G, gens = case
    s = generated_subgroup(G, gens)
    assert s.group == G
    assert (s.generators, s.elements) == closure_reference(G, gens)


def _rank2_count(p: int, a: int, b: int, k: int) -> int:
    """The number of subgroups of order p^k in Z_{p^a} + Z_{p^b}, a <= b:
    (p^(e+1) - 1)/(p - 1) with e = k for k <= a, e = a for a <= k <= b
    and e = a + b - k for k >= b, that is, e = min(k, a, a + b - k)."""
    e = min(k, a, a + b - k)
    return (p ** (e + 1) - 1) // (p - 1)


def test_subgroup_counts_match_the_rank2_closed_form():
    # (25, 25) is left out: the reference takes ~3 s there and the
    # library's search ~7 s at each of orders 125 and 625
    for p in (2, 3, 5):
        for a, b in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]:
            if p ** (a + b) > 125:
                continue
            G = FiniteAbelianGroup(tuple(p ** e for e in (a, b) if e))
            # the formula against the reference: a rank-2 group's subgroups
            # are generated by two cyclic ones
            cyclic = {closure_reference(G, [x])[1]: x for x in G.elements()}
            gens = list(cyclic.values())
            subs = {closure_reference(G, [x, y])[1]
                    for i, x in enumerate(gens) for y in gens[i:]}
            for k in range(a + b + 1):
                count = _rank2_count(p, a, b, k)
                assert sum(len(h) == p ** k for h in subs) == count, (p, a, b, k)
                assert len(subgroups_of_order(G, p ** k)) == count, (p, a, b, k)


def _p_groups(primes, max_rank, max_order):
    """Every p-group Z_{p^e1} + ... + Z_{p^er}, 1 <= e1 <= ... <= er,
    r <= max_rank, of order at most max_order."""
    out = [()]
    for p in primes:
        stack = [()]
        while stack:
            exps = stack.pop()
            for e in range(exps[-1] if exps else 1, max_order.bit_length()):
                grown = exps + (e,)
                if len(grown) <= max_rank and p ** sum(grown) <= max_order:
                    out.append(tuple(p ** k for k in grown))
                    stack.append(grown)
    return out


def test_subgroup_search_matches_the_search_without_skips():
    # the reference closes every pool element from every frontier subgroup
    # with the breadth-first closure; the library's coset closures and its
    # skipping of covered elements must find the same subgroups through
    # the same first closure, so their generators (printed by
    # ``metabolizers`` and ``obstruct-smooth``) stay the same
    groups = _p_groups((2, 3, 5), 3, 81)
    assert (9, 9) in groups and (2, 4, 8) in groups and len(groups) == 36
    for factors in groups:
        G = FiniteAbelianGroup(factors)
        closures: dict = {}
        for n in (d for d in range(1, G.order + 1) if G.order % d == 0):
            got = [(s.generators, s.sorted_elements()) for s in subgroups_of_order(G, n)]
            assert got == subgroups_of_order_reference(G, n, closures), (factors, n)


def test_generated_subgroup_holds_the_size_bound_on_the_coset_path(monkeypatch):
    monkeypatch.setattr(abgroup, "SUBGROUP_ENUMERATION_BOUND", 8)
    # a rank-1 walk: the multiples of 1 in Z_16
    with pytest.raises(SizeBoundError, match="generated subgroup exceeds"):
        generated_subgroup(FiniteAbelianGroup((16,)), [(1,)])
    # a coset extension: <(1, 0)> has order 4, and (0, 1) would add three
    # cosets of 4 elements
    G = FiniteAbelianGroup((4, 4))
    assert generated_subgroup(G, [(1, 0)]).order == 4
    with pytest.raises(SizeBoundError, match="generated subgroup exceeds"):
        generated_subgroup(G, [(1, 0), (0, 1)])
    # a subgroup of exactly the bound's size is allowed, one more is not
    assert generated_subgroup(FiniteAbelianGroup((16,)), [(2,)]).order == 8
    assert generated_subgroup(G, [(1, 0), (0, 2)]).order == 8
    with pytest.raises(SizeBoundError):
        generated_subgroup(FiniteAbelianGroup((9,)), [(1,)])
    with pytest.raises(SizeBoundError):
        generated_subgroup(FiniteAbelianGroup((3, 3)), [(1, 0), (0, 1)])


def test_each_prime_index_extension_is_built_once(monkeypatch):
    # in an elementary abelian p-group every one-element extension has
    # index p, so the search builds one closure per subgroup j of index p
    # over each frontier subgroup h (plus the trivial one), not one per
    # element of j outside h
    closures = []
    closure = abgroup.generated_subgroup
    monkeypatch.setattr(abgroup, "generated_subgroup",
                        lambda g, gens: closures.append(g) or closure(g, gens))
    for p in (2, 3, 5):
        lines = p * p + p + 1   # subgroups of order p in (p, p, p), and of order p^2
        for factors, n, expected in [((p, p), p, 1 + (p + 1)),
                                     ((p, p, p), p, 1 + lines),
                                     ((p, p, p), p * p, 1 + lines + lines * (p + 1))]:
            closures.clear()
            subs = subgroups_of_order(FiniteAbelianGroup(factors), n)
            assert len(subs) == (p + 1 if factors == (p, p) else lines)
            assert len(closures) == expected, (factors, n)

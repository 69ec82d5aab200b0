"""Finite abelian groups by invariant factors.

Elements are coordinate tuples modulo the invariant factors.  An element
is validated (its rank checked, its coordinates reduced) where it enters:
by the public ``add``, ``negate``, ``scalar`` and ``reduce``, and by
``generated_subgroup`` for its generators.  Inside a subgroup closure
every element is already reduced, so sums there are plain coordinate
additions and are never validated again.  A closure adds its generators
one at a time by cosets, one addition per new element.

The module provides torsion subgroups enumerated by coordinates,
brute-force subgroup enumeration at desk scale, and the search for
square-root-order subgroups of a q-primary part (the candidate
metabolizers of the vanishing test in :mod:`conclab.dinv`).  The q-primary
part is the |G|_q-torsion of G, so that search runs in the ambient
coordinates; nothing is re-embedded.  It builds one closure per coset of
a frontier subgroup, and each extension of prime index once; a skipped
element never starts a closure, so generators are those of the first one.
"""

from __future__ import annotations

from math import gcd, prod

from ._primes import is_prime, prime_power_base
from ._value import Value
from .errors import SizeBoundError, ValidationError

Element = tuple[int, ...]

SUBGROUP_ENUMERATION_BOUND = 10 ** 6


class FiniteAbelianGroup(Value):
    """Direct sum of cyclic groups Z_{d_1} + ... + Z_{d_r} with each d_i
    dividing d_{i+1}; the empty list is the trivial group.

    >>> G = FiniteAbelianGroup((3, 9))
    >>> G.order
    27
    >>> G.add((2, 8), (2, 2))
    (1, 1)
    """

    __slots__ = _fields = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...]):
        fac = invariant_factors
        for i, d in enumerate(fac):
            if d < 2:
                raise ValidationError(f"invariant_factors[{i}]: must be >= 2")
            if i + 1 < len(fac) and fac[i + 1] % d != 0:
                raise ValidationError(
                    f"invariant_factors[{i}] = {d} does not divide "
                    f"invariant_factors[{i + 1}] = {fac[i + 1]}")
        Value.__init__(self, invariant_factors)

    @staticmethod
    def cyclic(n: int) -> "FiniteAbelianGroup":
        return FiniteAbelianGroup((n,)) if n > 1 else FiniteAbelianGroup(())

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def zero(self) -> Element:
        return (0,) * self.rank

    def reduce(self, x: Element) -> Element:
        if len(x) != self.rank:
            raise ValidationError(
                f"element {x} has {len(x)} coordinates, group has rank {self.rank}")
        return tuple(int(c) % d for c, d in zip(x, self.invariant_factors))

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % d for a, b, d in
                     zip(self.reduce(x), self.reduce(y), self.invariant_factors))

    def negate(self, x: Element) -> Element:
        return tuple((-a) % d for a, d in zip(self.reduce(x), self.invariant_factors))

    def scalar(self, n: int, x: Element) -> Element:
        return tuple((n * a) % d for a, d in zip(self.reduce(x), self.invariant_factors))

    def torsion(self, n: int) -> list[Element]:
        """The n-torsion {x : n x = 0} in lexicographic order: coordinate i
        runs over the multiples of d_i / gcd(n, d_i).

        >>> FiniteAbelianGroup((2, 6)).torsion(3)
        [(0, 0), (0, 2), (0, 4)]
        """
        size = prod(gcd(n, d) for d in self.invariant_factors)
        if size > SUBGROUP_ENUMERATION_BOUND:
            raise SizeBoundError(
                f"group of order {size} exceeds the enumeration bound")
        out = [()]
        for d in self.invariant_factors:
            out = [e + (c,) for e in out for c in range(0, d, d // gcd(n, d))]
        return out

    def elements(self) -> list[Element]:
        return self.torsion(self.order)

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "0"
        return " + ".join(f"Z_{d}" for d in self.invariant_factors)


class Subgroup(Value):
    """Subgroup given by generators (coordinates in the ambient group),
    with its full element set cached for membership checks."""

    __slots__ = _fields = ("group", "generators", "elements")

    @property
    def order(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> list[Element]:
        return sorted(self.elements)


def generated_subgroup(group: FiniteAbelianGroup,
                       generators: list[Element]) -> Subgroup:
    """Closure of a generating set, one generator at a time by cosets:
    <H, g> is the union of the cosets H + k g up to the first k with k g
    in H (Lagrange), so each new element costs one addition and a
    generator already in H adds nothing.  The generators are validated
    and reduced on entry; no element is re-validated after that
    (``FiniteAbelianGroup.add`` would, once per operand per sum).

    >>> G = FiniteAbelianGroup((9,))
    >>> sorted(generated_subgroup(G, [(3,)]).elements)
    [(0,), (3,), (6,)]
    >>> generated_subgroup(G, [(-6,), (0,)]).generators
    ((3,),)
    """
    gens = tuple(group.reduce(g) for g in generators)
    facs = group.invariant_factors
    zero = group.zero
    closed = {zero}
    for g in gens:
        rest = [x for x in closed if x != zero]
        kg = g
        while kg not in closed:
            if len(closed) + len(rest) >= SUBGROUP_ENUMERATION_BOUND:
                raise SizeBoundError("generated subgroup exceeds the enumeration bound")
            closed.add(kg)
            if rest:
                closed.update([tuple([(a + b) % d for a, b, d in zip(x, kg, facs)])
                               for x in rest])
            kg = tuple([(a + b) % d for a, b, d in zip(kg, g, facs)])
    nonzero_gens = tuple(g for g in gens if g != zero)
    return Subgroup(group, nonzero_gens, frozenset(closed))


def subgroups_of_order(gp: FiniteAbelianGroup, n: int) -> list[Subgroup]:
    """All subgroups of exact order n of a p-group, by depth-first
    closure over one-generator extensions, deduplicated by element set.
    Output is deterministic (sorted by element list).  Only |G| is
    factored: a divisor n >= 1 of a power of p is itself a power of p.
    A group that is not a p-group, and an n that is not a positive
    divisor of |G|, raise ValidationError.

    >>> Z9 = FiniteAbelianGroup((9,))
    >>> [s.sorted_elements() for s in subgroups_of_order(Z9, 3)]
    [[(0,), (3,), (6,)]]
    >>> len(subgroups_of_order(FiniteAbelianGroup((3, 3)), 3))
    4
    """
    p = prime_power_base(gp.order)
    if gp.order > 1 and p is None:
        raise ValidationError(f"group {gp} is not a p-group")
    if not (n >= 1 and gp.order % n == 0):
        raise ValidationError(f"{n} is not a valid p-power subgroup order for {gp}")
    return _subgroups_in_torsion(gp, p, gp.order, n)


def _subgroups_in_torsion(group: FiniteAbelianGroup, p: int | None, m: int,
                          n: int) -> list[Subgroup]:
    """All subgroups of order n of the m-torsion of ``group``, where m is
    the order of that torsion subgroup, a p-group, and n divides m; the
    pool ``group.torsion(m)`` has m elements, so it holds the size bound.
    From a frontier subgroup h, j = <h, x> depends only on the coset x + h:
    one closure covers the coset (all of j when j has index p over h), and
    a skipped y never starts a closure, so j keeps its first generators."""
    if n == 1:
        return [generated_subgroup(group, [])]
    pool = group.torsion(m)
    facs = group.invariant_factors
    trivial = generated_subgroup(group, [])
    seen: set[frozenset] = {trivial.elements}
    frontier = [trivial]
    found: dict[frozenset, Subgroup] = {}
    while frontier:
        h = frontier.pop()
        covered = set(h.elements)
        for x in pool:
            if x in covered:
                continue
            j = generated_subgroup(group, list(h.generators) + [x])
            if j.order == p * h.order:
                covered |= j.elements
            elif h.order > 1:
                covered.update([tuple([(a + b) % d for a, b, d in zip(x, y, facs)])
                                for y in h.elements])
            if j.order > n or j.elements in seen:
                continue
            seen.add(j.elements)
            if j.order == n:
                found[j.elements] = j
            else:
                frontier.append(j)
    return sorted(found.values(), key=lambda s: s.sorted_elements())


class SquareRootSearch(Value):
    """Result of the square-root-order subgroup search in the q-primary
    part: the candidates (as subgroups of the ambient group), whether
    |G_q| was a perfect square at all, and the primary data."""

    __slots__ = _fields = ("group", "q", "primary_order", "is_square", "candidates")


def square_root_subgroups(group: FiniteAbelianGroup, q: int) -> SquareRootSearch:
    """All subgroups H of the q-primary part with |H|**2 = |G_q|, reported
    in ambient coordinates.  When |G_q| is not a perfect power of even
    exponent the candidate list is empty and ``is_square`` is False.

    >>> res = square_root_subgroups(FiniteAbelianGroup((9,)), 3)
    >>> [s.sorted_elements() for s in res.candidates]
    [[(0,), (3,), (6,)]]
    """
    if not is_prime(q):
        raise ValidationError(f"{q} is not prime")
    e = 0
    while group.order % q ** (e + 1) == 0:
        e += 1
    order = q ** e
    if e % 2 != 0:
        return SquareRootSearch(group, q, order, False, ())
    cands = _subgroups_in_torsion(group, q, order, q ** (e // 2))
    return SquareRootSearch(group, q, order, True, tuple(cands))

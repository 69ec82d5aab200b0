import random
from fractions import Fraction

import pytest

from conclab import SeifertMatrix
from conclab import _poly as P
from conclab.seifert import connected_sum, mirror, reverse, UNKNOT


def det_fraction(rows) -> Fraction:
    """Reference determinant by fraction Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            f = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


def lagrange_interpolate(points) -> P.Poly:
    """Reference: the polynomial of degree < len(points) through the given
    (x, y) points, as a sum of Fraction Lagrange basis polynomials."""
    out: P.Poly = ()
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        term = P.constant(Fraction(yi))
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            term = P.scale(P.mul(term, P.poly([-xj, 1])), Fraction(1, xi - xj))
        out = P.add(out, term)
    return out


def torus_2_strand_matrix(genus: int) -> SeifertMatrix:
    """Standard 2g x 2g Seifert matrix of the (2, 2g+1) torus knot:
    -1 on the diagonal, +1 on the superdiagonal."""
    n = 2 * genus
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = -1
        if i + 1 < n:
            rows[i][i + 1] = 1
    return SeifertMatrix.from_rows(rows)


def random_genuine_matrix(rng: random.Random, genus: int,
                          entry_bound: int = 2) -> SeifertMatrix:
    """Random 2g x 2g integer matrix with det(A - A^T) = 1: fix the
    antisymmetrization to the standard symplectic form and randomize the
    rest."""
    n = 2 * genus
    J = [[0] * n for _ in range(n)]
    for i in range(genus):
        J[2 * i][2 * i + 1] = 1
        J[2 * i + 1][2 * i] = -1
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = rng.randint(-entry_bound, entry_bound)
        for j in range(i + 1, n):
            a[i][j] = rng.randint(-entry_bound, entry_bound)
            a[j][i] = a[i][j] - J[i][j]
    return SeifertMatrix.from_rows(a)


def random_unimodular(rng: random.Random, n: int, steps: int = 4):
    """Product of random elementary row operations (determinant 1)."""
    u = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n >= 2 else (0, 0)
        if i == j:
            continue
        c = rng.randint(-1, 1)
        for k in range(n):
            u[i][k] += c * u[j][k]
    return u


def congruent(a: SeifertMatrix, u) -> SeifertMatrix:
    """U A U^T for a unimodular U; preserves all invariants in play."""
    n = a.size
    ua = [[sum(u[i][k] * a.entries[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    uaut = [[sum(ua[i][k] * u[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]
    return SeifertMatrix.from_rows(uaut)


def cyclotomic_jump_matrix(rng: random.Random) -> SeifertMatrix:
    """A matrix whose signature jumps all sit at exact rational
    parameters: block sums of (2, odd) torus knot forms and their
    reverses/mirrors, twisted by a unimodular congruence."""
    blocks = []
    for _ in range(rng.randint(1, 2)):
        base = torus_2_strand_matrix(rng.randint(1, 2))
        if rng.random() < 0.5:
            base = mirror(base)
        if rng.random() < 0.5:
            base = reverse(base)
        blocks.append(base)
    out = UNKNOT
    for b in blocks:
        out = connected_sum(out, b)
    return congruent(out, random_unimodular(rng, out.size))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)

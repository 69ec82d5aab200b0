"""Seeded job lists for the four workloads.

Every job is a conclab command line whose inputs are JSON ``@files``
written by the benchmark; the program sees only those files.  Each job
carries a ``check`` record that tells :mod:`oracles` what the right
answer is, worked out here from the construction (or left to the
independent float oracle).  The same seed always gives the same jobs.

``size="tiny"`` shrinks every list to a few cheap jobs for the
self-test.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np

WORKLOADS = ("top-torus", "top-random", "smooth-q", "batch-mixed")
DEFAULT_SEED = 1

# (genus, circle roots) classes of top-random.  Fixing the mix keeps the
# cost of a job list nearly the same for every seed.  The classes fall in
# three cost tiers of several matrices each -- (2,4) and (3,2); (3,4) and
# (4,2); (5,2) and (4,4) -- so the median job lies inside the middle tier
# and the slowest tenth inside the top one, not on one matrix.
RANDOM_CLASSES = [(2, 4), (3, 2)] * 2 + [(3, 4), (4, 2)] * 3 + [(5, 2), (4, 4)] * 2
SMOOTH_PRIMES = [11, 13, 17, 19, 23]
TORUS_POLYS = [(2, 5), (2, 7), (3, 4), (3, 5), (2, 9)]
MIN_ROOT_GAP = 0.05


class Job:
    """One command line.  ``argv`` names input files as ``@{name}``;
    ``files`` maps each name to its JSON text."""

    def __init__(self, argv: list[str], files: dict[str, str], check: dict):
        self.argv = argv
        self.files = files
        self.check = check

    @property
    def key(self) -> str:
        """Identity of the input, independent of where the files live."""
        blob = json.dumps({"argv": self.argv, "files": self.files}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    def concrete_argv(self, directory: str) -> list[str]:
        out = []
        for arg in self.argv:
            if arg.startswith("@{") and arg.endswith("}"):
                arg = f"@{directory}/{arg[2:-1]}"
            out.append(arg)
        return out


# ---------------------------------------------------------------------------
# inputs


def torus_seifert(n: int) -> list[list[int]]:
    """Seifert matrix of T(2, n), n odd: -1 on the diagonal, 1 above it."""
    s = n - 1
    return [[-1 if i == j else (1 if j == i + 1 else 0) for j in range(s)]
            for i in range(s)]


def circle_roots_ok(a: list[list[int]], count: int) -> bool:
    """numpy sees exactly ``count`` roots of det(tA - A^T) on the unit
    circle, none of them a root of unity, all simple and at least
    MIN_ROOT_GAP apart on the x = 2 cos(2 pi t) line.  Keeping roots apart
    keeps the cost of a job close to that of the others of its class."""
    m = np.array(a, dtype=float)
    if abs(np.linalg.det(m)) < 0.5:     # integer matrix: det is 0 or >= 1;
        return False                    # the eigenvalue route needs A invertible
    roots = np.linalg.eigvals(np.linalg.solve(m, m.T))
    t = np.angle(roots[np.abs(np.abs(roots) - 1) < 1e-7]) / (2 * np.pi)
    if len(t) != count:
        return False
    if any(abs(x * d - round(x * d)) < 1e-6 for x in t for d in range(1, 400)):
        return False
    x = np.sort(np.concatenate([2 * np.cos(2 * np.pi * t[t > 0]), [-2.0, 2.0]]))
    return len(x) == count // 2 + 2 and bool(np.all(np.diff(x) > MIN_ROOT_GAP))


def random_seifert(rng: random.Random, genus: int, circle_roots: int) -> list[list[int]]:
    """Genuine Seifert matrix B + N: B random symmetric, N one [[0,1],[0,0]]
    block per handle, so A - A^T is the standard symplectic form
    (determinant 1).  Drawn until ``circle_roots_ok``."""
    n = 2 * genus
    for _ in range(100000):
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-2, 2)
        for h in range(genus):
            a[2 * h][2 * h + 1] += 1
        if circle_roots_ok(a, circle_roots):
            return a
    raise RuntimeError(f"no genus-{genus} matrix with {circle_roots} circle roots")


def random_alexander(rng: random.Random) -> dict[int, int]:
    """Symmetric Laurent polynomial with f(1) = 1 and f(-1) != 0, as
    {exponent: coefficient}."""
    while True:
        deg = rng.randint(1, 3)
        a = [rng.randint(-2, 2) for _ in range(deg)]
        if a[-1] == 0:
            continue
        a0 = 1 - 2 * sum(a)
        f = {0: a0}
        for j, c in enumerate(a, start=1):
            if c:
                f[j] = f[-j] = c
        if laurent_at_minus_one(f) != 0:
            return f


def laurent_at_minus_one(f: dict[int, int]) -> int:
    return sum(c * (-1) ** (e % 2) for e, c in f.items())


def poly_json(f: dict[int, int]) -> dict:
    return {"coeffs": [[e, f[e]] for e in sorted(f) if f[e]]}


def prime_divisors(n: int) -> set[int]:
    n = abs(n)
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def is_prime(n: int) -> bool:
    return n > 1 and prime_divisors(n) == {n}


def random_collection(rng: random.Random, count: int, avoid: int | None = None):
    """``count`` random Alexander polynomials whose degree-2 homology
    orders |f(-1)| are prime to ``avoid``."""
    polys = []
    while len(polys) < count:
        f = random_alexander(rng)
        if avoid is None or laurent_at_minus_one(f) % avoid != 0:
            polys.append(f)
    return polys


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# workloads


def top_torus(rng: random.Random, tiny: bool) -> list[Job]:
    """J = T(2, 2k+1) for k = 1..8, plus the reverses of T(2, 11) and
    T(2, 17): a reverse is another matrix (no cache hit) with the same
    covering jump function.  The extra jobs put the median job inside the
    T(2, 11) pair and the slowest tenth inside the T(2, 17) pair, rather
    than on the edge between two knots."""
    knots = [(2 * k + 1, False) for k in range(1, 4 if tiny else 9)]
    if not tiny:
        knots += [(11, True), (17, True)]
    jobs = []
    for i, (n, reverse) in enumerate(sorted(knots)):
        m = rng.randint(1, 6)
        a = torus_seifert(n)
        if reverse:
            a = [list(row) for row in zip(*a)]
        label = f"T(2,{n})" + (" reversed" if reverse else "")
        files = {f"T{i}.json": _dump({"matrix": a, "label": label})}
        jobs.append(Job(["obstruct-top", "--m", str(m), "--J", f"@{{T{i}.json}}",
                         "--D", "unit"], files,
                        {"kind": "top-torus", "n": n, "q": 2 * m + 1}))
    return jobs


def _random_family(rng: random.Random, genus: int, roots: int):
    """A random J of the given class, a collection D of 1-3 polynomials
    and an m whose q is not an excluded prime of D."""
    a = random_seifert(rng, genus, roots)
    polys = random_collection(rng, rng.randint(1, 3))
    excluded = set().union(*(prime_divisors(laurent_at_minus_one(f)) for f in polys))
    while True:
        m = rng.randint(1, 6)
        q = 2 * m + 1
        if not (is_prime(q) and q in excluded):
            return a, polys, m


def top_random(rng: random.Random, tiny: bool) -> list[Job]:
    classes = [(2, 2), (2, 2)] if tiny else list(RANDOM_CLASSES)
    rng.shuffle(classes)
    jobs = []
    for i, (genus, roots) in enumerate(classes):
        a, polys, m = _random_family(rng, genus, roots)
        files = {f"J{i}.json": _dump({"matrix": a}),
                 f"D{i}.json": _dump({"polys": [poly_json(f) for f in polys]})}
        jobs.append(Job(["obstruct-top", "--m", str(m), "--J", f"@{{J{i}.json}}",
                         "--D", f"@{{D{i}.json}}"], files,
                        {"kind": "top-random", "matrix": a, "q": 2 * m + 1,
                         "D": [sorted(f.items()) for f in polys]}))
    return jobs


def dbar_table(rng: random.Random, q: int, verdict: str):
    """Full conjugation-symmetric reduced table on Z_{q^2} whose verdict
    is ``verdict``: zero on qZ gives NOT_OBSTRUCTED, a nonzero value at
    one pair +-jq gives OBSTRUCTED, and leaving that pair out gives
    INCONCLUSIVE.  Returns the table and the pair (or None)."""
    n = q * q
    values = {0: "0"}
    for x in range(1, n // 2 + 1):
        v = "0" if x % q == 0 else f"{rng.choice([-9, -7, -5, -3, -1, 1, 3, 5, 7, 9])}/4"
        values[x] = values[n - x] = v
    pair = None
    if verdict != "NOT_OBSTRUCTED":
        j = rng.randint(1, (q - 1) // 2)
        pair = sorted({j * q, n - j * q})
        for x in pair:
            if verdict == "OBSTRUCTED":
                values[x] = "2"
            else:
                del values[x]
    table = {"group": {"invariant_factors": [n]},
             "values": {str(x): values[x] for x in sorted(values)},
             "provenance": "benchmark table with a built-in verdict"}
    return table, pair


def smooth_q(rng: random.Random, tiny: bool) -> list[Job]:
    """A computed and an external job for each prime, plus a second
    external one for q = 17, which puts the median job inside the q = 17
    block rather than on the edge between two primes."""
    primes = [11] if tiny else SMOOTH_PRIMES
    specs = sorted([(q, "computed") for q in primes] + [(q, "external") for q in primes]
                   + ([] if tiny else [(17, "external")]))
    kinds = ["NOT_OBSTRUCTED", "OBSTRUCTED", "INCONCLUSIVE"]
    externals = sum(kind == "external" for _, kind in specs)
    verdicts = (kinds * externals)[:externals]
    rng.shuffle(verdicts)
    jobs = []
    for i, (q, kind) in enumerate(specs):
        m = (q - 1) // 2
        polys = random_collection(rng, rng.randint(1, 2), avoid=q)
        files = {f"D{i}.json": _dump({"polys": [poly_json(f) for f in polys]})}
        argv = ["obstruct-smooth", "--m", str(m), "--D", f"@{{D{i}.json}}"]
        check = {"kind": "smooth", "q": q, "verdict": "NOT_OBSTRUCTED", "pair": None,
                 "D": [sorted(f.items()) for f in polys]}
        if kind == "computed":
            argv.append("--computed")
        else:
            check["verdict"] = verdicts.pop()
            table, check["pair"] = dbar_table(rng, q, check["verdict"])
            files[f"dbar{i}.json"] = _dump(table)
            argv += ["--J", rng.choice(["trefoil", "figure-eight"]),
                     "--dbar", f"@{{dbar{i}.json}}"]
        jobs.append(Job(argv, files, check))
    return jobs


def _rd_jobs(rng, tiny):
    ds = [2, 16] if tiny else [2, 16, 64, 256]
    if rng.random() < 0.5:
        a, b = rng.choice(TORUS_POLYS)
        spec, check = f"T({a},{b})", {"torus": [a, b]}
    else:
        f = random_alexander(rng)
        spec, check = poly_json(f), {"poly": sorted(f.items())}
    return [({"op": "rd", "poly": spec, "d": d}, dict(check, kind="rd", d=d)) for d in ds]


def _primeset_jobs(rng, tiny):
    ds = [2, 16] if tiny else [2, 16, 64, 256]
    knots = rng.sample(TORUS_POLYS, 2)
    spec = ";".join(f"T({a},{b})" for a, b in knots)
    return [({"op": "primeset", "D": spec, "d": d},
             {"kind": "primeset", "torus": knots, "d": d}) for d in ds]


def _metabolizer_jobs(rng, tiny):
    ps = [3] if tiny else sorted(rng.sample([3, 5, 7, 11], 2))
    jobs = [({"op": "metabolizers", "group": f"{p},{p}", "q": p},
             {"kind": "metabolizers", "factors": [p, p], "q": p}) for p in ps]
    jobs.append(({"op": "metabolizers", "group": "9,9", "q": 3},
                 {"kind": "metabolizers", "factors": [9, 9], "q": 3}))
    return jobs


def _table_jobs(rng, tiny):
    p = rng.randint(20, 60 if tiny else 240)
    q = rng.choice([x for x in range(1, p) if math.gcd(x, p) == 1])
    k = rng.randint(1, 3)
    n = rng.choice([25, 49, 121, 169])
    return [({"op": "dlens", "p": p, "q": q}, {"kind": "dlens", "p": p, "q": q}),
            ({"op": "dsurgery", "n": n, "poly": f"T(2,{2 * k + 1})"},
             {"kind": "dsurgery", "n": n, "torus": [2, 2 * k + 1]})]


def _jump_jobs(rng, tiny, knot):
    """jumps and obstruct-top on one J with several c and m, so later
    jobs hit the circle-data cache."""
    matrix, exact = knot
    cs = [1] if tiny else sorted(rng.sample([1, 2, 3, 5], 2))
    ms = [1] if tiny else sorted(rng.sample(range(1, 7), 3))
    jobs = [({"op": "jumps", "seifert": {"matrix": matrix}, "c": c},
             {"kind": "jumps", "matrix": matrix, "c": c, "torus": exact}) for c in cs]
    for m in ms:
        check = ({"kind": "top-torus", "n": len(matrix) + 1, "q": 2 * m + 1} if exact
                 else {"kind": "top-random", "matrix": matrix, "q": 2 * m + 1, "D": [[(0, 1)]]})
        jobs.append(({"op": "obstruct-top", "m": m, "J": {"matrix": matrix}, "D": "unit"},
                     check))
    return jobs


def batch_mixed(rng: random.Random, tiny: bool) -> list[Job]:
    """Eleven batch calls in seeded order.  By cost they sort as three
    table calls, a cached jumps call, metabolizers, the first T(2,9)
    call, the random-J call, two rd calls and two primeset calls, so the
    median job is the T(2,9) call and the slowest tenth the primeset
    pair, each of a cost that does not depend on the seed."""
    torus_knot = (torus_seifert(5 if tiny else 9), True)
    random_knot = (random_seifert(rng, 2, 2), False)
    calls = [_rd_jobs(rng, tiny), _metabolizer_jobs(rng, tiny), _table_jobs(rng, tiny),
             _jump_jobs(rng, tiny, torus_knot)]
    if not tiny:
        calls += [_rd_jobs(rng, tiny), _primeset_jobs(rng, tiny), _primeset_jobs(rng, tiny),
                  _table_jobs(rng, tiny), _table_jobs(rng, tiny),
                  _jump_jobs(rng, tiny, torus_knot), _jump_jobs(rng, tiny, random_knot)]
    rng.shuffle(calls)
    jobs = []
    for i, call in enumerate(calls):
        files = {f"batch{i}.json": _dump({"jobs": [spec for spec, _ in call]})}
        jobs.append(Job(["batch", "--jobs", f"@{{batch{i}.json}}"], files,
                        {"kind": "batch", "jobs": [check for _, check in call]}))
    return jobs


_MAKERS = {"top-torus": top_torus, "top-random": top_random,
           "smooth-q": smooth_q, "batch-mixed": batch_mixed}


def make_jobs(workload: str, seed: int, size: str = "full") -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    return _MAKERS[workload](rng, size == "tiny")

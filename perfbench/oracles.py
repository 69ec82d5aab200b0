"""Output checks that do not use conclab.

Answers come from outside the program where they exist: the torus-knot
jump function in closed form, verdicts built into the generated dbar
tables, subgroup counts of (p, p) and (p^2, p^2), resultants by a
Euclidean remainder sequence, lens-space correction terms by their
recursion, and, for random Seifert matrices, numpy eigenvalue signatures
of the Hermitian form at points well inside the gaps between reported
jumps.  A point whose smallest eigenvalue is within ``MARGIN`` of zero
(relative to the largest) is skipped and counted.

``check_job(check, stdout)`` returns a list of error strings (empty when
the output is right) and the number of skipped sample points.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

import numpy as np

from workloads import is_prime, laurent_at_minus_one, prime_divisors

MARGIN = 1e-9
SAMPLES_PER_GAP = 3
ZERO_FUNCTION_SAMPLES = 48


class Result:
    def __init__(self):
        self.errors: list[str] = []
        self.skipped = 0

    def expect(self, cond: bool, message: str) -> None:
        if not cond:
            self.errors.append(message)


def _pos(p) -> tuple[Fraction, Fraction]:
    """A JSON jump position as (lo, hi)."""
    if isinstance(p, dict):
        lo, hi = p["interval"]
        return Fraction(lo), Fraction(hi)
    return Fraction(p), Fraction(p)


# ---------------------------------------------------------------------------
# closed forms


def torus_covering_jumps(n: int, q: int) -> list[list]:
    """Jumps of the covering knot for J = T(2, n): J # J^r has roots at
    t = (2j+1)/(2n), t != 1/2, with jump -4 below 1/2 and +4 above;
    positions scale by q."""
    out = []
    for j in range(n):
        t = Fraction(2 * j + 1, 2 * n)
        if t != Fraction(1, 2):
            out.append([str(q * t), -4 if t < Fraction(1, 2) else 4])
    return out


def torus_jumps(n: int, c: int) -> list[list]:
    """Jump function of T(2, n) itself with complexity c: -2 below 1/2,
    +2 above."""
    return [[str(c * Fraction(p)), v // 2] for p, v in torus_covering_jumps(n, 1)]


def laurent_mul(f: dict, g: dict) -> dict:
    out: dict[int, int] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def torus_alexander(a: int, b: int) -> dict[int, int]:
    """Centered Alexander polynomial of T(a, b): the product of the
    cyclotomic polynomials Phi_d over d | ab with d dividing neither a
    nor b."""
    f = {0: 1}
    for d in range(2, a * b + 1):
        if (a * b) % d == 0 and a % d and b % d:
            f = laurent_mul(f, {e: c for e, c in enumerate(_cyclotomic(d)) if c})
    lo, hi = min(f), max(f)
    return {e - (lo + hi) // 2: c for e, c in f.items()}


def _cyclotomic(d: int) -> list[int]:
    """Coefficients of Phi_d, constant term first, by dividing t^d - 1 by
    Phi_e for the proper divisors e."""
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            num = _div_exact(num, _cyclotomic(e))
    return num


def _div_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        out[i] = c
        for j, dc in enumerate(den):
            num[i + j] -= c * dc
    if any(num):
        raise ValueError("inexact division")
    return out


def resultant_with_cyclic(f: dict[int, int], d: int) -> int:
    """|Res(f, t^d - 1)| = |prod of f over the d-th roots of unity|, by
    the Euclidean remainder sequence over Q."""
    lo = min(f)
    a = [Fraction(f.get(e + lo, 0)) for e in range(max(f) - lo + 1)]
    b = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
    return abs(_resultant(a, b))


def _resultant(a: list[Fraction], b: list[Fraction]) -> Fraction:
    # Res(a, b) with deg a = m, deg b = n; Res(a, b) = (-1)^(mn) Res(b, a),
    # Res(a, b) = lc(b)^(m - deg r) (-1)^(mn) Res(b, r) with r = a mod b
    def trim(p):
        while len(p) > 1 and p[-1] == 0:
            p = p[:-1]
        return p
    a, b = trim(a), trim(b)
    sign, acc = 1, Fraction(1)
    while True:
        m, n = len(a) - 1, len(b) - 1
        if n == 0:
            return sign * acc * b[0] ** m
        if m < n:
            a, b = b, a
            sign *= (-1) ** (m * n)
            continue
        r = list(a)
        for i in range(m - n, -1, -1):
            c = r[i + n] / b[-1]
            for j in range(n + 1):
                r[i + j] -= c * b[j]
        r = trim(r[:n] or [Fraction(0)])
        if len(r) == 1 and r[0] == 0:
            return Fraction(0)
        sign *= (-1) ** (m * n)
        acc *= b[-1] ** (m - (len(r) - 1))
        a, b = b, r


def lens_d(p: int, q: int, i: int) -> Fraction:
    """d(L(p, q), i) by the Euclidean recursion, with d(S^3) = 0."""
    if p == 1:
        return Fraction(0)
    q %= p
    return Fraction((2 * i + 1 - p - q) ** 2 - p * q, 4 * p * q) - lens_d(q, p % q, i % q)


def torsion_coefficients(f: dict[int, int]) -> list[int]:
    """t_s = sum_{j >= 1} j a_{s+j} for s = 0 .. genus - 1, plus the
    terminal zero: the V-sequence of an L-space knot."""
    g = max(f)
    return [sum(j * f.get(s + j, 0) for j in range(1, g - s + 1)) for s in range(g)] + [0]


# ---------------------------------------------------------------------------
# the float signature oracle


def signature_at(a: np.ndarray, t: float) -> int | None:
    """Signature of (1 - w) A + (1 - conj w) A^T at w = exp(2 pi i t), or
    None when an eigenvalue is within MARGIN of zero."""
    w = np.exp(2j * np.pi * t)
    m = (1 - w) * a + (1 - np.conj(w)) * a.T
    ev = np.linalg.eigvalsh(m)
    scale = max(1.0, float(np.max(np.abs(ev))))
    if np.min(np.abs(ev)) < MARGIN * scale:
        return None
    return int(np.sum(ev > 0) - np.sum(ev < 0))


def check_jump_function(res: Result, a: np.ndarray, jumps: list, period: Fraction,
                        what: str) -> None:
    """Signatures between reported jumps must be constant, zero before the
    first jump, and differ across each jump by its reported value.
    Positions are in units of ``period`` (t = position / period)."""
    spans = [(lo / period, hi / period) for lo, hi in (_pos(j["position"]) for j in jumps)]
    walls = [(Fraction(0), Fraction(0))] + spans + [(Fraction(1), Fraction(1))]
    per_gap = ZERO_FUNCTION_SAMPLES if not jumps else SAMPLES_PER_GAP
    gap_sig = []
    for (_, left), (right, _) in zip(walls, walls[1:]):
        sigs = set()
        for k in range(1, per_gap + 1):
            t = float(left + (right - left) * Fraction(k, per_gap + 1))
            s = signature_at(a, t)
            if s is None:
                res.skipped += 1
            else:
                sigs.add(s)
        res.expect(len(sigs) <= 1, f"{what}: signature not constant between jumps ({sorted(sigs)})")
        gap_sig.append(sigs.pop() if len(sigs) == 1 else None)
    res.expect(gap_sig[0] in (0, None), f"{what}: signature {gap_sig[0]} before the first jump")
    for i, j in enumerate(jumps):
        before, after = gap_sig[i], gap_sig[i + 1]
        if before is not None and after is not None:
            res.expect(after - before == j["value"],
                       f"{what}: jump {j['value']} at {j['position']}, oracle {after - before}")


def circle_roots(a: np.ndarray) -> list[float]:
    """Parameters t in (0, 1) of the Alexander roots on the unit circle."""
    roots = np.linalg.eigvals(np.linalg.solve(a, a.T))
    on = roots[np.abs(np.abs(roots) - 1) < 1e-7]
    return sorted(float(np.angle(z) / (2 * np.pi)) % 1.0 for z in on)


def check_positions(res: Result, a: np.ndarray, jumps: list, period: Fraction,
                    what: str) -> None:
    """Every reported jump sits at a circle root found by numpy."""
    ts = circle_roots(a)
    for j in jumps:
        lo, hi = _pos(j["position"])
        mid = float((lo + hi) / 2 / period)
        res.expect(any(abs(mid - t) < 1e-6 for t in ts),
                   f"{what}: jump at {j['position']} is not near a circle root")


# ---------------------------------------------------------------------------
# per-kind checks


def _excluded(polys) -> set[int]:
    return set().union(*(prime_divisors(laurent_at_minus_one(dict(f))) for f in polys))


def _check_top_torus(res, check, out):
    q = check["q"]
    res.expect(out.get("verdict") == "OBSTRUCTED", f"verdict {out.get('verdict')}")
    res.expect(out.get("minimal_period") == {"kind": "exact", "value": str(q)},
               f"minimal period {out.get('minimal_period')}, want exact {q}")
    got = [[j["position"], j["value"]] for j in out["covering_jump_function"]["jumps"]]
    res.expect(got == torus_covering_jumps(check["n"], q), "covering jump function differs")


def _check_top_random(res, check, out):
    q = check["q"]
    a = np.array(check["matrix"], dtype=float)
    b = np.block([[a, np.zeros_like(a)], [np.zeros_like(a), a.T]])   # J # J^r
    jf = out["covering_jump_function"]
    res.expect(Fraction(jf["ambient_period"]) == q, "ambient period is not q")
    check_jump_function(res, b, jf["jumps"], Fraction(q), "covering jumps")
    check_positions(res, a, jf["jumps"], Fraction(q), "covering jumps")
    excluded = _excluded(check["D"])
    res.expect(set(out["excluded_primes"]["excluded"]) == excluded,
               f"excluded primes {out['excluded_primes']['excluded']}, oracle {sorted(excluded)}")
    mp = out["minimal_period"]
    if not jf["jumps"]:
        res.expect(mp["kind"] == "zero-function" and out["verdict"] == "NOT_OBSTRUCTED",
                   "zero jump function must give NOT_OBSTRUCTED")
    elif mp["kind"] == "numeric-unknown":
        res.expect(out["verdict"] == "INCONCLUSIVE", "numeric-unknown period must be INCONCLUSIVE")
    else:
        c0 = Fraction(mp["value"])
        res.expect(_is_period(jf["jumps"], c0, Fraction(q)), f"{c0} is not a period")
        offending = prime_divisors(c0.numerator) - excluded if c0.numerator > 1 else set()
        want = "OBSTRUCTED" if offending else "NOT_OBSTRUCTED"
        res.expect(out["verdict"] == want, f"verdict {out['verdict']}, oracle {want}")


def _is_period(jumps, shift: Fraction, period: Fraction) -> bool:
    pts = [(float(sum(_pos(j["position"])) / 2), j["value"]) for j in jumps]
    p = float(period)
    for x, v in pts:
        y = (x + float(shift)) % p
        if not any(v == v2 and min(abs(y - x2), p - abs(y - x2)) < 1e-9 for x2, v2 in pts):
            return False
    return True


def _check_smooth(res, check, out):
    q, verdict = check["q"], check["verdict"]
    res.expect(out.get("verdict") == verdict, f"verdict {out.get('verdict')}, want {verdict}")
    res.expect(set(out["excluded_primes"]["excluded"]) == _excluded(check["D"]),
               "excluded primes differ from the oracle")
    search = out["metabolizer_search"]
    cands = search["candidates"]
    res.expect(len(cands) == 1, f"{len(cands)} candidates on Z_{q * q}, want 1")
    if cands:
        elems = [e[0] for e in cands[0]["subgroup"]["elements"]]
        res.expect(elems == list(range(0, q * q, q)), "candidate is not qZ/q^2")
        pair = [str(x) for x in (check["pair"] or [])]
        if verdict == "OBSTRUCTED":
            res.expect([v[0] for v in cands[0]["dbar_violations"]] == pair, "violations differ")
        if verdict == "INCONCLUSIVE":
            res.expect(cands[0]["missing"] == pair, "missing elements differ")


def _check_rd(res, check, out):
    f = dict(map(tuple, check["poly"])) if "poly" in check else torus_alexander(*check["torus"])
    want = resultant_with_cyclic(f, check["d"])
    res.expect(out["r_d"] == want, f"r_{check['d']} = {out['r_d']}, oracle {want}")


def _check_primeset(res, check, out):
    primes = set()
    for a, b in check["torus"]:
        primes |= _factor(resultant_with_cyclic(torus_alexander(a, b), check["d"]))
    res.expect(set(out["excluded"]) == primes and out["d"] == check["d"],
               f"excluded {out['excluded']}, oracle {sorted(primes)}")


def _factor(n: int) -> set[int]:
    """Prime divisors; the orders here are 1 or prime powers, so a
    trial-division pass leaves at most one large prime cofactor."""
    n = int(n)
    out, p = set(), 2
    while p < 10 ** 5 and p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        if not _probable_prime(n):
            raise ValueError(f"cofactor {n} is not prime")
        out.add(n)
    return out


def _probable_prime(n: int) -> bool:
    if n < 10 ** 10:
        return is_prime(n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_metabolizers(res, check, out):
    f1, f2 = check["factors"]
    p = check["q"]
    want = p + 1 if f1 == p else p * p + p + 1     # (p, p) resp. (p^2, p^2)
    order = f1 if f1 == p else p * p
    cands = out["candidates"]
    res.expect(out["primary_order_is_square"] and out["primary_order"] == f1 * f2,
               "primary order is wrong")
    res.expect(len(cands) == want, f"{len(cands)} candidates, want {want}")
    seen = set()
    for c in cands:
        elems = {tuple(e) for e in c["elements"]}
        closed = all(((x[0] + y[0]) % f1, (x[1] + y[1]) % f2) in elems
                     for x, y in product(elems, repeat=2))
        res.expect(closed and len(elems) == order == c["order"],
                   f"candidate {c['generators']} is not a subgroup of order {order}")
        seen.add(frozenset(elems))
    res.expect(len(seen) == len(cands), "candidates repeat")


def _check_dlens(res, check, out):
    p, q = check["p"], check["q"]
    vals = out["table"]["values"]
    res.expect(len(vals) == p, "table is not total")
    bad = [i for i in range(p)
           if str(i) not in vals or Fraction(vals[str(i)]) != lens_d(p, q, i)]
    res.expect(not bad, f"d(L({p},{q})) differs at labels {bad[:5]}")


def _check_dsurgery(res, check, out):
    n = check["n"]
    v = torsion_coefficients(torus_alexander(*check["torus"]))
    res.expect(out["v_sequence"] == v, f"V-sequence {out['v_sequence']}, oracle {v}")
    vals = out["table"]["values"]
    bad = []
    for i in range(n):
        j = min(i, n - i)
        want = Fraction((2 * i - n) ** 2 - n, 4 * n) - 2 * (v[j] if j < len(v) else 0)
        if str(i) not in vals or Fraction(vals[str(i)]) != want:
            bad.append(i)
    res.expect(not bad, f"d(S^3_{n}) differs at labels {bad[:5]}")


def _check_jumps(res, check, out):
    c = check["c"]
    jf = out["jump_function"]
    if check["torus"]:
        got = [[j["position"], j["value"]] for j in jf["jumps"]]
        res.expect(got == torus_jumps(len(check["matrix"]) + 1, c), "jump function differs")
        return
    a = np.array(check["matrix"], dtype=float)
    check_jump_function(res, a, jf["jumps"], Fraction(c), "jumps")
    check_positions(res, a, jf["jumps"], Fraction(c), "jumps")
    res.expect(len(out["locations"]) == len(circle_roots(a)),
               f"{len(out['locations'])} locations, numpy finds {len(circle_roots(a))}")


_CHECKS = {"top-torus": _check_top_torus, "top-random": _check_top_random,
           "smooth": _check_smooth, "rd": _check_rd, "primeset": _check_primeset,
           "metabolizers": _check_metabolizers, "dlens": _check_dlens,
           "dsurgery": _check_dsurgery, "jumps": _check_jumps}


def check_job(check: dict, stdout: str) -> Result:
    res = Result()
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as e:
        res.errors.append(f"stdout is not JSON ({e})")
        return res
    try:
        if check["kind"] == "batch":
            results = out["results"]
            res.expect(len(results) == len(check["jobs"]), "batch result count differs")
            for i, (sub, r) in enumerate(zip(check["jobs"], results)):
                if not r.get("ok"):
                    res.errors.append(f"jobs[{i}] failed: {r.get('error')}")
                    continue
                part = Result()
                _CHECKS[sub["kind"]](part, sub, r["result"])
                res.errors += [f"jobs[{i}] {sub['kind']}: {e}" for e in part.errors]
                res.skipped += part.skipped
        else:
            _CHECKS[check["kind"]](res, check, out)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        res.errors.append(f"malformed output: {type(e).__name__}: {e}")
    return res

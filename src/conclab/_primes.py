"""Integer factorization at desk scale.

Trial division by small primes, deterministic Miller-Rabin for the
cofactor, and Pollard's rho for the rare composite survivor.  The numbers
appearing here are homology orders of branched covers and subgroup sizes,
so no general-purpose factoring engine is warranted.
"""

from __future__ import annotations

import itertools
from math import gcd

from .errors import SizeBoundError

_SMALL_PRIME_BOUND = 100_000

# Miller-Rabin witnesses: the first 13 primes are proved to classify every
# n below psi_13 = 3317044064679887385961981, their least common strong
# pseudoprime (Sorenson-Webster, Math. Comp. 86, 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVED_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test, certified below psi_13.  A witness
    that fails proves n composite at any size; n >= psi_13 that passes
    them all raises SizeBoundError instead of an uncertified True.

    >>> [p for p in range(20) if is_prime(p)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_PROVED_BELOW:
        raise SizeBoundError(
            f"cannot certify that a {n.bit_length()}-bit number is prime: its "
            f"Miller-Rabin witnesses are proved only below {_MR_PROVED_BELOW}")
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n.  Raises SizeBoundError when
    no polynomial x^2 + c, c < 100, splits n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise SizeBoundError(f"failed to factor {n}")


def _trial_divisors():
    """2, 3, 5, then the integers from 7 up to the small-prime bound that
    are prime to 30: every small prime, in order."""
    yield from (2, 3, 5)
    p = 7
    for step in itertools.cycle((4, 2, 4, 2, 4, 6, 2, 6)):
        if p >= _SMALL_PRIME_BOUND:
            return
        yield p
        p += step


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    >>> factorint(360)
    {2: 3, 3: 2, 5: 1}
    >>> factorint(1)
    {}
    """
    if n < 1:
        raise ValueError("factorint expects a positive integer")
    out: dict[int, int] = {}
    for p in _trial_divisors():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of |n|, n nonzero."""
    if n == 0:
        raise ValueError("prime_factors of zero")
    return sorted(factorint(abs(n)).keys())


def totients(n: int) -> list[int]:
    """Euler's phi(d) for d = 0..n (phi(0) = 0), by one sieve: each prime
    p takes phi(d) to phi(d) (1 - 1/p) along its multiples.

    >>> totients(10)
    [0, 1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    """
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            phi[p::p] = [x - x // p for x in phi[p::p]]
    return phi


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1 and k >= 1, by Newton's method from
    above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power_base(n: int) -> int | None:
    """If n = p**a for a prime p and a >= 1, return p; otherwise None.
    Trial division settles n unless every prime factor of n is past the
    small-prime bound; then n = r**k needs k <= log_{2^16} n, and each
    exact k-th root r is tested for primality.  Nothing is factored.

    >>> prime_power_base(27), prime_power_base(12), prime_power_base(1)
    (3, None, None)
    >>> prime_power_base(100003 ** 3), prime_power_base(100003 * 100019)
    (100003, None)
    """
    if n < 2:
        return None
    for p in _trial_divisors():
        if p * p > n:
            return n
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
    # every prime factor of n is at least _SMALL_PRIME_BOUND > 2**16
    for k in range(1, n.bit_length() // 16 + 1):
        r = _iroot(n, k)
        if r ** k == n and is_prime(r):
            return r
    return None

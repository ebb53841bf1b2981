"""Prime generation and elementary multiplicative arithmetic.

Everything here is exact integer arithmetic.  Prime ranges come from a
segmented Eratosthenes sieve (ranges near 10^9 never allocate O(N) memory),
isolated 64-bit primality queries use a deterministic strong-pseudoprime
test, and factorizations feed the Mobius and Euler-phi functions consumed
by the local-density module.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import INTEGERS, NON_NEGATIVE_INTEGERS, POSITIVE_INTEGERS, DomainError, ResourceError
from .errors import _require_in
from .parallel import map_ordered

SEGMENT_SIZE = 1 << 20  # integers per sieved segment, the unit of parallel work
MAX_SPAN = 1 << 31  # longest range sieve_range takes
_MAX_BASE_LIMIT = 1 << 26

# Deterministic for every n < 3.317e24 (Sorenson-Webster witness set),
# which covers all 64-bit inputs this toolkit handles.
MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """Ascending primes in the inclusive range [lo, hi].

    Attributes:
        lo: inclusive lower bound of the sieved range
        hi: inclusive upper bound of the sieved range
        primes: strictly increasing int64 array of every prime in [lo, hi]
    """

    lo: int
    hi: int
    primes: np.ndarray

    def __len__(self) -> int:
        return int(self.primes.size)

    def log_weights(self) -> np.ndarray:
        """Natural-log weights log p, one per table entry."""
        return np.log(self.primes.astype(np.float64))


@dataclass(frozen=True)
class Factorization:
    """Prime factorization n = prod p^e with ascending distinct primes."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


def _simple_sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[: min(2, limit + 1)] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return flags


@lru_cache(maxsize=4)
def _base_primes(limit: int) -> np.ndarray:
    return np.nonzero(_simple_sieve(limit))[0].astype(np.int64)


@lru_cache(maxsize=1)
def _trial_divisors() -> tuple[int, ...]:
    """Base primes below 2^14 as Python ints, so `n % p` is exact for any n."""
    return tuple(_base_primes(1 << 14).tolist())


def _round_pow2(n: int) -> int:
    return 1 << max(4, (n - 1).bit_length())


def _sieve_segment(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi] given base primes covering sqrt(hi)."""
    lo = max(lo, 2)
    if hi < lo:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(hi - lo + 1, dtype=bool)
    for p in base:
        p = int(p)
        if p * p > hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        flags[start - lo :: p] = False
    return (np.nonzero(flags)[0] + lo).astype(np.int64)


def sieve_range(lo: int, hi: int, *, threads: int = 1) -> PrimeTable:
    """Sieve every prime in the inclusive range [lo, hi].

    Segments of SEGMENT_SIZE integers are sieved independently (optionally
    in parallel) and merged in ascending order, so the result is
    deterministic for every thread count.

    Raises:
        DomainError: lo, hi or threads not integers, or not 0 <= lo <= hi < 2^63
        ResourceError: range longer than MAX_SPAN
    """
    _require_in((0, 1 << 63, "[)Z"), lo=lo, hi=hi)
    _require_in(INTEGERS, threads=threads)
    if lo > hi:
        raise DomainError(f"sieve bounds must satisfy lo <= hi, got [{lo}, {hi}]")
    span = hi - lo + 1
    if span > MAX_SPAN:
        raise ResourceError(f"sieve range of {span} integers exceeds arith.MAX_SPAN = {MAX_SPAN}")
    root = math.isqrt(hi)
    if root > _MAX_BASE_LIMIT:
        raise ResourceError(
            f"base sieve up to {root} exceeds arith._MAX_BASE_LIMIT = {_MAX_BASE_LIMIT}"
        )
    if hi < 2:
        return PrimeTable(lo, hi, np.empty(0, dtype=np.int64))

    base = _base_primes(_round_pow2(max(root, 16)))
    bounds = []
    a = max(lo, 2)
    while a <= hi:
        b = min(a + SEGMENT_SIZE - 1, hi)
        bounds.append((a, b))
        a = b + 1
    chunks = map_ordered(lambda ab: _sieve_segment(ab[0], ab[1], base), bounds, threads)
    primes = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return PrimeTable(lo, hi, primes)


def dyadic_range(x: float) -> tuple[int, int]:
    """Integer bounds of the half-open dyadic block (x, 2x]."""
    return math.floor(x) + 1, math.floor(2 * x)


def dyadic_table(x: float) -> PrimeTable:
    """Primes p with x < p <= 2x, for a finite 0 <= x < 2^62 (2x within sieve_range's bound)."""
    _require_in((0, 1 << 62, "[)"), x=x)
    lo, hi = dyadic_range(x)
    if hi < lo:
        return PrimeTable(lo, max(lo, hi), np.empty(0, dtype=np.int64))
    return sieve_range(lo, hi)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit integers; DomainError unless n is an integer."""
    _require_in(INTEGERS, n=n)
    if n < 2:
        return False
    for p in MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of odd composite n (deterministic parameter scan)."""
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"factor scan exhausted for {n}")


def _factor_into(n: int, out: dict[int, int]) -> None:
    """Add the factorization of n > 1 to out; a composite n has no factor below 2^14."""
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_brent(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


def multiplicative(n: int) -> tuple[Factorization, int, int]:
    """Factor n and return (factorization, mobius, phi).

    mobius is 0 iff some exponent is >= 2, else (-1)^(number of primes);
    phi is the Euler totient.

    Raises:
        DomainError: n not an integer, or n < 1
    """
    _require_in(POSITIVE_INTEGERS, n=n)
    n = int(n)  # a numpy integer breaks three-argument pow
    found: dict[int, int] = {}
    m = n
    base = _trial_divisors()
    for p in [p for p in base[: bisect.bisect_right(base, math.isqrt(n))] if n % p == 0]:
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    if m > 1:
        _factor_into(m, found)
    factors = tuple(sorted(found.items()))
    mobius = 0 if any(e >= 2 for _, e in factors) else (-1) ** len(factors)
    phi = 1
    for p, e in factors:
        phi *= p ** (e - 1) * (p - 1)
    return Factorization(n, factors), mobius, phi


def modpow(base: int, exp: int, modulus: int) -> int:
    """base^exp mod modulus, in [0, modulus).

    Raises:
        DomainError: an argument not an integer, exp < 0 or modulus < 1
    """
    _require_in(INTEGERS, base=base)
    _require_in(NON_NEGATIVE_INTEGERS, exp=exp)
    _require_in(POSITIVE_INTEGERS, modulus=modulus)
    return pow(base, exp, modulus)


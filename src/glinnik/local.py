"""Complete exponential sums mod q and the truncated singular series.

The local density at modulus q is

    A(n, q) = B(n, q) / phi(q)^5,
    B(n, q) = sum over (a,q)=1 of C1(q,a) * C3(q,a)^4 * e(-a n / q),

where C1 is the Ramanujan sum and C3 the cubic complete sum over reduced
residues.  Every term of B carries the factor C1(q, a) = mu(q), so the
density vanishes off squarefree q, and the series

    sum over q >= 1 of A(n, q)

is evaluated as an Euler product over primes p <= cutoff of 1 + A(n, p).

A(n, .) is multiplicative over coprime moduli (Chinese remainder
theorem), so A(n, q) for squarefree q is the product of A(n, p) over the
primes p | q, and each A(n, p) has a closed form.  For p = 2, p = 3 and
p congruent to 2 mod 3, cubing permutes the reduced residues, so
C3(p, a) = C1(p, a) = -1 and A(n, p) is -1/(p-1)^4 when p | n and
1/(p-1)^5 otherwise.  For p congruent to 1 mod 3, C3(p, a) = 3 eta_j,
where eta_0, eta_1, eta_2 are the cubic Gauss periods (eta_j is the sum
of cos(2 pi g^j c / p) over the cubes c, for a non-cube g) and j is the
coset of a among the cubes; the periods are real because -1 is a cube.
Grouping the a-sum by coset gives

    B(n, p) = -27 (p-1) * sum_j eta_j^4             if p | n,
    B(n, p) = -81 * sum_j eta_j^4 * eta_(j+s)       otherwise,

with s the coset of -n, read off (-n)^((p-1)/3) mod p against
omega = g^((p-1)/3).  The four values A(., p) can take and omega are
cached per prime; the periods cost one pass over p residues, so period
primes and the moduli of cubic_C3 are bounded by MAX_RESIDUES.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arith import _base_primes, multiplicative
from .errors import INTEGERS, POSITIVE_INTEGERS, DomainError, ResourceError, _require_in

MAX_RESIDUES = 1 << 20
_PRIME_ROW_CACHE_SIZE = 1 << 16


@dataclass(frozen=True)
class LocalFactor:
    """A(n, q) together with B(n, q) = A(n, q) * phi(q)^5."""

    n: int
    q: int
    B: complex
    A: float


@dataclass(frozen=True)
class TruncatedSeries:
    """Euler product over p <= prime_cutoff of 1 + A(n, p)."""

    n: int
    prime_cutoff: int
    factors: tuple[tuple[int, float], ...]
    value: float
    anomalies: tuple[tuple[int, float], ...]


def _check_residues(what: str, m: int) -> None:
    if m > MAX_RESIDUES:
        raise ResourceError(f"{what} {m} exceeds the residue budget "
                            f"local.MAX_RESIDUES = {MAX_RESIDUES}")


def _require_sum_args(q: int, a: int) -> None:
    """Raise DomainError unless q and a are integers with 1 <= a <= q."""
    _require_in(POSITIVE_INTEGERS, q=q, a=a)
    if a > q:
        raise DomainError(f"need a <= q, got a={a}, q={q}")


def ramanujan_C1(q: int, a: int) -> int:
    """Ramanujan sum over reduced residues h mod q of e(a h / q).

    Uses the closed form mu(q/g) * phi(q) / phi(q/g) with g = gcd(a, q),
    which is exact in integers.  DomainError unless q and a are integers with 1 <= a <= q.
    """
    _require_sum_args(q, a)
    g = math.gcd(a, q)
    d = q // g
    _, mu_d, phi_d = multiplicative(d)
    _, _, phi_q = multiplicative(q)
    return mu_d * (phi_q // phi_d)


def cubic_C3(q: int, a: int) -> complex:
    """Cubic complete sum over reduced residues h mod q of e(a h^3 / q).

    Raises:
        DomainError: q or a not an integer, or not 1 <= a <= q
        ResourceError: q beyond MAX_RESIDUES
    """
    _require_sum_args(q, a)
    _check_residues("modulus", q)
    h = np.arange(1, q + 1, dtype=np.int64)
    h = h[np.gcd(h, q) == 1]
    r = a * ((h * h % q) * h % q) % q
    return complex(np.exp(2j * math.pi * (r / q)).sum())


def _cubic_periods(p: int) -> tuple[tuple[float, float, float], int]:
    """The cubic Gauss periods (eta_0, eta_1, eta_2) of a prime p = 1 mod 3, and omega.

    eta_j sums cos(2 pi g^j c / p) over the cubes c for the least non-cube
    g, and omega = g^((p-1)/3) mod p, so x lies in coset j exactly when
    x^((p-1)/3) = omega^j mod p.
    """
    _check_residues("period prime", p)
    e = (p - 1) // 3
    g = next(x for x in range(2, p) if pow(x, e, p) != 1)
    h = np.arange(1, p, dtype=np.int64)
    cubes = np.flatnonzero(np.bincount((h * h % p) * h % p, minlength=p))
    periods = tuple(
        float(np.cos(2.0 * math.pi / p * (cubes * pow(g, j, p) % p)).sum()) for j in range(3)
    )
    return periods, pow(g, e, p)


@functools.lru_cache(maxsize=_PRIME_ROW_CACHE_SIZE)
def _period_row(p: int) -> tuple[float, tuple[float, float, float], int]:
    """A(m, p) for p | m, A(m, p) by the coset s of -m, and omega; p = 1 mod 3."""
    eta, omega = _cubic_periods(p)
    eta4 = [x**4 for x in eta]
    scale = float(p - 1) ** 5
    at_zero = -27.0 * (p - 1) * math.fsum(eta4) / scale
    by_coset = tuple(
        -81.0 * math.fsum(eta4[j] * eta[(j + s) % 3] for j in range(3)) / scale
        for s in range(3)
    )
    return at_zero, by_coset, omega


def _a_prime(n: int, p: int) -> float:
    """A(n, p) for a prime p, in closed form."""
    m = int(-n % p)
    if p % 3 != 1:
        return -1.0 / float(p - 1) ** 4 if m == 0 else 1.0 / float(p - 1) ** 5
    at_zero, by_coset, omega = _period_row(p)
    if m == 0:
        return at_zero
    chi = pow(m, (p - 1) // 3, p)
    return by_coset[0 if chi == 1 else 1 if chi == omega else 2]


def local_A(n: int, q: int) -> LocalFactor:
    """Local density A(n, q) = B(n, q) / phi(q)^5.

    For squarefree q this is the product of A(n, p) over the primes p | q.

    Raises:
        DomainError: n or q not an integer, or q < 1
        ResourceError: a prime factor congruent to 1 mod 3 beyond MAX_RESIDUES
    """
    _require_in(INTEGERS, n=n)
    _require_in(POSITIVE_INTEGERS, q=q)
    fac, mu, phi = multiplicative(q)
    if mu == 0:
        # every term of the a-sum carries C1(q, a) = mu(q) = 0
        return LocalFactor(n=n, q=q, B=0j, A=0.0)
    a = 1.0
    for p, _ in fac.factors:
        a *= _a_prime(n, p)
    return LocalFactor(n=n, q=q, B=complex(a * phi**5), A=a)


def singular_series(n: int, prime_cutoff: int = 10_000) -> TruncatedSeries:
    """Truncated series value as a product of per-prime local factors.

    Each factor is 1 + A(n, p), since A(n, p^t) = 0 for t >= 2; factors
    are multiplied in ascending-p order for reproducibility.  A
    non-positive factor at odd n is flagged as an anomaly rather than
    raised (positivity is expected, so a flag marks either a bug or a
    genuinely exceptional n worth reporting verbatim).

    Raises:
        DomainError: n or prime_cutoff not an integer, or prime_cutoff < 3
        ResourceError: prime_cutoff beyond MAX_RESIDUES
    """
    _require_in(INTEGERS, n=n)
    _require_in((3, math.inf, "[)Z"), prime_cutoff=prime_cutoff)
    _check_residues("prime_cutoff", prime_cutoff)
    limit = 1 << max(14, prime_cutoff.bit_length())
    primes = [int(p) for p in _base_primes(limit) if p <= prime_cutoff]
    factors: list[tuple[int, float]] = []
    anomalies: list[tuple[int, float]] = []
    value = 1.0
    odd = n % 2 == 1
    for p in primes:
        f = 1.0 + _a_prime(n, p)
        factors.append((p, f))
        if odd and f <= 0.0:
            anomalies.append((p, f))
        value *= f
    return TruncatedSeries(
        n=n,
        prime_cutoff=prime_cutoff,
        factors=tuple(factors),
        value=value,
        anomalies=tuple(anomalies),
    )

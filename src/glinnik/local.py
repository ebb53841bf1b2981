"""Complete exponential sums mod q and the truncated singular series.

The local density at modulus q is

    A(n, q) = B(n, q) / phi(q)^5,
    B(n, q) = sum over (a,q)=1 of C1(q,a) * C3(q,a)^4 * e(-a n / q),

where C1 is the Ramanujan sum and C3 the cubic complete sum over reduced
residues.  Every term of B carries the factor C1(q, a) = mu(q), so the
density vanishes off squarefree q, and the series

    sum over q >= 1 of A(n, q)

is evaluated as an Euler product over primes p <= cutoff of 1 + A(n, p).

For a prime p the a-sum is computed with two length-p DFTs: C3(p, .) is
the transform of the cube-residue histogram, and transforming the masked
fourth power back yields B(m, p) for every residue class m at once.
A(n, .) is multiplicative over coprime moduli (Chinese remainder
theorem), so A(n, q) for squarefree q is the product of the prime rows
at its factors.  Rows are cached per prime up to 2^16, so evaluating
the series for many n costs one table lookup per prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import _base_primes, multiplicative
from .errors import DomainError, NumericalIntegrityError

_IMAG_RAISE_TOL = 1e-6
_ROW_CACHE_MAX_Q = 1 << 16

_a_prime_rows: dict[int, np.ndarray] = {}


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


def ramanujan_C1(q: int, a: int) -> int:
    """Ramanujan sum over reduced residues h mod q of e(a h / q).

    Uses the closed form mu(q/g) * phi(q) / phi(q/g) with g = gcd(a, q),
    which is exact in integers.
    """
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    if not 1 <= a <= q:
        raise DomainError(f"need 1 <= a <= q, got a={a}, q={q}")
    g = math.gcd(a, q)
    d = q // g
    _, mu_d, phi_d = multiplicative(d)
    _, _, phi_q = multiplicative(q)
    return mu_d * (phi_q // phi_d)


def cubic_C3(q: int, a: int) -> complex:
    """Cubic complete sum over reduced residues h mod q of e(a h^3 / q)."""
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    if not 1 <= a <= q:
        raise DomainError(f"need 1 <= a <= q, got a={a}, q={q}")
    if q == 1:
        return 1 + 0j
    acc = 0j
    for h in range(1, q + 1):
        if math.gcd(h, q) == 1:
            acc += np.exp(2j * math.pi * ((a * pow(h, 3, q) % q) / q))
    return complex(acc)


def _a_prime_row(p: int) -> np.ndarray:
    """Real array of A(m, p) over residues m, with a build-time realness check."""
    row = _a_prime_rows.get(p)
    if row is not None:
        return row
    h = np.arange(1, p, dtype=np.int64)
    r = np.bincount((h * h % p) * h % p, minlength=p).astype(np.float64)
    g = (np.fft.ifft(r) * p) ** 4
    g[0] = 0.0  # a = 0 is not a reduced residue
    b = -np.fft.fft(g)  # C1(p, a) = mu(p) = -1
    scale = max(1.0, float(np.abs(b).max()))
    worst = float(np.abs(b.imag).max())
    if worst > _IMAG_RAISE_TOL * scale:
        raise NumericalIntegrityError(f"B(., {p}) row has imaginary residue {worst}")
    row = b.real / float(p - 1) ** 5
    if p <= _ROW_CACHE_MAX_Q:
        _a_prime_rows[p] = row
    return row


def local_A(n: int, q: int) -> LocalFactor:
    """Local density A(n, q) = B(n, q) / phi(q)^5.

    For squarefree q this is the product of A(n, p) over the primes p | q.

    Raises:
        NumericalIntegrityError: a prime row fails its realness check,
            judged against the natural magnitude of the whole row
    """
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    fac, mu, phi = multiplicative(q)
    if mu == 0:
        # every term of the a-sum carries C1(q, a) = mu(q) = 0
        return LocalFactor(n=n, q=q, B=0j, A=0.0)
    a = 1.0
    for p, _ in fac.factors:
        a *= float(_a_prime_row(p)[n % p])
    return LocalFactor(n=n, q=q, B=complex(a * phi**5), A=a)


def singular_series(n: int, prime_cutoff: int = 10_000) -> TruncatedSeries:
    """Truncated series value as a product of per-prime local factors.

    Each factor is 1 + A(n, p), since A(n, p^t) = 0 for t >= 2; factors
    are multiplied in ascending-p order for reproducibility.  A
    non-positive factor at odd n is flagged as an anomaly rather than
    raised (positivity is expected, so a flag marks either a bug or a
    genuinely exceptional n worth reporting verbatim).
    """
    if prime_cutoff < 3:
        raise DomainError("prime_cutoff must be >= 3")
    limit = 1 << max(14, prime_cutoff.bit_length())
    primes = [int(p) for p in _base_primes(limit) if p <= prime_cutoff]
    factors: list[tuple[int, float]] = []
    anomalies: list[tuple[int, float]] = []
    value = 1.0
    odd = n % 2 == 1
    for p in primes:
        f = 1.0 + float(_a_prime_row(p)[n % p])
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

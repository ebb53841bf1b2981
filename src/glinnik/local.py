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
of e(x / p) over the coset j of the cubes) and j is the coset of a; the
periods are real because -1 is a cube.  With omega a primitive cube root
of unity mod p, x lies in coset j exactly when x^((p-1)/3) = omega^j.
Grouping the a-sum by coset gives

    B(n, p) = -27 (p-1) * sum_j eta_j^4             if p | n,
    B(n, p) = -81 * sum_j eta_j^4 * eta_(j+s)       otherwise,

with s the coset of -n.  B sums over every j, so a cyclic relabelling
of the cosets changes nothing and only the orientation of the periods
matters.  Gauss's closed form gives them from 4p = L^2 + 27 M^2 in
O(log^2 p) integer steps, so no period prime is bounded.  The four
values A(., p) can take and omega are cached per prime.

The complete sums are products over one factorisation of q, since
C1(q, a) and C3(q, a) are multiplicative in q (CRT): C3(q, a) is the
product of C3(p^t, a r^2) over the parts p^t || q, r = q / p^t.  C1 and
the C3 parts at p^t = p with p != 1 mod 3 are closed forms; a C3 part
with p = 1 mod 3 or t >= 2 takes one pass over the units h <= p^t / 2.
The periods above fix C3(p, a) only up to a cyclic shift of the cosets,
which B(n, p) allows and a single value does not.  MAX_RESIDUES still
bounds the moduli q of cubic_C3, and MAX_SERIES_CUTOFF the series' primes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arith import _base_primes, multiplicative
from .errors import INTEGERS, POSITIVE_INTEGERS, DomainError, ResourceError, _require_in

MAX_RESIDUES = 1 << 20  # residues of one cubic_C3 modulus
MAX_SERIES_CUTOFF = 1 << 20  # prime cutoff of singular_series, checked before sieving
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


def _require_sum_args(q: int, a: int) -> tuple[int, int]:
    """q and a as ints; DomainError unless they are integers with 1 <= a <= q."""
    q, a = _require_in(POSITIVE_INTEGERS, q=q, a=a)
    if a > q:
        raise DomainError(f"need a <= q, got a={a}, q={q}")
    return q, a


def ramanujan_C1(q: int, a: int) -> int:
    """Ramanujan sum over reduced residues h mod q of e(a h / q).

    A product over one factorisation of q, exact in integers: the sum is
    multiplicative in q, and its factor at p^e | q is p^e - p^(e-1) when
    p^e | a, -p^(e-1) when only p^(e-1) | a, and 0 otherwise.
    DomainError unless q and a are integers with 1 <= a <= q.
    """
    q, a = _require_sum_args(q, a)
    fac, _, _ = multiplicative(q)
    out = 1
    for p, e in fac.factors:
        low = p ** (e - 1)
        if a % (low * p) == 0:
            out *= low * (p - 1)
        elif a % low == 0:
            out = -out * low
        else:
            return 0
    return out


def cubic_C3(q: int, a: int) -> complex:
    """Cubic complete sum over reduced residues h mod q of e(a h^3 / q).

    A product over one factorisation of q: writing h by CRT over the parts
    p^t || q gives C3(q, a) = prod C3(p^t, a r^2) with r = q / p^t.  A part
    p^t = p with p != 1 mod 3 has the closed form -1, or p - 1 when p | a r^2,
    since cubing permutes its reduced residues; every other part (p = 1 mod 3,
    or t >= 2) sums over the reduced residues h <= p^t / 2, as h and -h give
    conjugate terms.  MAX_RESIDUES still bounds q itself.

    Raises:
        DomainError: q or a not an integer, or not 1 <= a <= q
        ResourceError: q beyond MAX_RESIDUES
    """
    q, a = _require_sum_args(q, a)
    if q > MAX_RESIDUES:
        raise ResourceError(f"modulus {q} exceeds the residue budget "
                            f"local.MAX_RESIDUES = {MAX_RESIDUES}")
    fac, _, _ = multiplicative(q)
    out = 1.0
    for p, t in fac.factors:
        pt = p**t
        b = a * (q // pt) ** 2 % pt
        if t == 1 and p % 3 != 1:
            out *= -1.0 if b else float(p - 1)
            continue
        h = np.arange(1, pt // 2 + 1, dtype=np.int64)  # pt > 2, so h and pt - h differ
        h = h[h % p != 0]
        r = b * ((h * h % pt) * h % pt) % pt
        out *= 2.0 * float(np.cos((2.0 * math.pi / pt) * r).sum())
    return complex(out)


def _sqrt_minus_3(p: int) -> int:
    """A square root of -3 mod a prime p = 1 mod 3, by Tonelli-Shanks."""
    q, e = p - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1  # p - 1 = q 2^e with q odd
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1  # a quadratic non-residue
    c, x, t = pow(z, q, p), pow(-3, (q + 1) // 2, p), pow(-3, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (e - i - 1), p)
        x, c, e = x * b % p, b * b % p, i
        t = t * c % p
    return x


def _cubic_periods(p: int) -> tuple[tuple[float, float, float], int]:
    """The cubic Gauss periods (eta_0, eta_1, eta_2) of a prime p = 1 mod 3, and omega.

    With s^2 = -3 mod p, omega = (s - 1)/2 mod p.  Cornacchia's algorithm
    on (p, s) gives p = x^2 + 3 y^2, and one of (2x, 2y), (x + 3y, x - y),
    (x - 3y, x + y) is (L, 3M) with 4p = L^2 + 27 M^2; L = 1 mod 3, and
    L + 3 M s = 0 mod p fixes the sign of M.  The periods are the roots
    (-1 + 2 sqrt(p) cos((theta + 2 pi k)/3))/3 of Gauss's period
    polynomial, cos theta = L / (2 sqrt(p)), oriented so that
    (eta_0 - eta_1)(eta_1 - eta_2)(eta_2 - eta_0) = -p M; then x lies in
    the coset of eta_j (up to a cyclic shift) when x^((p-1)/3) = omega^j.
    """
    s = _sqrt_minus_3(p)
    a, x = p, s
    while x * x > p:
        a, x = x, a % x  # Cornacchia: the first remainder below sqrt(p)
    y = math.isqrt((p - x * x) // 3)
    L, M3 = next(pair for pair in ((2 * x, 2 * y), (x + 3 * y, x - y), (x - 3 * y, x + y))
                 if pair[1] % 3 == 0)
    L, M = (L if L % 3 == 1 else -L), M3 // 3
    if (L + 3 * M * s) % p:
        M = -M
    # sin theta = sqrt(27) |M| / (2 sqrt(p)) keeps theta accurate at small |M|, unlike acos
    theta = math.atan2(math.sqrt(27.0) * abs(M), L)
    root = 2.0 * math.sqrt(p)
    e0, e1, e2 = ((-1.0 + root * math.cos((theta + 2.0 * math.pi * k) / 3.0)) / 3.0
                  for k in range(3))
    if ((e0 - e1) * (e1 - e2) * (e2 - e0) > 0.0) != (M < 0):
        e1, e2 = e2, e1
    return (e0, e1, e2), (s - 1) * pow(2, -1, p) % p


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
    m = -n % p
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
    """
    n = _require_in(INTEGERS, n=n)
    q = _require_in(POSITIVE_INTEGERS, q=q)
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
        ResourceError: prime_cutoff beyond MAX_SERIES_CUTOFF
    """
    n = _require_in(INTEGERS, n=n)
    prime_cutoff = _require_in((3, math.inf, "[)Z"), prime_cutoff=prime_cutoff)
    if prime_cutoff > MAX_SERIES_CUTOFF:
        raise ResourceError(f"prime_cutoff {prime_cutoff} exceeds the series budget "
                            f"local.MAX_SERIES_CUTOFF = {MAX_SERIES_CUTOFF}")
    primes = _base_primes(prime_cutoff + 1).tolist()
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

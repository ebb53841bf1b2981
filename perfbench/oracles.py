"""Independent reference computations for the benchmark's output checks.

Nothing here imports glinnik: each check recomputes the asserted quantity
by a different route (a plain sieve, Gauss periods, divisor sums,
brute force over small denominators), so a defect in the program cannot
make its own check pass.  Every routine is cheap next to the operation it
checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

TWO_PI = 2.0 * math.pi


def prime_flags(n: int) -> np.ndarray:
    """Boolean array f with f[k] true iff k is prime, for 0 <= k <= n."""
    f = np.ones(n + 1, dtype=bool)
    f[: min(2, n + 1)] = False
    for k in range(2, math.isqrt(n) + 1):
        if f[k]:
            f[k * k :: k] = False
    return f


def primes_between(lo: int, hi: int) -> np.ndarray:
    """Primes p with lo <= p <= hi."""
    f = prime_flags(hi)
    return np.nonzero(f[max(lo, 0) :])[0].astype(np.int64) + max(lo, 0)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# complete sums modulo a prime, from Gauss periods


class CubicPeriods:
    """Cubic complete sums mod primes, cached per prime.

    For p = 1 mod 3 the sum C3(p, a) over reduced h of e(a h^3 / p) equals
    3 T(c), where T(c) is the Gauss period over the cubic class c of a.
    For p = 2 mod 3 (and p = 3) cubing permutes the reduced residues, so
    C3(p, a) = -1 for every a prime to p.
    """

    def __init__(self):
        self._periods: dict[int, tuple[np.ndarray, int]] = {}

    def _table(self, p: int) -> tuple[np.ndarray, int]:
        got = self._periods.get(p)
        if got is None:
            h = np.arange(1, p, dtype=np.int64)
            cubes = np.unique((h * h % p) * h % p)
            g = next(x for x in range(2, p) if pow(x, (p - 1) // 3, p) != 1)
            periods = []
            for c in range(3):
                cls = cubes * pow(g, c, p) % p
                periods.append(np.exp(1j * TWO_PI * cls / p).sum())
            got = (np.array(periods), g)
            self._periods[p] = got
        return got

    def _class(self, p: int, a: int) -> int:
        _, g = self._table(p)
        e = (p - 1) // 3
        chi = pow(a, e, p)
        for c in range(3):
            if chi == pow(g, c * e, p):
                return c
        raise ArithmeticError(f"no cubic class for {a} mod {p}")

    def c3(self, p: int, a: int) -> complex:
        a %= p
        if a == 0:
            return complex(p - 1)
        if p % 3 != 1:
            return -1 + 0j
        periods, _ = self._table(p)
        return complex(3 * periods[self._class(p, a)])

    def local_A(self, n: int, p: int) -> float:
        """A(n, p) = B(n, p) / (p - 1)^5 for a prime p."""
        m = (-n) % p
        if p % 3 != 1:
            b = -(p - 1) if m == 0 else 1.0
            return b / float(p - 1) ** 5
        periods, _ = self._table(p)
        c4 = (3 * periods) ** 4
        if m == 0:
            b = -(c4.sum() * (p - 1) / 3)
        else:
            shift = self._class(p, m)
            b = -sum(c4[c] * periods[(c + shift) % 3] for c in range(3))
        return float(b.real) / float(p - 1) ** 5

    def b_scale(self, p: int) -> float:
        """Largest |B(m, p)| over all residues m: the row's natural magnitude."""
        if p % 3 != 1:
            return float(p - 1)
        periods, _ = self._table(p)
        c4 = (3 * periods) ** 4
        rows = [c4.sum() * (p - 1) / 3]
        rows += [sum(c4[c] * periods[(c + s) % 3] for c in range(3)) for s in range(3)]
        return float(max(abs(b) for b in rows))

    def c3_composite(self, primes: list[int], a: int) -> complex:
        """C3(q, a) for squarefree q = prod(primes), by the CRT product rule."""
        q = math.prod(primes)
        out = 1 + 0j
        for p in primes:
            rest = q // p
            out *= self.c3(p, a * rest * rest)
        return out


def ramanujan(q: int, a: int, primes: list[int]) -> int:
    """Ramanujan sum c_q(a) = sum over d | gcd(a, q) of mu(q/d) d, squarefree q."""
    total = 0
    for mask in range(1 << len(primes)):
        d = math.prod(p for i, p in enumerate(primes) if mask >> i & 1)
        if a % d == 0:
            total += (-1) ** (len(primes) - bin(mask).count("1")) * d
    return total


# ---------------------------------------------------------------------------
# exponential sums and arcs


def weighted_sum_at(args: np.ndarray, num: int, den: int) -> complex:
    """sum of log p e(m num/den) over the args m, with p = args (linear kind)."""
    r = (args % den) * (num % den) % den
    theta = TWO_PI * (r / den)
    w = np.log(args.astype(np.float64))
    return complex(np.dot(w, np.cos(theta)), np.dot(w, np.sin(theta)))


def cube_sum_at(primes, alpha: Fraction) -> complex:
    acc = 0j
    for p in primes:
        p = int(p)
        phase = (p**3 * alpha.numerator % alpha.denominator) / alpha.denominator
        acc += math.log(p) * complex(math.cos(TWO_PI * phase), math.sin(TWO_PI * phase))
    return acc


def binary_sum_at(L: float, alpha: Fraction) -> complex:
    acc = 0j
    for v in range(1, math.floor(L) + 1):
        phase = ((1 << v) * alpha.numerator % alpha.denominator) / alpha.denominator
        acc += complex(math.cos(TWO_PI * phase), math.sin(TWO_PI * phase))
    return acc


def major_arc(alpha: Fraction, p_cap: int, q_cap: float) -> tuple[int, int] | None:
    """(a, q) with q <= p_cap, gcd 1, |alpha - a/q| <= 1/(q Q), by brute force."""
    for q in range(1, p_cap + 1):
        for a in (math.floor(alpha * q), math.ceil(alpha * q)):
            if 1 <= a <= q and math.gcd(a, q) == 1:
                if abs(float(alpha - Fraction(a, q))) <= 1.0 / (q * q_cap):
                    return a, q
    return None


def dirichlet_valid(alpha: Fraction, a: int, q: int, Q: int) -> bool:
    return (
        1 <= a <= q <= Q
        and math.gcd(a, q) == 1
        and abs(alpha - Fraction(a, q)) <= Fraction(1, q * Q)
    )


# ---------------------------------------------------------------------------
# singular-integral lattice


def block_mass(x: int) -> float:
    """sum of m^(-2/3) over the dyadic cube block (x^3, 8 x^3]."""
    m = np.arange(x**3 + 1, 8 * x**3 + 1, dtype=np.float64)
    return float(np.sum(m ** (-2.0 / 3.0)))


# ---------------------------------------------------------------------------
# powers of two


def xi_values(N: int, k: int, eta: float, vmax: float) -> dict[int, int]:
    """Window members N - sum 2^v with ordered multiplicities, by brute force."""
    m = math.floor(vmax)
    out: dict[int, int] = {}
    for vs in product(range(1, m + 1), repeat=k):
        n = N - sum(1 << v for v in vs)
        if n >= (1.0 - eta) * N:
            out[n] = out.get(n, 0) + 1
    return out


def witness_ok(w: dict, N: int, k: int) -> bool:
    if w is None or w["n"] != N or len(w["powers"]) != k:
        return False
    total = w["p1"] + sum(c**3 for c in w["cubes"]) + sum(1 << v for v in w["powers"])
    return (
        total == N
        and is_prime(w["p1"])
        and all(is_prime(c) for c in w["cubes"])
        and all(v >= 1 for v in w["powers"])
    )

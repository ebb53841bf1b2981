"""Generating functions, rational approximation, arcs, and exact moments.

Four families of exponential sums are evaluated here, writing e(x) for
exp(2*pi*i*x):

    linear   sum of (log p) e(p a)      over omega*N < p <= N
    cube_u   sum of (log p) e(p^3 a)    over p in (U, 2U]
    cube_v   same with the smaller dyadic scale V = U^(5/6)
    binary   sum of e(2^v a)            over integer v = 1 .. floor(L)

Every phase m*a mod 1 goes through one reduction, _phases, and one
cos/sin/dot pass.  A rational a/q is exact up to the final division at any
q: (m mod q)(a mod q) mod q runs in int64 for q <= 2^31, on Python ints
above.  A float a = A/2^s + a_lo, with s the bit length of the largest m
(at most 31; larger m are cut into 31-bit limbs), gives frac(m A / 2^s)
exactly in int64 plus m a_lo < 1 with one rounding: within a few ulp of 1.
m is int64, so cube tables end below MAX_CUBE_HI = 2^21; 2^v is not, so
the binary sum reduces 2^v mod q, reading a float as the dyadic rational
it stores.  A rational a/q with q at most the linear table's size is read
from the q residue buckets of its primes.  The property tests rely on
this accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import PrimeTable, dyadic_table, sieve_range
from .errors import DomainError, ResourceError
from .parallel import map_ordered

KINDS = ("linear", "cube_u", "cube_v", "binary")

DEFAULT_GRID_BUDGET = 1 << 24
DEFAULT_PAIR_BUDGET = 1 << 24
MAX_BINARY_TERMS = 1 << 12  # most terms floor(L) of the binary sum; ProblemParams.L < 64
MAX_CUBE_HI = 1 << 21  # cube-sum tables end below this, so every p^3 fits in int64

_TWO_PI = 2.0 * math.pi
_LIMB_BITS = 31  # m * A stays below 2^62 for m, A < 2^31
_CHUNK = 1 << 19  # terms per cos/sin/dot pass


@dataclass(frozen=True)
class ProblemParams:
    """Problem sizes and tunables, with every derived scale recomputed.

    n1 >= n2 are the two odd targets.  Derived quantities (never stored):

        u(i) = (n_i / (16 (1 + delta)))^(1/3)     cube dyadic scale
        v(i) = u(i)^(5/6)                          small cube dyadic scale
        L    = log2(n1 / log n1)                   powers-of-two cutoff
        p_max(i) = n_i^(1/9 - 2 eps)               major-arc denominator cap
        q_max(i) = n_i^(8/9 + eps)                 rational-approximation cap
    """

    n1: int
    n2: int
    delta: float = 1e-4
    omega: float = 1e-5
    eta: float = 5e-5
    lam: float = 0.961917
    epsilon: float = 1e-10
    k: int = 231
    max_ratio: float = 1e6

    def __post_init__(self):
        _require_int(n1=self.n1, n2=self.n2, k=self.k)
        if self.n1 % 2 == 0 or self.n2 % 2 == 0:
            raise DomainError("n1 and n2 must be odd")
        if self.n1 < self.n2:
            raise DomainError("params require n1 >= n2")
        if self.n1 > self.max_ratio * self.n2:
            raise DomainError(f"n1/n2 exceeds the configured max_ratio ({self.max_ratio})")
        if not 0.0 < self.omega < 1.0:
            raise DomainError("omega must lie in (0, 1)")
        if not 0.0 < self.eta < 1.0:
            raise DomainError("eta must lie in (0, 1)")
        _require_finite(delta=self.delta, lam=self.lam, epsilon=self.epsilon)
        if not 0.0 < self.epsilon < 1.0 / 18.0:  # keeps the exponent of p_max positive
            raise DomainError(f"epsilon must lie in (0, 1/18), got {self.epsilon}")
        if not self.delta > 0.0:
            raise DomainError(f"delta must be > 0, got {self.delta}")
        if not 0.0 < self.lam <= 1.0:
            raise DomainError(f"lam must lie in (0, 1], got {self.lam}")
        if not self.eta < self.delta / (1.0 + self.delta):
            raise DomainError(
                "constraint violated: eta < delta/(1+delta) "
                f"(eta={self.eta}, delta/(1+delta)={self.delta / (1 + self.delta)})"
            )
        if self.k < 2:
            raise DomainError("k must be >= 2")
        for i in (1, 2):
            if 2.0 * self.p_max(i) > self.q_max(i):
                raise DomainError(f"arc dissection needs 2 P_{i} <= Q_{i}")

    def n(self, i: int) -> int:
        if i == 1:
            return self.n1
        if i == 2:
            return self.n2
        raise DomainError(f"index must be 1 or 2, got {i}")

    def u(self, i: int) -> float:
        return (self.n(i) / (16.0 * (1.0 + self.delta))) ** (1.0 / 3.0)

    def v(self, i: int) -> float:
        return self.u(i) ** (5.0 / 6.0)

    @property
    def L(self) -> float:
        return math.log2(self.n1 / math.log(self.n1))

    def p_max(self, i: int) -> float:
        return self.n(i) ** (1.0 / 9.0 - 2.0 * self.epsilon)

    def q_max(self, i: int) -> float:
        return self.n(i) ** (8.0 / 9.0 + self.epsilon)


@dataclass(frozen=True)
class DirichletApprox:
    """Rational approximation alpha = a/q + theta with |theta| <= 1/(qQ)."""

    a: int
    q: int
    theta: float
    Q: int

    def __post_init__(self):
        if not (1 <= self.a <= self.q <= self.Q):
            raise DomainError(f"need 1 <= a <= q <= Q, got a={self.a} q={self.q} Q={self.Q}")
        if math.gcd(self.a, self.q) != 1:
            raise DomainError("a and q must be coprime")


@dataclass(frozen=True)
class ArcLabel:
    kind: str  # "major" | "minor"
    a: int | None = None
    q: int | None = None

    @property
    def is_major(self) -> bool:
        return self.kind == "major"


@dataclass(frozen=True)
class MinorArcReport:
    """Max observed |sum| / (N^exponent * (log N)^c) over seeded minor-arc samples."""

    i: int
    n: int
    samples: int
    seed: int
    c: float
    linear_exponent: float
    cube_exponent: float
    linear_ratio_max: float
    cube_ratio_max: float
    alphas: tuple[float, ...] = field(repr=False, default=())


# ---------------------------------------------------------------------------
# phase reduction


def _require_finite(**values) -> None:
    """Raise DomainError naming the first value that is NaN or infinite."""
    for name, x in values.items():
        if not isinstance(x, (int, Fraction)) and not math.isfinite(x):
            raise DomainError(f"{name} must be finite, got {x!r}")


def _require_int(**values) -> None:
    """Raise DomainError naming the first value that is not an int or a numpy integer."""
    for name, x in values.items():
        if not isinstance(x, (int, np.integer)):
            raise DomainError(f"{name} must be an integer, got {x!r}")


def _split_phases(m: np.ndarray, alpha: float, top: int) -> np.ndarray:
    """(m * alpha) mod 1 for int64 0 <= m <= top, within a few ulp of 1.

    alpha = A/2^s + lo with A = floor(alpha 2^s) and 0 <= lo <= 2^-s: the
    high phase (m A mod 2^s) / 2^s is exact in int64 and m lo < 1 is one
    rounded product.  Arguments of 2^31 or more are split into 31-bit limbs
    m = m_hi 2^31 + m_lo, with m_hi reduced against frac(2^31 alpha).
    """
    a = math.fmod(alpha, 1.0)  # exact, keeps the sign
    if top >> _LIMB_BITS:
        f = _split_phases(m >> _LIMB_BITS, math.fmod(a * 2.0**_LIMB_BITS, 1.0), top >> _LIMB_BITS)
        f += _split_phases(m & ((1 << _LIMB_BITS) - 1), a, (1 << _LIMB_BITS) - 1)
    else:
        s = max(1, top.bit_length())
        A = math.floor(a * 2.0**s)  # in [-2^s, 2^s)
        lo = a - A * 2.0**-s
        f = ((m * (A % (1 << s))) & ((1 << s) - 1)) * 2.0**-s
        f += m * lo
    f -= f >= 1.0  # back into [0, 1)
    return f


def _phases(m: np.ndarray, alpha, top: int) -> np.ndarray:
    """(m * alpha) mod 1 for 0 <= m <= top, m int64 (or Python ints for a rational).

    A Fraction or int a/q never becomes a float (hundreds of turns off for m
    near 2^63): int64 for q <= 2^31, Python ints above; a float goes through _split_phases.
    """
    if not isinstance(alpha, (int, Fraction)):
        return _split_phases(m, float(alpha), top)
    q = alpha.denominator
    r = m.astype(np.int64 if q <= 1 << _LIMB_BITS else object, copy=False) % q
    return np.asarray(r * (alpha.numerator % q) % q / q, dtype=np.float64)


def _weighted_phase_sum(m: np.ndarray, w: np.ndarray, alpha) -> complex:
    """The one cos/sin/dot pass: sum of w e(m alpha), in chunks of _CHUNK terms."""
    top = int(m.max(initial=0))
    total = 0j
    for i in range(0, m.size, _CHUNK):
        theta = _phases(m[i : i + _CHUNK], alpha, top)
        theta *= _TWO_PI
        wi = w[i : i + _CHUNK]
        total += complex(np.dot(wi, np.cos(theta)), np.dot(wi, np.sin(theta, out=theta)))
    return total


# ---------------------------------------------------------------------------
# pointwise sums


def linear_table(params: ProblemParams, i: int, **kwargs) -> PrimeTable:
    """Primes p with omega*N_i < p <= N_i."""
    n = params.n(i)
    lo = max(2, math.floor(params.omega * n) + 1)
    return sieve_range(lo, n, **kwargs)


def eval_linear(params: ProblemParams, i: int, alpha, *, table: PrimeTable | None = None) -> complex:
    """sum of (log p) e(p alpha) over omega*N_i < p <= N_i."""
    _require_finite(alpha=alpha)
    if table is None:
        table = linear_table(params, i)
    if isinstance(alpha, Fraction) and alpha.denominator <= len(table):
        # a/q is entry a of the length-q grid: the q residue buckets suffice
        q = alpha.denominator
        return _weighted_phase_sum(np.arange(q), _grid_buckets("linear", table, q), alpha)
    return _weighted_phase_sum(table.primes, table.log_weights(), alpha)


def eval_cube(table: PrimeTable, alpha) -> complex:
    """sum of (log p) e(p^3 alpha) over the table's primes.

    Raises:
        DomainError: alpha not finite
        ResourceError: table.hi at or above MAX_CUBE_HI, where p^3 can leave int64
    """
    _require_finite(alpha=alpha)
    _check_cube_hi(table.hi)
    return _weighted_phase_sum(table.primes**3, table.log_weights(), alpha)


def _check_cube_hi(hi: int) -> None:
    """Raise ResourceError if a cube table ending at hi reaches MAX_CUBE_HI."""
    if hi >= MAX_CUBE_HI:
        raise ResourceError(f"cube table hi={hi} reaches MAX_CUBE_HI = {MAX_CUBE_HI}")


def eval_G(L: float, alpha) -> complex:
    """sum of e(2^v alpha) over integer v = 1 .. floor(L).

    Raises:
        DomainError: L < 1, L or alpha not finite
        ResourceError: floor(L) above MAX_BINARY_TERMS
    """
    m = _binary_terms(L)
    _require_finite(alpha=alpha)
    if not isinstance(alpha, (int, Fraction)):
        alpha = Fraction(float(alpha))  # the dyadic rational a float stores
    res = np.array([pow(2, v, alpha.denominator) for v in range(1, m + 1)], dtype=object)
    return _weighted_phase_sum(res, np.ones(m), alpha)


def _binary_terms(L) -> int:
    """floor(L), the number of terms of the binary sum, within MAX_BINARY_TERMS."""
    _require_finite(L=L)
    if L < 1:
        raise DomainError(f"binary sum needs L >= 1, got {L}")
    m = math.floor(L)
    if m > MAX_BINARY_TERMS:
        raise ResourceError(f"binary sum of {m} terms exceeds the term budget ({MAX_BINARY_TERMS})")
    return m


# ---------------------------------------------------------------------------
# grid evaluation (bucket by argument mod M, then one length-M DFT)


def _grid_buckets(kind: str, source, M: int) -> np.ndarray:
    if kind == "binary":
        m = _binary_terms(source)
        idx = np.array([pow(2, v, M) for v in range(1, m + 1)], dtype=np.int64)
        w = np.ones(m)
    elif kind == "linear":
        idx = source.primes % M
        w = source.log_weights()
    elif kind in ("cube_u", "cube_v"):
        pm = source.primes % M
        idx = (pm * pm % M) * pm % M  # stepwise reduction keeps int64 exact
        w = source.log_weights()
    else:
        raise DomainError(f"unknown sum kind {kind!r}")
    return np.bincount(idx, weights=w, minlength=M)


def _half_spectrum(kind: str, source, M: int, budget: int = DEFAULT_GRID_BUDGET) -> np.ndarray:
    """Real DFT of the length-M buckets: the conjugates of the values at j/M, j <= M//2."""
    _require_int(M=M)
    if M < 2:
        raise DomainError(f"grid size must be >= 2, got {M}")
    if M > budget:
        raise ResourceError(f"grid size {M} exceeds the grid budget ({budget})")
    return np.fft.rfft(_grid_buckets(kind, source, M))


def eval_grid(kind: str, source, M: int, *, budget: int = DEFAULT_GRID_BUDGET) -> np.ndarray:
    """Values at alpha = j/M for j = 0..M-1, as one complex array.

    Weights are bucketed by (argument mod M) and transformed with a single
    real DFT; entry j then equals the pointwise sum at j/M exactly (up to
    rounding), because e(b j / M) only depends on b mod M.  The buckets are
    real, so the value at (M - j)/M is the conjugate of the value at j/M.
    """
    half = _half_spectrum(kind, source, M, budget)
    out = np.empty(M, dtype=np.complex128)
    np.conjugate(half, out=out[: M // 2 + 1])
    out[M // 2 + 1 :] = half[1 : (M + 1) // 2][::-1]
    return out


# ---------------------------------------------------------------------------
# rational approximation and arc dissection


def _convergents(num: int, den: int):
    """Continued-fraction convergents p/q of num/den, in order."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    a, b = num, den
    while b:
        t = a // b
        a, b = b, a - t * b
        p0, q0, p1, q1 = p1, q1, t * p1 + p0, t * q1 + q0
        yield p1, q1


def dirichlet_approx(alpha, Q: int) -> DirichletApprox:
    """Best rational a/q with 1 <= a <= q <= Q and |alpha - a/q| <= 1/(qQ).

    Computed from the continued-fraction convergents of the exact value of
    alpha; validity of the returned pair is checked in exact rational
    arithmetic.

    Raises:
        DomainError: Q not an integer or < 1, alpha not finite or outside [1/Q, 1 + 1/Q]
    """
    _require_finite(alpha=alpha)
    _require_int(Q=Q)
    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    fr = alpha if isinstance(alpha, Fraction) else Fraction(alpha)
    lo, hi = Fraction(1, Q), 1 + Fraction(1, Q)
    # a float that is the rounded endpoint counts as the endpoint
    if fr != lo and math.isclose(float(fr), 1.0 / Q, rel_tol=4e-16, abs_tol=0.0):
        fr = lo
    elif fr != hi and math.isclose(float(fr), 1.0 + 1.0 / Q, rel_tol=4e-16, abs_tol=0.0):
        fr = hi
    if not lo <= fr <= hi:
        raise DomainError(f"alpha={float(fr)} outside [1/Q, 1+1/Q] for Q={Q}")

    def valid(p: int, q: int) -> bool:
        return 1 <= p <= q <= Q and abs(fr - Fraction(p, q)) <= Fraction(1, q * Q)

    seen: list[tuple[int, int]] = []
    for p, q in _convergents(fr.numerator, fr.denominator):
        if q > Q:
            break
        seen.append((p, q))
    for p, q in reversed(seen):
        if valid(p, q):
            theta = float(fr - Fraction(p, q))
            return DirichletApprox(a=p, q=q, theta=theta, Q=Q)
    # alpha in (1, 1+1/Q] can leave only the trivial approximation valid
    if valid(1, 1):
        return DirichletApprox(a=1, q=1, theta=float(fr - 1), Q=Q)
    raise DomainError(f"no admissible rational approximation for alpha={float(fr)}, Q={Q}")


def classify_arc(params: ProblemParams, i: int, alpha) -> ArcLabel:
    """Major(a, q) iff |alpha - a/q| <= 1/(q Q_i) for some q <= P_i, (a,q)=1.

    Since 2 P_i <= Q_i, any admissible a/q is a continued-fraction
    convergent of alpha, so scanning convergents with q <= P_i decides
    membership; the arcs are disjoint, so at most one label can match.
    """
    _require_finite(alpha=alpha)
    q_cap = params.q_max(i)
    fr = alpha if isinstance(alpha, Fraction) else Fraction(alpha)
    lo, hi = 1.0 / q_cap, 1.0 + 1.0 / q_cap
    x = float(fr)
    if not (lo <= x <= hi):
        raise DomainError(f"alpha={x} outside [1/Q_{i}, 1+1/Q_{i}]")
    p_cap = math.floor(params.p_max(i))
    for p, q in _convergents(fr.numerator, fr.denominator):
        if q > p_cap:
            break
        if p < 1 or p > q:
            continue
        if abs(float(fr - Fraction(p, q))) <= 1.0 / (q * q_cap):
            return ArcLabel("major", a=p, q=q)
    return ArcLabel("minor")


# ---------------------------------------------------------------------------
# exact moments


def moment2_exact(table: PrimeTable, kind: str = "linear") -> float:
    """Exact value of the 0..1 mean-square integral of the weighted sum.

    By orthogonality this is sum of log^2 p: the frequencies (p for the
    linear kind, p^3 for the cube kinds) are distinct integers, so the
    value does not depend on `kind`.
    """
    if kind not in KINDS:
        raise DomainError(f"unknown sum kind {kind!r}")
    w = table.log_weights()
    return float(np.dot(w, w))


def moment_ST4_exact(U: int, V: int, *, pair_budget: int = DEFAULT_PAIR_BUDGET) -> float:
    """Exact fourth moment of the product of the two cube sums.

    Equals the log-weighted count of solutions of

        p1^3 + p2^3 + q1^3 + q2^3 = p3^3 + p4^3 + q3^3 + q4^3

    with p_j in (U, 2U] and q_j in (V, 2V], computed by bucketing the
    weighted left-side sums (meet in the middle) and summing the squares
    of the bucket weights.
    """
    tu = dyadic_table(U)
    tv = dyadic_table(V)
    if len(tu) == 0 or len(tv) == 0:
        return 0.0
    _, bucket = _quadruple_buckets(
        tu.primes, tv.primes, pair_budget, (tu.log_weights(), tv.log_weights())
    )
    return float(np.dot(bucket, bucket))


def _quadruple_buckets(primes_u, primes_v, pair_budget: int, weights=None):
    """Distinct sums a^3 + b^3 + c^3 + d^3 and the total weight of each.

    a, b run over primes_u and c, d over primes_v, all ordered.  A tuple
    weighs the product of its four entries of weights = (w_u, w_v), or 1
    when weights is None, which makes the buckets exact integer counts.
    """
    tuples = (len(primes_u) * len(primes_v)) ** 2
    if tuples > pair_budget:
        raise ResourceError(f"{tuples} four-tuples exceed the pair budget ({pair_budget})")
    cu = np.asarray(primes_u, dtype=np.int64) ** 3
    cv = np.asarray(primes_v, dtype=np.int64) ** 3
    sums = np.add.outer(np.add.outer(cu, cu).ravel(), np.add.outer(cv, cv).ravel()).ravel()
    if weights is None:
        return np.unique(sums, return_counts=True)
    wu, wv = (np.multiply.outer(w, w).ravel() for w in weights)
    values, inverse = np.unique(sums, return_inverse=True)
    return values, np.bincount(inverse, weights=np.multiply.outer(wu, wv).ravel())


# ---------------------------------------------------------------------------
# minor-arc diagnostics

_LINEAR_EXPONENT = 1.0 - 1.0 / 18.0
_CUBE_EXPONENT = 1.0 / 3.0 - 1.0 / 42.0


def minor_arc_diagnostic(
    params: ProblemParams,
    i: int,
    samples: int,
    seed: int,
    *,
    c: float = 4.0,
    threads: int = 1,
) -> MinorArcReport:
    """Max of |sum|/(N^e (log N)^c) over seeded pseudo-random minor-arc points.

    Purely diagnostic: nothing is asserted about the ratios; they are
    recorded so regressions can be spotted against a frozen baseline.

    Raises:
        DomainError: i, samples, seed or threads not an integer, samples < 1,
            c not finite
    """
    _require_int(i=i, samples=samples, seed=seed, threads=threads)
    _require_finite(c=c)
    if samples < 1:
        raise DomainError("samples must be >= 1")
    n = params.n(i)
    q_cap = params.q_max(i)
    rng = np.random.default_rng(seed)
    alphas: list[float] = []
    while len(alphas) < samples:
        x = rng.uniform(1.0 / q_cap, 1.0 + 1.0 / q_cap)
        if not classify_arc(params, i, x).is_major:
            alphas.append(float(x))

    lin = linear_table(params, i)
    cube = dyadic_table(params.u(i))
    w = lin.log_weights()

    def f_abs(x: float) -> float:
        return abs(_weighted_phase_sum(lin.primes, w, x))

    f_vals = map_ordered(f_abs, alphas, threads)
    s_vals = [abs(eval_cube(cube, x)) for x in alphas]
    log_n = math.log(n)
    lin_scale = n**_LINEAR_EXPONENT * log_n**c
    cube_scale = n**_CUBE_EXPONENT * log_n**c
    return MinorArcReport(
        i=i,
        n=n,
        samples=samples,
        seed=seed,
        c=c,
        linear_exponent=_LINEAR_EXPONENT,
        cube_exponent=_CUBE_EXPONENT,
        linear_ratio_max=max(f_vals) / lin_scale,
        cube_ratio_max=max(s_vals) / cube_scale,
        alphas=tuple(alphas),
    )

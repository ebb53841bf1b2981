"""Generating functions, rational approximation, arcs, and exact moments.

Four families of exponential sums are evaluated here, writing e(x) for
exp(2*pi*i*x):

    linear   sum of (log p) e(p a)      over omega*N < p <= N
    cube_u   sum of (log p) e(p^3 a)    over p in (U, 2U]
    cube_v   same with the smaller dyadic scale V = U^(5/6)
    binary   sum of e(2^v a)            over integer v = 1 .. floor(L)

Every phase m*a mod 1 goes through one reduction, _phases.  A rational
a/q is exact up to the final division at any q: (m mod q)(a mod q) mod q
runs in int64 for q <= 2^31, on Python ints above.  A float
a = A/2^s + a_lo, with s the bit length of the largest m (at most 31;
larger m are cut into 31-bit limbs), gives frac(m A / 2^s) exactly in
int64 plus m a_lo < 1 with one rounding: within a few ulp of 1.
m is int64, so cube tables end below MAX_CUBE_HI = 2^21; 2^v is not, so
the binary sum reduces 2^v mod q, reading a float as the dyadic rational
it stores.

The sum over a table of primes, ascending int64 m >= 0, splits each term
by angle addition: with k = ceil(bits(max m)/2),
e(m a) = e((m >> k) 2^k a) e((m & (2^k - 1)) a).  _phases reduces only the
2^k low and about max(m)/2^k high arguments, and each term costs one
gather and one multiply, at most a few ulp more rounding per term.  This
runs whenever the two tables are together smaller than m; otherwise, and
always for the sparse cubes p^3 and the short binary sum, one cos/sin/dot
pass covers every term.  The property tests rely on this accuracy.  What
does not depend on a (k, each term's low bits, the block edges) is one
_BlockPlan, which a PrimeTable keeps beside its log weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import PrimeTable, dyadic_table, sieve_range
from .errors import NON_NEGATIVE_INTEGERS, PHASES, POSITIVE_INTEGERS, DomainError, ResourceError
from .errors import _require_in, _require_odd
from .parallel import map_ordered

KINDS = ("linear", "cube_u", "cube_v", "binary")

MAX_GRID = 1 << 24  # largest grid size M of a bucketed DFT
MAX_QUADRUPLES = 1 << 24  # most ordered cube four-tuples one meet-in-the-middle table holds
MAX_BINARY_TERMS = 1 << 12  # most terms floor(L) of the binary sum; ProblemParams.L < 64
MAX_CUBE_HI = 1 << 21  # cube-sum tables end below this, so every p^3 fits in int64
MAX_RATIO = 1e6  # largest n1/n2 a ProblemParams accepts

# Each tunable's domain (lo, hi, ends) for errors._require_in, stated only here: read by
# ProblemParams, the CLI's config and every function that takes the tunable itself.
DOMAINS = {
    "delta": (0, math.inf, "()"),
    "omega": (0, 1, "()"),
    "eta": (0, 1, "(]"),  # ProblemParams also needs eta < delta/(1+delta)
    "lam": (0, 1, "()"),  # lam^(k-2) must decay for the k threshold to exist
    "epsilon": (0, 1.0 / 18.0, "()"),  # keeps the exponent of p_max positive
    "k": (1, math.inf, "[)Z"),
}
_INDICES = (1, 2, "[]Z")  # a target's index i
_TARGET_BITS = 9 * 1024 // 11  # n1 < 2^837 keeps N^(11/9), the largest power of N in use, finite

_TWO_PI = 2.0 * math.pi
_LIMB_BITS = 31  # m * A stays below 2^62 for m, A < 2^31
_CHUNK = 1 << 19  # terms per cos/sin/dot pass
_BLOCK_CHUNK = 1 << 16  # terms per gather and block sum of _blocked_phase_sum


@dataclass(frozen=True)
class ProblemParams:
    """Problem sizes and tunables, with every derived scale recomputed.

    n1 >= n2 are the two odd targets, n1 below 2^837.  Derived quantities (never stored):

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

    def __post_init__(self):
        n1, n2 = _require_targets(self.n1, self.n2)
        if n1 > MAX_RATIO * n2:
            raise DomainError(f"n1/n2 exceeds expsums.MAX_RATIO = {MAX_RATIO}")
        checked = {name: _require_in(domain, **{name: getattr(self, name)})
                   for name, domain in DOMAINS.items()}
        for name, value in {"n1": n1, "n2": n2, **checked}.items():
            object.__setattr__(self, name, value)
        if not self.eta < self.delta / (1.0 + self.delta):
            raise DomainError(
                "constraint violated: eta < delta/(1+delta) "
                f"(eta={self.eta}, delta/(1+delta)={self.delta / (1 + self.delta)})"
            )
        for i in (1, 2):
            if 2.0 * self.p_max(i) > self.q_max(i):
                raise DomainError(f"arc dissection needs 2 P_{i} <= Q_{i}")

    def n(self, i: int) -> int:
        return self.n2 if _require_in(_INDICES, i=i) == 2 else self.n1

    def u(self, i: int) -> float:
        return _cube_scales(self.n(i), self.delta)[0]

    def v(self, i: int) -> float:
        return _cube_scales(self.n(i), self.delta)[1]

    @property
    def L(self) -> float:
        return _shift_scale(self.n1)

    def p_max(self, i: int) -> float:
        return self.n(i) ** (1.0 / 9.0 - 2.0 * self.epsilon)

    def q_max(self, i: int) -> float:
        return self.n(i) ** (8.0 / 9.0 + self.epsilon)


def _require_targets(n1: int, n2: int) -> tuple[int, int]:
    """n1 and n2 as ints; DomainError unless they are odd integers with 2^837 > n1 >= n2 >= 1."""
    n1, n2 = _require_odd(n1=n1, n2=n2)
    if n1 < n2:
        raise DomainError("n1 >= n2 is required")
    if n1.bit_length() > _TARGET_BITS:
        raise DomainError(f"n1 must be below 2^{_TARGET_BITS}, or N^(11/9) overflows a float")
    return n1, n2


def _cube_scales(n: int, delta: float) -> tuple[float, float]:
    """The cube dyadic scales (u, v) of a target n, as ProblemParams.u and .v."""
    u = (n / (16.0 * (1.0 + delta))) ** (1.0 / 3.0)
    return u, u ** (5.0 / 6.0)


def _shift_scale(n: int) -> float:
    """The powers-of-two cutoff log2(n / log n) of a target n, as ProblemParams.L."""
    return math.log2(n / math.log(n))


def _shift_cap(n: int, eta: float) -> int:
    """floor(eta n) for eta's exact value, in ints: n - s is in [(1 - eta) n, n] iff 0 <= s <= it."""
    num, den = eta.as_integer_ratio()
    return num * n // den


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
        return _split_phases(m, alpha, top)
    q = alpha.denominator
    r = m.astype(np.int64 if q <= 1 << _LIMB_BITS else object, copy=False) % q
    return np.asarray(r * (alpha.numerator % q) % q / q, dtype=np.float64)


def _planned_sum(m: np.ndarray, w: np.ndarray, plan: _BlockPlan | None, alpha) -> complex:
    """sum of w e(m alpha) by plan = _block_plan(m), or by the direct pass where it is None.

    The root tables add at most a few ulp per term to the direct pass's
    rounding, so the two agree to well within 1e-13 * sum |w|.
    """
    if plan is None:
        return _direct_phase_sum(m, w, alpha, int(m.max(initial=0)))
    return _blocked_phase_sum(plan, w, alpha)


def _direct_phase_sum(m: np.ndarray, w: np.ndarray, alpha, top: int) -> complex:
    """The one cos/sin/dot pass over every term, in chunks of _CHUNK terms."""
    total = 0j
    for i in range(0, m.size, _CHUNK):
        theta = _phases(m[i : i + _CHUNK], alpha, top)
        theta *= _TWO_PI
        wi = w[i : i + _CHUNK]
        total += complex(np.dot(wi, np.cos(theta)), np.dot(wi, np.sin(theta, out=theta)))
    return total


def _root_split(m: np.ndarray) -> int:
    """The split k of _block_plan for int64 m, or 0 where the direct pass must run.

    k = ceil(bits(max m) / 2); the tables hold 2^k low roots and one high
    root per block h from m[0] >> k to m[-1] >> k.  They pay only when
    together smaller than m, which needs m ascending from m[0] >= 0.  Only a
    PrimeTable's int64 primes come here: the 2^k > p_max^(3/2) low roots of
    the cubes p^3 outnumber the primes, and the binary residues are Python ints.
    """
    if m.size < 2 or m[0] < 0:
        return 0
    top = int(m[-1])  # the largest, once m is found ascending
    k = (top.bit_length() + 1) // 2
    if (1 << k) + (top >> k) - (int(m[0]) >> k) + 1 >= m.size:
        return 0
    return k if bool(np.all(m[1:] >= m[:-1])) else 0


def _unit_roots(m: np.ndarray, alpha, top: int) -> np.ndarray:
    """e(m alpha) for 0 <= m <= top, through _phases."""
    theta = _phases(m, alpha, top)
    theta *= _TWO_PI
    roots = np.empty(m.size, dtype=np.complex128)
    np.cos(theta, out=roots.real)
    np.sin(theta, out=roots.imag)
    return roots


class _BlockPlan(NamedTuple):
    """The alpha-independent half of _blocked_phase_sum over ascending int64 m >= 0.

    low[t] = m[t] & (2^k - 1); heads are the h 2^k of the non-empty blocks
    of equal h = m >> k; chunk c covers terms c _BLOCK_CHUNK up to
    (c + 1) _BLOCK_CHUNK and holds (edges, j0, j1): the offsets of its
    block starts within the chunk, the first at 0, and the slice j0:j1 of
    heads that they begin.
    """

    k: int
    low: np.ndarray  # uint16 while k <= 16
    heads: np.ndarray
    chunks: list[tuple[np.ndarray, int, int]]


def _block_plan(m: np.ndarray) -> _BlockPlan | None:
    """The plan of _blocked_phase_sum for m, or None where _root_split gives 0."""
    k = _root_split(m)
    if not k:
        return None
    mask = (1 << k) - 1
    heads = np.arange(int(m[0]) >> k, (int(m[-1]) >> k) + 1) << k  # h 2^k, block by block
    starts = np.searchsorted(m, heads)  # where each block begins
    full = np.diff(starts, append=m.size) > 0
    heads, starts = heads[full], starts[full]  # strictly increasing from 0
    low = np.empty(m.size, dtype=np.uint16 if k <= 16 else np.uint32)
    chunks = []
    for a in range(0, m.size, _BLOCK_CHUNK):
        b = min(a + _BLOCK_CHUNK, m.size)
        np.bitwise_and(m[a:b], mask, out=low[a:b], casting="unsafe")  # no int64 temporary
        j0 = int(np.searchsorted(starts, a, side="right")) - 1  # the block holding term a
        j1 = int(np.searchsorted(starts, b))  # blocks that begin before b
        edges = starts[j0:j1] - a
        edges[0] = 0
        chunks.append((edges, j0, j1))
    return _BlockPlan(k, low, heads, chunks)


def _blocked_phase_sum(plan: _BlockPlan, w: np.ndarray, alpha) -> complex:
    """sum of w e(m alpha) for the ascending int64 m >= 0 that plan = _block_plan(m) covers.

    With h = m >> k and l = m & (2^k - 1), e(m alpha) = e(h 2^k alpha) e(l alpha).
    Both tables of roots come from _phases, exact for a rational alpha and
    within a few ulp of a turn for a float, so each product adds at most a
    few ulp.  Per term: one gather from the low table and one weight
    multiply; per block of equal h (contiguous, as m ascends): one sum;
    then one short sum of block sums times high roots.  Chunks of _BLOCK_CHUNK
    terms keep the temporaries small; a block cut by a chunk edge gives two
    partial sums against the same high root.
    """
    mask = (1 << plan.k) - 1
    low = _unit_roots(np.arange(mask + 1), alpha, mask)
    high = _unit_roots(plan.heads, alpha, int(plan.heads[-1]))
    total = 0j
    for a, (edges, j0, j1) in zip(range(0, plan.low.size, _BLOCK_CHUNK), plan.chunks):
        terms = low.take(plan.low[a : a + _BLOCK_CHUNK])
        terms *= w[a : a + _BLOCK_CHUNK]
        total += complex((np.add.reduceat(terms, edges) * high[j0:j1]).sum())
    return total


# ---------------------------------------------------------------------------
# pointwise sums


def linear_table(params: ProblemParams, i: int, *, threads: int = 1) -> PrimeTable:
    """Primes p with omega*N_i < p <= N_i; DomainError unless i is the integer 1 or 2."""
    n = params.n(i)
    lo = max(2, math.floor(params.omega * n) + 1)
    return sieve_range(lo, n, threads=threads)


def eval_linear(params: ProblemParams, i: int, alpha, *, table: PrimeTable | None = None) -> complex:
    """sum of (log p) e(p alpha) over omega*N_i < p <= N_i.

    A table passed in keeps its log weights and block plan for the next call.

    Raises:
        DomainError: alpha not a finite real number, or table not a PrimeTable
    """
    alpha = _require_in(PHASES, alpha=alpha)
    if table is None:
        table = linear_table(params, i)
    return _planned_sum(*_table_terms(table), alpha)


def _table_terms(table: PrimeTable) -> tuple[np.ndarray, np.ndarray, _BlockPlan | None]:
    """A table's primes, log weights and block plan, the last two built once per table."""
    _require_table(table)
    return table.primes, table.log_weights(), table._derived("_block_plan", _block_plan)


def _require_table(table) -> None:
    if not isinstance(table, PrimeTable):
        raise DomainError(f"table must be a PrimeTable, got {table!r}")


def eval_cube(table: PrimeTable, alpha) -> complex:
    """sum of (log p) e(p^3 alpha) over the table's primes.

    Raises:
        DomainError: alpha not a finite real number, or table not a PrimeTable
        ResourceError: table.hi at or above MAX_CUBE_HI, where p^3 can leave int64
    """
    alpha = _require_in(PHASES, alpha=alpha)
    _require_table(table)
    _check_cube_hi(table.hi)
    cubes = table.primes**3
    return _direct_phase_sum(cubes, table.log_weights(), alpha, int(cubes.max(initial=0)))


def _check_cube_hi(hi: int) -> None:
    """Raise ResourceError if a cube table ending at hi reaches MAX_CUBE_HI."""
    if hi >= MAX_CUBE_HI:
        raise ResourceError(f"cube table hi={hi} reaches expsums.MAX_CUBE_HI = {MAX_CUBE_HI}")


def eval_G(L: float, alpha) -> complex:
    """sum of e(2^v alpha) over integer v = 1 .. floor(L).

    Raises:
        DomainError: L < 1, L or alpha not finite
        ResourceError: floor(L) above MAX_BINARY_TERMS
    """
    m = _binary_terms(L)
    alpha = Fraction(_require_in(PHASES, alpha=alpha))  # a float as the dyadic rational it stores
    res = np.array([pow(2, v, alpha.denominator) for v in range(1, m + 1)], dtype=object)
    return _direct_phase_sum(res, np.ones(m), alpha, int(res.max(initial=0)))


def _binary_terms(L) -> int:
    """floor(L), the number of terms of the binary sum, within MAX_BINARY_TERMS."""
    m = math.floor(_require_in((1, math.inf, "[)"), L=L))
    if m > MAX_BINARY_TERMS:
        raise ResourceError(f"binary sum of {m} terms exceeds the term budget "
                            f"expsums.MAX_BINARY_TERMS = {MAX_BINARY_TERMS}")
    return m


# ---------------------------------------------------------------------------
# grid evaluation: the terms' arguments mod M, then one DFT of length M.
# At most bits(M) terms take the Cooley-Tukey product of two root tables of
# about sqrt(M) columns; more are bucketed into one length-M real FFT.


def _grid_terms(kind: str, source, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The arguments b mod M (int64, repeats allowed) and the weights of a sum's terms."""
    if kind == "binary":
        m = _binary_terms(source)
        return np.array([pow(2, v, M) for v in range(1, m + 1)], dtype=np.int64), np.ones(m)
    if kind == "linear":
        _require_table(source)
        return source.primes % M, source.log_weights()
    if kind in ("cube_u", "cube_v"):
        _require_table(source)
        pm = source.primes % M
        return (pm * pm % M) * pm % M, source.log_weights()  # stepwise keeps int64 exact
    raise DomainError(f"unknown sum kind {kind!r}")


def _grid_size(M) -> int:
    """M as an int, checked before any term is built: an integer from 2 to MAX_GRID."""
    M = _require_in((2, math.inf, "[)Z"), M=M)
    if M > MAX_GRID:
        raise ResourceError(f"grid size {M} exceeds expsums.MAX_GRID = {MAX_GRID}")
    return M


def _fft_length(m: int) -> int:
    """The least 5-smooth length >= m, numpy's fast FFT sizes: 2^a 3^b 5^c for m >= 1.

    Each odd part k = 3^b 5^c below the best length so far offers the
    least k 2^a >= m; a larger k cannot improve on it.
    """
    best = 1 << (m - 1).bit_length()
    three = 1
    while three < best:
        k = three
        while k < best:
            best = min(best, k << (-(-m // k) - 1).bit_length())
            k *= 5
        three *= 3
    return best


def _half_spectrum(b: np.ndarray, w: np.ndarray, M: int) -> np.ndarray:
    """sum of w e(-b j/M) over the terms, for j = 0..M//2: the conjugate values at j/M.

    b (int64, in [0, M)) and w are the terms as _grid_terms gives them, and
    M has passed _grid_size.  A sum of at most bits(M) terms splits
    j = j_lo + J j_hi with J = ceil(sqrt(M//2 + 1)) and takes one product
    of the tables e(-b J j_hi/M) times w and e(-b j_lo/M), about T M/2
    complex multiply-adds for T terms; the reductions b j mod M are exact,
    below 2^48 at MAX_GRID.  Larger sums are bucketed into one length-M
    real FFT, about M log2(M); the product was measured slower only from
    about 50 terms at M = 2^16, 128 to 256 at 2^20 and over 256 at 2^21.
    """
    if b.size > M.bit_length():
        return np.fft.rfft(np.bincount(b, weights=w, minlength=M))
    n = M // 2 + 1
    J = math.isqrt(n - 1) + 1
    turn = Fraction(-1, M)

    def roots(j: np.ndarray) -> np.ndarray:
        m = np.multiply.outer(b, j)
        return _unit_roots(m.ravel(), turn, M - 1).reshape(m.shape)

    high = roots(J * np.arange(-(-n // J)))
    high *= w[:, None]
    return (high.T @ roots(np.arange(J))).ravel()[:n]


def eval_grid(kind: str, source, M: int) -> np.ndarray:
    """Values at alpha = j/M for j = 0..M-1, as one complex array.

    The half spectrum of _half_spectrum, a product of two root tables for a
    sum of at most bits(M) terms and a bucketed real FFT otherwise, gives
    the value at j/M for j <= M//2 exactly up to rounding, because e(b j/M)
    only depends on b mod M.  The weights are real, so the value at
    (M - j)/M is the conjugate of the value at j/M.

    Raises:
        DomainError: an unknown kind, M not an integer >= 2, or a source not a
            PrimeTable (not a valid L for the binary kind)
        ResourceError: M above MAX_GRID
    """
    M = _grid_size(M)
    half = _half_spectrum(*_grid_terms(kind, source, M), M)
    out = np.empty(M, dtype=np.complex128)
    np.conjugate(half, out=out[: M // 2 + 1])
    out[M // 2 + 1 :] = half[1 : (M + 1) // 2][::-1]
    return out


# ---------------------------------------------------------------------------
# rational approximation and arc dissection

# alpha's domain at an arc query: it holds every [1/Q, 1 + 1/Q] with room for a rounded
# endpoint, and an exact alpha inside it divides num / den into a float
_ARC_PHASES = (0, 3, "()Q")


def _convergents(num: int, den: int, cap: int) -> list[tuple[int, int]]:
    """Continued-fraction convergents p/q of num/den with q <= cap, in order."""
    out = []
    p0, q0, p1, q1 = 0, 1, 1, 0
    while den:
        t, r = divmod(num, den)
        num, den = den, r
        p0, q0, p1, q1 = p1, q1, t * p1 + p0, t * q1 + q0
        if q1 > cap:  # no later q is smaller
            break
        out.append((p1, q1))
    return out


def dirichlet_approx(alpha, Q: int) -> DirichletApprox:
    """Best rational a/q with 1 <= a <= q <= Q and |alpha - a/q| <= 1/(qQ).

    Computed from the continued-fraction convergents of the exact value
    num/den of alpha; validity of the returned pair is checked exactly in
    integers, |num q - p den| Q <= den, and theta = (num q - p den)/(den q)
    is the correctly rounded quotient.

    Raises:
        DomainError: Q not an integer or < 1, alpha not finite or outside [1/Q, 1 + 1/Q]
    """
    num, den = _require_in(_ARC_PHASES, alpha=alpha).as_integer_ratio()  # in lowest terms
    Q = _require_in(POSITIVE_INTEGERS, Q=Q)
    x = num / den
    # a float that is the rounded endpoint 1/Q or (Q + 1)/Q counts as it; int / int rounds once
    if num * Q != den and math.isclose(x, 1 / Q, rel_tol=4e-16, abs_tol=0.0):
        num, den = 1, Q
    elif num * Q != (Q + 1) * den and math.isclose(x, 1 + 1 / Q, rel_tol=4e-16, abs_tol=0.0):
        num, den = Q + 1, Q
    if not den <= num * Q <= (Q + 1) * den:
        raise DomainError(f"alpha={num / den} outside [1/Q, 1+1/Q] for Q={Q}")

    def valid(p: int, q: int) -> bool:
        return 1 <= p <= q <= Q and abs(num * q - p * den) * Q <= den

    # alpha in (1, 1+1/Q] can leave only the trivial approximation valid
    for p, q in reversed([(1, 1)] + _convergents(num, den, Q)):
        if valid(p, q):
            return DirichletApprox(a=p, q=q, theta=(num * q - p * den) / (den * q), Q=Q)
    raise DomainError(f"no admissible rational approximation for alpha={num / den}, Q={Q}")


def classify_arc(params: ProblemParams, i: int, alpha) -> ArcLabel:
    """Major(a, q) iff |alpha - a/q| <= 1/(q Q_i) for some q <= P_i, (a,q)=1.

    Since 2 P_i <= Q_i, any admissible a/q is a continued-fraction
    convergent of alpha, so scanning convergents with q <= P_i decides
    membership; the arcs are disjoint, so at most one label can match.
    """
    num, den = _require_in(_ARC_PHASES, alpha=alpha).as_integer_ratio()
    q_cap = params.q_max(i)
    x = num / den
    if not (1.0 / q_cap <= x <= 1.0 + 1.0 / q_cap):
        raise DomainError(f"alpha={x} outside [1/Q_{i}, 1+1/Q_{i}]")
    for p, q in _convergents(num, den, math.floor(params.p_max(i))):
        # |alpha - p/q|, correctly rounded, against the float arc radius
        if 1 <= p <= q and abs((num * q - p * den) / (den * q)) <= 1.0 / (q * q_cap):
            return ArcLabel("major", a=p, q=q)
    return ArcLabel("minor")


# ---------------------------------------------------------------------------
# exact moments


def moment2_exact(table: PrimeTable) -> float:
    """Exact value of the 0..1 mean-square integral of the weighted sum.

    By orthogonality this is sum of log^2 p: the frequencies (p for the
    linear sum, p^3 for the cube sums) are distinct integers, so one value
    serves every kind.
    """
    _require_table(table)
    w = table.log_weights()
    return float(np.dot(w, w))


def moment_ST4_exact(U: int, V: int) -> float:
    """Exact fourth moment of the product of the two cube sums.

    Equals the log-weighted count of solutions of

        p1^3 + p2^3 + q1^3 + q2^3 = p3^3 + p4^3 + q3^3 + q4^3

    with p_j in (U, 2U] and q_j in (V, 2V], computed by bucketing the
    weighted left-side sums (meet in the middle) and summing the squares
    of the bucket weights.

    Raises:
        DomainError: U or V not an integer, or negative
        ResourceError: more four-tuples than MAX_QUADRUPLES
    """
    U, V = _require_in(NON_NEGATIVE_INTEGERS, U=U, V=V)
    tu = dyadic_table(U)
    tv = dyadic_table(V)
    if len(tu) == 0 or len(tv) == 0:
        return 0.0
    _check_quadruples(len(tu), len(tv))
    _, bucket = _quadruple_buckets(tu.primes, tv.primes, (tu.log_weights(), tv.log_weights()))
    return float(np.dot(bucket, bucket))


def _check_quadruples(nu: int, nv: int) -> None:
    """Raise ResourceError if nu primes u and nv primes v make over MAX_QUADRUPLES four-tuples."""
    if (n := (nu * nv) ** 2) > MAX_QUADRUPLES:
        raise ResourceError(f"{n} four-tuples exceed expsums.MAX_QUADRUPLES = {MAX_QUADRUPLES}")


def _quadruple_buckets(primes_u, primes_v, weights=None):
    """Distinct sums a^3 + b^3 + c^3 + d^3 and the total weight of each.

    a, b run over primes_u and c, d over primes_v, all ordered.  A tuple
    weighs the product of its four entries of weights = (w_u, w_v), or 1
    when weights is None, which makes the buckets exact integer counts.
    """
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
        DomainError: i not the integer 1 or 2; samples, seed or threads not
            an integer; samples outside [1, 2^16], seed < 0, or c outside [-64, 64]
    """
    samples = _require_in((1, 1 << 16, "[]Z"), samples=samples)  # each is one full linear sum
    seed = _require_in(NON_NEGATIVE_INTEGERS, seed=seed)  # threads: as sieve_range, in linear_table
    c = _require_in((-64, 64, "[]"), c=c)  # keeps (log N)^c a finite, nonzero float
    i = _require_in(_INDICES, i=i)
    n = params.n(i)
    q_cap = params.q_max(i)
    rng = np.random.default_rng(seed)
    alphas: list[float] = []
    while len(alphas) < samples:
        x = rng.uniform(1.0 / q_cap, 1.0 + 1.0 / q_cap)
        if not classify_arc(params, i, x).is_major:
            alphas.append(float(x))

    terms = _table_terms(linear_table(params, i, threads=threads))  # before the threads share them
    cube = dyadic_table(params.u(i))
    f_vals = map_ordered(lambda x: abs(_planned_sum(*terms, x)), alphas, threads)
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

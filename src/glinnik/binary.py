"""Powers-of-2 combinatorics: admissible shift sets, level-set measure, pair sums.

enum_Xi enumerates n = N - 2^(v1) - ... - 2^(vk) with v_j in 1..floor(L)
that land in the window [(1-eta) N, N], with exact ordered-tuple
multiplicities.  measure_sigma estimates the measure of the set where the
binary sum is large.  j_sum_exact evaluates the exact prime-difference
pair sum over all shift quadruples at desk scale, reading every difference
count off one FFT autocorrelation whose values must round to integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import sieve_range
from .errors import DomainError, NumericalIntegrityError, ResourceError
from .expsums import ProblemParams, _half_spectrum, _require_finite, eval_G

DEFAULT_NODE_BUDGET = 5_000_000
MAX_SHIFT_COUNT = 1 << 12  # k! is formed before any pruning; the paper's k is 231
MAX_JSUM_N = 10**7
MAX_JSUM_LCAP = 24


@dataclass(frozen=True)
class XiSet:
    """Window values with ordered-tuple multiplicities, ascending in n."""

    N: int
    k: int
    eta: float
    L: float
    entries: tuple[tuple[int, int], ...]

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.entries)

    def total_multiplicity(self) -> int:
        return sum(c for _, c in self.entries)


@dataclass(frozen=True)
class MeasureEstimate:
    lam: float
    L: float
    grid: int
    measure: float
    empirical_exponent: float | None


@dataclass(frozen=True)
class JSumExact:
    n1: int
    n2: int
    l_cap: int
    omega: float
    value: float
    ratio: float
    diagonal: float


def _power_multisets(k: int, v_max: int, s_allow: float, node_budget: int):
    """Yield (sum, ordered-count, exponents) per multiset v1 <= ... <= vk.

    Exponents range over 1..v_max; branches are pruned once the smallest
    possible completion exceeds s_allow; the ordered count of a multiset
    with run lengths c_1..c_m is k! / (c_1! ... c_m!).  Multisets come in
    lexicographic order of their non-decreasing exponent tuples, which is
    more copies of v before fewer.
    """
    if k > MAX_SHIFT_COUNT:
        raise ResourceError(f"k={k} exceeds the shift-count budget (k <= {MAX_SHIFT_COUNT})")
    fact = math.factorial(k)
    nodes = 0

    def rec(v_start: int, remaining: int, partial: int, denom: int, prefix: tuple[int, ...]):
        nonlocal nodes
        if remaining == 0:
            yield partial, fact // denom, prefix
            return
        for v in range(v_start, v_max + 1):
            step = 1 << v
            if partial + remaining * step > s_allow:
                return  # larger v only raises the minimal completion
            for c in range(remaining, 0, -1):
                s = partial + c * step
                left = remaining - c
                if s > s_allow or (left > 0 and (v == v_max or s + left * (step * 2) > s_allow)):
                    continue  # too large, or cannot finish with exactly c copies of v
                nodes += 1
                if nodes > node_budget:
                    raise ResourceError(
                        f"shift-multiset enumeration exceeded the node budget ({node_budget})"
                    )
                yield from rec(v + 1, left, s, denom * math.factorial(c), prefix + (v,) * c)

    yield from rec(1, k, 0, 1, ())


def _shift_cap(k: int, eta: float, L: float) -> int:
    """The largest shift exponent floor(L), after checking k, eta and L."""
    _require_finite(eta=eta, L=L)
    if k < 1:
        raise DomainError("k must be >= 1")
    if L < 1:
        raise DomainError("L must be >= 1")
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta must lie in (0, 1], got {eta}")
    return math.floor(L)


def enum_Xi(
    N: int, k: int, eta: float, L: float, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> XiSet:
    """Exact enumeration of window members with ordered multiplicities.

    Raises:
        DomainError: invalid N/k/L, eta outside (0, 1], eta or L not finite
        ResourceError: enumeration exceeds the node budget
    """
    if N % 2 == 0:
        raise DomainError("N must be odd")
    v_max = _shift_cap(k, eta, L)
    window_lo = (1.0 - eta) * N
    counts: dict[int, int] = {}
    # the +1 slack keeps pruning strictly weaker than the exact window test
    for s, mult, _ in _power_multisets(k, v_max, eta * N + 1.0, node_budget):
        n = N - s
        if n >= window_lo:
            counts[n] = counts.get(n, 0) + mult
    entries = tuple(sorted(counts.items()))
    return XiSet(N=N, k=k, eta=eta, L=L, entries=entries)


def count_pairs(
    N1: int,
    N2: int,
    k: int,
    eta: float,
    L: float,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Ordered tuples whose shift sum is admissible for both N1 and N2."""
    if N1 % 2 == 0 or N2 % 2 == 0:
        raise DomainError("N1 and N2 must be odd")
    v_max = _shift_cap(k, eta, L)
    s_allow = min(eta * N1, eta * N2) + 1.0
    total = 0
    for s, mult, _ in _power_multisets(k, v_max, s_allow, node_budget):
        if N1 - s >= (1.0 - eta) * N1 and N2 - s >= (1.0 - eta) * N2:
            total += mult
    return total


def measure_sigma(lam: float, L: float, grid: int) -> MeasureEstimate:
    """Measure of the set of alpha in [0, 1) where the binary sum >= lam * L.

    |G| on the grid j/grid comes from the bucketed shifts and one real
    DFT: the half spectrum is thresholded and mirrored, since G at
    (grid - j)/grid is the conjugate of G at j/grid.  Grid cells are
    judged by their endpoints; cells whose endpoints disagree are refined
    one bisection level with a pointwise midpoint evaluation.  The
    empirical exponent -log(measure)/log(2^L * L) is diagnostic only.

    Raises:
        DomainError: lam negative or not finite, L < 1 or not finite,
            grid < 2^10
        ResourceError: grid above expsums.DEFAULT_GRID_BUDGET
    """
    _require_finite(lam=lam, L=L)
    if grid < (1 << 10):
        raise DomainError("grid must be >= 2^10")
    if L < 1:
        raise DomainError("L must be >= 1")
    if lam < 0:
        raise DomainError("lambda must be >= 0")
    threshold = lam * L
    half = np.abs(_half_spectrum("binary", L, grid)) >= threshold
    ind = np.concatenate((half, half[1 : (grid + 1) // 2][::-1]))
    crossing = ind != np.roll(ind, -1)
    measure = int(np.count_nonzero(ind & ~crossing)) / grid
    for j in np.nonzero(crossing)[0]:
        mid_in = abs(eval_G(L, (2 * int(j) + 1) / (2 * grid))) >= threshold
        measure += (0.5 * bool(ind[j]) + 0.5 * mid_in) / grid
    n_star = 2.0**L * L
    exponent = None if measure <= 0.0 else -math.log(measure) / math.log(n_star)
    return MeasureEstimate(lam=lam, L=L, grid=grid, measure=measure, empirical_exponent=exponent)


def _difference_counts(omega: float, n: int, lags: np.ndarray) -> list[int]:
    """Pairs p1 - p2 = d of primes in (omega n, n], for each d >= 0 in lags.

    The indicator of the window, zero-padded to a fast FFT length of at
    least the window plus the largest lag below it (so no such lag wraps
    round), goes through rfft, |X|^2 and irfft; lags at or beyond the
    window have no pairs.

    Raises:
        NumericalIntegrityError: a count is further than 0.25 from an integer
    """
    lo = math.floor(omega * n)
    top = min(int(lags.max()), n - lo - 1) + 1
    m = n - lo + top
    odd = (3**b * 5**c for b in range(m.bit_length()) for c in range(m.bit_length()))
    nf = min(k << (-(-m // k) - 1).bit_length() for k in odd)  # the least 5-smooth nf >= m
    x = np.zeros(nf)
    x[sieve_range(max(2, lo + 1), n).primes - (lo + 1)] = 1.0
    spec = np.fft.rfft(x)
    del x
    np.multiply(spec, spec.conj(), out=spec)
    corr = np.fft.irfft(spec, nf)[:top]
    counts = np.rint(corr)
    if np.max(np.abs(corr - counts)) > 0.25:
        raise NumericalIntegrityError("an autocorrelation count is over 0.25 from an integer")
    return np.where(lags < top, counts[np.minimum(lags, top - 1)], 0).astype(np.int64).tolist()


def j_sum_exact(params: ProblemParams, L_cap: int) -> JSumExact:
    """Exact shift-quadruple pair sum over both prime ranges.

    For every (m1..m4) in [1, L_cap]^4 the term is the product over i of
    the number r_i(d) of prime pairs in (omega N_i, N_i] differing by
    d = 2^m1 + 2^m2 - 2^m3 - 2^m4.  Tuples are grouped by d; all r_i(d)
    come from one FFT autocorrelation of the range's prime indicator,
    computed once when both ranges are equal, and each must round to an
    integer within 0.25.  Terms are added in ascending order of signed d.
    The ratio against N1 N2 L^4 / (log N1 log N2)^2 is reported only,
    never asserted (L here is L_cap, the actual shift range used).

    Raises:
        ResourceError: N_i above MAX_JSUM_N, or L_cap outside [1, MAX_JSUM_LCAP]
        NumericalIntegrityError: an autocorrelation count fails to round
    """
    if params.n(1) > MAX_JSUM_N or params.n(2) > MAX_JSUM_N:
        raise ResourceError(f"pair-sum tables need N_i <= {MAX_JSUM_N}")
    if not 1 <= L_cap <= MAX_JSUM_LCAP:
        raise ResourceError(f"L_cap must be in [1, {MAX_JSUM_LCAP}]")

    powers = 1 << np.arange(1, L_cap + 1)
    pair_sums = (powers[:, None] + powers).ravel()
    distinct, mult = np.unique(pair_sums[:, None] - pair_sums, return_counts=True)
    n1, n2 = params.n(1), params.n(2)
    r = {n: _difference_counts(params.omega, n, np.abs(distinct)) for n in {n1, n2}}
    total = 0.0
    for c, c1, c2 in zip(mult.tolist(), r[n1], r[n2]):
        total += c * c1 * c2

    m, zero = L_cap, int(np.searchsorted(distinct, 0))
    diagonal = float((2 * m * m - m) * r[n1][zero] * r[n2][zero])
    ratio = total * (math.log(n1) * math.log(n2)) ** 2 / (n1 * n2 * float(L_cap) ** 4)
    return JSumExact(
        n1=n1,
        n2=n2,
        l_cap=L_cap,
        omega=params.omega,
        value=total,
        ratio=ratio,
        diagonal=diagonal,
    )

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
from fractions import Fraction

import numpy as np

from .arith import sieve_range
from .errors import POSITIVE_INTEGERS, NumericalIntegrityError, ResourceError
from .errors import _require_in, _require_odd
from .expsums import DOMAINS, ProblemParams, _binary_terms, _half_spectrum, _unit_roots

MAX_NODES = 5_000_000  # shift-multiset enumeration nodes, for xi, count_pairs and the searches
MAX_SHIFT_COUNT = 1 << 12  # k! is formed before any pruning; the paper's k is 231
MAX_JSUM_N = 10**7
MAX_JSUM_LCAP = 24
_MIDPOINT_CHUNK = 1 << 16  # phases per pass of the level-set refinement


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


def _power_multisets(k: int, v_max: int, s_allow: float):
    """Yield (sum, ordered-count, exponents) per multiset v1 <= ... <= vk.

    Exponents range over 1..v_max; branches are pruned once the smallest
    possible completion exceeds s_allow; the ordered count of a multiset
    with run lengths c_1..c_m is k! / (c_1! ... c_m!).  Multisets come in
    lexicographic order of their non-decreasing exponent tuples, which is
    more copies of v before fewer.
    """
    if k > MAX_SHIFT_COUNT:
        raise ResourceError(f"k={k} exceeds the shift-count budget "
                            f"binary.MAX_SHIFT_COUNT = {MAX_SHIFT_COUNT}")
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
                if nodes > MAX_NODES:
                    raise ResourceError(
                        f"shift-multiset enumeration exceeded binary.MAX_NODES = {MAX_NODES}"
                    )
                yield from rec(v + 1, left, s, denom * math.factorial(c), prefix + (v,) * c)

    yield from rec(1, k, 0, 1, ())


def _shift_cap(k: int, eta: float, L: float) -> int:
    """The largest shift exponent floor(L), after checking k, eta and L."""
    _require_in(DOMAINS["k"], k=k)
    _require_in(DOMAINS["eta"], eta=eta)
    _require_in((1, math.inf, "[)"), L=L)
    return math.floor(L)


def enum_Xi(N: int, k: int, eta: float, L: float) -> XiSet:
    """Exact enumeration of window members with ordered multiplicities.

    Raises:
        DomainError: N not an odd integer >= 1, k or eta outside DOMAINS, L < 1 or not finite
        ResourceError: enumeration beyond MAX_NODES
    """
    _require_odd(N=N)
    v_max = _shift_cap(k, eta, L)
    window_lo = (1.0 - eta) * N
    counts: dict[int, int] = {}
    # the +1 slack keeps pruning strictly weaker than the exact window test
    for s, mult, _ in _power_multisets(k, v_max, eta * N + 1.0):
        n = N - s
        if n >= window_lo:
            counts[n] = counts.get(n, 0) + mult
    entries = tuple(sorted(counts.items()))
    return XiSet(N=N, k=k, eta=eta, L=L, entries=entries)


def count_pairs(N1: int, N2: int, k: int, eta: float, L: float) -> int:
    """Ordered tuples admissible for both N1 and N2, in either order (raises as enum_Xi)."""
    _require_odd(N1=N1, N2=N2)
    v_max = _shift_cap(k, eta, L)
    s_allow = min(eta * N1, eta * N2) + 1.0
    total = 0
    for s, mult, _ in _power_multisets(k, v_max, s_allow):
        if N1 - s >= (1.0 - eta) * N1 and N2 - s >= (1.0 - eta) * N2:
            total += mult
    return total


def measure_sigma(lam: float, L: float, grid: int) -> MeasureEstimate:
    """Measure of the set of alpha in [0, 1) where the binary sum >= lam * L.

    |G| on the grid j/grid comes from one DFT of the shifts (expsums'
    _half_spectrum): the half spectrum is thresholded and mirrored, since G at
    (grid - j)/grid is the conjugate of G at j/grid.  Grid cells are
    judged by their endpoints; cells whose endpoints disagree are refined
    one bisection level by |G| at their midpoints, all in one pass.  The
    empirical exponent -log(measure)/log(2^L * L) is diagnostic only.

    Raises:
        DomainError: lam negative or not finite, L outside [1, 1000] (so
            2^L * L is a finite float), grid not an integer or below 2^10
        ResourceError: grid above expsums.MAX_GRID, or floor(L) above
            expsums.MAX_BINARY_TERMS (checked before L <= 1000)
    """
    return _level_sets((lam,), L, grid)[0]


def _level_sets(lams, L: float, grid: int) -> list[MeasureEstimate]:
    """measure_sigma(lam, L, grid) for each lam in lams, from one spectrum.

    Every lam is checked, then L and grid (raising as measure_sigma),
    before the one half spectrum of the grid is built and thresholded per lam.
    """
    for lam in lams:
        _require_in((0, math.inf, "[)"), lam=lam)
    _binary_terms(L)
    _require_in((1, 1000, "[]"), L=L)
    _require_in((1 << 10, math.inf, "[)Z"), grid=grid)
    grid = int(grid)  # a numpy integer breaks three-argument pow
    spectrum = np.abs(_half_spectrum("binary", L, grid))
    n_star = 2.0**L * L
    out = []
    for lam in lams:
        threshold = lam * L
        half = spectrum >= threshold
        ind = np.concatenate((half, half[1 : (grid + 1) // 2][::-1]))
        crossing = ind != np.roll(ind, -1)
        j = np.flatnonzero(crossing)
        mid_in = _midpoint_abs_G(L, grid, j) >= threshold
        inside = int(np.count_nonzero(ind & ~crossing)) / grid
        steps = np.concatenate(([inside], (0.5 * ind[j] + 0.5 * mid_in) / grid))
        measure = float(np.add.accumulate(steps)[-1])  # in order, not pairwise like np.sum
        exponent = None if measure <= 0.0 else -math.log(measure) / math.log(n_star)
        out.append(MeasureEstimate(lam=lam, L=L, grid=grid, measure=measure,
                                   empirical_exponent=exponent))
    return out


def _midpoint_abs_G(L: float, grid: int, j: np.ndarray) -> np.ndarray:
    """|G| at the cell midpoints (2j + 1)/(2 grid), _MIDPOINT_CHUNK phases at a time.

    2^v (2j + 1) is formed in int64 from 2^v mod 2 grid, below 2^50 while
    grid <= expsums.MAX_GRID = 2^24, and reduced exactly by _unit_roots.
    """
    q = 2 * grid
    powers = np.array([pow(2, v, q) for v in range(1, _binary_terms(L) + 1)], dtype=np.int64)
    alpha = Fraction(1, q)
    step = max(1, _MIDPOINT_CHUNK // powers.size)
    out = np.empty(j.size)
    for a in range(0, j.size, step):
        m = powers[:, None] * (2 * j[a : a + step] + 1)
        out[a : a + step] = np.abs(_unit_roots(m.ravel(), alpha, q * q).reshape(m.shape).sum(axis=0))
    return out


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
        DomainError: L_cap not an integer, or L_cap < 1
        ResourceError: N_i above MAX_JSUM_N, or L_cap above MAX_JSUM_LCAP
        NumericalIntegrityError: an autocorrelation count fails to round
    """
    _require_in(POSITIVE_INTEGERS, L_cap=L_cap)
    if params.n(1) > MAX_JSUM_N or params.n(2) > MAX_JSUM_N:
        raise ResourceError(f"pair-sum tables need N_i <= binary.MAX_JSUM_N = {MAX_JSUM_N}")
    if L_cap > MAX_JSUM_LCAP:
        raise ResourceError(f"L_cap must be at most binary.MAX_JSUM_LCAP = {MAX_JSUM_LCAP}")

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

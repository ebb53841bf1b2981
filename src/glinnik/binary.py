"""Powers-of-2 combinatorics: admissible shift sets, level-set measure, pair sums.

enum_Xi enumerates n = N - 2^(v1) - ... - 2^(vk) with v_j in 1..floor(L)
that land in the window [(1-eta) N, N], with exact ordered-tuple
multiplicities.  The window is decided once, in integers, for any odd N:
the shift sum s = N - n is at most expsums._shift_cap(N, eta), floor(eta N)
for eta's exact binary value, and only the enumerator applies that cap.
measure_sigma estimates the measure of the set where the binary sum is
large.  j_sum_exact evaluates the exact prime-difference pair sum over all
shift quadruples at desk scale, reading every difference count off one FFT
autocorrelation whose values must round to integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import sieve_range
from .errors import POSITIVE_INTEGERS, NumericalIntegrityError, ResourceError
from .errors import _require_in, _require_odd
from .expsums import DOMAINS, ProblemParams, _binary_terms, _fft_length, _grid_size, _half_spectrum
from .expsums import _shift_cap

MAX_NODES = 5_000_000  # shift-multiset enumeration nodes, for xi, count_pairs and the searches
MAX_SHIFT_COUNT = 1 << 12  # k! is formed before any pruning; the paper's k is 231
MAX_JSUM_N = 10**7
MAX_JSUM_LCAP = 24
# An exact tie |G| = lam L (|G(1/2)| = L, say) comes out of the spectrum some
# ulp of L above or below, as the rounding path falls; the level set is closed,
# so |G| counts as inside from lam L - _TIE_SLACK L on.
_TIE_SLACK = 1e-12


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


def _power_multisets(k: int, v_max: int, s_max: int):
    """Yield (sum, ordered-count, exponents) per multiset v1 <= ... <= vk with sum <= s_max.

    Exponents range over 1..v_max; s_max is an int, the one exact window
    test, and branches are pruned once the least completion exceeds it.
    The ordered count of a multiset with run lengths c_1..c_m is
    k! / (c_1! ... c_m!).  Multisets come in lexicographic order of their
    non-decreasing exponent tuples, which is more copies of v before fewer.
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
            if partial + remaining * step > s_max:
                return  # larger v only raises the minimal completion
            for c in range(remaining, 0, -1):
                s = partial + c * step
                left = remaining - c
                if s > s_max or (left > 0 and (v == v_max or s + left * (step * 2) > s_max)):
                    continue  # too large, or cannot finish with exactly c copies of v
                nodes += 1
                if nodes > MAX_NODES:
                    raise ResourceError(
                        f"shift-multiset enumeration exceeded binary.MAX_NODES = {MAX_NODES}"
                    )
                yield from rec(v + 1, left, s, denom * math.factorial(c), prefix + (v,) * c)

    yield from rec(1, k, 0, 1, ())


def _shift_args(k: int, eta: float, L: float) -> tuple[int, float, float]:
    """k, eta and L as an int and two floats, after checking each against its domain."""
    return (_require_in(DOMAINS["k"], k=k), _require_in(DOMAINS["eta"], eta=eta),
            _require_in((1, math.inf, "[)"), L=L))


def enum_Xi(N: int, k: int, eta: float, L: float) -> XiSet:
    """Exact enumeration of window members with ordered multiplicities.

    Raises:
        DomainError: N not an odd integer >= 1, k or eta outside DOMAINS, L < 1 or not finite
        ResourceError: enumeration beyond MAX_NODES
    """
    N = _require_odd(N=N)
    k, eta, L = _shift_args(k, eta, L)
    counts: dict[int, int] = {}
    for s, mult, _ in _power_multisets(k, math.floor(L), _shift_cap(N, eta)):
        counts[N - s] = counts.get(N - s, 0) + mult
    entries = tuple(sorted(counts.items()))
    return XiSet(N=N, k=k, eta=eta, L=L, entries=entries)


def count_pairs(N1: int, N2: int, k: int, eta: float, L: float) -> int:
    """Ordered tuples admissible for both N1 and N2, in either order (raises as enum_Xi)."""
    N1, N2 = _require_odd(N1=N1, N2=N2)
    k, eta, L = _shift_args(k, eta, L)
    s_max = min(_shift_cap(N1, eta), _shift_cap(N2, eta))
    return sum(mult for _, mult, _ in _power_multisets(k, math.floor(L), s_max))


def measure_sigma(lam: float, L: float, grid: int) -> MeasureEstimate:
    """Measure of the set of alpha in [0, 1) where the binary sum >= lam * L.

    Every v >= 1, so G(alpha) = H(2 alpha) with H(beta) the sum of
    e(2^u beta) over u < floor(L), and one DFT of H at length grid
    (expsums' _half_spectrum, mirrored) gives |G| at every grid point
    j/grid (index 2j mod grid) and cell midpoint (2j + 1)/(2 grid) (index
    2j + 1 mod grid).  A cell counts by its endpoints; where they disagree
    it counts half, plus half if its midpoint is inside.  |G| counts as
    inside from lam * L - _TIE_SLACK * L on, so exact ties lie in the
    closed set.  The empirical exponent -log(measure)/log(2^L * L) is
    diagnostic only.

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
    before the one half spectrum of H at length grid is built.  Per lam it
    is thresholded, read at k = 2j mod grid for the grid points up to
    grid//2 and mirrored to the rest (G, too, has conjugate symmetry), and
    read at k = 2j + 1 mod grid, folded to grid - k above grid//2, for the
    midpoints of the crossing cells.
    """
    lams = [_require_in((0, math.inf, "[)"), lam=lam) for lam in lams]
    m = _binary_terms(L)
    L = _require_in((1, 1000, "[]"), L=L)
    grid = _grid_size(_require_in((1 << 10, math.inf, "[)Z"), grid=grid))
    powers = np.array([pow(2, u, grid) for u in range(m)], dtype=np.int64)
    spectrum = np.abs(_half_spectrum(powers, np.ones(m), grid))
    n_star = 2.0**L * L
    out = []
    for lam in lams:
        half = spectrum >= lam * L - _TIE_SLACK * L  # at k/grid, k <= grid//2
        # at j/grid, j <= grid//2: k = 2j up to grid//2, then the mirror grid - 2j
        upper = np.concatenate((half[::2], half[grid % 2 : (grid + 1) // 2 : 2][::-1]))
        ind = np.concatenate((upper, upper[1 : (grid + 1) // 2][::-1]))
        j = np.flatnonzero(ind != np.roll(ind, -1))  # the crossing cells
        k = (2 * j + 1) % grid
        mid = half[np.minimum(k, grid - k)]
        inside = (int(np.count_nonzero(ind)) - int(np.count_nonzero(ind[j]))) / grid
        steps = np.concatenate(([inside], (0.5 * ind[j] + 0.5 * mid) / grid))
        measure = float(np.add.accumulate(steps)[-1])  # in order, not pairwise like np.sum
        exponent = None if measure <= 0.0 else -math.log(measure) / math.log(n_star)
        out.append(MeasureEstimate(lam=lam, L=L, grid=grid, measure=measure,
                                   empirical_exponent=exponent))
    return out


def _difference_counts(omega: float, n: int, lags: np.ndarray) -> list[int]:
    """Pairs p1 - p2 = d of primes in (omega n, n], for each d >= 0 in lags.

    The indicator of the window, zero-padded to expsums._fft_length of
    the window plus the largest lag below it (the least 5-smooth length,
    so no such lag wraps round), goes through rfft, |X|^2 and irfft; lags
    at or beyond the window have no pairs.

    Raises:
        NumericalIntegrityError: a count is further than 0.25 from an integer
    """
    lo = math.floor(omega * n)
    top = min(int(lags.max()), n - lo - 1) + 1
    nf = _fft_length(n - lo + top)
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
    L_cap = _require_in(POSITIVE_INTEGERS, L_cap=L_cap)
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
    ratio = total * (math.log(n1) * math.log(n2)) ** 2 / (n1 * n2 * L_cap**4)
    return JSumExact(
        n1=n1,
        n2=n2,
        l_cap=L_cap,
        omega=params.omega,
        value=total,
        ratio=ratio,
        diagonal=diagonal,
    )

"""The singular integral: closed-form constant, Monte Carlo, exact lattice sum.

The object is the weighted count over m1 + m2 + m3 + m4 + m5 = n of
(m2 m3 m4 m5)^(-2/3), with m2, m3 ranging over the dyadic cube block
(U^3, 8 U^3], m4, m5 over (V^3, 8 V^3], and m1 confined to the support
(omega N, N] of the linear sum.  When the m1 constraint does not bind,
the four factors separate and each contributes the integral of u^(-2/3)
over one dyadic block, which is 3 U (resp. 3 V); dividing by N^(11/9)
then leaves the pure constant computed by jn_closed_form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .expsums import ProblemParams
from .parallel import map_ordered

MC_BATCH = 1 << 16
MAX_MC_SAMPLES = 1 << 30
_MAX_LATTICE_U = 50


@dataclass(frozen=True)
class SingularIntegralEstimate:
    n: int | None
    N: int
    value: float | None  # None for closed_form, which gives only the normalized value
    normalized: float
    method: str  # closed_form | monte_carlo | exact_lattice
    stderr: float
    samples: int = 0
    seed: int | None = None


def jn_closed_form(delta: float) -> float:
    """Continuum constant 81 * (16 (1 + delta))^(-11/9).

    The m1-unconstrained box integral equals (3U)^2 (3V)^2 = 81 U^2 V^2,
    and U^2 V^2 = (N / (16 (1 + delta)))^(11/9), so this is the
    normalized value whenever the m1 indicator does not bind.
    """
    if not 0.0 <= delta < 0.01:
        raise DomainError(f"delta must lie in [0, 0.01), got {delta}")
    return 81.0 * (16.0 * (1.0 + delta)) ** (-11.0 / 9.0)


def _mc_batch(args) -> tuple[float, float, int]:
    seed, count, n, box, m1_range = args
    u3_lo, u3_hi, v3_lo, v3_hi = box
    m1_lo, m1_hi = m1_range
    rng = np.random.default_rng(seed)
    m2 = rng.uniform(u3_lo, u3_hi, count)
    m3 = rng.uniform(u3_lo, u3_hi, count)
    m4 = rng.uniform(v3_lo, v3_hi, count)
    m5 = rng.uniform(v3_lo, v3_hi, count)
    f = (m2 * m3 * m4 * m5) ** (-2.0 / 3.0)
    m1 = n - (m2 + m3 + m4 + m5)
    f *= (m1 > m1_lo) & (m1 <= m1_hi)
    return float(f.sum()), float(np.dot(f, f)), count


def jn_monte_carlo_box(
    n: float,
    box: tuple[float, float, float, float],
    m1_range: tuple[float, float],
    samples: int,
    seed: int,
    *,
    threads: int = 1,
) -> tuple[float, float]:
    """Unbiased (value, stderr) for the box integral with the m1 indicator.

    Batches draw from seeds spawned off the master seed and are reduced in
    batch order, so the estimate is identical for every thread count.

    Raises:
        DomainError: samples < 1, seed < 0, or a box of zero volume
        ResourceError: samples beyond MAX_MC_SAMPLES
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    u3_lo, u3_hi, v3_lo, v3_hi = box
    volume = (u3_hi - u3_lo) ** 2 * (v3_hi - v3_lo) ** 2
    if volume <= 0.0:
        raise DomainError("sampling box has zero volume")
    if samples > MAX_MC_SAMPLES:
        raise ResourceError(f"samples={samples} exceeds the Monte Carlo budget ({MAX_MC_SAMPLES})")
    counts = [MC_BATCH] * (samples // MC_BATCH)
    if samples % MC_BATCH:
        counts.append(samples % MC_BATCH)
    seeds = np.random.SeedSequence(seed).spawn(len(counts))
    work = [(s, c, n, box, m1_range) for s, c in zip(seeds, counts)]
    parts = map_ordered(_mc_batch, work, threads)
    s1 = s2 = 0.0
    total = 0
    for a, b, c in parts:
        s1 += a
        s2 += b
        total += c
    mean = s1 / total
    var = max(s2 / total - mean * mean, 0.0)
    return volume * mean, volume * math.sqrt(var / total)


def jn_monte_carlo(
    n: int,
    params: ProblemParams,
    i: int,
    samples: int,
    seed: int,
    *,
    threads: int = 1,
) -> SingularIntegralEstimate:
    """Monte Carlo estimate over the dyadic box derived from params.

    Raises:
        DomainError: n outside [(1-eta) N, N], or the m1 indicator is
            identically zero over the box (zero admissible volume)
    """
    N = params.n(i)
    if not (1.0 - params.eta) * N <= n <= N:
        raise DomainError(f"n={n} outside [(1-eta)N, N] for N={N}")
    u3 = N / (16.0 * (1.0 + params.delta))
    v3 = u3 ** (5.0 / 6.0)
    box = (u3, 8.0 * u3, v3, 8.0 * v3)
    m1_range = (params.omega * N, float(N))
    min_sum = 2.0 * (u3 + v3)
    max_sum = 16.0 * (u3 + v3)
    if n - min_sum <= m1_range[0] or n - max_sum > m1_range[1]:
        raise DomainError("m1 indicator vanishes on the whole box (zero admissible volume)")
    value, stderr = jn_monte_carlo_box(n, box, m1_range, samples, seed, threads=threads)
    return SingularIntegralEstimate(
        n=n,
        N=N,
        value=value,
        normalized=value / N ** (11.0 / 9.0),
        method="monte_carlo",
        stderr=stderr,
        samples=samples,
        seed=seed,
    )


def _block_weights(x: int) -> np.ndarray:
    m = np.arange(x**3 + 1, 8 * x**3 + 1, dtype=np.float64)
    return m ** (-2.0 / 3.0)


def _fft_self_convolve(a: np.ndarray) -> np.ndarray:
    n = 2 * len(a) - 1
    nf = 1 << (n - 1).bit_length()
    spec = np.fft.rfft(a, nf)
    return np.fft.irfft(spec * spec, nf)[:n]


def jn_exact_small(n: int, U: int, V: int, m1_range: tuple[float, float]) -> float:
    """Exact lattice sum over integer m2..m5 with m1 = n - sum in m1_range.

    The two pair-sum weight profiles (one per dyadic block) are formed by
    convolution, and the m1 window turns into a window of V-pair sums for
    each U-pair sum su.  All windows are found at once: the float bounds
    are clipped to the V-pair range before the cast to int64 (an unbounded
    window such as m1_lo = -1e30 stays in range), each window's weight is
    a difference of two prefix sums, empty windows weigh zero, and
    np.add.accumulate adds the terms left to right, so the result is the
    same float as a loop over su.

    Raises:
        DomainError: U or V below 1, or a NaN window bound
        ResourceError: U beyond the lattice budget
    """
    if U < 1 or V < 1:
        raise DomainError("U and V must be >= 1")
    if U > _MAX_LATTICE_U:
        raise ResourceError(f"U={U} exceeds the lattice budget (U <= {_MAX_LATTICE_U})")
    m1_lo, m1_hi = m1_range
    if math.isnan(m1_lo) or math.isnan(m1_hi):
        raise DomainError(f"m1 window bounds must not be NaN, got {m1_range}")
    wu = _block_weights(U)
    wv = _block_weights(V)
    conv_u = _fft_self_convolve(wu)  # index s - 2*(U^3+1)
    conv_v = _fft_self_convolve(wv)
    base_u = 2 * (U**3 + 1)
    base_v = 2 * (V**3 + 1)
    prefix_v = np.concatenate(([0.0], np.cumsum(conv_v)))
    top = len(conv_v)

    su = np.arange(base_u, base_u + len(conv_u), dtype=np.int64)
    # m1 = n - su - sv in (m1_lo, m1_hi]  <=>  n - m1_hi <= sv < n - m1_lo;
    # as offsets from base_v: sv in [lo, hi), clipped to [0, top]
    lo = np.clip(np.ceil((n - m1_hi) - su) - base_v, 0, top).astype(np.int64)
    hi = np.clip(np.ceil((n - m1_lo) - su) - base_v, 0, top).astype(np.int64)
    terms = conv_u * (prefix_v[hi] - prefix_v[lo])
    terms[hi <= lo] = 0.0
    return float(np.add.accumulate(terms)[-1])

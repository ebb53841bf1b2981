"""The singular integral: closed-form constant, Monte Carlo, exact lattice sum.

The object is the weighted count over m1 + m2 + m3 + m4 + m5 = n of
(m2 m3 m4 m5)^(-2/3), with m2, m3 ranging over the dyadic cube block
(U^3, 8 U^3], m4, m5 over (V^3, 8 V^3], and m1 confined to the support
(omega N, N] of the linear sum.  When the m1 constraint does not bind,
the four factors separate and each contributes the integral of u^(-2/3)
over one dyadic block, which is 3 U (resp. 3 V); dividing by N^(11/9)
then leaves the pure constant computed by jn_closed_form.

The Monte Carlo estimate draws batches of MC_BATCH samples, each from its
own seed spawned off the master seed.  The batch list is split into one
contiguous group per worker; a worker allocates its buffers once and runs
its group in place, and the per-batch sums are reduced in batch order, so
the estimate does not depend on the thread count.

The exact lattice sum convolves each block's weights with themselves by
one real FFT at the least 5-smooth length (expsums._fft_length, which the
pair counts of binary share), then reads every m1 window's weight from
slices of one prefix-sum table, and still adds its terms left to right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import INTEGERS, NON_NEGATIVE_INTEGERS, POSITIVE_INTEGERS, REALS, DomainError
from .errors import ResourceError, _require_in
from .expsums import DOMAINS, ProblemParams, _fft_length, _shift_cap
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
    normalized value, at every delta > 0, whenever the m1 indicator does not bind.
    """
    return 81.0 * (16.0 * (1.0 + _require_in(DOMAINS["delta"], delta=delta))) ** (-11.0 / 9.0)


def _normalized(value: float, N: int) -> float:
    """value / N^(11/9), the scale of jn_closed_form's constant; finite below 2^837."""
    return value / N ** (11.0 / 9.0)


def _fill_uniform(rng: np.random.Generator, lo: float, hi: float, out: np.ndarray) -> None:
    """Draw U(lo, hi) into out in place, bit for bit what rng.uniform(lo, hi, len(out)) gives."""
    rng.random(out=out)
    out *= hi - lo
    out += lo


def _mc_batches(jobs, n, box, m1_range) -> list[tuple[float, float]]:
    """(sum f, sum f^2) for each (seed, count) batch, in order, on buffers reused across batches.

    Sums are numpy's pairwise sums; no BLAS call is made, so concurrent
    workers do not contend for a BLAS thread pool.
    """
    u3_lo, u3_hi, v3_lo, v3_hi = box
    m1_lo, m1_hi = m1_range
    width = max(count for _, count in jobs)
    rows = np.empty((6, width))
    masks = np.empty((2, width), dtype=bool)
    out = []
    for seed, count in jobs:
        rng = np.random.default_rng(seed)
        m2, m3, m4, m5, f, m1 = rows[:, :count]
        inside, below = masks[:, :count]
        for row, lo, hi in ((m2, u3_lo, u3_hi), (m3, u3_lo, u3_hi), (m4, v3_lo, v3_hi), (m5, v3_lo, v3_hi)):
            _fill_uniform(rng, lo, hi, row)
        # f = (m2 m3 m4 m5)^(-2/3) and m1 = n - (m2 + m3 + m4 + m5), left to right
        np.multiply(m2, m3, out=f)
        f *= m4
        f *= m5
        np.power(f, -2.0 / 3.0, out=f)
        np.add(m2, m3, out=m1)
        m1 += m4
        m1 += m5
        np.subtract(n, m1, out=m1)
        np.greater(m1, m1_lo, out=inside)
        np.less_equal(m1, m1_hi, out=below)
        inside &= below
        f *= inside
        out.append((float(f.sum()), float(np.square(f, out=m1).sum())))
    return out


def _check_window(m1_range: tuple[float, float]) -> tuple[float, float]:
    """The m1 window's bounds as floats, each any number but NaN: the window may be unbounded."""
    m1_lo, m1_hi = m1_range
    return _require_in((-math.inf, math.inf, "[]"), m1_lo=m1_lo, m1_hi=m1_hi)


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

    The samples are cut into batches of MC_BATCH, each drawing from its own
    seed spawned off the master seed.  The batch list is split into at
    most `threads` contiguous groups, one per worker, and each worker runs
    its group on buffers it allocates once (six float64 rows and two bool
    rows of MC_BATCH).  The per-batch sums are reduced in batch order, so
    the estimate is identical for every thread count.

    Raises:
        DomainError: samples, seed or threads not an integer; n NaN or infinite; a box
            entry outside [1e-50, 1e75), which keeps the volume and every f^2 finite;
            a NaN m1 bound; samples < 1; seed < 0; a block with lo >= hi
        ResourceError: samples beyond MAX_MC_SAMPLES
    """
    samples = _require_in(POSITIVE_INTEGERS, samples=samples)
    seed = _require_in(NON_NEGATIVE_INTEGERS, seed=seed)
    threads = _require_in(INTEGERS, threads=threads)
    n = _require_in(REALS, n=n)
    u3_lo, u3_hi, v3_lo, v3_hi = box
    box = u3_lo, u3_hi, v3_lo, v3_hi = _require_in(
        (1e-50, 1e75, "[)"), u3_lo=u3_lo, u3_hi=u3_hi, v3_lo=v3_lo, v3_hi=v3_hi)
    m1_range = _check_window(m1_range)
    if not (u3_lo < u3_hi and v3_lo < v3_hi):
        raise DomainError(f"sampling box {box} needs lo < hi in each block")
    volume = (u3_hi - u3_lo) ** 2 * (v3_hi - v3_lo) ** 2
    if samples > MAX_MC_SAMPLES:
        raise ResourceError(f"samples={samples} exceeds the Monte Carlo budget "
                            f"sint.MAX_MC_SAMPLES = {MAX_MC_SAMPLES}")
    counts = [MC_BATCH] * (samples // MC_BATCH)
    if samples % MC_BATCH:
        counts.append(samples % MC_BATCH)
    jobs = list(zip(np.random.SeedSequence(seed).spawn(len(counts)), counts))
    groups = max(1, min(threads, len(jobs)))
    cuts = [len(jobs) * g // groups for g in range(groups + 1)]
    parts = map_ordered(
        lambda group: _mc_batches(group, n, box, m1_range),
        [jobs[a:b] for a, b in zip(cuts, cuts[1:])],
        groups,
    )
    s1 = s2 = 0.0
    for a, b in (sums for group in parts for sums in group):
        s1 += a
        s2 += b
    mean = s1 / samples
    var = max(s2 / samples - mean * mean, 0.0)
    return volume * mean, volume * math.sqrt(var / samples)


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
        DomainError: n not an integer; i not the integer 1 or 2; N - n outside
            [0, floor(eta N)] for eta's exact value; the m1 indicator identically zero over the box
            (zero admissible volume); else as jn_monte_carlo_box
        ResourceError: samples beyond MAX_MC_SAMPLES
    """
    n = _require_in(INTEGERS, n=n)
    samples = _require_in(POSITIVE_INTEGERS, samples=samples)  # stored, as is seed
    seed = _require_in(NON_NEGATIVE_INTEGERS, seed=seed)
    N = params.n(i)
    if not 0 <= N - n <= _shift_cap(N, params.eta):
        raise DomainError(f"n={n} outside [(1-eta)N, N] for N={N}")
    u3 = N / (16.0 * (1.0 + params.delta))
    v3 = u3 ** (5.0 / 6.0)
    box = (u3, 8.0 * u3, v3, 8.0 * v3)
    m1_range = (params.omega * N, float(N))
    min_sum = 2.0 * (u3 + v3)
    if n - min_sum <= m1_range[0]:  # as n <= N, m1 = n - (m2 + ... + m5) is never above N
        raise DomainError("m1 indicator vanishes on the whole box (zero admissible volume)")
    value, stderr = jn_monte_carlo_box(n, box, m1_range, samples, seed, threads=threads)
    return SingularIntegralEstimate(
        n=n,
        N=N,
        value=value,
        normalized=_normalized(value, N),
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
    nf = _fft_length(n)
    spec = np.fft.rfft(a, nf)
    spec *= spec
    return np.fft.irfft(spec, nf)[:n]


def _window_edge(x: float, base: int, span: int) -> int:
    """ceil(x) - base, clamped to [0, span]: every edge beyond either end acts as that end."""
    return math.ceil(min(max(x, base), base + span)) - base


def _clipped_prefix(prefix: np.ndarray, c: int, count: int) -> np.ndarray:
    """prefix[clip(c - i, 0, top)] for i = 0 .. count - 1, top = len(prefix) - 1, from slices.

    The run is prefix[top] while c - i >= top, then prefix[c - i] read
    backwards, then prefix[0] = 0 once c - i <= 0.
    """
    top = len(prefix) - 1
    a = min(max(c - top + 1, 0), count)
    b = min(c, count)
    out = np.empty(count)
    out[:a] = prefix[top]
    out[a:b] = prefix[c - b + 1 : c - a + 1][::-1]
    out[b:] = 0.0
    return out


def jn_exact_small(n: int, U: int, V: int, m1_range: tuple[float, float]) -> float:
    """Exact lattice sum over integer m2..m5 with m1 = n - sum in m1_range.

    The two pair-sum weight profiles (one per dyadic block) are
    self-convolutions, each through one rfft/irfft pair padded to
    expsums._fft_length, the least 5-smooth length.  The m1 window turns
    into a window [c_lo - i, c_hi - i) of V-pair sums for the U-pair sum
    with offset i; its two integer edges are taken once, with unbounded or
    huge bounds clamped first (so (-inf, inf) weighs the same as
    (-1e30, 1e30)).  A window's weight is a difference of two prefix sums
    of the V profile, and each prefix column over all i is a constant run,
    a reversed slice and a zero run.  An empty or reversed window weighs
    zero, and np.add.accumulate adds the terms left to right, so the
    result is the same float as a loop over the U-pair sums.

    Raises:
        DomainError: U or V not an integer or below 1, n NaN or infinite,
            or a NaN window bound
        ResourceError: U or V beyond the lattice budget
    """
    n = _require_in(REALS, n=n)
    U, V = _require_in(POSITIVE_INTEGERS, U=U, V=V)
    if max(U, V) > _MAX_LATTICE_U:
        raise ResourceError(f"U={U} or V={V} exceeds the lattice budget "
                            f"sint._MAX_LATTICE_U = {_MAX_LATTICE_U}")
    m1_lo, m1_hi = _check_window(m1_range)
    conv_u = _fft_self_convolve(_block_weights(U))  # index su - 2*(U^3+1)
    conv_v = _fft_self_convolve(_block_weights(V))  # index sv - 2*(V^3+1)
    prefix_v = np.concatenate(([0.0], np.cumsum(conv_v)))
    # m1 = n - su - sv in (m1_lo, m1_hi]  <=>  n - m1_hi <= sv < n - m1_lo, so with
    # su = base_u + i the V-pair offsets are [c_lo - i, c_hi - i), clipped to [0, top]
    base, top = 2 * (U**3 + 1) + 2 * (V**3 + 1), len(conv_v)
    span = top + len(conv_u) - 1  # from c = span on, clip(c - i, 0, top) = top for every i
    c_lo = _window_edge(n - m1_hi, base, span)
    c_hi = _window_edge(n - m1_lo, base, span)
    if c_hi <= c_lo:
        return 0.0
    terms = _clipped_prefix(prefix_v, c_hi, len(conv_u))
    terms -= _clipped_prefix(prefix_v, c_lo, len(conv_u))
    terms *= conv_u
    return float(np.add.accumulate(terms)[-1])

import math

import numpy as np
import pytest

from glinnik import (
    DomainError,
    ProblemParams,
    ResourceError,
    jn_closed_form,
    jn_exact_small,
    jn_monte_carlo,
    jn_monte_carlo_box,
)
from glinnik import sint
from glinnik.sint import MAX_MC_SAMPLES, MC_BATCH


def test_single_factor_integral_is_three():
    # midpoint-rule oracle for the one-dimensional dyadic block integral
    steps = 200_000
    h = 7.0 / steps
    total = sum((1.0 + (j + 0.5) * h) ** (-2.0 / 3.0) for j in range(steps)) * h
    assert total == pytest.approx(3.0, rel=1e-9)


def test_closed_form_reference_value():
    assert jn_closed_form(1e-4) == pytest.approx(2.7335671, rel=1e-4)


def test_closed_form_at_zero_delta():
    # delta = 0 lies outside delta's domain (0, inf); the constant tends to 81 / 16^(11/9)
    with pytest.raises(DomainError, match="delta"):
        jn_closed_form(0.0)
    v0 = jn_closed_form(5e-324)
    assert v0 == 81.0 * 16.0 ** (-11.0 / 9.0) == pytest.approx(2.7339, rel=1e-4)
    assert v0 > jn_closed_form(1e-4)


def test_closed_form_strictly_decreasing_in_delta():
    values = [jn_closed_form(d) for d in (1e-6, 1e-4, 1e-3, 5e-3, 0.05, 0.5, 10.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_closed_form_domain():
    for delta in (0.0, -1e-4, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="delta"):
            jn_closed_form(delta)
    assert jn_closed_form(0.5) == 81.0 * 24.0 ** (-11.0 / 9.0)


@pytest.mark.parametrize("delta", [0.05, 0.5])
def test_closed_form_matches_monte_carlo_at_large_delta(delta):
    # the identity U^2 V^2 = (N / (16 (1 + delta)))^(11/9) holds at every delta > 0
    n = 10**12 + 1
    est = jn_monte_carlo(n, ProblemParams(n1=n, n2=n, delta=delta), 1, samples=100_000, seed=7)
    stderr_norm = est.stderr / n ** (11.0 / 9.0)
    assert abs(est.normalized - jn_closed_form(delta)) <= 3.0 * stderr_norm


def test_monte_carlo_matches_closed_form_at_large_scale():
    n = 10**15 + 1
    params = ProblemParams(n1=n, n2=n)
    est = jn_monte_carlo(n, params, 1, samples=100_000, seed=7)
    cf = jn_closed_form(params.delta)
    stderr_norm = est.stderr / n ** (11.0 / 9.0)
    assert stderr_norm < 0.003 * cf
    assert abs(est.normalized - cf) <= 3.0 * stderr_norm
    assert 2.5 <= est.normalized <= 3.0


def test_monte_carlo_deterministic_and_thread_invariant():
    n = 10**9 + 1
    params = ProblemParams(n1=n, n2=n)
    a = jn_monte_carlo(n, params, 1, samples=50_000, seed=3)
    b = jn_monte_carlo(n, params, 1, samples=50_000, seed=3)
    c = jn_monte_carlo(n, params, 1, samples=50_000, seed=3, threads=4)
    assert a == b == c
    d = jn_monte_carlo(n, params, 1, samples=50_000, seed=4)
    assert d.value != a.value


def test_monte_carlo_scale_relation():
    vals = {}
    for n in (10**6 + 1, 10**9 + 1):
        params = ProblemParams(n1=n, n2=n)
        est = jn_monte_carlo(n, params, 1, samples=100_000, seed=11)
        vals[n] = (est.normalized, est.stderr / n ** (11.0 / 9.0))
    (v1, s1), (v2, s2) = vals.values()
    assert abs(v1 - v2) <= 3.0 * math.hypot(s1, s2)


def test_monte_carlo_omega_monotone():
    n = 10**6 + 1
    results = []
    for omega in (1e-5, 0.3, 0.6):
        params = ProblemParams(n1=n, n2=n, omega=omega)
        results.append(jn_monte_carlo(n, params, 1, samples=200_000, seed=13).value)
    assert results[0] > results[1] > results[2]


def test_monte_carlo_domain_errors():
    n = 10**6 + 1
    params = ProblemParams(n1=n, n2=n)
    with pytest.raises(DomainError):
        jn_monte_carlo(n - 2000, params, 1, samples=1000, seed=1)  # below the window
    huge_omega = ProblemParams(n1=n, n2=n, omega=0.999)
    with pytest.raises(DomainError, match="zero admissible volume"):
        jn_monte_carlo(n, huge_omega, 1, samples=1000, seed=1)


def test_monte_carlo_box_rejects_a_negative_seed_and_too_many_samples():
    box, m1_range = (1.0, 8.0, 1.0, 8.0), (0.0, 100.0)
    with pytest.raises(DomainError, match="seed"):
        jn_monte_carlo_box(50.0, box, m1_range, samples=1000, seed=-1)
    with pytest.raises(ResourceError, match="Monte Carlo budget"):
        jn_monte_carlo_box(50.0, box, m1_range, samples=MAX_MC_SAMPLES + 1, seed=1)


# jn_monte_carlo_box values as float hex, captured from the one-batch-per-task
# kernel it replaced; the m1 window (0, 20] cuts into the box's sums [4, 32]
MC_BOX, MC_WINDOW = (1.0, 8.0, 1.0, 8.0), (0.0, 20.0)
MC_PINS = [
    (1, "0x1.cd4967a1f6d84p+7"),
    (65_535, "0x1.20fa71e487de6p+6"),
    (65_536, "0x1.20e028d05fcadp+6"),
    (65_537, "0x1.20e06ccf24e1ap+6"),
    (200_001, "0x1.20ecb4e9c3e67p+6"),
]


@pytest.mark.parametrize("samples, pinned", MC_PINS)
def test_monte_carlo_box_pinned_and_thread_invariant(samples, pinned):
    # 64 workers is more than the batches of every case here
    results = {
        threads: jn_monte_carlo_box(30.0, MC_BOX, MC_WINDOW, samples=samples, seed=5, threads=threads)
        for threads in (0, 1, 2, 3, 8, 64)
    }
    assert {value.hex() for value, _ in results.values()} == {pinned}
    assert len({stderr.hex() for _, stderr in results.values()}) == 1


def test_fill_uniform_is_rng_uniform_bit_for_bit():
    for lo, hi in ((1.0, 8.0), (62499375006.24994, 499995000049.9995), (-3.5, 1e-3)):
        out = np.empty(10_001)
        sint._fill_uniform(np.random.default_rng(9), lo, hi, out)
        ref = np.random.default_rng(9).uniform(lo, hi, out.size)
        assert out.tobytes() == ref.tobytes()


def test_mc_batches_match_a_uniform_and_fsum_oracle():
    n, box, window = 30.0, MC_BOX, MC_WINDOW
    jobs = list(zip(np.random.SeedSequence(17).spawn(3), (MC_BATCH, MC_BATCH, 1_000)))
    for (seed, count), (s1, s2) in zip(jobs, sint._mc_batches(jobs, n, box, window)):
        rng = np.random.default_rng(seed)
        m2, m3 = rng.uniform(box[0], box[1], count), rng.uniform(box[0], box[1], count)
        m4, m5 = rng.uniform(box[2], box[3], count), rng.uniform(box[2], box[3], count)
        f = (m2 * m3 * m4 * m5) ** (-2.0 / 3.0)
        m1 = n - (m2 + m3 + m4 + m5)
        f *= (m1 > window[0]) & (m1 <= window[1])
        assert s1 == float(f.sum())
        oracle = math.fsum(float(x) * float(x) for x in f)
        assert abs(s2 - oracle) <= 4 * math.ulp(oracle)


def test_monte_carlo_box_makes_no_blas_call(monkeypatch):
    def no_dot(*args, **kwargs):
        raise AssertionError("np.dot reached")

    monkeypatch.setattr(np, "dot", no_dot)
    for threads in (1, 2):
        jn_monte_carlo_box(30.0, MC_BOX, MC_WINDOW, samples=3 * MC_BATCH, seed=5, threads=threads)


@pytest.mark.parametrize(
    "call",
    [
        lambda: jn_monte_carlo_box(30.0, (1.0, math.inf, 1.0, 8.0), MC_WINDOW, 100, 1),
        lambda: jn_monte_carlo_box(30.0, (math.nan, 8.0, 1.0, 8.0), MC_WINDOW, 100, 1),
        lambda: jn_monte_carlo_box(30.0, (-1e308, 1e308, 1.0, 8.0), MC_WINDOW, 100, 1),
        lambda: jn_monte_carlo_box(30.0, (8.0, 1.0, 1.0, 8.0), MC_WINDOW, 100, 1),
        # every product m2 m3 m4 m5 underflows to 0, and f = 0^(-2/3) is infinite
        lambda: jn_monte_carlo_box(30.0, (1e-300, 2e-300, 1e-300, 2e-300), MC_WINDOW, 100, 1),
        lambda: jn_monte_carlo_box(math.nan, MC_BOX, MC_WINDOW, 100, 1),
        lambda: jn_monte_carlo_box(30.0, MC_BOX, (math.nan, 20.0), 100, 1),
        lambda: jn_monte_carlo_box(30.0, MC_BOX, MC_WINDOW, 2.5, 1),
        lambda: jn_monte_carlo_box(30.0, MC_BOX, MC_WINDOW, 100, 1.5),
        lambda: jn_monte_carlo_box(30.0, MC_BOX, MC_WINDOW, 100, 1, threads=1.5),
        lambda: jn_exact_small(math.nan, 1, 1, (0.0, 1.0)),
        lambda: jn_exact_small(100, 2.5, 1, (0.0, 1.0)),
        lambda: jn_monte_carlo(10**12 + 0.5, ProblemParams(n1=10**12 + 1, n2=10**12 + 1), 1, 100, 1),
        lambda: jn_monte_carlo(10**12 + 1, ProblemParams(n1=10**12 + 1, n2=10**12 + 1), 1, 2.5, 1),
    ],
)
def test_hostile_sint_inputs_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


def test_monte_carlo_window_ends_at_floor_eta_n():
    # fl(10/1000003) * 1000003 < 10 exactly, so floor(eta N) = 9 and N - 10 is out,
    # although (1 - eta) N <= N - 10 holds in floats
    params = ProblemParams(n1=1_000_003, n2=1_000_003, eta=10 / 1_000_003)
    for n in (1_000_003, 999_995):
        assert jn_monte_carlo(n, params, 1, 100, 1).n == n
    for n in (999_993, 1_000_005):
        with pytest.raises(DomainError):
            jn_monte_carlo(n, params, 1, 100, 1)


def test_lattice_separable_product():
    s = sum(m ** (-2.0 / 3.0) for m in range(9, 65))
    val = jn_exact_small(10**9, 2, 2, (0.0, 10**9))
    assert val == pytest.approx(s**4, rel=1e-9)


def test_lattice_binding_is_smaller():
    free = jn_exact_small(10**9, 2, 2, (0.0, 10**9))
    # window that cuts into the reachable sums: m1 = n - sum in (lo, hi]
    n = 300
    bound = jn_exact_small(n, 2, 2, (0.0, 120.0))
    assert 0.0 < bound < free


def test_lattice_brute_force_oracle_tiny():
    n, U, V = 500, 2, 2
    lo, hi = 50.0, 400.0
    brute = 0.0
    for m2 in range(9, 65):
        for m3 in range(9, 65):
            for m4 in range(9, 65):
                for m5 in range(9, 65):
                    m1 = n - (m2 + m3 + m4 + m5)
                    if lo < m1 <= hi:
                        brute += (m2 * m3 * m4 * m5) ** (-2.0 / 3.0)
    assert jn_exact_small(n, U, V, (lo, hi)) == pytest.approx(brute, rel=1e-9)


def test_lattice_vs_monte_carlo_same_box():
    U = V = 8
    box = (float(U**3), 8.0 * U**3, float(V**3), 8.0 * V**3)
    n = 4 * 8 * U**3  # comfortably non-binding window
    window = (0.0, float(n))
    lattice = jn_exact_small(n, U, V, window)
    mc, stderr = jn_monte_carlo_box(n, box, window, samples=400_000, seed=19)
    assert abs(mc - lattice) <= 3.0 * stderr + 0.02 * lattice


def test_lattice_budget():
    with pytest.raises(ResourceError, match="budget"):
        jn_exact_small(10**9, 51, 2, (0.0, 10**9))


# jn_exact_small values as float hex, captured from the per-su loop the
# vectorised sum replaced, with the self-convolutions padded to a power of
# two; windows cover the separable case, binding windows, the (-1e30, split)
# outer window, an empty window and a reversed one
LATTICE_PINS = [
    (10**9, 2, 2, (0.0, 1e9), "0x1.3090e157c23cdp+10"),
    (300, 2, 2, (0.0, 120.0), "0x1.bcfed1962d634p+5"),
    (500, 2, 2, (50.0, 400.0), "0x1.c7d84f4e96969p+9"),
    (16384, 8, 8, (0.0, 16384.0), "0x1.43af0d669801ap+18"),
    (170385, 22, 13, (1.70385, 170385.0), "0x1.90007682f85e6p+22"),
    (170385, 22, 13, (-1e30, 1.70385), "0x1.1518fbcdb46f0p+16"),
    (169868, 22, 13, (1.6986800000000002, 169868.0), "0x1.8fbfcb90f868bp+22"),
    (169868, 22, 13, (-1e30, 1.6986800000000002), "0x1.2543b84db0501p+16"),
    (11625, 9, 6, (3487.5, 11625.0), "0x1.3c97a713c6e8ep+17"),
    (11625, 9, 6, (-1e30, 3487.5), "0x1.2012b265f3107p+16"),
    (11625, 9, 6, (-1e30, 1e30), "0x1.cca10046c071bp+17"),
    (11625, 9, 6, (11625.0, 23250.0), "0x0.0p+0"),
    (11625, 9, 6, (5813.0, 5812.75), "0x0.0p+0"),
]
# the same values padded to the least 5-smooth length, which moves each by rounding only
FIVE_SMOOTH_PINS = dict(zip(LATTICE_PINS, [
    "0x1.3090e157c23cbp+10",
    "0x1.bcfed1962d62cp+5",
    "0x1.c7d84f4e96963p+9",
    "0x1.43af0d6698019p+18",
    "0x1.90007682f85e8p+22",
    "0x1.1518fbcdb46d7p+16",
    "0x1.8fbfcb90f868dp+22",
    "0x1.2543b84db04e3p+16",
    "0x1.3c97a713c6e8fp+17",
    "0x1.2012b265f3106p+16",
    "0x1.cca10046c071ep+17",
    "0x0.0p+0",
    "0x0.0p+0",
]))


def power_of_two_length(m: int) -> int:
    return 1 << (m - 1).bit_length()


@pytest.mark.parametrize("n, U, V, window, pinned", LATTICE_PINS)
def test_lattice_pinned_values(monkeypatch, n, U, V, window, pinned):
    value = jn_exact_small(n, U, V, window)
    assert value.hex() == FIVE_SMOOTH_PINS[n, U, V, window, pinned]
    assert value == pytest.approx(float.fromhex(pinned), rel=1e-13, abs=0.0)
    monkeypatch.setattr(sint, "_fft_length", power_of_two_length)
    assert jn_exact_small(n, U, V, window).hex() == pinned


def gather_lattice(n, U, V, m1_range) -> float:
    """jn_exact_small with each U-pair sum's window edges gathered from the prefix sums."""
    m1_lo, m1_hi = m1_range
    conv_u = sint._fft_self_convolve(sint._block_weights(U))
    conv_v = sint._fft_self_convolve(sint._block_weights(V))
    base_v = 2 * (V**3 + 1)
    prefix_v = np.concatenate(([0.0], np.cumsum(conv_v)))
    su = np.arange(2 * (U**3 + 1), 2 * (U**3 + 1) + len(conv_u))
    # sv - base_v in [lo, hi); ceil(n - m1) is an integer before su comes off, so no rounding
    lo = np.clip(np.ceil(n - m1_hi) - su - base_v, 0, len(conv_v)).astype(np.int64)
    hi = np.clip(np.ceil(n - m1_lo) - su - base_v, 0, len(conv_v)).astype(np.int64)
    terms = conv_u * (prefix_v[hi] - prefix_v[lo])
    terms[hi <= lo] = 0.0
    return float(np.add.accumulate(terms)[-1])


@pytest.mark.parametrize("length", [None, power_of_two_length])
def test_lattice_slices_match_the_gathered_windows(monkeypatch, length):
    if length:
        monkeypatch.setattr(sint, "_fft_length", length)
    rng = np.random.default_rng(31)
    far = [-math.inf, -1e30, 1e30, math.inf]
    for U, V in ((1, 1), (2, 2), (3, 2), (9, 6)):
        reach = 16 * (U**3 + V**3)  # the largest sum m2 + ... + m5
        for _ in range(150):
            n = int(rng.integers(0, 2 * reach))
            ends = [float(rng.integers(-reach, 2 * reach)) + rng.choice([0.0, 0.25, 0.5])
                    for _ in range(2)]
            kind = rng.integers(6)
            if kind == 0:
                ends[rng.integers(2)] = far[rng.integers(4)]
            elif kind == 1:
                ends = [far[rng.integers(2)], far[2 + rng.integers(2)]]
            elif kind == 2:
                ends[1] = ends[0]  # empty
            window = (min(ends), max(ends)) if kind != 3 else (max(ends), min(ends))
            assert jn_exact_small(n, U, V, window).hex() == gather_lattice(n, U, V, window).hex(), \
                (n, U, V, window)


def test_lattice_unbounded_window_is_the_full_mass():
    n, U, V = 11625, 9, 6
    assert jn_exact_small(n, U, V, (-math.inf, math.inf)) == jn_exact_small(n, U, V, (-1e30, 1e30))


def test_lattice_nan_window_is_a_domain_error():
    for window in ((math.nan, 10.0), (0.0, math.nan)):
        with pytest.raises(DomainError):
            jn_exact_small(500, 2, 2, window)

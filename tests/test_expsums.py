import bisect
import cmath
import gc
import math
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from glinnik import (
    DomainError,
    ProblemParams,
    ResourceError,
    classify_arc,
    dirichlet_approx,
    eval_G,
    eval_cube,
    eval_grid,
    eval_linear,
    linear_table,
    minor_arc_diagnostic,
    moment2_exact,
    moment_ST4_exact,
    sieve_range,
)
from glinnik import arith, expsums
from glinnik.arith import PrimeTable, dyadic_table, is_prime

PARAMS_1E6 = ProblemParams(n1=1_000_003, n2=1_000_003)


def direct_weighted_sum(args, weights, alpha: Fraction) -> complex:
    acc = 0j
    for m, w in zip(args, weights):
        acc += w * cmath.exp(2j * math.pi * float((m * alpha) % 1))
    return acc


# ---------------------------------------------------------------------------
# ProblemParams


def test_params_derived_scales():
    p = PARAMS_1E6
    assert p.u(1) == pytest.approx((1_000_003 / (16 * 1.0001)) ** (1 / 3))
    assert p.v(1) == pytest.approx(p.u(1) ** (5 / 6))
    assert p.L == pytest.approx(math.log2(1_000_003 / math.log(1_000_003)))
    assert 2 * p.p_max(1) <= p.q_max(1)


def test_params_validation():
    with pytest.raises(DomainError):
        ProblemParams(n1=10, n2=3)
    with pytest.raises(DomainError):
        ProblemParams(n1=101, n2=103)
    with pytest.raises(DomainError, match="eta < delta"):
        ProblemParams(n1=101, n2=101, eta=0.1)
    with pytest.raises(DomainError, match="MAX_RATIO"):
        ProblemParams(n1=10**9 + 1, n2=3)
    bad_ints = ({"n1": math.nan, "n2": 3}, {"n1": 5.0, "n2": 3}, {"n1": 101, "n2": 101, "k": 2.5})
    for kwargs in bad_ints:
        with pytest.raises(DomainError, match="integer"):
            ProblemParams(**kwargs)


@pytest.mark.parametrize(
    "field, value",
    [
        ("delta", -1.0),
        ("delta", 0.0),
        ("delta", math.nan),
        ("delta", math.inf),
        ("lam", 0.0),
        ("lam", -0.5),
        ("lam", 1.0),
        ("lam", 1.5),
        ("lam", 2.0),
        ("lam", math.nan),
        ("lam", math.inf),
    ],
)
def test_params_reject_bad_delta_and_lam(field, value):
    with pytest.raises(DomainError, match=field):
        ProblemParams(n1=101, n2=101, **{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-3, 1.0 / 18.0, 1e308])
def test_params_reject_bad_epsilon(value):
    with pytest.raises(DomainError, match="epsilon"):
        ProblemParams(n1=101, n2=101, epsilon=value)


# ---------------------------------------------------------------------------
# pointwise sums


def test_linear_at_zero_is_chebyshev_sum():
    table = linear_table(PARAMS_1E6, 1)
    value = eval_linear(PARAMS_1E6, 1, 0.0, table=table)
    assert value.imag == 0.0
    assert value.real == pytest.approx(float(table.log_weights().sum()), rel=1e-12)
    # an int argument is reduced exactly, however large
    assert eval_linear(PARAMS_1E6, 1, 10**400, table=table) == value


def test_linear_periodicity_at_one():
    v0 = eval_linear(PARAMS_1E6, 1, 0.0)
    v1 = eval_linear(PARAMS_1E6, 1, 1.0)
    assert v1 == pytest.approx(v0, rel=1e-12)


def test_linear_half_is_parity_sum():
    table = linear_table(PARAMS_1E6, 1)
    value = eval_linear(PARAMS_1E6, 1, 0.5, table=table)
    odd_mass = float(table.log_weights()[table.primes % 2 == 1].sum())
    expected = (math.log(2) if 2 in table.primes else 0.0) - odd_mass
    assert value.real == pytest.approx(expected, rel=1e-12)
    assert abs(value.imag) < 1e-9


def test_cube_at_zero_and_parity():
    table = dyadic_table(50)
    mass = float(table.log_weights().sum())
    assert eval_cube(table, 0.0) == pytest.approx(mass, rel=1e-13)
    assert eval_cube(table, 10**400) == pytest.approx(mass, rel=1e-13)
    # p^3 has the parity of p, and every prime in (50, 100] is odd
    assert eval_cube(table, 0.5).real == pytest.approx(-mass, rel=1e-13)


def test_cube_triangle_inequality():
    table = dyadic_table(30)
    peak = abs(eval_cube(table, 0.0))
    rng = np.random.default_rng(3)
    for alpha in rng.uniform(0, 1, 50):
        assert abs(eval_cube(table, float(alpha))) <= peak + 1e-12


def test_linear_peak_at_zero():
    params = ProblemParams(n1=20_001, n2=20_001)
    table = linear_table(params, 1)
    peak = abs(eval_linear(params, 1, 0.0, table=table))
    rng = np.random.default_rng(8)
    for alpha in rng.uniform(0, 1, 50):
        assert abs(eval_linear(params, 1, float(alpha), table=table)) <= peak + 1e-9


def test_binary_sum_examples():
    assert eval_G(10.5, 0.0) == pytest.approx(10.0)
    assert eval_G(10.5, 10**400) == pytest.approx(10.0)
    # floor(L) even at alpha = 1/3: shifts alternate between thirds of a turn
    assert eval_G(10.0, Fraction(1, 3)) == pytest.approx(-5.0, abs=1e-12)
    assert eval_G(20.0, Fraction(1, 3)) == pytest.approx(-10.0, abs=1e-12)
    rng = np.random.default_rng(4)
    for alpha in rng.uniform(0, 1, 100):
        assert abs(eval_G(13.7, float(alpha))) <= 13.0 + 1e-12
    with pytest.raises(DomainError):
        eval_G(0.5, 0.1)


# ---------------------------------------------------------------------------
# periodicity and conjugate symmetry across all kinds


def _dyadic_alphas(count: int, seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    return [int(x) / 2**52 for x in rng.integers(0, 2**52, size=count)]


def test_periodicity_property():
    table = dyadic_table(40)
    lin = linear_table(ProblemParams(n1=20_001, n2=20_001), 1)
    for alpha in _dyadic_alphas(1_000, 11):
        g0, g1 = eval_G(12.3, alpha), eval_G(12.3, alpha + 1.0)
        assert abs(g0 - g1) <= 1e-12 * 13
        c0, c1 = eval_cube(table, alpha), eval_cube(table, alpha + 1.0)
        assert abs(c0 - c1) <= 1e-12 * abs(eval_cube(table, 0.0))
    params = ProblemParams(n1=20_001, n2=20_001)
    scale = abs(eval_linear(params, 1, 0.0, table=lin))
    for alpha in _dyadic_alphas(100, 12):
        f0 = eval_linear(params, 1, alpha, table=lin)
        f1 = eval_linear(params, 1, alpha + 1.0, table=lin)
        assert abs(f0 - f1) <= 1e-12 * scale


def test_conjugate_symmetry_property():
    table = dyadic_table(40)
    params = ProblemParams(n1=20_001, n2=20_001)
    lin = linear_table(params, 1)
    lin_scale = abs(eval_linear(params, 1, 0.0, table=lin))
    cube_scale = abs(eval_cube(table, 0.0))
    for alpha in _dyadic_alphas(1_000, 21):
        assert abs(eval_G(11.0, -alpha) - eval_G(11.0, alpha).conjugate()) <= 1e-11 * 11
        assert (
            abs(eval_cube(table, -alpha) - eval_cube(table, alpha).conjugate())
            <= 1e-11 * cube_scale
        )
    for alpha in _dyadic_alphas(100, 22):
        assert (
            abs(eval_linear(params, 1, -alpha, table=lin)
                - eval_linear(params, 1, alpha, table=lin).conjugate())
            <= 1e-11 * lin_scale
        )


# ---------------------------------------------------------------------------
# grid evaluation


def test_grid_zero_frequency_entry():
    table = dyadic_table(10)
    grid = eval_grid("cube_u", table, 4)
    assert grid[0] == pytest.approx(eval_cube(table, 0.0))


def test_grid_matches_direct_cube():
    table = dyadic_table(10)
    grid = eval_grid("cube_u", table, 64)
    scale = abs(eval_cube(table, 0.0))
    for j in range(64):
        direct = eval_cube(table, Fraction(j, 64))
        assert abs(grid[j] - direct) <= 1e-9 * scale


def test_grid_matches_direct_binary():
    grid = eval_grid("binary", 10.0, 1024)
    for j in range(0, 1024, 7):
        direct = eval_G(10.0, Fraction(j, 1024))
        assert abs(grid[j] - direct) <= 1e-9 * 10


def test_grid_matches_direct_linear_odd_size():
    params = ProblemParams(n1=5_001, n2=5_001)
    table = linear_table(params, 1)
    grid = eval_grid("linear", table, 100)
    scale = float(table.log_weights().sum())
    for j in range(0, 100, 9):
        direct = direct_weighted_sum(
            [int(p) for p in table.primes], table.log_weights(), Fraction(j, 100)
        )
        assert abs(grid[j] - direct) <= 1e-9 * scale


def ifft_reference(kind, source, M):
    """The grid as M times the complex inverse DFT of the length-M buckets, and sum of weights."""
    b, w = expsums._grid_terms(kind, source, M)
    return np.fft.ifft(np.bincount(b, weights=w, minlength=M)) * M, float(w.sum())


@pytest.mark.parametrize("M", [2, 3, 7, 1024, 1 << 16])
def test_grid_matches_complex_ifft_reference(M):
    lin = linear_table(ProblemParams(n1=20_001, n2=20_001), 1)
    for kind, source in (("linear", lin), ("cube_u", dyadic_table(40)), ("binary", 12.3)):
        reference, scale = ifft_reference(kind, source, M)
        grid = eval_grid(kind, source, M)
        assert grid.shape == (M,)
        assert np.max(np.abs(grid - reference)) <= 1e-12 * scale


@pytest.mark.parametrize("M", [2, 3, 7, 1009, 1024, 1 << 16, 1 << 20])
def test_sparse_grids_match_the_reference_on_both_sides_of_the_product_rule(M):
    # bits(M) terms take the product of two root tables, one more the bucketed FFT
    for terms in (M.bit_length(), M.bit_length() + 1):
        table = sieve_range(2, int(sieve_range(2, 200).primes[terms - 1]))  # the first primes
        for kind, source in (("cube_u", table), ("cube_v", table), ("binary", terms + 0.5)):
            assert expsums._grid_terms(kind, source, M)[0].size == terms
            reference, scale = ifft_reference(kind, source, M)
            assert np.max(np.abs(eval_grid(kind, source, M) - reference)) <= 1e-12 * scale


def test_grid_of_an_empty_cube_table_is_zero():
    for M in (2, 1009, 1 << 16):
        assert np.array_equal(eval_grid("cube_u", sieve_range(24, 28), M), np.zeros(M, complex))


def test_sparse_grid_takes_no_length_m_fft(monkeypatch):
    def no_fft(*args, **kwargs):
        raise AssertionError("length-M FFT on a sparse grid")

    monkeypatch.setattr(np.fft, "rfft", no_fft)
    table = dyadic_table(100)  # 21 primes in (100, 200], bits(2^20) = 21
    grid = eval_grid("cube_u", table, 1 << 20)
    assert grid.shape == (1 << 20,)
    assert grid[0] == pytest.approx(float(table.log_weights().sum()), rel=1e-14)


GRID_BYTES = """
import hashlib
from glinnik import binary, eval_grid
from glinnik.arith import dyadic_table
h = hashlib.sha256(eval_grid("cube_u", dyadic_table(50), 1 << 16).tobytes())
h.update(repr(binary._level_sets((0.1, 0.5, 0.9), 20.5, 1 << 20)).encode())
print(h.hexdigest())
"""


def test_sparse_grids_are_the_same_at_every_blas_thread_count():
    # 10 cube terms at 2^16 and 20 binary terms at 2^20: both take the BLAS product
    assert expsums._grid_terms("cube_u", dyadic_table(50), 1 << 16)[0].size <= 17
    src = str(Path(expsums.__file__).parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", GRID_BYTES], capture_output=True, text=True,
                             env=env, timeout=120, check=True)
        digests.add(run.stdout)
    assert len(digests) == 1


def test_fft_length_is_the_least_five_smooth_length():
    def rough_part(k: int) -> int:
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k

    top = 20_000
    smooth = [k for k in range(1, 2 * top) if rough_part(k) == 1]
    assert smooth[:12] == [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16]
    for m in range(1, top + 1):
        assert expsums._fft_length(m) == smooth[bisect.bisect_left(smooth, m)], m


def test_grid_budget_and_domain_errors(monkeypatch):
    table = dyadic_table(10)
    monkeypatch.setattr(expsums, "MAX_GRID", 1 << 20)
    with pytest.raises(ResourceError, match="MAX_GRID"):
        eval_grid("cube_u", table, 1 << 22)
    with pytest.raises(DomainError):
        eval_grid("cube_u", table, 1)
    with pytest.raises(DomainError, match="integer"):
        eval_grid("binary", 12.0, 1024.0)


# ---------------------------------------------------------------------------
# rational approximation


def test_dirichlet_exact_rational():
    d = dirichlet_approx(1 / 3, 10)
    assert (d.a, d.q) == (1, 3)
    assert abs(d.theta) < 1e-15


def test_dirichlet_integer_endpoint():
    d = dirichlet_approx(1.0, 5)
    assert (d.a, d.q, d.theta) == (1, 1, 0.0)


def test_dirichlet_worked_example_with_oracle():
    alpha, Q = 0.30103, 100
    d = dirichlet_approx(alpha, Q)
    assert (d.a, d.q) == (28, 93)
    assert d.theta == pytest.approx(-4.5269e-5, rel=1e-3)
    # exhaustive oracle over every admissible denominator
    valid = []
    fr = Fraction(alpha)
    for q in range(1, Q + 1):
        for a in (math.floor(q * alpha), math.ceil(q * alpha)):
            if 1 <= a <= q and math.gcd(a, q) == 1:
                if abs(fr - Fraction(a, q)) <= Fraction(1, q * Q):
                    valid.append((a, q))
    assert (d.a, d.q) in valid


def test_dirichlet_boundary_points():
    for Q in (1, 2, 7, 100):
        lo = dirichlet_approx(1.0 / Q, Q)
        assert 1 <= lo.a <= lo.q <= Q
        hi = dirichlet_approx(1.0 + 1.0 / Q, Q)
        assert 1 <= hi.a <= hi.q <= Q
        assert abs(hi.a / hi.q + hi.theta - (1.0 + 1.0 / Q)) < 1e-12


def test_dirichlet_domain_errors():
    with pytest.raises(DomainError):
        dirichlet_approx(0.001, 100)
    with pytest.raises(DomainError):
        dirichlet_approx(1.5, 100)
    with pytest.raises(DomainError):
        dirichlet_approx(0.5, 0)
    with pytest.raises(DomainError, match="integer"):
        dirichlet_approx(0.3, 2.5)


def test_dirichlet_invariants_random():
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        Q = int(rng.integers(1, 10_000))
        alpha = float(rng.uniform(1.0 / Q, 1.0 + 1.0 / Q))
        d = dirichlet_approx(alpha, Q)
        fr = Fraction(alpha)
        assert 1 <= d.a <= d.q <= Q
        assert math.gcd(d.a, d.q) == 1
        assert abs(fr - Fraction(d.a, d.q)) <= Fraction(1, d.q * Q)
        assert abs((d.a / d.q + d.theta) - alpha) <= 1e-15 * max(1.0, alpha)


def _convergents(num: int, den: int):
    """Continued-fraction convergents p/q of num/den, in order."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    a, b = num, den
    while b:
        t = a // b
        a, b = b, a - t * b
        p0, q0, p1, q1 = p1, q1, t * p1 + p0, t * q1 + q0
        yield p1, q1


def _dirichlet_oracle(alpha: Fraction, Q: int) -> tuple[int, int, float]:
    """The deepest admissible convergent of alpha (else 1/1), all in Fraction arithmetic."""
    best = (1, 1)
    for p, q in _convergents(alpha.numerator, alpha.denominator):
        if q > Q:
            break
        if 1 <= p <= q and abs(alpha - Fraction(p, q)) <= Fraction(1, q * Q):
            best = (p, q)
    return best[0], best[1], float(alpha - Fraction(*best))


def test_integer_arc_tests_match_fraction_oracle_on_the_edges():
    points = []
    for Q in (1, 2, 7, 100, 10**6, 2**40 + 1):
        lo, hi = Fraction(1, Q), 1 + Fraction(1, Q)
        # a float endpoint counts as the exact endpoint
        points += [(lo, lo, Q), (hi, hi, Q), (1.0 / Q, lo, Q), (1.0 + 1.0 / Q, hi, Q)]
        for a, q in ((1, 1), (1, 2), (2, 7), (13, 99), (1, Q), (Q - 1, Q)):
            if 1 <= a <= q <= Q and math.gcd(a, q) == 1:
                for side in (-1, 1):  # exactly on the arc edge, and just outside it
                    edge = Fraction(a, q) + side * Fraction(1, q * Q)
                    outside = edge + side * Fraction(1, 2**80)
                    points += [(edge, edge, Q), (outside, outside, Q)]
    checked = 0
    for alpha, exact, Q in points:
        if not Fraction(1, Q) <= exact <= 1 + Fraction(1, Q):
            continue
        d = dirichlet_approx(alpha, Q)
        assert (d.a, d.q, d.theta) == _dirichlet_oracle(exact, Q), (alpha, Q)
        checked += 1
    assert checked >= 100

    params = PARAMS_1E6
    q_cap, p_cap = params.q_max(1), math.floor(params.p_max(1))
    for a, q in ((1, 1), (1, 2), (1, 3), (3, 4)):
        for side in (-1, 1):
            edge = Fraction(a, q) + side * Fraction(1, q) / Fraction(q_cap)
            for alpha in (edge, edge + side * Fraction(1, 2**80), float(edge)):
                exact = Fraction(alpha)
                major = [(p, r) for p, r in _convergents(exact.numerator, exact.denominator)
                         if r <= p_cap and 1 <= p <= r
                         and abs(float(exact - Fraction(p, r))) <= 1.0 / (r * q_cap)]
                label = classify_arc(params, 1, alpha)
                assert (label.a, label.q) == (major[0] if major else (None, None)), alpha


# ---------------------------------------------------------------------------
# arc classification


def test_arc_queries_read_a_numpy_float_as_its_float64():
    params = PARAMS_1E6
    Q = math.floor(params.q_max(1))
    for kind in (np.float16, np.float32, np.float64, np.longdouble):
        for x in (0.25, 0.3, 1.0 / 3.0, 0.7071):
            alpha = kind(x)
            assert classify_arc(params, 1, alpha) == classify_arc(params, 1, float(alpha))
            got, want = dirichlet_approx(alpha, Q), dirichlet_approx(float(alpha), Q)
            assert got == want and type(got.theta) is float, (kind, x)


def test_classify_exact_rational_is_major():
    label = classify_arc(PARAMS_1E6, 1, 0.25)
    assert label.is_major and (label.a, label.q) == (1, 4)


def test_classify_half_is_major():
    label = classify_arc(PARAMS_1E6, 1, 0.5)
    assert label.is_major and (label.a, label.q) == (1, 2)


def test_classify_minor_with_exhaustive_oracle():
    params = PARAMS_1E6
    alpha = 0.123456
    label = classify_arc(params, 1, alpha)
    assert not label.is_major
    # oracle: check every q <= floor(P), every nearby numerator
    p_cap = math.floor(params.p_max(1))
    assert p_cap == 4
    q_big = params.q_max(1)
    for q in range(1, p_cap + 1):
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1:
                assert abs(alpha - a / q) > 1.0 / (q * q_big)


def test_non_finite_alpha_is_a_domain_error():
    cube = dyadic_table(PARAMS_1E6.u(1))
    for bad in (math.nan, math.inf, -math.inf):
        calls = [
            lambda: eval_linear(PARAMS_1E6, 1, bad),
            lambda: eval_cube(cube, bad),
            lambda: eval_G(12.0, bad),
            lambda: eval_G(bad, 0.25),
            lambda: classify_arc(PARAMS_1E6, 1, bad),
            lambda: dirichlet_approx(bad, 100),
            lambda: minor_arc_diagnostic(PARAMS_1E6, 1, 1, 0, c=bad),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="finite"):
                call()
    with pytest.raises(DomainError, match="integer"):
        minor_arc_diagnostic(PARAMS_1E6, 1, 2.5, 0)


def test_binary_term_budget(monkeypatch):
    assert eval_G(63.9, 0.0) == pytest.approx(63.0)
    for call in (lambda: eval_G(1e308, 0.25), lambda: eval_grid("binary", 1e308, 1024)):
        with pytest.raises(ResourceError, match="term budget"):
            call()
    monkeypatch.setattr(expsums, "MAX_BINARY_TERMS", 20)
    assert eval_G(20.5, 0.0) == pytest.approx(20.0)
    with pytest.raises(ResourceError, match="term budget"):
        eval_G(21.0, 0.25)


def test_classify_domain_error():
    with pytest.raises(DomainError):
        classify_arc(PARAMS_1E6, 1, -0.2)


# ---------------------------------------------------------------------------
# exact moments


def test_moment2_examples():
    assert moment2_exact(sieve_range(3, 3)) == pytest.approx(math.log(3) ** 2)
    assert moment2_exact(sieve_range(24, 28)) == 0.0
    both = sieve_range(2, 3)
    assert moment2_exact(both) == pytest.approx(
        math.log(2) ** 2 + math.log(3) ** 2
    )


def test_moment2_riemann_consistency_small():
    # numerical-integration path: mean of |grid|^2 over 2^20 points
    table = dyadic_table(100)
    grid = eval_grid("cube_u", table, 1 << 20)
    riemann = float(np.mean(np.abs(grid) ** 2))
    exact = moment2_exact(table)
    assert riemann == pytest.approx(exact, rel=0.01)


def brute_force_st4(U: int, V: int) -> float:
    pu = [int(p) for p in dyadic_table(U).primes]
    pv = [int(p) for p in dyadic_table(V).primes]
    total = 0.0
    left = []
    for a in pu:
        for b in pu:
            for c in pv:
                for d in pv:
                    left.append(
                        (
                            a**3 + b**3 + c**3 + d**3,
                            math.log(a) * math.log(b) * math.log(c) * math.log(d),
                        )
                    )
    for s1, w1 in left:
        for s2, w2 in left:
            if s1 == s2:
                total += w1 * w2
    return total


def test_moment_st4_single_prime_sets():
    assert moment_ST4_exact(2, 2) == pytest.approx(math.log(3) ** 8, rel=1e-12)


def test_moment_st4_brute_force_oracle():
    assert moment_ST4_exact(10, 5) == pytest.approx(brute_force_st4(10, 5), rel=1e-10)
    assert moment_ST4_exact(7, 3) == pytest.approx(brute_force_st4(7, 3), rel=1e-10)


def test_moment_st4_diagonal_lower_bound():
    tu = dyadic_table(20)
    tv = dyadic_table(8)
    wu = tu.log_weights()
    wv = tv.log_weights()
    diag = float((wu**2).sum()) ** 2 * float((wv**2).sum()) ** 2
    assert moment_ST4_exact(20, 8) >= diag


def test_moment_st4_budget_error(monkeypatch):
    monkeypatch.setattr(expsums, "MAX_QUADRUPLES", 10)
    with pytest.raises(ResourceError, match="MAX_QUADRUPLES"):
        moment_ST4_exact(1000, 100)


def test_moment_st4_rejects_nan_scale():
    with pytest.raises(DomainError, match="finite"):
        moment_ST4_exact(math.nan, 5)


# ---------------------------------------------------------------------------
# minor-arc diagnostics


def test_minor_arc_diagnostic_deterministic_and_minor_only():
    params = ProblemParams(n1=100_003, n2=100_003)
    r1 = minor_arc_diagnostic(params, 1, samples=25, seed=5)
    r2 = minor_arc_diagnostic(params, 1, samples=25, seed=5)
    assert r1 == r2
    assert r1.linear_ratio_max > 0 and math.isfinite(r1.linear_ratio_max)
    assert r1.cube_ratio_max > 0 and math.isfinite(r1.cube_ratio_max)
    for alpha in r1.alphas:
        assert not classify_arc(params, 1, alpha).is_major
    r3 = minor_arc_diagnostic(params, 1, samples=25, seed=6)
    assert r3.alphas != r1.alphas


def test_minor_arc_diagnostic_thread_invariance(monkeypatch):
    sieve_threads = []

    def recording_sieve(lo, hi, *, threads=1):
        sieve_threads.append(threads)
        return sieve_range(lo, hi, threads=threads)

    monkeypatch.setattr(arith, "SEGMENT_SIZE", 1 << 14)  # several segments per sieve
    monkeypatch.setattr(expsums, "sieve_range", recording_sieve)
    params = ProblemParams(n1=100_003, n2=100_003)
    r1, r2, r4 = (minor_arc_diagnostic(params, 1, samples=6, seed=9, threads=t) for t in (1, 2, 4))
    assert r1 == r2 == r4 and r1.alphas == r2.alphas == r4.alphas
    assert r1.linear_ratio_max.hex() == r2.linear_ratio_max.hex() == r4.linear_ratio_max.hex()
    assert sieve_threads == [1, 2, 4]


# ---------------------------------------------------------------------------
# the split phase reduction of the linear sum


def _big_prime_table() -> PrimeTable:
    """Primes just above 2^31, 2^32, 2^40, 2^52 and 2^62, and 2^61 - 1."""
    primes = []
    for start in (2**31, 2**32, 2**40, 2**52, 2**62):
        n = start + 1
        while not is_prime(n):
            n += 2
        primes.append(n)
    primes.append(2**61 - 1)
    primes = sorted(primes)
    return PrimeTable(primes[0], primes[-1], np.array(primes, dtype=np.int64))


def _phase_alphas(Q: float, count: int, seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    alphas = [1.0 / Q, 1.0 + 1.0 / Q, 2.0**40, 2.0**40 + 0.75, -(2.0**45) - 0.125, 2.0**60 / 3]
    for x in rng.uniform(-1e-9, 1e-9, count):
        alphas += [1.0 / Q + float(x), 1.0 + 1.0 / Q + float(x)]
    alphas += [float(x) for x in rng.uniform(-3.0, 0.0, count)]
    alphas += [float(x) for x in rng.uniform(2.0**40, 2.0**44, count)]
    alphas += [float(x) for x in rng.uniform(0.0, 1.0, count)]
    return alphas


def _circle_distance(a: float, exact: Fraction) -> float:
    d = abs(Fraction(a) - exact) % 1
    return float(min(d, 1 - d))


def test_split_phases_against_fraction_oracle():
    table = linear_table(PARAMS_1E6, 1)
    big = _big_prime_table()
    rng = np.random.default_rng(31)
    small = np.concatenate((table.primes[-3:], table.primes[:2], rng.choice(table.primes, 5)))
    tol = 4 * 2.0**-52
    pairs = 0
    for primes, top in ((small, int(table.primes[-1])), (big.primes, int(big.primes[-1]))):
        assert (top >> (top.bit_length() - 1)) == 1 and int(primes.max()) == top
        for alpha in _phase_alphas(PARAMS_1E6.q_max(1), 15, 32):
            got = expsums._split_phases(primes, alpha, top)
            assert np.all((got >= 0.0) & (got < 1.0))
            for p, f in zip(primes.tolist(), got.tolist()):
                assert _circle_distance(f, Fraction(p) * Fraction(alpha) % 1) <= tol
                pairs += 1
    assert pairs >= 1_000


def test_linear_sum_over_primes_above_2_31():
    big = _big_prime_table()
    params = ProblemParams(n1=101, n2=101)
    w = big.log_weights()
    for alpha in (0.3, -0.7, 2.0**40 + 0.25, 1e-12):
        direct = direct_weighted_sum([int(p) for p in big.primes], w, Fraction(alpha))
        assert abs(eval_linear(params, 1, alpha, table=big) - direct) <= 1e-12 * float(w.sum())


def test_rational_point_buckets_match_residue_branch():
    params = ProblemParams(n1=5_001, n2=5_001)
    table = linear_table(params, 1)
    n = len(table)
    w = table.log_weights()
    mass = float(w.sum())
    cases = [(1, 1), (1, 2), (3, 7), (7, 600), (3, n - 1), (1, n), (1, n + 1), (11, 5_003),
             (-4, 9), (1, 104_729), (12_345, 1_000_003)]
    for a, q in cases:
        # the int64 residue branch, written out
        rem = (table.primes % q) * (a % q) % q
        theta = 2.0 * math.pi * (rem / q)
        reference = complex(np.dot(w, np.cos(theta)), np.dot(w, np.sin(theta)))
        value = eval_linear(params, 1, Fraction(a, q), table=table)
        assert abs(value - reference) <= 1e-12 * mass, (a, q)


# ---------------------------------------------------------------------------
# one exact phase reduction for the linear, cube and binary sums


def _near_half(q: int) -> Fraction:
    """a/q within 2/q of 1/2, whose float would be hundreds of turns off for m near 2^63."""
    return Fraction(q // 2 - 1, q)


_BIG_DENOMINATORS = (2**31 + 11, 2**40 + 15, 2**61 - 1, 3 * 2**64 + 1)


def test_cube_sum_with_cubes_near_2_63_against_fraction_oracle():
    table = sieve_range(2**21 - 300, 2**21 - 1)
    assert int(table.primes[-1]) ** 3 > 2**62
    w = table.log_weights()
    cubes = [int(p) ** 3 for p in table.primes]
    mass = float(w.sum())
    Q = PARAMS_1E6.q_max(1)
    floats = [-0.3, -2.0**40 - 0.625, 1.0, 1.75, 2.0**45 + 0.1, 0.5, 0.375, 3.0 / 1024,
              1.0 / Q, 1.0 / Q + 1e-13, 1.0 + 1.0 / Q]
    for alpha in floats:
        direct = direct_weighted_sum(cubes, w, Fraction(alpha))
        assert abs(eval_cube(table, alpha) - direct) <= 1e-12 * mass, alpha
    for alpha in [_near_half(q) for q in _BIG_DENOMINATORS] + [Fraction(-5, 7)]:
        direct = direct_weighted_sum(cubes, w, alpha)
        assert abs(eval_cube(table, alpha) - direct) <= 1e-12 * mass, alpha


def test_linear_and_binary_sums_at_large_denominators_near_one_half():
    big = _big_prime_table()
    params = ProblemParams(n1=101, n2=101)
    w = big.log_weights()
    for q in _BIG_DENOMINATORS:
        alpha = _near_half(q)
        direct = direct_weighted_sum([int(p) for p in big.primes], w, alpha)
        assert abs(eval_linear(params, 1, alpha, table=big) - direct) <= 1e-12 * float(w.sum())
        for L in (63.5, 200.0):
            m = math.floor(L)
            direct = direct_weighted_sum([2**v for v in range(1, m + 1)], [1.0] * m, alpha)
            assert abs(eval_G(L, alpha) - direct) <= 1e-13 * m, (q, L)


def test_binary_sum_of_4096_terms_against_fraction_oracle():
    powers = [2**v for v in range(1, 4097)]
    ones = [1.0] * 4096
    # ldexp(alpha, v) overflows for the larger v at every one of these floats
    for alpha in (0.3, -0.7, 1.0 / 3.0, 2.0**-30 + 2.0**-1000, 1e-300, 5e-324, 2.0**40 + 0.5):
        direct = direct_weighted_sum(powers, ones, Fraction(alpha))
        assert abs(eval_G(4096.0, alpha) - direct) <= 1e-13 * 4096, alpha
    for alpha in (Fraction(1, 3), Fraction(5, 4097), _near_half(2**61 - 1)):
        direct = direct_weighted_sum(powers, ones, alpha)
        assert abs(eval_G(4096.0, alpha) - direct) <= 1e-13 * 4096, alpha


def test_cube_sum_budget_is_checked_before_any_cube():
    top = PrimeTable(2**21 - 9, 2**21, np.array([2**21 - 9], dtype=np.int64))
    for table in (top, PrimeTable(2**40, 2**40 + 100, np.empty(0, dtype=np.int64))):
        with pytest.raises(ResourceError, match="MAX_CUBE_HI"):
            eval_cube(table, 0.3)
    below = PrimeTable(2**21 - 9, 2**21 - 1, np.array([2**21 - 9], dtype=np.int64))
    assert eval_cube(below, 0.0) == pytest.approx(math.log(2**21 - 9), rel=1e-15)


# ---------------------------------------------------------------------------
# linear sums from two root tables


def _ascending(rng, lo: int, span: int, size: int) -> np.ndarray:
    """size ascending int64 from lo to lo + span - 1, both ends included, repeats allowed."""
    m = np.sort(rng.integers(lo, lo + span, size, dtype=np.int64))
    m[0], m[-1] = lo, lo + span - 1
    return m


def _root_alphas(rng) -> list:
    return ([float(x) for x in rng.uniform(-2.0, 2.0, 3)] + [2.0**40 + 0.375, 1e-12]
            + [Fraction(int(rng.integers(1, q)), q) for q in (7, 65_537, 2**31 - 1)]
            + [_near_half(q) for q in (2**31 + 11, 2**61 - 1)])


def test_blocked_sum_matches_direct_sum():
    rng = np.random.default_rng(41)
    cases = [
        _ascending(rng, 2**32 - 2**18, 2**19, 140_000),  # high roots above 2^31: limb split
        _ascending(rng, 0, 10**6, 50_000),  # m[0] = 0
        np.arange(5_000),
        _ascending(rng, 0, 2**20, 2_049),  # one term past the switch: 2^10 + 2^10 roots
    ]
    for m in cases:
        top = int(m[-1])
        plan = expsums._block_plan(m)
        assert plan.k == expsums._root_split(m) == (top.bit_length() + 1) // 2 > 0
        assert plan.low.dtype == (np.uint16 if plan.k <= 16 else np.uint32)
        w = rng.uniform(0.5, 2.0, m.size)
        mass = float(w.sum())
        for alpha in _root_alphas(rng):
            blocked = expsums._blocked_phase_sum(plan, w, alpha)
            assert blocked == expsums._planned_sum(m, w, expsums._block_plan(m), alpha)
            direct = expsums._direct_phase_sum(m, w, alpha, top)
            assert abs(blocked - direct) <= 1e-13 * mass, (m.size, alpha)


def test_root_split_needs_ascending_int64_and_small_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("blocked path taken")

    rng = np.random.default_rng(43)
    at_switch = _ascending(rng, 0, 2**20, 2_048)  # exactly as many roots as terms
    shuffled = rng.permutation(_ascending(rng, 0, 10**6, 50_000))
    cubes = linear_table(PARAMS_1E6, 1).primes[:2_000] ** 3
    for m in (at_switch, shuffled, cubes, at_switch[::-1], np.array([-1, 5, 9] + [10] * 100)):
        assert expsums._root_split(m) == 0
    monkeypatch.setattr(expsums, "_blocked_phase_sum", refuse)
    w = rng.uniform(0.5, 2.0, shuffled.size)
    assert (expsums._planned_sum(shuffled, w, expsums._block_plan(shuffled), 0.3)
            == expsums._direct_phase_sum(shuffled, w, 0.3, int(shuffled.max())))


def test_cube_and_binary_sums_never_build_a_block_plan(monkeypatch):
    table = dyadic_table(100_000)  # 2^k > sqrt(max p^3) > the number of primes
    alphas = [0.3, -1.7, 2.0**40 + 0.375, Fraction(3, 7), Fraction(1, 2**31 + 11), 5]
    before = [(eval_cube(table, a), eval_G(1000.5, a)) for a in alphas]

    def refuse(m):
        raise AssertionError("a block plan was built")

    monkeypatch.setattr(expsums, "_block_plan", refuse)
    assert [(eval_cube(table, a), eval_G(1000.5, a)) for a in alphas] == before


def test_linear_sum_at_integer_alpha_is_real():
    table = linear_table(PARAMS_1E6, 1)
    assert expsums._root_split(table.primes) > 0
    few = PrimeTable(2, 7, np.array([2, 3, 5, 7], dtype=np.int64))  # the direct pass
    for t in (table, few):
        mass = float(t.log_weights().sum())
        for alpha in (0, 0.0, -0.0, 3, -2.0, 2.0**40, Fraction(5), Fraction(0)):
            value = eval_linear(PARAMS_1E6, 1, alpha, table=t)
            assert value.imag == 0.0 and abs(value.real - mass) <= 1e-13 * mass, alpha


# ---------------------------------------------------------------------------
# state kept on a table: log weights and the block plan, built once


def test_linear_sums_build_a_tables_weights_and_plan_once(monkeypatch):
    table = sieve_range(1_001, 1_000_003)
    logs, plans = [], []
    log, block_plan = np.log, expsums._block_plan
    monkeypatch.setattr(np, "log", lambda *a, **kw: logs.append(1) or log(*a, **kw))
    monkeypatch.setattr(expsums, "_block_plan", lambda m: plans.append(1) or block_plan(m))
    values = [eval_linear(PARAMS_1E6, 1, Fraction(a, 7), table=table) for a in range(1, 7)]
    assert len(logs) == 1 and len(plans) == 1 and len(set(values)) == 6
    assert table.log_weights() is table.log_weights()


def test_table_arrays_are_read_only():
    table = linear_table(PARAMS_1E6, 1)
    for array in (table.primes, table.log_weights(), dyadic_table(0.5).primes):
        with pytest.raises(ValueError, match="read-only"):
            array[:1] = 2
        with pytest.raises(ValueError, match="read-only"):
            array += 1


def test_a_table_copies_the_callers_primes_and_leaves_them_writable():
    mine = np.array([2, 3, 5, 7], dtype=np.int64)
    table = PrimeTable(2, 7, mine)
    mine[0] = 11  # the caller's array is still theirs
    assert table.primes.tolist() == [2, 3, 5, 7] and not table.primes.flags.writeable
    assert PrimeTable(2, 7, [2, 3, 5, 7]).primes.tolist() == [2, 3, 5, 7]
    owned = sieve_range(2, 100).primes
    assert PrimeTable(2, 100, owned).primes is owned  # read-only int64 is taken as it is


def test_cached_table_state_gives_the_uncached_sum_bit_for_bit():
    big = linear_table(PARAMS_1E6, 1)
    few = PrimeTable(2, 7, np.array([2, 3, 5, 7], dtype=np.int64))  # the direct pass
    assert expsums._block_plan(big.primes) is not None and expsums._block_plan(few.primes) is None
    alphas = [Fraction(a, q) for q in range(1, 7) for a in range(q)]
    alphas += [Fraction(a, q) for q in (2**31 - 1, 2**31 + 11, 2**33 - 9, 2**33 + 1)
               for a in (1, q // 3, q - 2)]
    alphas += [0.6, -0.3, 1e-12, 2.0**40 + 0.375, 1.0 / 3.0]
    for table in (big, few):
        for alpha in alphas:
            fresh = expsums._planned_sum(table.primes, np.log(table.primes.astype(float)),
                                         expsums._block_plan(table.primes), alpha)
            assert eval_linear(PARAMS_1E6, 1, alpha, table=table) == fresh, alpha


def test_a_table_is_freed_once_its_caller_drops_it():
    table = sieve_range(1_001, 100_003)
    eval_linear(PARAMS_1E6, 1, 0.3, table=table)
    assert "_block_plan" in vars(table) and "_log_weights" in vars(table)
    ref = weakref.ref(table)
    del table
    gc.collect()
    assert ref() is None  # no cache outside the table holds it


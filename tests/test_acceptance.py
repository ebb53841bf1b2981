"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred to later
calibration.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from glinnik import (
    ProblemParams,
    ReportBudgets,
    count_pairs,
    dyadic_table,
    enum_Xi,
    eval_grid,
    find_witness,
    full_report,
    j_sum_exact,
    jn_closed_form,
    jn_monte_carlo,
    k_threshold,
    local_A,
    measure_sigma,
    moment2_exact,
    moment_ST4_exact,
    multiplicative,
    r1_coefficient,
    r3_coefficient,
    rho_counts_from_primes,
    singular_series,
)
from tests.test_binary import brute_force_jsum, exhaustive_xi
from tests.test_expsums import brute_force_st4
from tests.test_local import assert_multiplicative
from tests.test_search import brute_force_rho, oracle_has_witness, rho_table


def _ok(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_constants_threshold():
    c1, c2, lam = 0.00089051, 6.2809957, 0.961917
    k_threshold(c1, c2, lam)  # warm up
    t0 = time.perf_counter()
    k = k_threshold(c1, c2, lam)
    elapsed = time.perf_counter() - t0
    assert k == 231
    assert c1 - c2 * lam ** (231 - 2) > 0.0
    assert c1 - c2 * lam ** (230 - 2) <= 0.0
    assert elapsed < 1e-3
    _ok(1, f"k_threshold = 231, direct check at 230/231, runtime {elapsed*1e6:.0f} us")


def test_criterion_02_r1_coefficient():
    value = r1_coefficient(0.8842495063, 2.7335671)
    assert value == pytest.approx(0.00089051, abs=1e-8)
    _ok(2, f"r1 coefficient {value:.12f} within 1e-8 of 0.00089051")


def test_criterion_03_r3_coefficient():
    value = r3_coefficient(305.8869, 0.359127)
    assert value == pytest.approx(6.2809957, abs=1e-6)
    _ok(3, f"r3 coefficient {value:.10f} within 1e-6 of 6.2809957")


def test_criterion_04_singular_integral():
    cf = jn_closed_form(1e-4)
    assert cf == pytest.approx(2.7335671, rel=1e-4)
    # the m1 indicator clips a corner of the box at small N (0.6% of the
    # weighted volume at N = 1e6), so the closed-form comparison runs at a
    # scale where the clipped mass is far below the Monte Carlo noise
    n = 10**15 + 1
    params = ProblemParams(n1=n, n2=n)
    t0 = time.perf_counter()
    est = jn_monte_carlo(n, params, 1, samples=1_000_000, seed=2024)
    elapsed = time.perf_counter() - t0
    stderr_norm = est.stderr / n ** (11.0 / 9.0)
    assert stderr_norm < 0.003 * cf
    assert abs(est.normalized - cf) <= 3.0 * stderr_norm
    _ok(
        4,
        f"closed form {cf:.7f}; MC {est.normalized:.7f} +- {stderr_norm:.5f} "
        f"agrees within 3 stderr; runtime {elapsed:.1f} s",
    )


def test_criterion_05_local_factors():
    rng = np.random.default_rng(505)
    for n in rng.integers(0, 10**9, size=1_000):
        odd = 2 * int(n) + 1
        assert local_A(odd, 2).A == pytest.approx(1.0, abs=1e-12)
    for n in rng.integers(1, 10**9, size=100):
        even = 2 * int(n)
        assert local_A(even, 2).A == pytest.approx(-1.0, abs=1e-12)
    for q in range(1, 501):
        _, mu, _ = multiplicative(q)
        if mu == 0:
            assert local_A(31337, q).A == 0.0
    done = 0
    while done < 1_000:
        q1 = int(rng.integers(2, 1001))
        q2 = int(rng.integers(2, 1001))
        if math.gcd(q1, q2) != 1:
            continue
        assert_multiplicative(int(rng.integers(1, 10**7)), q1, q2)
        done += 1
    _ok(5, "A(n,2) parity values, squarefree support q<=500, multiplicativity on 1000 pairs")


def test_criterion_06_singular_series_empirical_bound():
    bound = 0.8842495063 - 0.003
    rng = np.random.default_rng(606)
    ns = sorted(set(2 * int(x) + 1 for x in rng.integers(50_000, 5_000_000, size=1_000)))
    assert len(ns) >= 1_000
    violations = []
    smallest = (math.inf, None)
    for n in ns:
        ts = singular_series(n, 10_000)
        if ts.value < smallest[0]:
            smallest = (ts.value, n)
        if ts.value < bound:
            violations.append((n, ts.value))
    for n, value in violations:
        print(f"VIOLATION: singular series at n={n} is {value} < {bound}")
    assert violations == []
    _ok(
        6,
        f"{len(ns)} odd n in [1e5, 1e7]: min value {smallest[0]:.6f} at n={smallest[1]} "
        f">= {bound:.10f}",
    )


def test_criterion_07_moment_identities():
    # orthogonality value against an independent direct accumulation
    table = dyadic_table(1000)
    direct = sum(math.log(int(p)) ** 2 for p in table.primes)
    assert moment2_exact(table) == pytest.approx(direct, rel=1e-12)
    # numerical-integration path on a 2^20 grid
    grid = eval_grid("cube_u", table, 1 << 20)
    riemann = float(np.mean(np.abs(grid) ** 2))
    assert riemann == pytest.approx(moment2_exact(table), rel=0.01)
    # eighth-moment of the cube-sum product against the 8-fold loop
    assert moment_ST4_exact(10, 5) == pytest.approx(brute_force_st4(10, 5), rel=1e-10)
    # shift-collision identity
    for M in range(1, 13):
        count = sum(
            1
            for m in itertools.product(range(1, M + 1), repeat=4)
            if (1 << m[0]) + (1 << m[1]) == (1 << m[2]) + (1 << m[3])
        )
        assert count == 2 * M * M - M
    _ok(7, "second moment, 2^20 Riemann sum (1%), eighth moment vs 8-fold loop, 2M^2-M identity")


def test_criterion_08_xi_and_pair_counting():
    cases = [
        (101, 2, 0.1, 3),
        (103, 3, 0.3, 4),
        (1001, 2, 0.05, 9),
        (999, 4, 0.5, 5),
        (12345, 3, 0.01, 6),
        (54321, 2, 0.002, 10),
    ]
    for N, k, eta, v_max in cases:
        assert v_max**k <= 10**6
        assert dict(enum_Xi(N, k, eta, float(v_max)).entries) == exhaustive_xi(
            N, k, eta, v_max
        )
    assert enum_Xi(101, 2, 0.1, 3.0).values == (91, 93, 95, 97)
    assert count_pairs(101, 103, 2, 0.1, 3.0) == 6
    for N1, N2, k, eta, M in [(101, 103, 2, 0.1, 3), (1001, 987, 3, 0.08, 6)]:
        brute = sum(
            1
            for tup in itertools.product(range(1, M + 1), repeat=k)
            if N1 - sum(1 << v for v in tup) >= (1 - eta) * N1
            and N2 - sum(1 << v for v in tup) >= (1 - eta) * N2
        )
        assert count_pairs(N1, N2, k, eta, float(M)) == brute
    # the asymptotic (1-eps) L^k count is out of regime at desk scale and
    # is documented, not asserted; the report carries the regime note
    from glinnik.pipeline import REGIME_NOTE

    assert "k <= eta*log2(N)" in REGIME_NOTE
    _ok(8, "enum/pair counts equal exhaustive enumeration (incl. 101/103); regime documented")


def test_criterion_09_measure_monotonicity():
    lambdas = (0.8, 0.9, 0.961917, 1.0)
    estimates = [measure_sigma(lam, 20.0, 1 << 24) for lam in lambdas]
    measures = [e.measure for e in estimates]
    assert all(a >= b for a, b in zip(measures, measures[1:]))
    assert 0.0 < measures[2] < measures[1]  # strictly between 0 and the 0.9 level
    assert measure_sigma(1.05, 20.0, 1 << 10).measure == 0.0
    exps = {e.lam: e.empirical_exponent for e in estimates}
    _ok(
        9,
        "measure non-increasing over lambda at L=20, grid 2^24 "
        f"({', '.join(f'{lam}: {m:.3e}' for lam, m in zip(lambdas, measures))}); "
        f"empirical exponents reported only: {exps[0.961917]:.3f} at 0.961917",
    )


def test_criterion_10_witness_search_window():
    t0 = time.perf_counter()
    missing = []
    for n in range(10_001, 10_201, 2):
        w = find_witness(n, 2, "free")
        if w is None:
            missing.append(n)
        else:
            assert w.validate()
    oracle_missing = [n for n in range(10_001, 10_201, 2) if not oracle_has_witness(n, 2)]
    elapsed = time.perf_counter() - t0
    assert missing == oracle_missing
    assert elapsed < 60.0
    _ok(
        10,
        f"odd N in [10001, 10199], k=2: witnesses validate, missing set {missing} "
        f"matches oracle, runtime {elapsed:.1f} s",
    )


def test_criterion_11_desk_scale_jsum_and_rho():
    params = ProblemParams(n1=101, n2=101)
    res = j_sum_exact(params, 3)
    assert res.value == brute_force_jsum(101, 101, params.omega, 3)
    rho = rho_counts_from_primes([3], [2, 3], U=2, V=2)
    assert rho_table(rho)[0] == 6
    assert rho_table(rho) == brute_force_rho([3], [2, 3])
    # the asymptotic density constants enter as reported ratios only
    _ok(
        11,
        f"pair sum equals 4-fold loop (ratio {res.ratio:.3f} vs 305.8869, report only); "
        f"rho(0)=6 and full map equals 8-fold loop "
        f"(density ratio {rho.bound_ratio:.1f} vs b=268096, report only)",
    )


def test_criterion_12_report_determinism():
    params = ProblemParams(n1=1_000_003, n2=1_000_003)
    budgets = ReportBudgets(
        sigma_samples=8,
        sigma_cutoff=500,
        mc_n=10**9 + 1,
        mc_samples=50_000,
        measure_grid=1 << 12,
        measure_L=16.0,
        jsum_n=50_021,
        jsum_l_cap=8,
        rho_u=5,
        rho_v=3,
        witness_start=10_001,
        witness_count=8,
    )
    blobs = [
        json.dumps(full_report(params, budgets, seed=77, threads=t), sort_keys=True)
        for t in (1, 1, 4)
    ]
    assert blobs[0] == blobs[1] == blobs[2]
    assert json.loads(blobs[0])["k_threshold"] == 231
    _ok(12, "full report bit-identical across repeated runs and thread counts 1/4")

import itertools
import math

import numpy as np
import pytest

import glinnik.binary as binary
from glinnik import (
    DomainError,
    NumericalIntegrityError,
    ProblemParams,
    ResourceError,
    count_pairs,
    enum_Xi,
    j_sum_exact,
    measure_sigma,
    sieve_range,
)
from glinnik.binary import MAX_SHIFT_COUNT


def exhaustive_xi(N, k, eta, v_max):
    counts = {}
    for tup in itertools.product(range(1, v_max + 1), repeat=k):
        n = N - sum(1 << v for v in tup)
        if (1.0 - eta) * N <= n <= N:
            counts[n] = counts.get(n, 0) + 1
    return counts


def test_enum_xi_worked_example():
    xi = enum_Xi(101, 2, 0.1, 3.0)
    assert xi.values == (91, 93, 95, 97)
    assert dict(xi.entries) == exhaustive_xi(101, 2, 0.1, 3)


def test_enum_xi_k1_example():
    xi = enum_Xi(101, 1, 0.1, 3.9)
    assert xi.values == (93, 97, 99)


def test_enum_xi_all_members_odd():
    for N in (101, 1001, 99_999):
        xi = enum_Xi(N, 3, 0.2, 5.0)
        assert all(n % 2 == 1 for n in xi.values)


def test_enum_xi_matches_exhaustive_enumeration():
    cases = [
        (101, 2, 0.1, 3),
        (103, 3, 0.3, 4),
        (1001, 2, 0.05, 9),
        (999, 4, 0.5, 5),
        (12345, 3, 0.01, 6),
    ]
    for N, k, eta, v_max in cases:
        assert v_max**k <= 10**6
        xi = enum_Xi(N, k, eta, float(v_max))
        assert dict(xi.entries) == exhaustive_xi(N, k, eta, v_max)
        assert xi.total_multiplicity() <= v_max**k


def test_enum_xi_validation_and_budget():
    with pytest.raises(DomainError):
        enum_Xi(100, 2, 0.1, 3.0)
    with pytest.raises(DomainError):
        enum_Xi(101, 0, 0.1, 3.0)
    with pytest.raises(ResourceError, match="node budget"):
        enum_Xi(2**40 + 1, 12, 0.9, 30.0, node_budget=1_000)
    bad = [(0.0, 3.0), (-0.1, 3.0), (1.5, 3.0), (math.nan, 3.0), (0.1, math.inf), (0.1, math.nan)]
    for eta, L in bad:
        with pytest.raises(DomainError):
            enum_Xi(101, 2, eta, L)
        with pytest.raises(DomainError):
            count_pairs(101, 103, 2, eta, L)


def test_shift_count_budget_fails_before_any_work(monkeypatch):
    def no_factorial(k):
        raise AssertionError("k! formed before the shift-count budget was checked")

    monkeypatch.setattr(math, "factorial", no_factorial)
    k = MAX_SHIFT_COUNT + 1
    with pytest.raises(ResourceError, match="shift-count budget"):
        enum_Xi(101, k, 0.1, 3.0)
    with pytest.raises(ResourceError, match="shift-count budget"):
        count_pairs(101, 103, k, 0.1, 3.0)


def test_count_pairs_worked_example():
    assert count_pairs(101, 103, 2, 0.1, 3.0) == 6
    assert count_pairs(103, 101, 2, 0.1, 3.0) == 6


def test_count_pairs_degenerate_window():
    # eta = 1 admits every tuple as long as sums stay below both targets
    for M in (3, 5, 7):
        assert count_pairs(10_001, 10_003, 2, 1.0, float(M)) == M * M


def test_count_pairs_bounded_by_tuple_count():
    for N1, N2, k, eta, M in [(1001, 999, 2, 0.2, 5), (501, 401, 3, 0.4, 4)]:
        c = count_pairs(N1, N2, k, eta, float(M))
        assert 0 <= c <= M**k


def test_count_pairs_matches_exhaustive():
    for N1, N2, k, eta, M in [(101, 103, 2, 0.1, 3), (1001, 987, 3, 0.08, 6)]:
        brute = 0
        for tup in itertools.product(range(1, M + 1), repeat=k):
            s = sum(1 << v for v in tup)
            if N1 - s >= (1 - eta) * N1 and N2 - s >= (1 - eta) * N2:
                brute += 1
        assert count_pairs(N1, N2, k, eta, float(M)) == brute


def test_binary_collision_identity():
    for M in range(1, 13):
        count = 0
        for m1, m2, m3, m4 in itertools.product(range(1, M + 1), repeat=4):
            if (1 << m1) + (1 << m2) == (1 << m3) + (1 << m4):
                count += 1
        assert count == 2 * M * M - M


def test_measure_extremes():
    assert measure_sigma(0.0, 12.0, 1 << 10).measure == 1.0
    # lam * L above the term count forces an empty level set
    assert measure_sigma(1.5, 12.0, 1 << 10).measure == 0.0
    assert measure_sigma(1.5, 12.0, 1 << 10).empirical_exponent is None


def test_measure_monotone_in_lambda_small_grid():
    grid = 1 << 14
    vals = [measure_sigma(lam, 20.0, grid).measure for lam in (0.8, 0.9, 0.961917, 1.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_measure_pinned_values():
    # exact ties |G| = lam L occur on dyadic grids at lam 0.9 and 1.0
    cases = [
        (0.8, 20.0, 1 << 14, 0.0018310546875),
        (0.9, 20.0, 1 << 14, 0.0001220703125),
        (0.961917, 20.0, 1 << 14, 6.103515625e-05),
        (1.0, 20.0, 1 << 14, 6.103515625e-05),
        (0.9, 14.0, 1 << 12, 0.000244140625),
    ]
    for lam, L, grid, expected in cases:
        assert measure_sigma(lam, L, grid).measure == expected


def test_measure_validation():
    with pytest.raises(DomainError):
        measure_sigma(0.9, 14.0, 512)
    for lam, L in [(math.nan, 14.0), (math.inf, 14.0), (-0.1, 14.0), (0.9, math.nan), (0.9, math.inf)]:
        with pytest.raises(DomainError):
            measure_sigma(lam, L, 1 << 12)
    with pytest.raises(ResourceError, match="grid budget"):
        measure_sigma(0.9, 14.0, (1 << 24) + 1)


def brute_force_jsum(n1, n2, omega, l_cap):
    def r(n, d):
        primes = [int(p) for p in sieve_range(2, n).primes if p > omega * n]
        pset = set(primes)
        return sum(1 for p in primes if p - d in pset)

    total = 0
    for m in itertools.product(range(1, l_cap + 1), repeat=4):
        d = (1 << m[0]) + (1 << m[1]) - (1 << m[2]) - (1 << m[3])
        total += r(n1, d) * r(n2, d)
    return total


def test_jsum_tiny_brute_force_oracle():
    params = ProblemParams(n1=101, n2=101)
    res = j_sum_exact(params, 3)
    assert res.value == brute_force_jsum(101, 101, params.omega, 3)

    params = ProblemParams(n1=257, n2=101)
    res = j_sum_exact(params, 4)
    assert res.value == brute_force_jsum(257, 101, params.omega, 4)


def test_jsum_diagonal_contribution():
    params = ProblemParams(n1=101, n2=101)
    res = j_sum_exact(params, 3)
    pi_count = len(sieve_range(1, 101))
    m = 3
    assert res.diagonal == (2 * m * m - m) * pi_count * pi_count
    assert res.value >= res.diagonal
    assert res.ratio > 0


def test_jsum_resource_limits():
    with pytest.raises(ResourceError):
        j_sum_exact(ProblemParams(n1=10**7 + 1, n2=101), 3)
    with pytest.raises(ResourceError):
        j_sum_exact(ProblemParams(n1=101, n2=101), 30)


def sliced_and_count(isp, lo, hi, d):
    """Pairs p1 - p2 = d with both primes in (lo, hi], d >= 0, by one AND."""
    a, b = lo + 1, hi - d
    if b < a:
        return 0
    return int(np.count_nonzero(isp[a : b + 1] & isp[a + d : hi + 1]))


def needed_lags(l_cap):
    sums = {(1 << a) + (1 << b) for a in range(1, l_cap + 1) for b in range(a, l_cap + 1)}
    return np.array(sorted({abs(s - t) for s in sums for t in sums}), dtype=np.int64)


@pytest.mark.parametrize("n, l_cap", [(100_003, 24), (1_000_003, 24)])
def test_autocorrelation_counts_match_sliced_and(n, l_cap):
    omega = ProblemParams(n1=n, n2=n).omega
    lo = math.floor(omega * n)
    isp = np.zeros(n + 1, dtype=bool)
    isp[sieve_range(lo + 1, n).primes] = True
    lags = needed_lags(l_cap)
    counts = binary._difference_counts(omega, n, lags)
    assert counts == [sliced_and_count(isp, lo, n, int(d)) for d in lags]


def test_jsum_autocorrelation_residue_check(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.3)
    with pytest.raises(NumericalIntegrityError, match="0.25"):
        j_sum_exact(ProblemParams(n1=20_001, n2=20_001), 6)


def test_jsum_equal_ranges_sieve_once(monkeypatch):
    calls = []

    def counting_sieve(*args, **kwargs):
        calls.append(args)
        return sieve_range(*args, **kwargs)

    monkeypatch.setattr(binary, "sieve_range", counting_sieve)
    j_sum_exact(ProblemParams(n1=20_001, n2=20_001), 6)
    assert len(calls) == 1
    j_sum_exact(ProblemParams(n1=20_003, n2=20_001), 6)
    assert len(calls) == 3

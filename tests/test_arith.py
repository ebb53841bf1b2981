import bisect
import math
import time

import numpy as np
import pytest

import glinnik.arith as arith
from glinnik import (
    DomainError,
    ResourceError,
    dyadic_table,
    is_prime,
    modpow,
    multiplicative,
    sieve_range,
)


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _simple_sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[: min(2, limit + 1)] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return flags


def test_sieve_first_primes():
    assert list(sieve_range(1, 10).primes) == [2, 3, 5, 7]


def test_sieve_empty_range():
    assert len(sieve_range(0, 1)) == 0


def test_sieve_million_count():
    table = sieve_range(1, 10**6)
    assert len(table) == 78498
    # independent spot check of the count on a subinterval
    oracle = sum(1 for n in range(999_000, 1_000_001) if trial_division_is_prime(n))
    assert int(np.count_nonzero(table.primes >= 999_000)) == oracle


def test_sieve_oracle_agreement_exhaustive():
    table = set(int(p) for p in sieve_range(1, 10**5).primes)
    for n in range(1, 10**5 + 1):
        assert (n in table) == trial_division_is_prime(n)


def test_sieve_segment_boundaries(monkeypatch):
    a = sieve_range(1, 40_000).primes
    monkeypatch.setattr(arith, "SEGMENT_SIZE", 1_000)
    b = sieve_range(1, 40_000).primes
    assert np.array_equal(a, b)


def test_sieve_thread_invariance(monkeypatch):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", 4_096)
    a = sieve_range(10_000, 200_000, threads=1).primes
    b = sieve_range(10_000, 200_000, threads=4).primes
    assert np.array_equal(a, b)


@pytest.mark.parametrize("segment", [7, 64, 1025])
def test_sieve_across_segment_edges(monkeypatch, segment):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    for lo in range(41):
        first = max(lo, 2)  # segments are counted from here
        for edges in (1, 3):
            for hi in range(first + edges * segment - 2, first + edges * segment + 1):
                expected = np.flatnonzero(_simple_sieve(hi)[lo:]) + lo
                for threads in (1, 2, 4):
                    got = sieve_range(lo, hi, threads=threads).primes
                    assert np.array_equal(got, expected), (lo, hi, threads)


def test_base_primes_match_the_simple_sieve():
    for limit in [*range(200), 1000, 3001, 4096, 1 << 14, 1 << 16, 10**6 + 7]:
        got = arith._base_primes.__wrapped__(limit)
        assert got.dtype == np.int64 and np.array_equal(got, np.flatnonzero(_simple_sieve(limit)))
    arith._base_primes.cache_clear()
    try:
        arith._base_primes(10**6 + 7)
        assert arith._base_primes.cache_info().currsize == 1  # its own base primes are not cached
    finally:
        arith._base_primes.cache_clear()


def test_sieve_near_the_base_limit():
    hi = (arith._MAX_BASE_LIMIT + 1) ** 2 - 1  # the largest hi whose root the base sieve covers
    lo = hi - 600
    try:
        got = sieve_range(lo, hi).primes.tolist()
    finally:
        arith._base_primes.cache_clear()  # the base primes up to 2^26 take 32 MB
    assert got == [n for n in range(lo, hi + 1) if is_prime(n)] and got
    with pytest.raises(ResourceError, match="_MAX_BASE_LIMIT"):
        sieve_range(hi + 1, hi + 1)


def test_sieve_short_segments_either_side_of_the_single_strike_primes():
    # a segment of n odd flags loops over the base primes p < n and strikes the rest,
    # each at most once, in one pass; n = p or p + 1 puts a striking p just either side
    limit = 250_000
    primes = np.flatnonzero(_simple_sieve(limit))
    rng = np.random.default_rng(29)
    for _ in range(3_000):
        p = int(rng.choice(primes[1 : np.searchsorted(primes, 480)]))
        n = int(rng.choice([p, p + 1, rng.integers(1, 2 * p)]))
        o = int(rng.integers(max(p * p - 2 * n, 0), limit - 2 * (n + p))) | 1
        if rng.integers(2):
            o = p * (o // p | 1)  # p at the first flag, and at the last too when n = p + 1
        lo, hi = o - int(rng.integers(2)), o + 2 * (n - 1) + int(rng.integers(2))
        expected = primes[np.searchsorted(primes, lo) : np.searchsorted(primes, hi, "right")]
        assert np.array_equal(sieve_range(lo, hi).primes, expected), (lo, hi)


def test_sieve_budget_error_names_budget():
    assert arith.MAX_SPAN == 2**31
    with pytest.raises(ResourceError, match="arith.MAX_SPAN"):
        sieve_range(0, 2**33)


def test_sieve_and_dyadic_blocks_reject_hostile_bounds():
    with pytest.raises(DomainError, match="lo must be an integer"):
        sieve_range(1.5, 9)
    with pytest.raises(DomainError, match="x >= 0"):
        dyadic_table(-5)
    for x in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            dyadic_table(x)


def test_sieve_domain_errors():
    with pytest.raises(DomainError):
        sieve_range(10, 5)
    with pytest.raises(DomainError):
        sieve_range(-1, 5)


def test_multiplicative_examples():
    f, mu, phi = multiplicative(1)
    assert f.factors == () and mu == 1 and phi == 1
    f, mu, phi = multiplicative(12)
    assert f.factors == ((2, 2), (3, 1)) and mu == 0 and phi == 4
    f, mu, phi = multiplicative(30)
    assert f.factors == ((2, 1), (3, 1), (5, 1)) and mu == -1 and phi == 8
    with pytest.raises(DomainError):
        multiplicative(0)


def test_factorization_product_identity():
    rng = np.random.default_rng(12345)
    for n in rng.integers(1, 10**9, size=10_000):
        f, _, _ = multiplicative(int(n))
        assert f.value() == int(n)


def test_phi_multiplicativity():
    rng = np.random.default_rng(99)
    done = 0
    while done < 1_000:
        a = int(rng.integers(1, 10**5))
        b = int(rng.integers(1, 10**5))
        if math.gcd(a, b) != 1:
            continue
        _, _, phi_a = multiplicative(a)
        _, _, phi_b = multiplicative(b)
        _, _, phi_ab = multiplicative(a * b)
        assert phi_ab == phi_a * phi_b
        done += 1


def test_mobius_definition_small():
    for n in range(1, 2_000):
        f, mu, _ = multiplicative(n)
        if any(e >= 2 for _, e in f.factors):
            assert mu == 0
        else:
            assert mu == (-1) ** len(f.factors)


def _general_path(n: int) -> tuple:
    """(factors, mobius, phi) of n with every cofactor left by trial division sent to
    arith._factor_into (Miller-Rabin, then Pollard-Brent), as multiplicative did for every n."""
    found: dict[int, int] = {}
    m = n
    base = arith._trial_divisors()
    for p in [p for p in base[: bisect.bisect_right(base, math.isqrt(n))] if n % p == 0]:
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    if m > 1:
        arith._factor_into(m, found)
    factors = tuple(sorted(found.items()))
    mobius = 0 if any(e >= 2 for _, e in factors) else (-1) ** len(factors)
    return factors, mobius, math.prod(p ** (e - 1) * (p - 1) for p, e in factors)


def _assert_general_path(ns) -> None:
    for n in ns:
        f, mu, phi = multiplicative(n)
        assert (f.n, (f.factors, mu, phi)) == (n, _general_path(n)), n


TRIAL_TOP = 16381  # the largest trial divisor: below (TRIAL_TOP + 1)^2 a cofactor is prime


def _primes_from(n: int, count: int) -> list[int]:
    out = []
    while len(out) < count:
        out += [n] * trial_division_is_prime(n)
        n += 1
    return out


def test_trial_division_shortcut_matches_the_general_path_below_2e5():
    assert arith._trial_divisors()[-1] == TRIAL_TOP
    _assert_general_path(range(1, 200_000))


def test_trial_division_shortcut_matches_the_general_path_on_random_n():
    rng = np.random.default_rng(2024)
    bits = rng.integers(1, 41, size=20_000)  # n < 2^40, with as many n of each bit length
    _assert_general_path(int(rng.integers(1 << (b - 1), 1 << b)) for b in bits)


def test_trial_division_shortcut_matches_the_general_path_at_its_bound():
    # the first and the last 2,000 n whose isqrt is TRIAL_TOP - 1, TRIAL_TOP or TRIAL_TOP + 1
    for r in (TRIAL_TOP - 1, TRIAL_TOP, TRIAL_TOP + 1):
        _assert_general_path([*range(r * r, r * r + 2000), *range((r + 1) ** 2 - 2000, (r + 1) ** 2)])
    _assert_general_path([TRIAL_TOP**2, TRIAL_TOP * 16411, 16411**2, 16381 * 16411 * 2,
                          *_primes_from(TRIAL_TOP**2, 20), *_primes_from((TRIAL_TOP + 1) ** 2, 20)])


def test_miller_rabin_runs_only_at_or_above_the_trial_bound(monkeypatch):
    calls = []

    def spy(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(arith, "is_prime", spy)
    bound = (TRIAL_TOP + 1) ** 2
    top_prime = max(p for p in range(bound - 200, bound) if trial_division_is_prime(p))
    # each leaves a prime cofactor > 1 after trial division
    below = [99_991, 16381 * 16369, 2 * _primes_from(bound // 2 - 100, 1)[0],
             _primes_from(TRIAL_TOP**2, 1)[0], top_prime]
    for n in below:
        f, _, _ = multiplicative(n)
        assert n < bound and f.factors[-1][0] > math.isqrt(n)
    assert calls == []
    for n in (TRIAL_TOP * 16411, _primes_from(bound, 1)[0], 2**61 - 1):
        calls.clear()
        f, _, _ = multiplicative(n)
        assert calls and f.value() == n, n


def test_factor_search_refuses_huge_cofactors_quickly():
    # each squaring is charged by the cofactor's size, so the wait does not grow with it
    for n in ((2**89 - 1) * (2**107 - 1), 10**300 + 1):
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="arith.MAX_RHO_STEPS"):
            multiplicative(n)
        assert time.perf_counter() - start < 1.0, n
    # a cofactor of two 64-bit limbs, charged 4 a squaring, is still split
    assert multiplicative((2**31 - 1) * (2**61 - 1))[0].factors == ((2**31 - 1, 1), (2**61 - 1, 1))


def test_modpow_examples():
    assert modpow(2, 10, 1000) == 24
    assert modpow(12345, 0, 7) == 1
    assert modpow(5, 1, 7) == 5
    assert modpow(3, 0, 1) == 0  # modulus 1 collapses everything
    with pytest.raises(DomainError):
        modpow(2, -1, 7)
    with pytest.raises(DomainError):
        modpow(2, 3, 0)


def test_is_prime_matches_sieve():
    table = set(int(p) for p in sieve_range(1, 20_000).primes)
    for n in range(20_000):
        assert is_prime(n) == (n in table)


def test_is_prime_large_known():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert not is_prime(3825123056546413051)  # strong pseudoprime to small bases


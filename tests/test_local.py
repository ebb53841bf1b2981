import cmath
import math

import numpy as np
import pytest

from glinnik import (
    DomainError,
    ResourceError,
    cubic_C3,
    local_A,
    multiplicative,
    ramanujan_C1,
    singular_series,
)
from glinnik import local
from glinnik.arith import _base_primes, is_prime


def direct_C1(q: int, a: int) -> complex:
    return sum(
        cmath.exp(2j * math.pi * ((a * h) % q) / q)
        for h in range(1, q + 1)
        if math.gcd(h, q) == 1
    )


def direct_C3(q: int, a: int) -> complex:
    return sum(
        cmath.exp(2j * math.pi * ((a * pow(h, 3, q)) % q) / q)
        for h in range(1, q + 1)
        if math.gcd(h, q) == 1
    )


def direct_B(n: int, q: int) -> complex:
    total = 0j
    for a in range(1, q + 1):
        if math.gcd(a, q) == 1:
            total += (
                direct_C1(q, a)
                * direct_C3(q, a) ** 4
                * cmath.exp(-2j * math.pi * ((a * n) % q) / q)
            )
    return total


def c3_row(q: int, q1: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """C3(q, a) for every residue a, and the mask of reduced residues, by one length-q DFT.

    C3(q, .) is the transform of the cube-residue histogram over reduced
    residues, built over the whole modulus, which is never split into primes.
    Given a factor q1 of q coprime to q2 = q / q1, the length-q transform is
    taken as one q1 x q2 ifft2 (Good-Thomas): the histogram's entry at
    (j1 q2 + j2 q1) mod q goes to (j1, j2), and the transform's entry
    (k1, k2) is the value at the a with a = k1 mod q1 and a = k2 mod q2.
    That reindexing holds for the DFT of any array, so the row still never
    uses the multiplicativity of C3 behind cubic_C3 and local_A.
    """
    h = np.arange(q, dtype=np.int64)
    mask = np.empty(q, dtype=bool)
    half = q // 2 + 1
    mask[:half] = np.gcd(h[:half], q) == 1
    mask[half:] = mask[q - half : 0 : -1]  # gcd(h, q) = gcd(q - h, q)
    cubes = (h * h % q) * h % q
    r = np.bincount(cubes[mask], minlength=q).astype(np.float64)
    if q1 == 1:
        return np.fft.ifft(r) * q, mask
    q2 = q // q1
    j1, j2 = np.ogrid[:q1, :q2]
    row = np.empty(q, dtype=np.complex128)
    row[(j1 * (q2 * pow(q2, -1, q1)) + j2 * (q1 * pow(q1, -1, q2))) % q] = (
        np.fft.ifft2(r[(j1 * q2 + j2 * q1) % q]) * q)
    return row, mask


def composite_b_row(q: int, mu: int) -> np.ndarray:
    """B(m, q) over all residues m for squarefree q, by two length-q DFTs.

    Transforming the masked fourth power of c3_row back gives every
    B(m, q) at once.
    """
    c3, mask = c3_row(q)
    g = np.where(mask, c3**4, 0.0)
    return mu * np.fft.fft(g)


def prime_a_row(p: int) -> np.ndarray:
    """A(m, p) over all residues m of a prime p, by two length-p DFTs.

    This is the prime row local_A used before its closed form: C3(p, .)
    is the transform of the cube-residue histogram, and transforming its
    masked fourth power back gives B(m, p) for every m.
    """
    return composite_b_row(p, -1).real / float(p - 1) ** 5


def residue_cosets(p: int) -> tuple[list[np.ndarray], int]:
    """The cosets g^j C of the cubes C mod a prime p = 1 mod 3, and omega = g^((p-1)/3).

    g is the least non-cube, so x lies in coset j exactly when x^((p-1)/3) = omega^j.
    """
    e = (p - 1) // 3
    g = next(x for x in range(2, p) if pow(x, e, p) != 1)
    h = np.arange(1, p, dtype=np.int64)
    cubes = np.flatnonzero(np.bincount((h * h % p) * h % p, minlength=p))
    return [cubes * pow(g, j, p) % p for j in range(3)], pow(g, e, p)


def residue_periods(p: int) -> tuple[tuple[float, float, float], int]:
    """The cubic periods of a prime p = 1 mod 3 and their omega, by one pass over p residues.

    This is how local found the periods before Gauss's closed form: eta_j
    sums cos(2 pi x / p) over the coset j of residue_cosets.
    """
    cosets, omega = residue_cosets(p)
    return tuple(float(np.cos(2.0 * math.pi / p * c).sum()) for c in cosets), omega


def residue_A(n: int, p: int) -> float:
    """A(n, p) at a prime p = 1 mod 3 by one sum over the residues a mod p.

    C3(p, a) = 3 eta_j for a in coset j and C1(p, a) = -1, so
    B(n, p) = -81 sum over a of eta_j(a)^4 e(-a n / p), which is real.
    """
    cosets, _ = residue_cosets(p)
    eta, _ = residue_periods(p)
    eta4 = np.zeros(p)
    for c, x in zip(cosets, eta):
        eta4[c] = x**4
    a = np.arange(p, dtype=np.int64)
    return -81.0 * float(np.dot(eta4, np.cos(2.0 * math.pi / p * (a * (n % p) % p)))) / (p - 1.0) ** 5


def composite_b_at(n: int, q: int, mu: int, q1: int = 1) -> complex:
    """B(n, q) for squarefree q: C3(q, .) from c3_row(q, q1), then one dot product.

    The modulus is never split into primes, so this stays independent of
    local_A; a*n is reduced mod q in int64 before the phase is formed.
    """
    row, mask = c3_row(q, q1)
    a = np.flatnonzero(mask)
    c3 = row[a]
    phase = np.exp(-2j * math.pi * (a * (n % q) % q / q))
    return mu * complex(np.dot(c3**4, phase))


def oracle_A(n: int, q: int, q1: int = 1) -> float:
    """A(n, q) from the whole-modulus sum, with its realness checked; q1 as in c3_row."""
    _, mu, phi = multiplicative(q)
    if mu == 0:
        return 0.0
    b = composite_b_at(n, q, mu, q1)
    assert abs(b.imag) <= 1e-6 * max(abs(b.real), (q - 1.0) ** 2.5)
    return b.real / phi**5


def assert_multiplicative(n: int, q1: int, q2: int) -> None:
    """A(n, q1 q2) = A(n, q1) A(n, q2) for coprime q1, q2, against the oracle."""
    a12 = oracle_A(n, q1 * q2, q1)
    for got in (local_A(n, q1).A * local_A(n, q2).A, local_A(n, q1 * q2).A):
        assert abs(a12 - got) <= 1e-9 * max(abs(a12), abs(got), 1e-9)


def test_ramanujan_examples():
    assert ramanujan_C1(5, 2) == -1
    assert ramanujan_C1(1, 1) == 1
    assert ramanujan_C1(4, 2) == -2


def test_ramanujan_against_direct_summation():
    for q in range(1, 61):
        for a in range(1, q + 1):
            direct = direct_C1(q, a)
            assert abs(direct.imag) < 1e-9
            assert ramanujan_C1(q, a) == pytest.approx(direct.real, abs=1e-8)


def closed_form_C1(q: int, a: int) -> int:
    """mu(q/g) phi(q) / phi(q/g) with g = gcd(a, q), the closed form ramanujan_C1 once used."""
    d = q // math.gcd(a, q)
    _, mu_d, phi_d = multiplicative(d)
    return mu_d * (multiplicative(q)[2] // phi_d)


def test_ramanujan_on_prime_powers():
    rng = np.random.default_rng(53)
    for q in (2**10 * 3**5, 7**4, 11**3 * 13**2, 2**20, 3**5 * 7**4 * 1009):
        divisors = [d for d in range(1, math.isqrt(q) + 1) if q % d == 0]
        divisors += [q // d for d in divisors]
        for g in rng.choice(divisors, size=40):
            a = int(g) * int(rng.integers(1, q // int(g) + 1))
            got = ramanujan_C1(q, a)
            assert type(got) is int and got == closed_form_C1(q, a), (q, a)


def test_cubic_examples():
    assert cubic_C3(2, 1) == pytest.approx(-1.0)
    assert cubic_C3(1, 1) == pytest.approx(1.0)
    assert cubic_C3(9, 1) == pytest.approx(6 * math.cos(2 * math.pi / 9), abs=1e-12)


def test_cubic_against_direct_summation():
    for q in range(1, 41):
        for a in range(1, q + 1):
            assert cubic_C3(q, a) == pytest.approx(direct_C3(q, a), abs=1e-9)


def test_cubic_against_direct_summation_larger_moduli():
    # composite and non-squarefree q up to about 10^4, against the loop
    rng = np.random.default_rng(37)
    moduli = [997 * 7, 4 * 9 * 49 * 5, 8 * 27 * 7 * 5, 2 * 3 * 5 * 7 * 11 * 13, 9973, 10_000, 9_991]
    moduli += [int(q) for q in rng.integers(100, 10_001, size=13)]
    for q in moduli:
        for a in {1, q, *(int(x) for x in rng.integers(1, q + 1, size=3))}:
            assert cubic_C3(q, a) == pytest.approx(direct_C3(q, a), abs=1e-9)


def test_cubic_near_the_budget_against_the_fft_row():
    # q = 2 (2^19 - 1) has a period prime part.  9 * 49 * 43 * 5 * 11 has two prime-power
    # parts, a period prime and two closed-form parts; C3(49, b) = 0 unless 7 | b, so its
    # a are multiples of 7.  Each q also takes a with gcd(a, q) > 1 at every part
    rng = np.random.default_rng(59)
    for q, step, shared in ((2 * 524_287, 1, (2, 524_287)),
                            (9 * 49 * 43 * 5 * 11, 7, (3, 9, 49, 43, 5, 11))):
        assert q <= local.MAX_RESIDUES
        row, _ = c3_row(q)
        phi = multiplicative(q)[2]
        samples = [*(step * int(x) for x in rng.integers(1, q // step, size=6)), q,
                   *(step * d * int(rng.integers(1, q // (step * d))) for d in shared)]
        for a in samples:
            assert abs(cubic_C3(q, a) - row[a % q]) <= 1e-12 * phi, (q, a)
        assert sum(abs(row[a % q]) > 1.0 for a in samples) >= len(samples) - 2


def test_cubic_closed_form_parts_are_exact():
    # every part of 2 * 5 * 11 * 17 is a prime p = 2 mod 3, where cubing permutes the units
    q = 2 * 5 * 11 * 17
    for a in range(1, q + 1):
        want = math.prod(p - 1 if a % p == 0 else -1 for p in (2, 5, 11, 17))
        assert cubic_C3(q, a) == want
    for a in (1, 2, 5, 110, q):
        assert cubic_C3(q, a) == pytest.approx(direct_C3(q, a), abs=1e-9)


def test_cubic_modulus_budget():
    with pytest.raises(ResourceError, match="residue budget"):
        cubic_C3(local.MAX_RESIDUES + 1, 1)


def test_local_A_examples():
    for n in (3, 5, 101, 999_999):
        assert local_A(n, 2).A == pytest.approx(1.0)
    for n in (4, 10, 1000):
        assert local_A(n, 2).A == pytest.approx(-1.0)
    for n in (1, 2, 5, 7):  # 3 does not divide n
        assert local_A(n, 3).A == pytest.approx(1.0 / 32.0)
    for n in (1, 5, 9, 12):
        assert local_A(n, 4).A == 0.0
    assert local_A(17, 1).A == 1.0


def test_local_A_against_direct_oracle():
    for q in range(1, 61):
        _, _, phi = multiplicative(q)
        for n in (5, 12, 30):
            lf = local_A(n, q)
            d = direct_B(n, q)
            assert abs(lf.B - d) < 1e-8 * max(1.0, abs(d))
            assert lf.A == pytest.approx(d.real / phi**5, abs=1e-10)


def test_local_A_squarefree_support_exhaustive():
    for q in range(1, 501):
        _, mu, _ = multiplicative(q)
        if mu == 0:
            assert local_A(7, q).A == 0.0
            assert local_A(7, q).B == 0j


def test_local_A_numerically_real():
    rng = np.random.default_rng(31)
    for _ in range(200):
        q = int(rng.integers(1, 2000))
        n = int(rng.integers(1, 10**7))
        lf = local_A(n, q)
        scale = max(1.0, (q - 1.0) ** 2.5)
        assert abs(lf.B.imag) <= 1e-9 * max(abs(lf.B.real), scale)


def test_local_A_multiplicativity_sample():
    rng = np.random.default_rng(41)
    done = 0
    while done < 100:
        q1 = int(rng.integers(2, 1001))
        q2 = int(rng.integers(2, 1001))
        if math.gcd(q1, q2) != 1:
            continue
        assert_multiplicative(int(rng.integers(1, 10**6)), q1, q2)
        done += 1


def test_local_A_uncached_large_prime_factor():
    # 65537 is 2 mod 3, so its factor is a closed form that caches nothing
    before = local._period_row.cache_info().currsize
    for n in (1, 65537, 123_456_789):
        assert_multiplicative(n, 6, 65537)
    info = local._period_row.cache_info()
    assert info.currsize == before
    assert info.maxsize == local._PRIME_ROW_CACHE_SIZE


def test_one_point_oracle_matches_the_row_oracle():
    rng = np.random.default_rng(43)
    for q in (2, 3, 7, 30, 91, 210, 997, 2 * 991, 3 * 5 * 7 * 11 * 13, 65537):
        _, mu, _ = multiplicative(q)
        row = composite_b_row(q, mu)
        scale = float(np.abs(row).max())
        for n in (0, 1, q - 1, *(int(x) for x in rng.integers(0, 10**7, size=5))):
            assert abs(composite_b_at(n, q, mu) - row[n % q]) <= 1e-12 * scale


def test_split_row_matches_the_plain_transform():
    # Good-Thomas splits q = q1 q2, with q2 = 1, q1 > q2 or composite factors, against one ifft
    for q1, q2 in ((2, 3), (3, 1), (5, 2), (4, 9), (7, 11 * 13), (64, 15_625), (997, 991)):
        q = q1 * q2
        plain, mask = c3_row(q)
        split, split_mask = c3_row(q, q1)
        assert np.array_equal(split_mask, mask)
        assert np.max(np.abs(split - plain)) <= 1e-9 * q, (q1, q2)


def assert_rows_agree(p: int, ms, row: np.ndarray) -> None:
    """Closed-form A(m, p) at the sampled m, within 1e-12 of the row's largest value."""
    got = np.array([local._a_prime(int(m), p) for m in ms])
    assert np.abs(got - row[ms]).max() <= 1e-12 * np.abs(row).max()


def test_closed_form_rows_every_residue_small_primes():
    for p in _base_primes(1 << 12):
        p = int(p)
        if p < 3000:
            assert_rows_agree(p, np.arange(p), prime_a_row(p))


def test_closed_form_rows_sampled_to_2e4():
    rng = np.random.default_rng(47)
    for p in _base_primes(1 << 15):
        p = int(p)
        if 3000 <= p <= 20_000:
            ms = np.concatenate(([0, 1, p - 1], rng.integers(0, p, size=8)))
            assert_rows_agree(p, ms, prime_a_row(p))


def test_closed_form_rows_above_2_16_both_classes():
    rng = np.random.default_rng(53)
    primes = (65537, 65539, 99991, 100003, 120011, 131071)
    assert {p % 3 for p in primes} == {1, 2}
    for p in primes:
        ms = np.concatenate(([0, 1, p - 1], rng.integers(0, p, size=20)))
        assert_rows_agree(p, ms, prime_a_row(p))


def gauss_L_M(p: int) -> tuple[int, int]:
    """(L, M) with 4p = L^2 + 27 M^2, L = 1 mod 3 and M > 0, by search over M."""
    for M in range(1, math.isqrt(4 * p // 27) + 1):
        sq = 4 * p - 27 * M * M
        L = math.isqrt(sq)
        if L * L == sq:
            return (L if L % 3 == 1 else -L), M
    raise AssertionError(f"no representation 4p = L^2 + 27 M^2 for p = {p}")


def next_prime(start: int, residue: int) -> int:
    """The least prime p > start with p = residue mod 3."""
    return next(p for p in range(start + 1, 2 * start) if p % 3 == residue and is_prime(p))


def test_cubic_period_identities():
    primes = [int(p) for p in _base_primes(1 << 15) if p % 3 == 1 and p <= 20_000]
    beyond = [next_prime(1 << b, 1) for b in (20, 21, 24, 30)]
    for p in primes + [65539, 99991, 100003] + beyond:
        (e0, e1, e2), omega = local._cubic_periods(p)
        L, M = gauss_L_M(p)
        tol = 1e-9 * p
        assert abs(e0 + e1 + e2 + 1.0) <= tol
        assert abs(e0 * e1 + e1 * e2 + e2 * e0 + (p - 1) / 3) <= tol
        # Gauss's period polynomial fixes the product as well
        assert abs(e0 * e1 * e2 - (p * (L + 3) - 1) // 27) <= tol * math.sqrt(p)
        vandermonde = (e0 - e1) * (e1 - e2) * (e2 - e0)
        assert abs(abs(vandermonde) - p * M) <= 1e-9 * p * M
        assert pow(omega, 3, p) == 1 and omega != 1


def test_closed_form_periods_match_the_residue_pass():
    # the same periods up to a cyclic shift of the cosets, oriented by omega
    for p in [int(p) for p in _base_primes(1 << 12) if p % 3 == 1] + [65539, 99991, 100003]:
        got, omega = local._cubic_periods(p)
        want, omega_want = residue_periods(p)
        c = 1 if omega == omega_want else 2
        assert omega in (omega_want, omega_want * omega_want % p)
        err = min(max(abs(got[j] - want[(c * j + t) % 3]) for j in range(3)) for t in range(3))
        assert err <= 1e-9 * math.sqrt(p)


def test_period_prime_budget():
    # no period prime is bounded: past the old 2^20 cap local_A matches the O(p) sum
    p = next_prime(1 << 20, 1)
    for n in (0, 1, 2, 5, p, 123_456_789, 10**12 + 7):
        want = residue_A(n, p)
        # A(n, 2) is 1 at odd n and -1 at even n
        for got in (local_A(n, p).A, local_A(n, 2 * p).A * (1 if n % 2 else -1)):
            assert abs(got - want) <= 1e-9 * abs(want)
    # primes congruent to 2 mod 3 need no periods
    other = next_prime(1 << 20, 2)
    assert local_A(5, other).A == 1.0 / float(other - 1) ** 5
    assert local_A(other, other).A == -1.0 / float(other - 1) ** 4


def test_series_factor_at_two():
    for n in (5, 101, 31337):
        ts = singular_series(n, 100)
        assert ts.factors[0] == (2, pytest.approx(2.0))
    # parity obstruction: even n zeroes the p = 2 factor and the product
    ts = singular_series(10, 100)
    assert ts.factors[0][1] == pytest.approx(0.0)
    assert ts.value == pytest.approx(0.0)


def test_series_no_anomalies_for_odd_n():
    for n in (5, 99_991, 1_234_567):
        assert singular_series(n, 500).anomalies == ()


def test_series_matches_q_sum_oracle():
    # The q-truncated sum and the prime-truncated product differ by the
    # squarefree moduli with all factors <= cutoff but value > cutoff;
    # that cross tail is ~1e-4 at cutoff 1000 and shrinks with the cutoff.
    diffs = []
    for cutoff in (500, 1000, 2000):
        euler = singular_series(5, cutoff).value
        qsum = sum(local_A(5, q).A for q in range(1, cutoff + 1))
        diffs.append(abs(qsum - euler))
    assert diffs[1] < 2e-4
    assert diffs[2] < diffs[1] < diffs[0]


def test_series_validation_errors():
    with pytest.raises(DomainError):
        singular_series(5, 2)


def test_series_cutoff_budget_checked_before_sieving(monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"sieved up to {limit}")

    monkeypatch.setattr(local, "_base_primes", no_sieve)
    for cutoff in (local.MAX_SERIES_CUTOFF + 1, 10**9):
        with pytest.raises(ResourceError, match="local.MAX_SERIES_CUTOFF = "):
            singular_series(5, cutoff)


def test_local_A_at_period_primes_past_2_40_and_2_61():
    # no residue pass could reach these primes; the closed form takes microseconds
    for p in (next_prime(1 << 40, 1), next_prime(1 << 61, 1)):
        (e0, e1, e2), omega = local._cubic_periods(p)
        assert abs(e0 + e1 + e2 + 1.0) <= 1e-12 * math.sqrt(p)
        assert pow(omega, 3, p) == 1 and omega != 1
        for n in (0, 1, 5, p - 1, 10**18 + 9):
            assert math.isfinite(local_A(n, p).A)

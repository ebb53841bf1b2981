import json
import math
from dataclasses import replace

import numpy as np
import pytest

from glinnik import (
    ConstantsLedger,
    DomainError,
    ProblemParams,
    ReportBudgets,
    binary,
    full_report,
    j_sum_exact,
    k_threshold,
    local,
    pipeline,
    r1_coefficient,
    r3_coefficient,
    rho_counts,
    search,
)
from glinnik.expsums import _half_spectrum as half_spectrum

SMALL_BUDGETS = ReportBudgets(
    sigma_samples=6,
    sigma_cutoff=300,
    mc_n=10**9 + 1,
    mc_samples=20_000,
    measure_grid=1 << 12,
    measure_L=14.0,
    jsum_n=10_001,
    jsum_l_cap=6,
    rho_u=5,
    rho_v=3,
    witness_start=10_001,
    witness_count=5,
)


def test_r1_coefficient_reference():
    assert r1_coefficient(0.8842495063, 2.7335671) == pytest.approx(0.00089051, abs=1e-8)
    assert r1_coefficient(1.0, 1.0) == pytest.approx(1.0 / 6561.0)
    assert r1_coefficient(2.0, 3.0) == r1_coefficient(3.0, 2.0)
    with pytest.raises(DomainError):
        r1_coefficient(-1.0, 1.0)


def test_r3_coefficient_reference():
    assert r3_coefficient(305.8869, 0.359127) == pytest.approx(6.2809957, abs=1e-6)
    assert r3_coefficient(1.0, 1.0) == pytest.approx(1.0)
    assert r3_coefficient(4.0, 0.5) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        r3_coefficient(0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_coefficients_reject_non_finite_input(bad):
    for coefficient in (r1_coefficient, r3_coefficient):
        for args in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(DomainError, match="finite"):
                coefficient(*args)


def test_k_threshold_reference():
    assert k_threshold(0.00089051, 6.2809957, 0.961917) == 231


def test_k_threshold_simple_cases():
    assert k_threshold(1.0, 0.5, 0.9) == 2
    # boundary: equality at k = 3 is not strict positivity
    assert k_threshold(1.0, 2.0, 0.5) == 4
    with pytest.raises(DomainError):
        k_threshold(1.0, 1.0, 1.5)


def test_k_threshold_direct_evaluation_is_authoritative():
    for c1, c2, lam in [(0.0009, 6.3, 0.96), (0.1, 7.0, 0.99), (1e-6, 2.0, 0.5)]:
        k = k_threshold(c1, c2, lam)
        assert c1 - c2 * lam ** (k - 2) > 0.0
        if k > 2:
            assert c1 - c2 * lam ** (k - 3) <= 0.0


def test_k_threshold_when_c1_over_c2_underflows():
    c1, c2, lam = 1e-300, 1e308, 0.5  # c1 / c2 is 0.0 in floating point
    k = k_threshold(c1, c2, lam)
    assert c1 - c2 * lam ** (k - 2) > 0.0 >= c1 - c2 * lam ** (k - 3)


def test_k_threshold_monotonicity_grid():
    c1s = (0.0005, 0.00089051, 0.002)
    c2s = (3.0, 6.2809957, 12.0)
    lams = (0.9, 0.961917, 0.99)
    for lam in lams:
        for c2 in c2s:
            ks = [k_threshold(c1, c2, lam) for c1 in c1s]
            assert ks == sorted(ks, reverse=True)  # non-increasing in c1
    for c1 in c1s:
        for lam in lams:
            ks = [k_threshold(c1, c2, lam) for c2 in c2s]
            assert ks == sorted(ks)  # non-decreasing in c2
        for c2 in c2s:
            ks = [k_threshold(c1, c2, lam) for lam in lams]
            assert ks == sorted(ks)  # non-decreasing in lambda


def test_ledger_invariants_recomputed():
    ledger = ConstantsLedger()
    assert ledger.r1_coeff == (ledger.sigma_min * ledger.j_const) ** 2 / 3**8
    assert ledger.r3_coeff == math.sqrt(ledger.jsum_const) * ledger.st_moment_const
    assert ledger.k_threshold == 231
    assert ledger.e_lambda_bound == pytest.approx(113 / 126, abs=1e-9)
    raised = ConstantsLedger(lam=0.99)
    assert raised.k_threshold > 231


def test_full_report_threshold_and_determinism():
    params = ProblemParams(n1=1_000_003, n2=1_000_003)
    r1 = full_report(params, SMALL_BUDGETS, seed=5, threads=1)
    r2 = full_report(params, SMALL_BUDGETS, seed=5, threads=1)
    r3 = full_report(params, SMALL_BUDGETS, seed=5, threads=3)
    assert r1["k_threshold"] == 231
    s1 = json.dumps(r1, sort_keys=True)
    assert s1 == json.dumps(r2, sort_keys=True)
    assert s1 == json.dumps(r3, sort_keys=True)
    assert r1["singular_series"]["value"]["violations"] == []
    assert r1["witness_density"]["value"]["missing"] == []


def test_full_report_raised_lambda_raises_threshold():
    params = ProblemParams(n1=1_000_003, n2=1_000_003, lam=0.99)
    report = full_report(params, SMALL_BUDGETS, seed=5)
    assert report["k_threshold"] > 231


def test_full_report_builds_the_binary_spectrum_once(monkeypatch):
    calls = []

    def counted(b, w, M):
        calls.append((b.size, M))
        return half_spectrum(b, w, M)

    monkeypatch.setattr(binary, "_half_spectrum", counted)
    budgets = replace(SMALL_BUDGETS, measure_lambdas=(0.9, 0.5, 0.961917))
    report = full_report(ProblemParams(n1=1_000_003, n2=1_000_003), budgets, seed=5)
    assert calls == [(math.floor(budgets.measure_L), budgets.measure_grid)]
    assert [m["value"]["lambda"] for m in report["measure"]] == [0.9, 0.5, 0.961917]


def test_full_report_rho_reads_delta():
    params = ProblemParams(n1=1_000_003, n2=1_000_003, delta=0.002)
    rho = full_report(params, SMALL_BUDGETS, seed=5)["rho"]["value"]
    assert rho["bound_ratio"] == rho_counts(5, 3, delta=0.002).bound_ratio


def test_full_report_rho_never_builds_the_difference_table(monkeypatch):
    calls = []

    class SpyNumpy:  # numpy as search sees it, with np.unique recorded
        def __getattr__(self, name):
            return getattr(np, name)

        def unique(self, *args, **kwargs):
            calls.append("np.unique")
            return np.unique(*args, **kwargs)

    table = search.RhoCounts.differences

    def differences(self):
        calls.append("differences")
        return table(self)

    monkeypatch.setattr(search.RhoCounts, "differences", differences)
    monkeypatch.setattr(search, "np", SpyNumpy())
    budgets = replace(SMALL_BUDGETS, rho_u=40, rho_v=20)
    rho = full_report(ProblemParams(n1=1_000_003, n2=1_000_003), budgets, seed=5)["rho"]["value"]
    assert calls == []
    # max_count is the diagonal sum of c(s)^2; the ratio is bit for bit the table's
    assert rho["max_count"] == 5416 and rho["bound_ratio"].hex() == "0x1.16023fd978168p+20"


def test_full_report_jsum_reads_omega():
    params = ProblemParams(n1=1_000_003, n2=1_000_003, omega=0.3)
    jsum = full_report(params, SMALL_BUDGETS, seed=5)["jsum"]["value"]
    n, l_cap = SMALL_BUDGETS.jsum_n, SMALL_BUDGETS.jsum_l_cap
    assert jsum["value"] == j_sum_exact(replace(params, n1=n, n2=n), l_cap).value
    assert jsum["value"] != j_sum_exact(ProblemParams(n1=n, n2=n), l_cap).value


# (sigma_window, sigma_samples) -> the n the singular-series block evaluates; before the
# step's floor of 2, the first two windows sampled [101, 101] and [101, 103, 103]
SIGMA_SAMPLES = {
    ((100, 103), 2): [101, 103],
    ((101, 105), 3): [101, 103, 105],
    ((1001, 1013), 3): [1001, 1005, 1009],
}


@pytest.mark.parametrize("window, samples", SIGMA_SAMPLES)
def test_full_report_samples_each_odd_n_once(monkeypatch, window, samples):
    seen = []
    series = local.singular_series

    def spy(n, prime_cutoff):
        seen.append(n)
        return series(n, prime_cutoff)

    monkeypatch.setattr(local, "singular_series", spy)
    budgets = replace(SMALL_BUDGETS, sigma_window=window, sigma_samples=samples)
    report = full_report(ProblemParams(n1=1_000_003, n2=1_000_003), budgets, seed=5)
    assert seen == SIGMA_SAMPLES[window, samples]
    assert report["singular_series"]["value"]["count"] == len(seen)


REPORT_FIXED_KEYS = {"schema", "config", "constants", "k_threshold", "exponent_note",
                     "regime_note"}


def test_report_blocks_cover_the_report(monkeypatch):
    calls = []

    def spy(key, stage):
        def run(*args):
            calls.append(key)
            return stage(*args)
        return run

    rows = pipeline.REPORT_BLOCKS
    keys = [key for key, _, _ in rows]
    monkeypatch.setattr(pipeline, "REPORT_BLOCKS",
                        tuple((key, method, spy(key, stage)) for key, method, stage in rows))
    params = ProblemParams(n1=1_000_003, n2=1_000_003)
    for runs in (1, 2):
        report = full_report(params, SMALL_BUDGETS, seed=5)
        assert calls == keys * runs
    assert len(set(keys)) == len(keys) and REPORT_FIXED_KEYS.isdisjoint(keys)
    assert set(report) == REPORT_FIXED_KEYS | set(keys)
    for key, method, _ in rows:
        if method is not None:
            assert report[key]["method"] == method and report[key]["seed"] is None

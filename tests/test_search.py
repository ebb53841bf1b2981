import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from glinnik import binary, expsums, search
from glinnik import (
    DomainError,
    RepWitness,
    ResourceError,
    find_pair_witness,
    find_witness,
    rho_counts,
    rho_counts_from_primes,
    sieve_range,
)


def oracle_has_witness(N: int, k: int) -> bool:
    """Independent exhaustive check, organized the other way around."""
    primes = [int(p) for p in sieve_range(2, N).primes]
    pset = set(primes)
    cube_primes = [p for p in primes if p**3 <= N]
    quads = set()
    for combo in itertools.combinations_with_replacement(cube_primes, 4):
        s = sum(p**3 for p in combo)
        if s <= N - 4:
            quads.add(s)
    shift_sums = set()

    def shifts(k, v_min, acc):
        if acc > N:
            return
        if k == 0:
            shift_sums.add(acc)
            return
        v = v_min
        while acc + (1 << v) * k <= N:
            shifts(k - 1, v, acc + (1 << v))
            v += 1

    shifts(k, 1, 0)
    for c in quads:
        for s in shift_sums:
            if (N - c - s) in pset:
                return True
    return False


def test_witness_37_exact():
    w = find_witness(37, 1)
    assert w == RepWitness(N=37, p1=3, cubes=(2, 2, 2, 2), powers=(1,))
    assert w.validate()


def test_witness_111_valid_and_spec_instance_checks():
    w = find_witness(111, 2)
    assert w is not None and w.validate()
    # the documented instance is also a valid witness
    spec_w = RepWitness(N=111, p1=73, cubes=(2, 2, 2, 2), powers=(1, 2))
    assert spec_w.validate()


def test_witness_35_definitive_none():
    assert find_witness(35, 1) is None


def test_witness_validates_window():
    for n in range(10_001, 10_041, 2):
        w = find_witness(n, 2)
        assert w is not None and w.validate()
        assert oracle_has_witness(n, 2)


def test_witness_matches_oracle_on_sparse_small_targets():
    # small odd targets where representability actually varies
    for n in range(35, 91, 2):
        found = find_witness(n, 1) is not None
        assert found == oracle_has_witness(n, 1)


def test_witness_paper_ranges_mode_runs():
    # the restricted mode's dyadic blocks are tiny at desk scale, so the
    # exhaustive search may return None; any witness must still validate
    w = find_witness(1_000_001, 2, mode="paper_ranges")
    if w is not None:
        assert w.validate()


def test_witness_validation_errors():
    with pytest.raises(DomainError):
        find_witness(36, 1)
    with pytest.raises(DomainError):
        find_witness(37, 0)
    with pytest.raises(ResourceError, match="MAX_WITNESS_N"):
        find_witness(10**7 + 1, 1)


# the first witness in lexicographic shift-multiset order at k = 2; a
# change to the enumeration order or to the cube-pair tables shows here
PINNED_WITNESSES_K2 = {
    10001: (9829, (2, 2, 3, 5)),
    10003: (9967, (2, 2, 2, 2)),
    10005: (9931, (2, 2, 3, 3)),
    10007: (8629, (2, 2, 3, 11)),
    10009: (9973, (2, 2, 2, 2)),
    10011: (9839, (2, 2, 3, 5)),
    10013: (9743, (2, 2, 5, 5)),
    10015: (9941, (2, 2, 3, 3)),
    10017: (9311, (2, 2, 7, 7)),
    10019: (9749, (2, 2, 5, 5)),
    10021: (9631, (2, 2, 3, 7)),
    10023: (9949, (2, 2, 3, 3)),
    10025: (9319, (2, 2, 7, 7)),
    10027: (9539, (2, 2, 5, 7)),
    10029: (9857, (2, 2, 3, 5)),
    10031: (9859, (2, 2, 3, 5)),
    10033: (9643, (2, 2, 3, 7)),
    10035: (9547, (2, 2, 5, 7)),
    10037: (9767, (2, 2, 5, 5)),
    10039: (9769, (2, 2, 5, 5)),
    10041: (9967, (2, 2, 3, 3)),
}


def test_witness_pinned_values():
    for n, (p1, cubes) in PINNED_WITNESSES_K2.items():
        assert find_witness(n, 2) == RepWitness(N=n, p1=p1, cubes=cubes, powers=(1, 1))


def test_nearby_searches_sieve_once(monkeypatch):
    calls = []

    def counting_sieve(*args, **kwargs):
        calls.append(args)
        return sieve_range(*args, **kwargs)

    search._prime_bitset.cache_clear()
    monkeypatch.setattr(search, "sieve_range", counting_sieve)
    for n in (10_001, 10_013, 10_041, 12_001):
        assert find_witness(n, 2).validate()
    assert find_pair_witness(10_019, 10_017, 2).validate()
    # free mode also sieves the few cube primes; only one sieve reaches N
    assert [args for args in calls if args[1] >= 10_001] == [(2, 1 << 14)]
    search._prime_bitset.cache_clear()


def test_pair_witness_pinned_values():
    pw = find_pair_witness(111, 109, 2)
    assert pw.w1 == RepWitness(N=111, p1=37, cubes=(2, 2, 3, 3), powers=(1, 1))
    assert pw.w2 == RepWitness(N=109, p1=73, cubes=(2, 2, 2, 2), powers=(1, 1))
    pw = find_pair_witness(10019, 10017, 2)
    assert pw.w1 == RepWitness(N=10019, p1=9749, cubes=(2, 2, 5, 5), powers=(1, 1))
    assert pw.w2 == RepWitness(N=10017, p1=9311, cubes=(2, 2, 7, 7), powers=(1, 1))


def test_witness_search_node_budget(monkeypatch):
    # in paper_ranges mode at k = 2, 433 is reached after 11 enumeration nodes
    w = RepWitness(N=433, p1=109, cubes=(3, 3, 5, 5), powers=(2, 4))
    monkeypatch.setattr(binary, "MAX_NODES", 11)
    assert find_witness(433, 2, mode="paper_ranges") == w
    monkeypatch.setattr(binary, "MAX_NODES", 10)
    with pytest.raises(ResourceError, match="MAX_NODES"):
        find_witness(433, 2, mode="paper_ranges")
    with pytest.raises(ResourceError, match="MAX_NODES"):
        find_pair_witness(433, 433, 2, mode="paper_ranges")


def test_paper_ranges_reads_delta_and_omega():
    # omega = 0.5 puts p1 in (216.5, 433], which excludes the default witness's p1 = 109;
    # delta = 0.05 moves the cube blocks and the first witness
    assert find_witness(433, 2, mode="paper_ranges").p1 == 109
    assert find_witness(433, 2, mode="paper_ranges", omega=0.5) is None
    w = find_witness(433, 2, mode="paper_ranges", delta=0.05)
    assert w == RepWitness(N=433, p1=223, cubes=(3, 3, 3, 5), powers=(1, 1))
    assert find_pair_witness(435, 433, 2, mode="paper_ranges").w1.p1 == 13
    assert find_pair_witness(435, 433, 2, mode="paper_ranges", omega=0.5) is None


@pytest.mark.parametrize(
    "bad",
    [{"delta": math.nan}, {"delta": math.inf}, {"delta": 0.0}, {"delta": -1e-4},
     {"omega": math.nan}, {"omega": -math.inf}, {"omega": 0.0}, {"omega": 1.0}],
)
def test_witness_search_rejects_hostile_delta_and_omega(bad):
    for mode in ("free", "paper_ranges"):
        with pytest.raises(DomainError, match="delta|omega"):
            find_witness(433, 2, mode, **bad)
        with pytest.raises(DomainError, match="delta|omega"):
            find_pair_witness(435, 433, 2, mode, **bad)


def test_witness_below_minimum_is_none_in_both_modes():
    for n in (1, 3, 33, 35, 37):
        assert find_witness(n, 2) is None
        assert find_witness(n, 2, mode="paper_ranges") is None
    with pytest.raises(DomainError, match="mode"):
        find_witness(37, 1, mode="bogus")


def test_pair_witness_identical_targets():
    pw = find_pair_witness(111, 111, 2)
    assert pw is not None and pw.validate()


def test_pair_witness_worked_example():
    pw = find_pair_witness(111, 109, 2)
    assert pw is not None and pw.validate()
    assert sorted(pw.w1.powers) == sorted(pw.w2.powers)
    assert pw.w1.N == 111 and pw.w2.N == 109


def test_pair_witness_below_minimum_none():
    assert find_pair_witness(37, 35, 1) is None


def rho_table(res) -> dict[int, int]:
    """res.differences() as a dict n -> rho(n), the shape brute_force_rho returns."""
    return dict(zip(*(column.tolist() for column in res.differences())))


def test_rho_worked_example_literal_sets():
    res = rho_counts_from_primes([3], [2, 3], U=2, V=2)
    assert rho_table(res)[0] == 6


@pytest.mark.parametrize("U, V", [(3, 2), (10, 5), (12, 5), (40, 20)])
def test_rho_symmetry_and_total(U, V):
    res = rho_counts(U, V)
    n, rho = res.differences()
    assert n.dtype == rho.dtype == np.int64 and np.all(np.diff(n) > 0)
    assert np.array_equal(n, -n[::-1]) and np.array_equal(rho, rho[::-1])  # rho(n) = rho(-n)
    assert int(rho.sum()) == res.quadruples**2
    # the diagonal: rho(0) = sum_s c(s)^2 bounds every rho(n) by Cauchy-Schwarz, strictly at n != 0
    diagonal = sum(int(c) ** 2 for c in res.counts)
    assert res.max_count == diagonal == rho[n == 0].item() == rho.max()
    assert np.all(rho[n != 0] < diagonal)
    assert res.bound_ratio > 0


def test_rho_odd_differences_vanish_without_two():
    res = rho_counts_from_primes([3, 5], [3, 7], U=2, V=3)
    assert all(n % 2 == 0 for n, c in rho_table(res).items() if c > 0)


def brute_force_rho(pu, pv):
    counts = {}
    quads = [
        a**3 + b**3 + c**3 + d**3
        for a in pu
        for b in pu
        for c in pv
        for d in pv
    ]
    for s1 in quads:
        for s2 in quads:
            counts[s1 - s2] = counts.get(s1 - s2, 0) + 1
    return counts


def test_rho_matches_brute_force():
    pu = [int(p) for p in sieve_range(3, 6).primes]
    pv = [int(p) for p in sieve_range(2, 4).primes]
    res = rho_counts_from_primes(pu, pv, U=2, V=2)
    assert rho_table(res) == brute_force_rho(pu, pv)

    pu = [int(p) for p in sieve_range(4, 6).primes]
    pv = [int(p) for p in sieve_range(3, 4).primes]
    res2 = rho_counts_from_primes(pu, pv, U=3, V=2)
    assert rho_table(res2) == brute_force_rho(pu, pv)


def test_rho_budget_errors(monkeypatch):
    monkeypatch.setattr(expsums, "MAX_QUADRUPLES", 100)
    with pytest.raises(ResourceError, match="MAX_QUADRUPLES"):
        rho_counts(300, 100)
    with pytest.raises(DomainError):
        rho_counts_from_primes([], [3], U=2, V=2)
    with pytest.raises(DomainError, match="integer"):
        rho_counts(math.nan, 3)


@pytest.mark.parametrize("U, V", [(10, 5.5), (10.0, 5), (10, math.inf)])
def test_rho_rejects_non_integer_scales(U, V):
    with pytest.raises(DomainError, match="integer"):
        rho_counts(U, V)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, 0.0, -2.0, 1e308])
def test_rho_rejects_hostile_delta(delta):
    with pytest.raises(DomainError, match="delta"):
        rho_counts(10, 5, delta=delta)
    with pytest.raises(DomainError, match="delta"):
        rho_counts_from_primes([3], [2, 3], U=2, V=2, delta=delta)


def test_rho_cli_reports_overflowing_delta_as_a_domain_error(capsys):
    from glinnik.cli import main

    assert main(["rho", "--u", "10", "--v", "5", "--delta", "1e308"]) == 1
    err = capsys.readouterr().err
    assert "domain error" in err and "delta" in err and "NaN" not in err


def test_rho_checks_the_difference_budget_before_building_any_sum(monkeypatch):
    calls = []
    build = search._quadruple_buckets

    def spy(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(search, "_quadruple_buckets", spy)
    # P_U = {11, 13, 17, 19} and P_V = {7} give C(5, 2) C(2, 2) = 10 distinct sums at most
    monkeypatch.setattr(search, "MAX_DIFFS", 99)
    with pytest.raises(ResourceError, match="search.MAX_DIFFS = 99"):
        rho_counts(10, 5)
    assert calls == []
    monkeypatch.setattr(search, "MAX_DIFFS", 100)
    assert len(rho_counts(10, 5).differences()[0]) > 0 and len(calls) == 1


@pytest.mark.parametrize("pu, pv", [([11, 13, 17, 19], [7]), ([3, 5, 7, 11], [5, 7, 13]),
                                    ([2, 3, 5], [2, 3, 5]), ([3, 5], [7, 11])])
def test_rho_difference_bound_counts_each_shared_prime_once(monkeypatch, pu, pv):
    # the bound is the square of the number of distinct multisets {a, b, c, d}, a, b in P_U, c, d in P_V
    multisets = {tuple(sorted(t)) for t in itertools.product(pu, pu, pv, pv)}
    entries = len(multisets) ** 2
    monkeypatch.setattr(search, "MAX_DIFFS", entries - 1)
    with pytest.raises(ResourceError, match=f"up to {entries} entries"):
        rho_counts_from_primes(pu, pv, U=2, V=2)
    monkeypatch.setattr(search, "MAX_DIFFS", entries)
    assert len(rho_counts_from_primes(pu, pv, U=2, V=2).differences()[0]) <= entries


RHO_MODULES = """
import sys
import numpy
if "numpy.ma" in sys.modules:
    print("preloaded")
else:
    from glinnik import rho_counts
    rho_counts(10, 5)
    print("numpy.ma" in sys.modules)
"""


def test_rho_counts_leaves_numpy_ma_unloaded():
    # np.intersect1d and a bare np.unique import numpy.ma under numpy 2, a cost paid inside the call
    src = str(Path(search.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", RHO_MODULES], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    if run.stdout.strip() == "preloaded":
        pytest.skip("import numpy loads numpy.ma itself")
    assert run.stdout.strip() == "False"

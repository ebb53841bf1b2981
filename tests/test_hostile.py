"""Hostile input at every public entry point: a DomainError or ResourceError, or a finite result.

One hostile value goes into one numeric slot at a time (an argument, or one
entry of a tuple argument) while every other slot keeps a small valid value.
Budgets are shrunk so that no accepted size allocates much, and every
`threads` stays 1.
"""

import dataclasses
import inspect
import json
import math
from fractions import Fraction
from functools import partial

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import glinnik
from glinnik import ProblemParams, arith, binary, cli, expsums, local, search, sint
from glinnik.cli import SUBCOMMANDS, RunConfig, main
from glinnik.errors import DomainError, ResourceError
from glinnik.expsums import DOMAINS
from glinnik.pipeline import ReportBudgets, full_report

nan, inf = math.nan, math.inf
# 10**300 + 1 and 10**400 + 1 are odd targets: N^(11/9) overflows at the first, and the
# second is beyond the float range
HUGE = (10**300 + 1, 10**400 + 1)
HOSTILE = (nan, inf, -inf, 1e308, 5e-324, -1, 0, 10**30, *HUGE, "7")

PARAMS = ProblemParams(n1=101, n2=101)
TABLE = glinnik.dyadic_table(10)
TINY_REPORT = dict(sigma_samples=2, sigma_cutoff=100, mc_n=1001, mc_samples=1000,
                   measure_grid=1024, measure_L=10.0, jsum_n=101, jsum_l_cap=3, rho_u=3,
                   rho_v=2, witness_start=101, witness_count=2)

# one small valid call per exported function, every argument named
VALID = {
    "dyadic_table": dict(x=10.0),
    "is_prime": dict(n=97),
    "modpow": dict(base=2, exp=10, modulus=7),
    "multiplicative": dict(n=360),
    "sieve_range": dict(lo=2, hi=100, threads=1),
    "count_pairs": dict(N1=101, N2=103, k=2, eta=0.1, L=3.0),
    "enum_Xi": dict(N=101, k=2, eta=0.1, L=3.0),
    "j_sum_exact": dict(params=PARAMS, L_cap=3),
    "measure_sigma": dict(lam=0.9, L=12.0, grid=1024),
    "classify_arc": dict(params=PARAMS, i=1, alpha=0.3),
    "dirichlet_approx": dict(alpha=0.3, Q=100),
    "eval_G": dict(L=12.0, alpha=0.3),
    "eval_cube": dict(table=TABLE, alpha=0.3),
    "eval_grid": dict(kind="binary", source=12.0, M=1024),
    "eval_linear": dict(params=PARAMS, i=1, alpha=0.3),
    "linear_table": dict(params=PARAMS, i=1, threads=1),
    "minor_arc_diagnostic": dict(params=PARAMS, i=1, samples=2, seed=0, c=4.0, threads=1),
    "moment2_exact": dict(table=TABLE),
    "moment_ST4_exact": dict(U=10, V=5),
    "cubic_C3": dict(q=7, a=1),
    "local_A": dict(n=5, q=7),
    "ramanujan_C1": dict(q=7, a=1),
    "singular_series": dict(n=5, prime_cutoff=100),
    "full_report": dict(params=PARAMS, budgets=ReportBudgets(**TINY_REPORT), seed=1, threads=1),
    "k_threshold": dict(c1=1.0, c2=2.0, lam=0.9),
    "r1_coefficient": dict(sigma_min=0.88, j_const=2.7),
    "r3_coefficient": dict(jsum_const=305.9, st_moment_const=0.36),
    "find_pair_witness": dict(N1=111, N2=109, k=2, mode="free", delta=1e-4, omega=1e-5),
    "find_witness": dict(N=433, k=2, mode="free", delta=1e-4, omega=1e-5),
    "rho_counts": dict(U=3, V=2, delta=1e-4),
    "rho_counts_from_primes": dict(primes_u=(5, 7), primes_v=(3,), U=3, V=2, delta=1e-4),
    "jn_closed_form": dict(delta=1e-4),
    "jn_exact_small": dict(n=500, U=2, V=2, m1_range=(0.0, 500.0)),
    "jn_monte_carlo": dict(n=101, params=PARAMS, i=1, samples=1000, seed=1, threads=1),
    "jn_monte_carlo_box": dict(n=30.0, box=(1.0, 8.0, 1.0, 8.0), m1_range=(0.0, 20.0),
                               samples=1000, seed=1, threads=1),
}

# (module, budget, small value): every valid call above and below fits
SMALL_BUDGETS = [
    (arith, "MAX_SPAN", 1 << 16), (arith, "MAX_RHO_STEPS", 1 << 12), (expsums, "MAX_GRID", 1 << 12),
    (expsums, "MAX_QUADRUPLES", 1 << 12),
    (binary, "MAX_NODES", 10_000), (binary, "MAX_JSUM_N", 10_000),
    (search, "MAX_WITNESS_N", 10_000), (search, "MAX_DIFFS", 1 << 14),
    (local, "MAX_RESIDUES", 1 << 12), (local, "MAX_SERIES_CUTOFF", 1 << 12),
    (sint, "MAX_MC_SAMPLES", 1 << 14),
    (cli, "MAX_EMIT_VALUES", 1 << 14),
]


@pytest.fixture
def small_budgets(monkeypatch):
    for module, name, value in SMALL_BUDGETS:
        monkeypatch.setattr(module, name, value)
    monkeypatch.setattr(cli, "ReportBudgets", partial(ReportBudgets, **TINY_REPORT))


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def slots(kwargs: dict) -> list[tuple[str, int | None]]:
    """(argument, tuple index or None) of every numeric slot but threads."""
    out = []
    for name, value in kwargs.items():
        if name == "threads":
            continue
        if is_number(value):
            out.append((name, None))
        elif isinstance(value, tuple) and all(map(is_number, value)):
            out += [(name, j) for j in range(len(value))]
    return out


def hostile_values(valid) -> tuple:
    """HOSTILE, and for an integer slot two floats: the valid value as a float, and half past it."""
    return HOSTILE + ((float(valid), valid + 0.5) if isinstance(valid, int) else ())


def valid_value(kwargs: dict, slot):
    name, j = slot
    return kwargs[name] if j is None else kwargs[name][j]


def with_value(kwargs: dict, slot, value) -> dict:
    name, j = slot
    if j is None:
        return {**kwargs, name: value}
    entries = list(kwargs[name])
    entries[j] = value
    return {**kwargs, name: tuple(entries)}


def assert_finite(obj) -> None:
    """Every float or complex reachable from obj is finite."""
    if isinstance(obj, (float, complex, np.floating, np.complexfloating)):
        assert np.isfinite(obj), obj
    elif isinstance(obj, np.ndarray):
        assert obj.dtype.kind not in "fc" or np.isfinite(obj).all()
    elif isinstance(obj, dict):
        for v in obj.values():
            assert_finite(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            assert_finite(v)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            assert_finite(getattr(obj, f.name))


def exported_functions() -> dict:
    return {name: obj for name, obj in vars(glinnik).items()
            if inspect.isfunction(obj) and not name.startswith("_")}


def test_valid_calls_cover_every_exported_function():
    functions = exported_functions()
    assert set(VALID) == set(functions)
    for name, kwargs in VALID.items():
        inspect.signature(functions[name]).bind(**kwargs)  # names every argument right


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_calls_succeed_at_small_budgets(small_budgets, name):
    assert_finite(getattr(glinnik, name)(**VALID[name]))


LIBRARY_CASES = [(name, slot, value) for name in sorted(VALID) for slot in slots(VALID[name])
                 for value in hostile_values(valid_value(VALID[name], slot))]


# a small space: Hypothesis stops once it has drawn every case
EXHAUSTIVE = settings(derandomize=True, max_examples=4000, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


@EXHAUSTIVE
@given(st.sampled_from(LIBRARY_CASES))
def test_hostile_library_input_is_refused_or_finite(small_budgets, case):
    name, slot, value = case
    try:
        result = getattr(glinnik, name)(**with_value(VALID[name], slot, value))
    except (DomainError, ResourceError):
        return
    assert_finite(result)


# the report's budgets, one numeric slot at a time
REPORT_VALID = dataclasses.asdict(ReportBudgets(**TINY_REPORT))
REPORT_CASES = [(slot, value) for slot in slots(REPORT_VALID)
                for value in hostile_values(valid_value(REPORT_VALID, slot))]


@EXHAUSTIVE
@given(st.sampled_from(REPORT_CASES))
def test_hostile_report_budgets_are_refused_or_finite(small_budgets, case):
    slot, value = case
    try:
        budgets = ReportBudgets(**with_value(REPORT_VALID, slot, value))
        result = glinnik.full_report(PARAMS, budgets, seed=1, threads=1)
    except (DomainError, ResourceError):
        return
    assert_finite(result)


# one small valid argv per CLI subcommand; every config key but threads is a slot as well
CLI_VALID = {
    "sieve": ("--lo", "1", "--hi", "200"),
    "eval": ("--kind", "linear", "--alpha", "0.3", "--n1", "1001", "--n2", "1001"),
    "arcs": ("--alpha", "0.5"),
    "singular-series": ("--n", "5", "--cutoff", "100"),
    "singular-integral": ("--samples", "2000", "--seed", "3"),
    "xi": ("--N", "101", "--k", "2", "--eta", "0.1", "--vmax", "3"),
    "measure": ("--lambda", "0.5", "--l", "12", "--grid", "1024"),
    "jsum": ("--lcap", "3", "--n1", "101", "--n2", "101"),
    "rho": ("--u", "3", "--v", "2"),
    "search": ("--n", "37", "--k", "1"),
    "pair-search": ("--n1", "111", "--n2", "109", "--k", "2"),
    "k-threshold": (),
    "report": (),
}
CONFIG_FLAGS = [f"--{key}" for key, _, _ in RunConfig.config_keys() if key != "threads"]


def numeric_flags(row) -> list[str]:
    _, _, flags, _ = row
    return [names[0] for names, kw in flags if kw.get("type") in (int, float)] + CONFIG_FLAGS


def cli_argv(name: str, flag: str, text: str) -> list[str]:
    """The valid argv of name with flag set to text, and --threads 1."""
    argv = list(CLI_VALID[name])
    spellings = {"--n": ("--n", "--N")}.get(flag, (flag,))
    for j, token in enumerate(argv):
        if token in spellings:
            argv[j + 1] = text
            break
    else:
        argv += [flag, text]
    return [name, *argv, "--threads", "1"]


def strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"non-finite JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def test_cli_valid_argv_cover_every_subcommand(capsys, small_budgets):
    assert set(CLI_VALID) == {row[0] for row in SUBCOMMANDS}
    for name in CLI_VALID:
        assert main([name, *CLI_VALID[name], "--threads", "1"]) == 0, name
        strict_json(capsys.readouterr().out)


CLI_TEXTS = ("nan", "inf", "-inf", "1e308", "5e-324", "-1", "0", str(10**30), *map(str, HUGE), "2.5")
CLI_CASES = [(row[0], flag, text) for row in SUBCOMMANDS for flag in numeric_flags(row)
             for text in CLI_TEXTS]


@EXHAUSTIVE
@given(st.sampled_from(CLI_CASES))
def test_hostile_cli_input_keeps_the_exit_code_contract(capsys, small_budgets, case):
    name, flag, text = case
    code = main(cli_argv(name, flag, text))
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 64) and "Traceback" not in err, (name, flag, text, code, err)
    if code == 0:
        strict_json(out)


# hostile calls that raised another exception or returned a value before each entry
# point stated its arguments' domains
PROBES = {
    "local_A(5, 7.0)": lambda: glinnik.local_A(5, 7.0),
    "local_A(nan, 7)": lambda: glinnik.local_A(nan, 7),
    "local_A(5.5, 7)": lambda: glinnik.local_A(5.5, 7),
    "singular_series(5, nan)": lambda: glinnik.singular_series(5, nan),
    "singular_series(5, 3.5)": lambda: glinnik.singular_series(5, 3.5),
    "singular_series(5.5, 100)": lambda: glinnik.singular_series(5.5, 100),
    "singular_series(nan, 100)": lambda: glinnik.singular_series(nan, 100),
    "cubic_C3(7.0, 1)": lambda: glinnik.cubic_C3(7.0, 1),
    "cubic_C3(7, 1.5)": lambda: glinnik.cubic_C3(7, 1.5),
    "ramanujan_C1(7.0, 1)": lambda: glinnik.ramanujan_C1(7.0, 1),
    "is_prime(nan)": lambda: glinnik.is_prime(nan),
    "is_prime(7.5)": lambda: glinnik.is_prime(7.5),
    "modpow(2, nan, 7)": lambda: glinnik.modpow(2, nan, 7),
    "modpow(2, 3, 7.5)": lambda: glinnik.modpow(2, 3, 7.5),
    "multiplicative(12.0)": lambda: glinnik.multiplicative(12.0),
    "multiplicative(nan)": lambda: glinnik.multiplicative(nan),
    "count_pairs(101, 103, 2.5, 0.1, 3)": lambda: glinnik.count_pairs(101, 103, 2.5, 0.1, 3),
    "count_pairs(101.0, 103, 2, 0.1, 3)": lambda: glinnik.count_pairs(101.0, 103, 2, 0.1, 3),
    "find_witness(37.0, 1)": lambda: glinnik.find_witness(37.0, 1),
    "find_witness(37, 1.5)": lambda: glinnik.find_witness(37, 1.5),
    "find_witness(nan, 1)": lambda: glinnik.find_witness(nan, 1),
    "find_pair_witness(111.0, 109, 2)": lambda: glinnik.find_pair_witness(111.0, 109, 2),
    "enum_Xi(101.0, 2, 0.1, 3)": lambda: glinnik.enum_Xi(101.0, 2, 0.1, 3),
    "enum_Xi(nan, 2, 0.1, 3)": lambda: glinnik.enum_Xi(nan, 2, 0.1, 3),
    "enum_Xi(101, 2.5, 0.1, 3)": lambda: glinnik.enum_Xi(101, 2.5, 0.1, 3),
    "rho_counts_from_primes([5], [3], U=3.5, V=2.7)":
        lambda: glinnik.rho_counts_from_primes([5], [3], U=3.5, V=2.7),
    "j_sum_exact(params, 2.5)": lambda: glinnik.j_sum_exact(PARAMS, 2.5),
    "linear_table(params, 1.0)": lambda: glinnik.linear_table(PARAMS, 1.0),
    "moment_ST4_exact(10.5, 5)": lambda: glinnik.moment_ST4_exact(10.5, 5),
    "measure_sigma(0.9, 1100.0, 1024)": lambda: glinnik.measure_sigma(0.9, 1100.0, 1024),
    "measure_sigma(0.9, 1023.5, 1024)": lambda: glinnik.measure_sigma(0.9, 1023.5, 1024),
    "ReportBudgets(sigma_samples=0)": lambda: ReportBudgets(sigma_samples=0),
    "local_A('5', 7)": lambda: glinnik.local_A("5", 7),
    "sieve_range(None, 10)": lambda: glinnik.sieve_range(None, 10),
    "eval_linear(params, 1, '0.5')": lambda: glinnik.eval_linear(PARAMS, 1, "0.5"),
    "eval_linear(params, 1, 0.5j)": lambda: glinnik.eval_linear(PARAMS, 1, 0.5j),
    "eval_linear(params, 1, 0.5, table=5)": lambda: glinnik.eval_linear(PARAMS, 1, 0.5, table=5),
    "eval_cube(5, 0.3)": lambda: glinnik.eval_cube(5, 0.3),
    "rho_counts_from_primes(5, [3], U=3, V=2)":
        lambda: glinnik.rho_counts_from_primes(5, [3], U=3, V=2),
    "ProblemParams(n1=10**300 + 1, n2=10**300 + 1)": partial(ProblemParams, HUGE[0], HUGE[0]),
    "ProblemParams(n1=10**400 + 1, n2=10**400 + 1)": partial(ProblemParams, HUGE[1], HUGE[1]),
}


@pytest.mark.parametrize("call", PROBES.values(), ids=PROBES.keys())
def test_probe_calls_raise_domain_errors(call):
    with pytest.raises(DomainError):
        call()


# budgets is a ReportBudgets or None; a mapping of its fields once raised a raw TypeError
# from dataclasses.fields, and a falsy value such as {} silently meant the defaults
NOT_BUDGETS = {"{'sigma_samples': 3}": {"sigma_samples": 3}, "{}": {}, "0": 0, "False": False,
               "''": "", "TINY_REPORT": TINY_REPORT, "params": PARAMS}


@pytest.mark.parametrize("budgets", NOT_BUDGETS.values(), ids=NOT_BUDGETS.keys())
def test_full_report_refuses_budgets_that_are_not_report_budgets(budgets):
    with pytest.raises(DomainError, match="budgets must be a ReportBudgets"):
        full_report(PARAMS, budgets, seed=1, threads=1)


# one hostile prime-list entry at a time, or a repeated prime.  Before the lists had a stated
# domain, nan raised a bare ValueError, 3.5 counted as 3, 2**40 wrapped int64 and a repeated
# prime counted every tuple 4 times
PRIME_ENTRIES = {"nan": nan, "inf": inf, "3.5": 3.5, "-3": -3, "0": 0, "1": 1, "2**40": 2**40}


@pytest.mark.parametrize("slot", ["primes_u", "primes_v"])
@pytest.mark.parametrize("entry", [*PRIME_ENTRIES.values(), "repeat"],
                         ids=[*PRIME_ENTRIES, "repeat"])
def test_rho_prime_lists_refuse_hostile_entries(monkeypatch, slot, entry):
    monkeypatch.setattr(search, "_quadruple_buckets", None)  # no sum may be built
    kwargs = VALID["rho_counts_from_primes"]
    primes = kwargs[slot]
    primes = primes + primes[:1] if entry == "repeat" else (entry,) + primes[1:]
    with pytest.raises(DomainError):
        glinnik.rho_counts_from_primes(**{**kwargs, slot: primes})


# every field at its default, the report's budgets at TINY_REPORT
FIELD_KWARGS = {
    ProblemParams: {"n1": 101, "n2": 101, **{f.name: f.default for f in dataclasses.fields(ProblemParams)
                                            if f.name not in ("n1", "n2")}},
    ReportBudgets: {**{f.name: f.default for f in dataclasses.fields(ReportBudgets)}, **TINY_REPORT},
}
FIELD_CASES = [(cls, slot, kind) for cls, kwargs in FIELD_KWARGS.items() for slot in slots(kwargs)
               if isinstance(valid_value(kwargs, slot), float)
               for kind in (np.float32, np.float64, Fraction)]


@pytest.mark.parametrize("cls, slot, kind", FIELD_CASES,
                         ids=[f"{c.__name__}-{s[0]}{'' if s[1] is None else s[1]}-{k.__name__}"
                              for c, s, k in FIELD_CASES])
def test_real_fields_take_numpy_floats_and_fractions(cls, slot, kind):
    """A real field given a numpy float or a Fraction stores, derives and reports its float value."""
    kwargs = FIELD_KWARGS[cls]
    value = kind(valid_value(kwargs, slot))
    want = cls(**with_value(kwargs, slot, float(value)))
    try:
        got = cls(**with_value(kwargs, slot, value))
    except DomainError:
        return
    assert same_result(got, want), (got, want)
    if cls is ProblemParams:
        scales = [(p.u(i), p.v(i), p.p_max(i), p.q_max(i), p.L) for p in (got, want) for i in (1, 2)]
        assert same_result(scales[:2], scales[2:]), scales
    reports = [full_report(*((p, ReportBudgets(**TINY_REPORT)) if cls is ProblemParams
                             else (PARAMS, p)), seed=1) for p in (got, want)]
    assert repr(reports[0]) == repr(reports[1])


def test_integer_fields_take_numpy_integers():
    params = ProblemParams(n1=np.int64(101), n2=np.uint64(101), k=np.int32(231))
    assert same_result(params, ProblemParams(n1=101, n2=101))
    budgets = ReportBudgets(**{**TINY_REPORT, "mc_n": np.int64(1001), "xi_n": (np.int64(101), 103)})
    assert same_result(budgets, ReportBudgets(**TINY_REPORT))


def test_numpy_integers_give_the_plain_int_result():
    q = np.int64(1024)
    assert np.array_equal(glinnik.eval_grid("binary", 12.0, q), glinnik.eval_grid("binary", 12.0, 1024))
    assert glinnik.measure_sigma(0.5, 12.0, q) == glinnik.measure_sigma(0.5, 12.0, 1024)
    assert glinnik.local_A(5, np.int64(7)) == glinnik.local_A(5, 7)
    primes = glinnik.sieve_range(1_000_003, 1_001_003).primes.tolist()
    for kind in (np.int64, np.uint64):
        assert glinnik.sieve_range(kind(1_000_003), kind(1_001_003)).primes.tolist() == primes
    one = np.int64(1)
    for got, want in ((glinnik.dirichlet_approx(one, one), glinnik.dirichlet_approx(1, 1)),
                      (glinnik.dirichlet_approx(one, np.int64(7)), glinnik.dirichlet_approx(1, 7)),
                      (glinnik.classify_arc(PARAMS, 1, one), glinnik.classify_arc(PARAMS, 1, 1))):
        assert got == want
        assert all(type(getattr(got, f.name)) is type(getattr(want, f.name))
                   for f in dataclasses.fields(got)), got


def same_result(got, want, close: bool = False) -> bool:
    """got equals want, down to the type of every number in it; close allows 1e-13 relative."""
    if dataclasses.is_dataclass(want):
        return type(got) is type(want) and all(
            same_result(getattr(got, f.name), getattr(want, f.name), close)
            for f in dataclasses.fields(want))
    if isinstance(want, dict):
        return (type(got) is dict and got.keys() == want.keys()
                and all(same_result(got[k], w, close) for k, w in want.items()))
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and got.dtype == want.dtype and (
            np.allclose(got, want, rtol=1e-13, atol=0.0) if close else np.array_equal(got, want))
    if isinstance(want, (list, tuple)):
        return (type(got) is type(want) and len(got) == len(want)
                and all(same_result(g, w, close) for g, w in zip(got, want)))
    if type(got) is not type(want):
        return False
    if close and isinstance(want, (float, complex)):
        return abs(got - want) <= 1e-13 * max(1.0, abs(want))
    return got == want


REAL_CASES = [(name, slot, kind) for name in sorted(VALID) for slot in slots(VALID[name])
              if isinstance(valid_value(VALID[name], slot), float)
              for kind in (np.float32, np.float64, Fraction)]


@pytest.mark.parametrize("name, slot, kind", REAL_CASES,
                         ids=[f"{n}-{s[0]}{'' if s[1] is None else s[1]}-{k.__name__}"
                              for n, s, k in REAL_CASES])
def test_real_slots_take_numpy_floats_and_fractions(small_budgets, name, slot, kind):
    """A real slot given a numpy float or a Fraction returns what its float value returns.

    A Fraction alpha takes the exact rational phase path, which agrees with
    the float path to within 1e-13 relative rather than bit for bit.
    """
    kwargs = VALID[name]
    value = kind(valid_value(kwargs, slot))
    want = getattr(glinnik, name)(**with_value(kwargs, slot, float(value)))
    try:
        got = getattr(glinnik, name)(**with_value(kwargs, slot, value))
    except DomainError:
        return
    close = kind is Fraction and slot == ("alpha", None)
    assert same_result(got, want, close), (got, want)


INTEGER_CASES = [(name, slot, kind) for name in sorted(VALID) for slot in slots(VALID[name])
                 if isinstance(valid_value(VALID[name], slot), int)
                 for kind in (np.int64, np.uint64, np.int32)]


@pytest.mark.parametrize("name, slot, kind", INTEGER_CASES,
                         ids=[f"{n}-{s[0]}{'' if s[1] is None else s[1]}-{k.__name__}"
                              for n, s, k in INTEGER_CASES])
def test_integer_slots_take_numpy_integers(small_budgets, name, slot, kind):
    """An integer slot given a numpy integer returns what its int returns, down to type."""
    kwargs = VALID[name]
    want = getattr(glinnik, name)(**kwargs)
    try:
        got = getattr(glinnik, name)(**with_value(kwargs, slot, kind(valid_value(kwargs, slot))))
    except DomainError:
        return
    assert same_result(got, want), (got, want)


# reals that overflow a float, or that round onto 1 or 0 (an open end of several domains)
EDGES = {"1e400": 10**400, "-1e400": -(10**400),
         "1+1e-20": Fraction(10**20 + 1, 10**20), "1-1e-20": Fraction(10**20 - 1, 10**20),
         "1e-400": Fraction(1, 10**400), "-1e-400": Fraction(-1, 10**400)}
EDGE_CASES = [(name, slot, edge) for name in sorted(VALID) for slot in slots(VALID[name])
              if isinstance(valid_value(VALID[name], slot), float) for edge in EDGES]


@pytest.mark.parametrize("name, slot, edge", EDGE_CASES,
                         ids=[f"{n}-{s[0]}{'' if s[1] is None else s[1]}-{e}"
                              for n, s, e in EDGE_CASES])
def test_real_slots_refuse_or_finish_at_edge_values(small_budgets, name, slot, edge):
    try:
        result = getattr(glinnik, name)(**with_value(VALID[name], slot, EDGES[edge]))
    except (DomainError, ResourceError):
        return
    assert_finite(result)


FIELD_EDGE_CASES = [(cls, slot, edge) for cls, kwargs in FIELD_KWARGS.items()
                    for slot in slots(kwargs) if isinstance(valid_value(kwargs, slot), float)
                    for edge in EDGES]


@pytest.mark.parametrize("cls, slot, edge", FIELD_EDGE_CASES,
                         ids=[f"{c.__name__}-{s[0]}{'' if s[1] is None else s[1]}-{e}"
                              for c, s, e in FIELD_EDGE_CASES])
def test_real_fields_refuse_edge_values_or_store_them_in_domain(small_budgets, cls, slot, edge):
    """An accepted field lies inside its expsums.DOMAINS interval, and the report is finite."""
    try:
        obj = cls(**with_value(FIELD_KWARGS[cls], slot, EDGES[edge]))
    except DomainError:
        return
    for name, (lo, hi, ends) in DOMAINS.items() if cls is ProblemParams else ():
        v = getattr(obj, name)
        inside = (lo < v if ends[0] == "(" else lo <= v) and (v < hi if ends[1] == ")" else v <= hi)
        assert inside, obj
    try:
        report = full_report(*((obj, ReportBudgets(**TINY_REPORT)) if cls is ProblemParams
                               else (PARAMS, obj)), seed=1, threads=1)
    except (DomainError, ResourceError):
        return
    assert_finite(report)

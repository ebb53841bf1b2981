"""Assemble the proof constants and reproduce the k = 231 threshold.

The two coefficients compared in the end are

    r1 = (sigma_min * j_const)^2 / 3^8      main-term coefficient
    r3 = sqrt(jsum_const) * st_moment_const  error-term coefficient

and the threshold is the least k >= 2 with r1 - r3 * lam^(k-2) > 0.
The exponent k-2 follows the derivation that assembles r3 (the stated
form of that bound says k-3; the report flags the mismatch and follows
the derivation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from . import binary, local, search
from .binary import count_pairs, enum_Xi
from .errors import NON_NEGATIVE_INTEGERS, POSITIVE_INTEGERS, _require_in, _require_odd
from .errors import DomainError, _store_plain
from .expsums import DOMAINS, ProblemParams
from .sint import jn_closed_form, jn_monte_carlo

SIGMA_MIN = 0.8842495063
J_CONST = 2.7335671
JSUM_CONST = 305.8869
ST_MOMENT_CONST = 0.359127
CUBE_DIFF_B = 268096
E_LAMBDA_BOUND = 113.0 / 126.0 + 1e-10

EXPONENT_NOTE = (
    "the error-term bound is applied with exponent lam^(k-2), as in the "
    "derivation that assembles it; the stated form of the same bound "
    "carries lam^(k-3) and is not used"
)
REGIME_NOTE = (
    "the asymptotic count (1-eps) L^k for admissible shift tuples needs "
    "k <= eta*log2(N); desk-scale parameters sit outside that regime, so "
    "exact enumeration counts are reported and checked against oracles "
    "instead of the asymptotic inequality"
)


@dataclass(frozen=True)
class ConstantsLedger:
    """Every named constant of the pipeline; derived values are recomputed."""

    sigma_min: float = SIGMA_MIN
    j_const: float = J_CONST
    jsum_const: float = JSUM_CONST
    st_moment_const: float = ST_MOMENT_CONST
    b: int = CUBE_DIFF_B
    lam: float = ProblemParams.lam
    e_lambda_bound: float = E_LAMBDA_BOUND

    @property
    def r1_coeff(self) -> float:
        return r1_coefficient(self.sigma_min, self.j_const)

    @property
    def r3_coeff(self) -> float:
        return r3_coefficient(self.jsum_const, self.st_moment_const)

    @property
    def k_threshold(self) -> int:
        return k_threshold(self.r1_coeff, self.r3_coeff, self.lam)


def r1_coefficient(sigma_min: float, j_const: float) -> float:
    """(sigma_min * j_const)^2 / 3^8, for sigma_min and j_const in (0, 1e75), so it stays finite."""
    sigma_min, j_const = _require_in((0, 1e75, "()"), sigma_min=sigma_min, j_const=j_const)
    return (sigma_min * j_const) ** 2 / 3**8


def r3_coefficient(jsum_const: float, st_moment_const: float) -> float:
    """sqrt(jsum_const) * st_moment_const, for both in (0, 1e75), so it stays finite."""
    jsum_const, st_moment_const = _require_in(
        (0, 1e75, "()"), jsum_const=jsum_const, st_moment_const=st_moment_const)
    return math.sqrt(jsum_const) * st_moment_const


def k_threshold(c1: float, c2: float, lam: float) -> int:
    """Least integer k >= 2 with c1 - c2 * lam^(k-2) > 0.

    A logarithm bracket locates the candidate; direct floating evaluation
    at the candidate and its neighbors is authoritative.
    """
    c1, c2 = _require_in((0, math.inf, "()"), c1=c1, c2=c2)
    lam = _require_in(DOMAINS["lam"], lam=lam)

    def positive(k: int) -> bool:
        return c1 - c2 * lam ** (k - 2) > 0.0

    if c1 > c2:
        k = 2
    else:
        # log c1 - log c2, not log(c1 / c2): the quotient can underflow to 0
        k = 2 + max(0, math.floor((math.log(c1) - math.log(c2)) / math.log(lam)) - 1)
    while not positive(k):
        k += 1
    while k > 2 and positive(k - 1):
        k -= 1
    return k


@dataclass(frozen=True)
class ReportBudgets:
    """Desk-scale knobs for the end-to-end report."""

    sigma_samples: int = 24
    sigma_cutoff: int = 2000
    sigma_window: tuple[int, int] = (100_001, 9_999_999)
    mc_n: int = 10**12 + 1
    mc_samples: int = 200_000
    measure_grid: int = 1 << 18
    measure_L: float = 20.0
    measure_lambdas: tuple[float, ...] = (0.9, ProblemParams.lam)
    jsum_n: int = 100_003
    jsum_l_cap: int = 10
    rho_u: int = 10
    rho_v: int = 5
    witness_start: int = 10_001
    witness_count: int = 21
    witness_k: int = 2
    xi_n: tuple[int, int] = (101, 103)
    xi_k: int = 2
    xi_eta: float = 0.1
    xi_vmax: float = 3.0

    def __post_init__(self):
        """Check the fields the report loops over itself, then store every field plain.

        The library checks the rest.  errors._store_plain stores a numpy integer
        as its int, and a number in a real field as its float.

        The singular-series samples are odd n in sigma_window = (lo, hi), and
        the last witness target is within search.MAX_WITNESS_N.
        """
        lo, hi = self.sigma_window
        lo, count = _require_in(POSITIVE_INTEGERS, sigma_window_lo=lo,
                                witness_count=self.witness_count)
        hi = _require_in((lo, math.inf, "[)Z"), sigma_window_hi=hi)
        _require_in((1, (hi + 1) // 2 - lo // 2, "[]Z"), sigma_samples=self.sigma_samples)
        search._check_witness_n(_require_odd(witness_start=self.witness_start) + 2 * count - 2)
        _store_plain(self)


def _record(obj, *drop: str, **rename: str) -> dict:
    """obj's dataclass fields but drop, keyed by rename.get(name, name), values not copied.

    dataclasses.asdict would deep-copy every field, arrays among them.
    """
    return {rename.get(f.name, f.name): getattr(obj, f.name)
            for f in fields(obj) if f.name not in drop}


def _annotate(value, method: str, seed: int | None = None) -> dict:
    return {"value": value, "method": method, "seed": seed}


def _singular_series(params, b, ledger, seed, threads) -> dict:
    """Odd n spread over sigma_window at least 2 apart, so that no n is sampled twice."""
    step = max(2, (b.sigma_window[1] - b.sigma_window[0]) // b.sigma_samples)
    ns = [(b.sigma_window[0] + j * step) | 1 for j in range(b.sigma_samples)]
    vals = [local.singular_series(n, b.sigma_cutoff).value for n in ns]
    return {"count": len(ns), "cutoff": b.sigma_cutoff, "min": min(vals),
            "mean": sum(vals) / len(vals), "max": max(vals), "bound": ledger.sigma_min,
            "tail_allowance": 0.003, "violations": [
                {"n": n, "value": v} for n, v in zip(ns, vals) if v < ledger.sigma_min - 0.003]}


def _singular_integral(params, b, ledger, seed, threads) -> dict:
    mc_params = replace(params, n1=b.mc_n, n2=b.mc_n)
    mc = jn_monte_carlo(b.mc_n, mc_params, 1, b.mc_samples, seed, threads=threads)
    return {"closed_form": _annotate(jn_closed_form(params.delta), "closed_form"),
            "monte_carlo": _annotate(_record(mc, "method", "seed"), "monte_carlo", seed)}


def _measure(params, b, ledger, seed, threads) -> list:
    return [_annotate(_record(m, lam="lambda"), "grid_bisection")
            for m in binary._level_sets(b.measure_lambdas, b.measure_L, b.measure_grid)]


def _jsum(params, b, ledger, seed, threads) -> dict:
    jsum = binary.j_sum_exact(replace(params, n1=b.jsum_n, n2=b.jsum_n), b.jsum_l_cap)
    return {**_record(jsum, "omega", "diagonal"), "bound_const": ledger.jsum_const,
            "asserted": False}


def _rho(params, b, ledger, seed, threads) -> dict:
    rho = search.rho_counts(b.rho_u, b.rho_v, delta=params.delta)
    return {**_record(rho, "sums", "counts", "quadruples", "n_ref", U="u", V="v"),
            "bound_const": ledger.b, "asserted": False}


def _witness_density(params, b, ledger, seed, threads) -> dict:
    ns = range(b.witness_start, b.witness_start + 2 * b.witness_count, 2)
    missing = [n for n in ns if search.find_witness(n, b.witness_k, "free") is None]
    return {"start": b.witness_start, "count": b.witness_count, "k": b.witness_k,
            "found": b.witness_count - len(missing), "missing": missing}


def _xi(params, b, ledger, seed, threads) -> dict:
    xi = enum_Xi(b.xi_n[0], b.xi_k, b.xi_eta, b.xi_vmax)
    return {**_record(xi, "entries", N="n", L="vmax"), "values": list(xi.values),
            "total_multiplicity": xi.total_multiplicity(),
            "pair_count": count_pairs(b.xi_n[0], b.xi_n[1], b.xi_k, b.xi_eta, b.xi_vmax)}


# The report's computed blocks, in report order: one row per block, holding
# (key, method, stage).  stage(params, budgets, ledger, seed, threads) returns the
# block's value, which full_report annotates with method; a stage whose method is
# None returns blocks it annotated itself.  A value built from a result dataclass
# holds its fields through _record, less those the report leaves out, and renamed
# where the report's key differs (`lam` as `lambda`, `N` as `n`, `U` and `V` as
# `u` and `v`, xi's `L` as `vmax`).
REPORT_BLOCKS = (
    ("singular_series", "euler_product", _singular_series),
    ("singular_integral", None, _singular_integral),
    ("measure", None, _measure),
    ("jsum", "fft_autocorrelation", _jsum),
    ("rho", "meet_in_the_middle", _rho),
    ("witness_density", "exhaustive_search", _witness_density),
    ("xi", "pruned_enumeration", _xi),
)


def full_report(
    params: ProblemParams,
    budgets: ReportBudgets | None = None,
    *,
    seed: int = 20240901,
    threads: int = 1,
) -> dict:
    """End-to-end JSON-ready report; deterministic at fixed seeds.

    Every numeric block carries its method and seed (null for
    deterministic computations), so identical inputs reproduce the report
    bit for bit at any thread count.  Each computed block is one row of
    REPORT_BLOCKS.  budgets None means ReportBudgets(); DomainError for
    anything else that is not a ReportBudgets.
    """
    b = ReportBudgets() if budgets is None else budgets
    if not isinstance(b, ReportBudgets):
        raise DomainError(f"budgets must be a ReportBudgets, got {budgets!r}")
    seed = _require_in(NON_NEGATIVE_INTEGERS, seed=seed)  # the report records it
    ledger = ConstantsLedger(lam=params.lam)
    constants = {**_record(ledger, lam="lambda"), "r1_coeff": ledger.r1_coeff,
                 "r3_coeff": ledger.r3_coeff, "k_threshold": ledger.k_threshold}
    report = {"schema": 1,
              "config": {**_record(params, lam="lambda"), "seed": seed, "budgets": _record(b)},
              "constants": _annotate(constants, "ledger_arithmetic"),
              "k_threshold": constants["k_threshold"],
              "exponent_note": EXPONENT_NOTE, "regime_note": REGIME_NOTE}
    for key, method, stage in REPORT_BLOCKS:
        value = stage(params, b, ledger, seed, threads)
        report[key] = value if method is None else _annotate(value, method)
    return report

"""The four benchmark workloads: inputs from a seed, operations, output checks.

`build(name, seed, size)` makes a workload's inputs with its own code and
numpy's generator only, so glinnik's module caches (`_base_primes`,
`_a_prime_rows`, `_b_rows`, `_measure_grid_cache`) are still cold when the
timed phase starts, as they are for every CLI user.  The seed changes
values only; sizes depend on `size` alone.

Every operation calls glinnik through module attributes looked up at call
time, so the tracer's wrappers see it.  Each check returns
(ok, exact, counts): whether the output passed an independent check, the
exact part of the output (integers, labels, k) that goes into the run's
digest, and counts read off the output for the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import importlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles

THREADS = 2

SIZES = {
    "full": {
        "report": dict(
            sigma_samples=48, sigma_cutoff=3000, mc_samples=5_000_000, measure_grid=1 << 20,
            jsum_n=300_001, jsum_l_cap=16, rho=(40, 20), witness_start=1_000_001,
            witness_count=30, witness_k=2, xi_k=4, xi_vmax=6.0,
        ),
        "arcs": dict(n=10_000_001, samples=8, grid=1 << 21, arc_points=2000, centres=16),
        "densities": dict(
            q_range=(10_000, 250_000), firsts=54, repeats=27, c3_q=10_000, c3_calls=20,
            c1_calls=100, lattice_u=22,
        ),
        "cli": dict(sieve_hi=3_000_000, grid=1 << 16, small=10),
    },
    "tiny": {
        "report": dict(
            sigma_samples=4, sigma_cutoff=300, mc_samples=20_000, measure_grid=1 << 12,
            jsum_n=20_001, jsum_l_cap=6, rho=(10, 5), witness_start=10_001,
            witness_count=3, witness_k=2, xi_k=2, xi_vmax=3.0,
        ),
        "arcs": dict(n=200_001, samples=2, grid=1 << 12, arc_points=20, centres=3),
        "densities": dict(
            q_range=(1_000, 20_000), firsts=4, repeats=2, c3_q=500, c3_calls=2,
            c1_calls=10, lattice_u=5,
        ),
        "cli": dict(sieve_hi=10_000, grid=1 << 10, small=1),
    },
}


@dataclass
class Op:
    name: str
    tag: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


@dataclass
class Workload:
    name: str
    inputs: dict
    ops: list[Op] = field(default_factory=list)


def _close(z: complex, ref: complex, scale: float) -> bool:
    return abs(complex(z) - ref) <= 1e-9 * max(scale, 1.0)


def _odd(x: int) -> int:
    return x | 1


# ---------------------------------------------------------------------------
# report: one cold full_report at scaled budgets


def build_report(g, rng, sz) -> Workload:
    budgets = g.ReportBudgets(
        sigma_samples=sz["sigma_samples"],
        sigma_cutoff=sz["sigma_cutoff"],
        sigma_window=(_odd(150_001 + 2 * int(rng.integers(0, 5_000))), 9_999_999),
        mc_samples=sz["mc_samples"],
        measure_grid=sz["measure_grid"],
        jsum_n=_odd(sz["jsum_n"] + 2 * int(rng.integers(0, 500))),
        jsum_l_cap=sz["jsum_l_cap"],
        rho_u=sz["rho"][0],
        rho_v=sz["rho"][1],
        witness_start=_odd(sz["witness_start"] + 2 * int(rng.integers(0, 5_000))),
        witness_count=sz["witness_count"],
        witness_k=sz["witness_k"],
        xi_n=tuple(sorted((_odd(int(x)) for x in rng.integers(1_451, 1_551, 2)), reverse=True)),
        xi_k=sz["xi_k"],
        xi_eta=0.1,
        xi_vmax=sz["xi_vmax"],
    )
    params = g.ProblemParams(n1=1_000_003, n2=1_000_003)
    seed = int(rng.integers(0, 2**31))
    jsum_n = budgets.jsum_n
    jsum_primes = int(oracles.primes_between(math.floor(1e-5 * jsum_n) + 1, jsum_n).size)

    def run():
        return g.full_report(params, budgets, seed=seed, threads=THREADS)

    def check(rep):
        sigma = rep["singular_series"]["value"]
        wit = rep["witness_density"]["value"]
        jsum = rep["jsum"]["value"]
        xi = rep["xi"]["value"]
        m = budgets.jsum_l_cap
        diagonal = (2 * m * m - m) * jsum_primes**2
        ok = (
            rep["k_threshold"] == 231
            and rep["constants"]["value"]["k_threshold"] == 231
            and wit["found"] + len(wit["missing"]) == wit["count"] == budgets.witness_count
            and float(jsum["value"]).is_integer()
            and jsum["value"] >= diagonal
            and sigma["count"] == budgets.sigma_samples
            and len(rep["measure"]) == len(budgets.measure_lambdas)
        )
        exact = [
            rep["k_threshold"], wit["found"], wit["missing"], sigma["count"],
            [v["n"] for v in sigma["violations"]], int(jsum["value"]),
            rep["rho"]["value"]["max_count"], xi["values"], xi["total_multiplicity"],
            xi["pair_count"],
        ]
        return ok, exact, {}

    inputs = {"params": dataclasses.asdict(params), "budgets": dataclasses.asdict(budgets),
              "report_seed": seed}
    return Workload("report", inputs, [Op("full_report", "report", run, check)])


# ---------------------------------------------------------------------------
# arcs: sieve, minor-arc diagnostic, grids, arc classification, major-arc centres


def build_arcs(g, rng, sz) -> Workload:
    n = _odd(sz["n"] + 2 * int(rng.integers(0, 25_000)))
    params = g.ProblemParams(n1=n, n2=n)
    q_cap = params.q_max(1)
    p_cap = math.floor(params.p_max(1))
    Q = math.floor(q_cap)
    diag_seed = int(rng.integers(0, 2**31))
    M = sz["grid"]
    lin_lo = math.floor(params.omega * n) + 1
    lin_primes = functools.cache(lambda: oracles.primes_between(lin_lo, n))
    u_lo, u_hi = math.floor(params.u(1)) + 1, math.floor(2 * params.u(1))
    v_lo, v_hi = math.floor(params.v(1)) + 1, math.floor(2 * params.v(1))
    # dyadic points j / 2^40 are exact as floats and as Fractions
    lo_j = math.ceil(2**40 / Q)
    points = [int(x) for x in rng.integers(lo_j, 2**40, sz["arc_points"])]
    centres = []
    while len(centres) < sz["centres"]:
        q = int(rng.integers(2, p_cap + 1))
        a = int(rng.integers(1, q))
        if math.gcd(a, q) == 1:
            centres.append((a, q))
    grid_j = [int(j) for j in rng.integers(1, M, 4)]
    ops: list[Op] = []
    state: dict = {}

    def run_table():
        state["table"] = g.linear_table(params, 1, threads=THREADS)
        return state["table"]

    def check_table(t):
        return bool(np.array_equal(t.primes, lin_primes())), [len(t), int(t.primes[0]), int(t.primes[-1])], {}

    ops.append(Op("linear_table", "sieve", run_table, check_table))

    def run_diag():
        return g.minor_arc_diagnostic(params, 1, sz["samples"], diag_seed, threads=THREADS)

    def check_diag(r):
        minor = all(oracles.major_arc(Fraction(a), p_cap, q_cap) is None for a in r.alphas)
        ok = (
            len(r.alphas) == sz["samples"] and minor
            and 0.0 < r.linear_ratio_max < math.inf and 0.0 < r.cube_ratio_max < math.inf
        )
        return ok, [r.samples, r.seed], {}

    ops.append(Op("minor_arc_diagnostic", "diagnostic", run_diag, check_diag))

    def grid_op(kind):
        def run():
            if kind == "linear":
                source = state["table"]
            elif kind == "cube_u":
                source = g.dyadic_table(params.u(1))
            elif kind == "cube_v":
                source = g.dyadic_table(params.v(1))
            else:
                source = params.L
            return g.eval_grid(kind, source, M)

        def check(grid):
            ok = len(grid) == M
            for j in grid_j:
                if kind == "linear":
                    p = lin_primes()
                    ref = oracles.weighted_sum_at(p, j, M)
                    scale = float(np.log(p.astype(np.float64)).sum())
                else:
                    if kind == "binary":
                        ref = oracles.binary_sum_at(params.L, Fraction(j, M))
                        scale = math.floor(params.L)
                    else:
                        lo, hi = (u_lo, u_hi) if kind == "cube_u" else (v_lo, v_hi)
                        ps = oracles.primes_between(lo, hi)
                        ref = oracles.cube_sum_at(ps, Fraction(j, M))
                        scale = float(np.log(ps.astype(np.float64)).sum())
                ok = ok and _close(grid[j], ref, scale)
            return ok, [kind, len(grid)], {}

        return Op(f"eval_grid:{kind}", "grid", run, check)

    for kind in ("linear", "cube_u", "cube_v", "binary"):
        ops.append(grid_op(kind))

    def arc_point_op(j):
        alpha = j / 2**40
        exact = Fraction(j, 2**40)

        def run():
            return g.classify_arc(params, 1, alpha), g.dirichlet_approx(alpha, Q)

        def check(res):
            label, d = res
            ref = oracles.major_arc(exact, p_cap, q_cap)
            got = (label.a, label.q) if label.is_major else None
            ok = got == ref and oracles.dirichlet_valid(exact, d.a, d.q, Q)
            return ok, [label.kind, label.a, label.q, d.a, d.q], {}

        return Op("classify_arc+dirichlet_approx", "arc", run, check)

    arc_ops = [arc_point_op(j) for j in points]

    def centre_ops(a, q):
        alpha = Fraction(a, q)

        def run_lin():
            return g.eval_linear(params, 1, alpha, table=state["table"])

        def check_lin(z):
            p = lin_primes()
            scale = float(np.log(p.astype(np.float64)).sum())
            return _close(z, oracles.weighted_sum_at(p, a, q), scale), [a, q], {}

        def run_cube():
            return g.eval_cube(g.dyadic_table(params.u(1)), alpha)

        def check_cube(z):
            ps = oracles.primes_between(u_lo, u_hi)
            scale = float(np.log(ps.astype(np.float64)).sum())
            return _close(z, oracles.cube_sum_at(ps, alpha), scale), [a, q], {}

        def run_g():
            return g.eval_G(params.L, alpha)

        def check_g(z):
            return _close(z, oracles.binary_sum_at(params.L, alpha), params.L), [a, q], {}

        return [
            Op("eval_linear", "pointwise", run_lin, check_lin),
            Op("eval_cube", "pointwise", run_cube, check_cube),
            Op("eval_G", "pointwise", run_g, check_g),
        ]

    for a, q in centres:
        ops.extend(centre_ops(a, q))
    # The host's speed swings within tens of milliseconds, and the arc
    # points take about 70 us each.  Run back to back they would all fall
    # in one such swing and op_p50_s would read the speed of that moment,
    # so they are spread evenly after every operation but the first.
    anchors = ops[1:]
    ops = ops[:1]
    for anchor, chunk in zip(anchors, np.array_split(np.arange(len(arc_ops)), len(anchors))):
        ops.append(anchor)
        ops.extend(arc_ops[i] for i in chunk)

    inputs = {"n": n, "diag_seed": diag_seed, "samples": sz["samples"], "grid": M,
              "arc_points": len(points), "centres": centres, "threads": THREADS}
    return Workload("arcs", inputs, ops)


# ---------------------------------------------------------------------------
# densities: composite-modulus local densities, cubic and Ramanujan sums, lattice

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _next_prime(x: int) -> int:
    while not oracles.is_prime(x):
        x += 1
    return x


def _squarefree(small: list[int], target: float) -> list[int]:
    """Prime factors of a squarefree q near target: the small primes and one large."""
    s = math.prod(small)
    return small + [_next_prime(max(17, math.ceil(target / s)))]


def build_densities(g, rng, sz) -> Workload:
    lo, hi = sz["q_range"]
    k = sz["firsts"]
    edges = np.linspace(math.log(lo), math.log(hi), k + 1)
    firsts = []
    for j in range(k):
        # q sits within 0.5% of the stratum's centre, so the cost of each
        # call, and with it op_p50_s, is the same for every seed
        target = math.exp((edges[j] + edges[j + 1]) / 2) * rng.uniform(0.995, 1.005)
        # the small factors are fixed per stratum: they set the length of
        # the large-prime transform, so the seed must not choose them
        small = [SMALL_PRIMES[j % 6]]
        if j % 2:
            small.append(SMALL_PRIMES[(j + 1 + (j // 6) % 5) % 6])
        firsts.append(_squarefree(sorted(small), target))
    # every other stratum is asked again with a new n, so repeats fall on
    # both sides of the program's row-cache limit
    repeats = [firsts[j] for j in range(0, k, 2)][: sz["repeats"]]
    order = [firsts[i] for i in rng.permutation(k)] + [repeats[i] for i in rng.permutation(len(repeats))]
    calls = [(int(rng.integers(10**6, 10**9)), f) for f in order]
    periods = oracles.CubicPeriods()
    ops: list[Op] = []

    def a_op(n, factors):
        q = math.prod(factors)

        def run():
            return g.local_A(n, q)

        def check(lf):
            ref = math.prod(periods.local_A(n, p) for p in factors)
            phi = math.prod(p - 1 for p in factors)
            # rounding in B(n, q) scales with the largest entry of its row
            tol = 1e-9 * math.prod(periods.b_scale(p) for p in factors) / float(phi) ** 5
            ok = lf.q == q and abs(lf.A - ref) <= tol and lf.A != 0.0
            return ok, [n, q, int(math.copysign(1, lf.A))], {}

        return Op("local_A", "A", run, check)

    ops.extend(a_op(n, f) for n, f in calls)

    def c3_op(factors, a):
        q = math.prod(factors)

        def run():
            return g.cubic_C3(q, a)

        def check(z):
            return _close(z, periods.c3_composite(factors, a), q), [q, a], {}

        return Op("cubic_C3", "C3", run, check)

    # q stays within 1% of c3_q and its small factor alternates between 2
    # and 3, so the cubic sums cost the same for every seed, 7 to 8 ms on
    # the baseline machine.  Larger small factors cost up to 12 ms, as much
    # as local_A at q = 2*10^4, and op_p50_s then fell on a cubic sum; with
    # these it falls on a local_A call a few places above them.
    for i in range(sz["c3_calls"]):
        factors = _squarefree([SMALL_PRIMES[i % 2]], sz["c3_q"] * rng.uniform(0.99, 1.01))
        q = math.prod(factors)
        a = int(rng.integers(1, q))
        while math.gcd(a, q) != 1:
            a += 1
        ops.append(c3_op(factors, a))

    c1_cases = []
    for _ in range(sz["c1_calls"]):
        small = sorted(int(p) for p in rng.choice(SMALL_PRIMES, 2, replace=False))
        factors = _squarefree(small, math.exp(rng.uniform(math.log(lo), math.log(hi * 4))))
        q = math.prod(factors)
        d = math.prod(p for p in factors if rng.random() < 0.5)
        a = d * int(rng.integers(1, q // d + 1))
        c1_cases.append((q, a, factors))

    def run_c1():
        return [g.ramanujan_C1(q, a) for q, a, _ in c1_cases]

    def check_c1(vals):
        refs = [oracles.ramanujan(q, a, f) for q, a, f in c1_cases]
        return vals == refs, vals, {}

    ops.append(Op("ramanujan_C1:batch", "C1", run_c1, check_c1))

    U = sz["lattice_u"]
    V = round(U ** (5 / 6))
    n_lat = math.floor(16 * (1 + 1e-4) * U**3) - int(rng.integers(0, 1000))
    split = 1e-5 * n_lat

    def run_lattice():
        inner = g.jn_exact_small(n_lat, U, V, (split, float(n_lat)))
        outer = g.jn_exact_small(n_lat, U, V, (-1e30, split))
        return inner, outer

    def check_lattice(r):
        total = oracles.block_mass(U) ** 2 * oracles.block_mass(V) ** 2
        ok = r[0] > 0.0 and r[1] >= 0.0 and abs(r[0] + r[1] - total) <= 1e-9 * total
        return ok, [n_lat, U, V], {}

    ops.append(Op("jn_exact_small:pair", "lattice", run_lattice, check_lattice))

    inputs = {"local_A": [[n, math.prod(f)] for n, f in calls],
              "cubic_C3_q": sz["c3_q"], "c3_calls": sz["c3_calls"],
              "ramanujan_C1": [[q, a] for q, a, _ in c1_cases],
              "lattice": {"n": n_lat, "U": U, "V": V, "m1_split": split}}
    return Workload("densities", inputs, ops)


# ---------------------------------------------------------------------------
# cli: in-process cli.main sessions with captured output


def _strict_json(text: str):
    def no_constant(name):
        raise ValueError(f"non-finite constant {name}")

    return json.loads(text, parse_constant=no_constant)


def build_cli(g, rng, sz) -> Workload:
    importlib.import_module("glinnik.cli")
    n1 = _odd(1_000_001 + 2 * int(rng.integers(0, 2_500)))
    base = ["--threads", str(THREADS), "--n1", str(n1), "--n2", str(n1)]
    params = g.ProblemParams(n1=n1, n2=n1)
    q_cap = params.q_max(1)
    p_cap = math.floor(params.p_max(1))
    M = sz["grid"]
    lin_primes = functools.cache(lambda: oracles.primes_between(math.floor(1e-5 * n1) + 1, n1))
    ops: list[Op] = []
    argvs: list[list[str]] = []

    def cli_op(argv, tag, check):
        argvs.append(argv)

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = g.cli.main(argv)
            return rc, out.getvalue()

        def checked(res):
            rc, text = res
            if rc != 0:
                return False, [argv[0], rc], {"bytes_out": len(text)}
            try:
                ok, exact = check(text)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                ok, exact = False, [type(exc).__name__]
            return ok, [argv[0], rc] + exact, {"bytes_out": len(text)}

        return Op(f"cli:{argv[0]}", tag, run, checked)

    sieve_lo = int(rng.integers(1, 1000))

    def check_sieve(text):
        doc = _strict_json(text)
        ref = oracles.primes_between(sieve_lo, sz["sieve_hi"])
        ok = doc["count"] == len(doc["primes"]) == ref.size and doc["primes"] == ref.tolist()
        return ok, [doc["count"]]

    ops.append(cli_op(["sieve", "--lo", str(sieve_lo), "--hi", str(sz["sieve_hi"])] + base,
                      "large", check_sieve))

    grid_j = [int(j) for j in rng.integers(1, M, 4)]
    u_lo, u_hi = math.floor(params.u(1)) + 1, math.floor(2 * params.u(1))
    cube_primes = oracles.primes_between(u_lo, u_hi)

    def check_cube_csv(text):
        rows = list(csv.reader(io.StringIO(text)))
        ok = rows[0] == ["j", "alpha", "re", "im"] and len(rows) == M + 1
        scale = float(np.log(cube_primes.astype(np.float64)).sum())
        for j in grid_j:
            z = complex(float(rows[j + 1][2]), float(rows[j + 1][3]))
            ok = ok and int(rows[j + 1][0]) == j
            ok = ok and _close(z, oracles.cube_sum_at(cube_primes, Fraction(j, M)), scale)
        return ok, [len(rows) - 1]

    ops.append(cli_op(["eval", "--kind", "cube_u", "--grid", str(M), "--csv"] + base,
                      "large", check_cube_csv))

    def check_binary_json(text):
        doc = _strict_json(text)
        rows = doc["rows"]
        ok = doc["grid"] == M and len(rows) == M
        for j in grid_j:
            z = complex(rows[j][2], rows[j][3])
            ok = ok and rows[j][0] == j
            ok = ok and _close(z, oracles.binary_sum_at(params.L, Fraction(j, M)), params.L)
        return ok, [len(rows)]

    ops.append(cli_op(["eval", "--kind", "binary", "--grid", str(M)] + base,
                      "large", check_binary_json))

    # the sizes (xi's k and vmax, rho's u and v) are fixed and each n lies
    # in a narrow band, so the seed changes values but not the cost
    small: list[Op] = []
    for _ in range(sz["small"]):
        j = int(rng.integers(math.ceil(2**30 / q_cap), 2**30))

        def check_arcs(text, j=j):
            doc = _strict_json(text)
            ref = oracles.major_arc(Fraction(j, 2**30), p_cap, q_cap)
            got = (doc["a"], doc["q"]) if doc["arc"] == "major" else None
            return got == ref, [doc["arc"], doc["a"], doc["q"]]

        small.append(cli_op(["arcs", "--alpha", repr(j / 2**30)] + base, "small", check_arcs))

        def check_k(text):
            doc = _strict_json(text)
            return doc["k_threshold"] == 231, [doc["k_threshold"]]

        small.append(cli_op(["k-threshold"] + base, "small", check_k))

        xn, xk, xv = _odd(int(rng.integers(2_901, 3_101))), 3, 6

        def check_xi(text, xn=xn, xk=xk, xv=xv):
            doc = _strict_json(text)
            ref = oracles.xi_values(xn, xk, 0.1, xv)
            got = {n: c for n, c in doc["entries"]}
            return got == ref, doc["values"]

        small.append(cli_op(["xi", "--n", str(xn), "--vmax", str(xv), "--k", str(xk),
                             "--eta", "0.1", "--threads", str(THREADS)], "small", check_xi))

        wn = _odd(int(rng.integers(49_001, 51_001)))

        def check_search(text, wn=wn):
            doc = _strict_json(text)
            w = doc["witness"]
            return oracles.witness_ok(w, wn, 2), [w["p1"], w["cubes"], w["powers"]]

        small.append(cli_op(["search", "--n", str(wn), "--k", "2", "--threads", str(THREADS)],
                            "small", check_search))

        pn = _odd(int(rng.integers(9_801, 10_201)))

        def check_pair(text, pn=pn):
            doc = _strict_json(text)
            w1, w2 = doc["witness1"], doc["witness2"]
            ok = (
                oracles.witness_ok(w1, pn + 2, 2) and oracles.witness_ok(w2, pn, 2)
                and sorted(w1["powers"]) == sorted(w2["powers"])
            )
            return ok, [w1["p1"], w2["p1"], w1["powers"]]

        small.append(cli_op(["pair-search", "--n1", str(pn + 2), "--n2", str(pn), "--k", "2",
                             "--threads", str(THREADS)], "small", check_pair))

        ru, rv = 12, 5

        def check_rho(text):
            doc = _strict_json(text)
            counts = [c for _, c in doc["counts"]]
            ok = sum(counts) == doc["quadruples"] ** 2 and max(counts) == doc["max_count"]
            return ok, [doc["quadruples"], doc["max_count"]]

        small.append(cli_op(["rho", "--u", str(ru), "--v", str(rv)] + base, "small", check_rho))

        sn = _odd(int(rng.integers(10**5, 10**8)))

        def check_series(text):
            doc = _strict_json(text)
            value = 1.0
            for _, f in doc["factors"]:
                value *= f
            ps = [p for p, _ in doc["factors"]]
            ok = value == doc["value"] > 0.0 and ps == oracles.primes_between(2, 2000).tolist()
            return ok, [len(ps), [p for p, _ in doc["anomalies"]]]

        small.append(cli_op(["singular-series", "--n", str(sn), "--cutoff", "2000"] + base,
                            "small", check_series))

        for kind in ("binary", "cube_u", "linear"):
            ej = int(rng.integers(1, 2**20))
            alpha = Fraction(ej, 2**20)

            def check_eval(text, kind=kind, alpha=alpha):
                doc = _strict_json(text)
                z = complex(doc["re"], doc["im"])
                if kind == "binary":
                    ref, scale = oracles.binary_sum_at(params.L, alpha), params.L
                elif kind == "cube_u":
                    ref = oracles.cube_sum_at(cube_primes, alpha)
                    scale = float(np.log(cube_primes.astype(np.float64)).sum())
                else:
                    p = lin_primes()
                    ref = oracles.weighted_sum_at(p, alpha.numerator, alpha.denominator)
                    scale = float(np.log(p.astype(np.float64)).sum())
                return _close(z, ref, scale), [kind]

            small.append(cli_op(["eval", "--kind", kind, "--alpha", repr(float(alpha))] + base,
                                "small", check_eval))

    order = rng.permutation(len(small))
    ops.extend(small[i] for i in order)
    inputs = {"n1": n1, "grid": M, "argv": [argvs[:3]] + [argvs[3 + i] for i in order]}
    return Workload("cli", inputs, ops)


BUILDERS = {
    "report": build_report,
    "arcs": build_arcs,
    "densities": build_densities,
    "cli": build_cli,
}


def build(g, name: str, seed: int, size: str) -> Workload:
    rng = np.random.default_rng([seed, sorted(BUILDERS).index(name)])
    return BUILDERS[name](g, rng, SIZES[size][name])

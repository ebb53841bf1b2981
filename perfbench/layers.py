"""Per-layer metrics derived from a worker's spans and its operations' outputs.

Times are sums of span durations in seconds.  A layer's time counts only
its outermost spans (a span with an ancestor of the same set is already
inside the total); self time is a span's duration minus its children's.
Counts come from call inputs and outputs.  Counts marked "computed" are
derived from input sizes by formula and repeat exactly for equal inputs.
"""

from __future__ import annotations

import math
import statistics

# name -> (unit, better); the order is the order metrics are reported in
PER_LAYER = {
    "arith.sieve_s": ("s", "lower"),
    "arith.primes_out": ("count", "higher"),
    "arith.sieve_ns_per_int": ("ns", "lower"),
    "arith.factor_s": ("s", "lower"),
    "expsums.linear_terms": ("count", "higher"),
    "expsums.linear_ns_per_term": ("ns", "lower"),
    "expsums.linear_pointwise_s": ("s", "lower"),
    "expsums.cube_s": ("s", "lower"),
    "expsums.cube_terms": ("count", "higher"),
    "expsums.cube_ns_per_term": ("ns", "lower"),
    "expsums.binary_pointwise_s": ("s", "lower"),
    "expsums.grid_s": ("s", "lower"),
    "expsums.grid_points": ("count", "higher"),
    "expsums.grid_ns_per_point": ("ns", "lower"),
    "expsums.grid_mlog2m_computed": ("count", "higher"),
    "expsums.classify_s": ("s", "lower"),
    "expsums.classify_calls": ("count", "higher"),
    "local.A_s": ("s", "lower"),
    "local.A_calls": ("count", "higher"),
    "local.A_repeat_frac": ("ratio", "higher"),
    "local.A_first_ms": ("ms", "lower"),
    "local.A_repeat_ms": ("ms", "lower"),
    "local.C3_s": ("s", "lower"),
    "local.C1_s": ("s", "lower"),
    "local.series_s": ("s", "lower"),
    "local.series_first_s": ("s", "lower"),
    "local.series_warm_ms": ("ms", "lower"),
    "sint.mc_s": ("s", "lower"),
    "sint.mc_samples": ("count", "higher"),
    "sint.mc_ns_per_sample": ("ns", "lower"),
    "sint.lattice_s": ("s", "lower"),
    "sint.lattice_terms_computed": ("count", "higher"),
    "binary.jsum_s": ("s", "lower"),
    "binary.jsum_distinct_d": ("count", "higher"),
    "binary.jsum_bytes_scanned": ("B", "lower"),
    "binary.measure_s": ("s", "lower"),
    "binary.measure_calls": ("count", "higher"),
    "binary.measure_grid_points": ("count", "higher"),
    "binary.measure_trig_computed": ("count", "lower"),
    "binary.xi_s": ("s", "lower"),
    "search.witness_s": ("s", "lower"),
    "search.witness_targets": ("count", "higher"),
    "search.witness_found": ("count", "higher"),
    "search.rho_s": ("s", "lower"),
    "pipeline.report_s": ("s", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "cli.calls": ("count", "higher"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_out": ("B", "lower"),
    "cli.small_p50_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class SpanTree:
    def __init__(self, spans):
        self.by_id = {}
        self.child_ns = {}
        for sid, name, start, end, parent, op, info in spans:
            self.by_id[sid] = (name, end - start, parent, op, info or {})
        for sid, (name, dur, parent, op, info) in self.by_id.items():
            if parent is not None:
                self.child_ns[parent] = self.child_ns.get(parent, 0) + dur

    def of(self, *names):
        """(id, duration_ns, info, op) of every span with one of the names."""
        return [
            (sid, dur, info, op)
            for sid, (name, dur, parent, op, info) in self.by_id.items()
            if name in names
        ]

    def _has_ancestor(self, sid, names) -> bool:
        parent = self.by_id[sid][2]
        while parent is not None:
            if self.by_id[parent][0] in names:
                return True
            parent = self.by_id[parent][2]
        return False

    def covered_s(self, *names) -> float:
        """Seconds inside the outermost spans of the named functions."""
        return 1e-9 * sum(
            dur for sid, dur, _, _ in self.of(*names) if not self._has_ancestor(sid, names)
        )

    def self_ns(self, sid) -> int:
        return self.by_id[sid][1] - self.child_ns.get(sid, 0)

    def self_s(self, *names) -> float:
        return 1e-9 * sum(self.self_ns(sid) for sid, _, _, _ in self.of(*names))

    def children(self, sid, name):
        return [
            (cid, dur, info)
            for cid, (cname, dur, parent, _, info) in self.by_id.items()
            if parent == sid and cname == name
        ]


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def jsum_scan(n1: int, n2: int, omega: float, l_cap: int) -> tuple[int, int]:
    """(distinct |d|, bytes read by the sliced ANDs) of one exact pair sum.

    Computed: every distinct shift difference d = 2^a + 2^b - 2^c - 2^d is
    looked up once per range as an AND of two boolean slices of length
    n - d - floor(omega n).
    """
    sums = {(1 << a) + (1 << b) for a in range(1, l_cap + 1) for b in range(a, l_cap + 1)}
    diffs = {abs(s - t) for s in sums for t in sums}
    scanned = 0
    for n in (n1, n2):
        lo = math.floor(omega * n)
        scanned += sum(2 * max(0, n - d - lo) for d in diffs)
    return len(diffs), scanned


def layer_metrics(spans, ops) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, from one traced rep.

    `ops` holds one dict per operation with its `tag` and the `counts` its
    check took from the output.
    """
    t = SpanTree(spans)
    m: dict[str, float] = {}

    sieves = t.of("arith.sieve_range")
    m["arith.sieve_s"] = t.covered_s("arith.sieve_range")
    m["arith.primes_out"] = sum(i["primes"] for _, _, i, _ in sieves)
    ints = sum(i["hi"] - max(i["lo"], 2) + 1 for _, _, i, _ in sieves)
    m["arith.sieve_ns_per_int"] = _per(1e9 * m["arith.sieve_s"], ints)
    m["arith.factor_s"] = t.covered_s("arith.multiplicative")

    terms = 0
    diag_self = 0
    for sid, _, info, _ in t.of("expsums.minor_arc_diagnostic"):
        primes = sum(c[2]["primes"] for c in t.children(sid, "expsums.linear_table"))
        terms += info["samples"] * primes
        diag_self += t.self_ns(sid)
    m["expsums.linear_terms"] = terms
    m["expsums.linear_ns_per_term"] = _per(diag_self, terms)
    m["expsums.linear_pointwise_s"] = t.covered_s("expsums.eval_linear")

    cubes = t.of("expsums.eval_cube")
    m["expsums.cube_s"] = t.covered_s("expsums.eval_cube")
    m["expsums.cube_terms"] = sum(i["terms"] for _, _, i, _ in cubes)
    m["expsums.cube_ns_per_term"] = _per(1e9 * m["expsums.cube_s"], m["expsums.cube_terms"])
    m["expsums.binary_pointwise_s"] = t.covered_s("expsums.eval_G")

    grids = t.of("expsums.eval_grid")
    m["expsums.grid_s"] = t.covered_s("expsums.eval_grid")
    m["expsums.grid_points"] = sum(i["M"] for _, _, i, _ in grids)
    m["expsums.grid_ns_per_point"] = _per(1e9 * m["expsums.grid_s"], m["expsums.grid_points"])
    m["expsums.grid_mlog2m_computed"] = sum(i["M"] * math.log2(i["M"]) for _, _, i, _ in grids)
    m["expsums.classify_s"] = t.covered_s("expsums.classify_arc", "expsums.dirichlet_approx")
    m["expsums.classify_calls"] = len(t.of("expsums.classify_arc", "expsums.dirichlet_approx"))

    calls = sorted(t.of("local.local_A"))
    seen = set()
    first, repeat = [], []
    for _, dur, info, _ in calls:
        (repeat if info["q"] in seen else first).append(dur)
        seen.add(info["q"])
    m["local.A_s"] = t.covered_s("local.local_A")
    m["local.A_calls"] = len(calls)
    m["local.A_repeat_frac"] = _per(len(repeat), len(calls))
    m["local.A_first_ms"] = 1e-6 * statistics.fmean(first) if first else 0.0
    m["local.A_repeat_ms"] = 1e-6 * statistics.fmean(repeat) if repeat else 0.0
    m["local.C3_s"] = t.covered_s("local.cubic_C3")
    m["local.C1_s"] = t.covered_s("local.ramanujan_C1")
    series = [dur for _, dur, _, _ in sorted(t.of("local.singular_series"))]
    m["local.series_s"] = 1e-9 * sum(series)
    m["local.series_first_s"] = 1e-9 * series[0] if series else 0.0
    m["local.series_warm_ms"] = 1e-6 * statistics.fmean(series[1:]) if series[1:] else 0.0

    mc = ("sint.jn_monte_carlo", "sint.jn_monte_carlo_box")
    m["sint.mc_s"] = t.covered_s(*mc)
    m["sint.mc_samples"] = sum(i["samples"] for _, _, i, _ in t.of("sint.jn_monte_carlo_box"))
    m["sint.mc_ns_per_sample"] = _per(1e9 * m["sint.mc_s"], m["sint.mc_samples"])
    lattice = t.of("sint.jn_exact_small")
    m["sint.lattice_s"] = t.covered_s("sint.jn_exact_small")
    m["sint.lattice_terms_computed"] = sum(14 * i["U"] ** 3 - 1 for _, _, i, _ in lattice)

    m["binary.jsum_s"] = t.covered_s("binary.j_sum_exact")
    distinct = scanned = 0
    for _, _, i, _ in t.of("binary.j_sum_exact"):
        d, s = jsum_scan(i["n1"], i["n2"], i["omega"], i["l_cap"])
        distinct += d
        scanned += s
    m["binary.jsum_distinct_d"] = distinct
    m["binary.jsum_bytes_scanned"] = scanned
    measures = t.of("binary.measure_sigma")
    m["binary.measure_s"] = t.covered_s("binary.measure_sigma")
    m["binary.measure_calls"] = len(measures)
    m["binary.measure_grid_points"] = sum(i["grid"] for _, _, i, _ in measures)
    m["binary.measure_trig_computed"] = sum(
        math.floor(i["L"]) * i["grid"] for _, _, i, _ in measures
    )
    m["binary.xi_s"] = t.covered_s("binary.enum_Xi", "binary.count_pairs")

    witness = ("search.find_witness", "search.find_pair_witness")
    m["search.witness_s"] = t.covered_s(*witness)
    m["search.witness_targets"] = len(t.of(*witness))
    m["search.witness_found"] = sum(1 for _, _, i, _ in t.of(*witness) if i["found"])
    m["search.rho_s"] = t.covered_s("search.rho_counts", "search.rho_counts_from_primes")

    pipeline = [n for n in {v[0] for v in t.by_id.values()} if n.startswith("pipeline.")]
    m["pipeline.report_s"] = t.covered_s("pipeline.full_report")
    m["pipeline.self_s"] = t.self_s(*pipeline)

    mains = t.of("cli.main")
    small = [dur for _, dur, _, op in mains if ops[op]["tag"] == "small"]
    m["cli.calls"] = len(mains)
    m["cli.self_s"] = t.self_s("cli.main")
    m["cli.bytes_out"] = sum(o["counts"].get("bytes_out", 0) for o in ops)
    m["cli.small_p50_ms"] = 1e-6 * statistics.median(small) if small else 0.0
    return m

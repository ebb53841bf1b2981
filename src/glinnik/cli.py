"""Command-line front end: thin adapters over the library surface.

Every subcommand parses flags (optionally seeded from a `key = value`
config file, flags winning), calls exactly one library operation, and
emits JSON (default) or CSV (--csv) carrying the full effective
configuration.  Exit codes: 0 ok, 1 domain error, 2 resource error,
64 usage.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .arith import read_prime_cache, sieve_range, write_prime_cache
from .binary import enum_Xi, j_sum_exact, measure_sigma
from .errors import DomainError, ResourceError, ToolkitError
from .expsums import (
    ProblemParams,
    _require_finite,
    classify_arc,
    dyadic_table,
    eval_G,
    eval_cube,
    eval_grid,
    eval_linear,
    grid_rows,
    linear_table,
)
from .local import singular_series
from .pipeline import (
    LAMBDA_DEFAULT,
    ConstantsLedger,
    ReportBudgets,
    full_report,
    k_threshold,
)
from .search import find_pair_witness, find_witness, rho_counts
from .sint import SingularIntegralEstimate, jn_closed_form, jn_exact_small, jn_monte_carlo

_CONFIG_KEYS = (
    ("n1", int),
    ("n2", int),
    ("delta", float),
    ("omega", float),
    ("eta", float),
    ("lambda", float),
    ("epsilon", float),
    ("k", int),
    ("threads", int),
    ("seed", int),
    ("cache", bool),
)


@dataclass
class RunConfig:
    """Effective run parameters; canonical text form round-trips exactly."""

    n1: int = 1_000_003
    n2: int = 1_000_003
    delta: float = 1e-4
    omega: float = 1e-5
    eta: float = 5e-5
    lam: float = LAMBDA_DEFAULT
    epsilon: float = 1e-10
    k: int = 231
    threads: int = 0  # 0 means all available cores
    seed: int = 20240901
    cache: bool = True

    @staticmethod
    def _field_name(key: str) -> str:
        return "lam" if key == "lambda" else key

    def to_text(self) -> str:
        lines = []
        for key, typ in _CONFIG_KEYS:
            val = getattr(self, self._field_name(key))
            if typ is bool:
                lines.append(f"{key} = {'true' if val else 'false'}")
            else:
                lines.append(f"{key} = {val!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        known = {key: typ for key, typ in _CONFIG_KEYS}
        kwargs = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"config line {lineno} is not 'key = value': {raw!r}")
            key, _, val = (part.strip() for part in line.partition("="))
            if key not in known:
                raise DomainError(f"unknown config key {key!r} on line {lineno}")
            typ = known[key]
            if typ is bool:
                if val not in ("true", "false"):
                    raise DomainError(f"config key {key!r} must be true/false")
                parsed = val == "true"
            else:
                try:
                    parsed = typ(val)
                except ValueError:
                    msg = f"config key {key!r} must be {typ.__name__}, got {val!r}"
                    raise DomainError(msg) from None
            kwargs[cls._field_name(key)] = parsed
        return cls(**kwargs)

    def validate(self) -> None:
        """Check each key against its own domain, whatever the subcommand.

        Constraints between keys (eta < delta/(1+delta), the arc dissection)
        and k >= 2 belong to ProblemParams, checked where a subcommand builds one.
        """
        _require_finite(delta=self.delta, omega=self.omega, eta=self.eta, lam=self.lam,
                        epsilon=self.epsilon)
        checks = (
            (self.n1 % 2 == 1 and self.n2 % 2 == 1, "n1 and n2 must be odd"),
            (self.n1 >= self.n2 >= 1, "n1 >= n2 >= 1 is required"),
            (self.delta > 0.0, "delta must be > 0"),
            (0.0 < self.omega < 1.0, "omega must lie in (0, 1)"),
            (0.0 < self.eta <= 1.0, "eta must lie in (0, 1]"),
            (self.lam >= 0.0, "lambda must be >= 0"),
            (self.k >= 1, "k must be >= 1"),
            (self.threads >= 0, "threads must be >= 0"),
        )
        for ok, message in checks:
            if not ok:
                raise DomainError(f"config: {message}")

    def params(self) -> ProblemParams:
        return ProblemParams(
            n1=self.n1,
            n2=self.n2,
            delta=self.delta,
            omega=self.omega,
            eta=self.eta,
            lam=self.lam,
            epsilon=self.epsilon,
            k=self.k,
        )

    def effective_threads(self) -> int:
        return self.threads if self.threads > 0 else (os.cpu_count() or 1)

    def audit(self) -> dict:
        # threads is execution-only: results are thread-invariant by
        # contract, so recording it would break byte-level reproducibility
        out = {}
        for key, _ in _CONFIG_KEYS:
            if key != "threads":
                out[key] = getattr(self, self._field_name(key))
        return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64
        self.print_usage(sys.stderr)
        raise SystemExit(64)


def _build_parser() -> _Parser:
    parser = _Parser(prog="glinnik", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="key = value config file")
    common.add_argument("--out", type=Path, help="output path (default stdout)")
    common.add_argument("--csv", action="store_true", help="CSV output where supported")
    for key, typ in _CONFIG_KEYS:
        if typ is bool:
            common.add_argument(f"--{key}", dest=f"cfg_{key}", choices=("true", "false"))
        else:
            common.add_argument(f"--{key}", dest=f"cfg_{key}", type=typ)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", parents=[common], help="primes in [lo, hi]")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--cache-file", type=Path)

    p = sub.add_parser("eval", parents=[common], help="evaluate one generating sum")
    p.add_argument("--kind", choices=("linear", "cube_u", "cube_v", "binary"), required=True)
    p.add_argument("--i", type=int, default=1, choices=(1, 2))
    p.add_argument("--alpha", type=float)
    p.add_argument("--grid", type=int)

    p = sub.add_parser("arcs", parents=[common], help="classify a point as major/minor")
    p.add_argument("--i", type=int, default=1, choices=(1, 2))
    p.add_argument("--alpha", type=float, required=True)

    p = sub.add_parser("singular-series", parents=[common], help="truncated series at n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cutoff", type=int, default=10_000)

    p = sub.add_parser("singular-integral", parents=[common], help="integral estimate at n")
    p.add_argument("--n", type=int)
    p.add_argument("--i", type=int, default=1, choices=(1, 2))
    p.add_argument(
        "--method",
        choices=("closed_form", "monte_carlo", "exact_lattice"),
        default="monte_carlo",
    )
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--u", type=int, help="lattice block scale (exact_lattice)")
    p.add_argument("--v", type=int, help="lattice block scale (exact_lattice)")

    p = sub.add_parser("xi", parents=[common], help="admissible window values")
    p.add_argument("--n", "--N", dest="n", type=int, required=True)
    p.add_argument("--vmax", type=float, required=True)

    p = sub.add_parser("measure", parents=[common], help="level-set measure of the binary sum")
    p.add_argument("--l", type=float, default=20.0)
    p.add_argument("--grid", type=int, default=1 << 20)

    p = sub.add_parser("jsum", parents=[common], help="exact shift-quadruple pair sum")
    p.add_argument("--lcap", type=int, required=True)

    p = sub.add_parser("rho", parents=[common], help="cube-difference counts")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)

    p = sub.add_parser("search", parents=[common], help="representation witness for one target")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("free", "paper_ranges"), default="free")

    p = sub.add_parser("pair-search", parents=[common], help="shared-shift witnesses for a pair")
    p.add_argument("--mode", choices=("free", "paper_ranges"), default="free")

    p = sub.add_parser("k-threshold", parents=[common], help="least admissible shift count")
    p.add_argument("--c1", type=float)
    p.add_argument("--c2", type=float)

    sub.add_parser("report", parents=[common], help="end-to-end report")
    return parser


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = RunConfig.from_text(Path(args.config).read_text(encoding="utf-8"))
    overrides = {}
    for key, typ in _CONFIG_KEYS:
        val = getattr(args, f"cfg_{key}", None)
        if val is None:
            continue
        overrides[RunConfig._field_name(key)] = (val == "true") if typ is bool else val
    cfg = dataclasses.replace(cfg, **overrides)
    cfg.validate()
    return cfg


def _emit(payload, args, csv_rows=None, csv_header=None) -> None:
    if getattr(args, "csv", False):
        if csv_rows is None:
            raise DomainError(f"--csv is not supported for {args.command!r}")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_sieve(args, cfg: RunConfig):
    cache_file = args.cache_file
    table = None
    if cache_file and cfg.cache and cache_file.exists():
        cached = read_prime_cache(cache_file)
        if cached.lo == args.lo and cached.hi == args.hi:
            table = cached
    if table is None:
        table = sieve_range(args.lo, args.hi, threads=cfg.effective_threads())
        if cache_file and cfg.cache:
            write_prime_cache(cache_file, table)
    payload = {
        "lo": table.lo,
        "hi": table.hi,
        "count": len(table),
        "primes": [int(p) for p in table.primes],
    }
    return payload, [(int(p),) for p in table.primes], ("p",)


def _eval_source(kind: str, cfg: RunConfig, i: int):
    params = cfg.params()
    if kind == "linear":
        return params, linear_table(params, i)
    if kind == "cube_u":
        return params, dyadic_table(params.u(i))
    if kind == "cube_v":
        return params, dyadic_table(params.v(i))
    return params, params.L


def _cmd_eval(args, cfg: RunConfig):
    if (args.alpha is None) == (args.grid is None):
        raise DomainError("eval needs exactly one of --alpha or --grid")
    params, source = _eval_source(args.kind, cfg, args.i)
    if args.grid is not None:
        grid = eval_grid(args.kind, source, args.grid)
        rows = list(grid_rows(args.kind, grid))
        payload = {
            "kind": args.kind,
            "grid": args.grid,
            "rows": [[j, a, re, im] for j, a, re, im in rows],
        }
        return payload, rows, ("j", "alpha", "re", "im")
    if args.kind == "linear":
        value = eval_linear(params, args.i, args.alpha, table=source)
    elif args.kind == "binary":
        value = eval_G(source, args.alpha)
    else:
        value = eval_cube(source, args.alpha)
    payload = {"kind": args.kind, "alpha": args.alpha, "re": value.real, "im": value.imag}
    return payload, None, None


def _cmd_arcs(args, cfg: RunConfig):
    label = classify_arc(cfg.params(), args.i, args.alpha)
    return {"alpha": args.alpha, "arc": label.kind, "a": label.a, "q": label.q}, None, None


def _cmd_singular_series(args, cfg: RunConfig):
    ts = singular_series(args.n, args.cutoff)
    payload = {
        "n": ts.n,
        "cutoff": ts.prime_cutoff,
        "value": ts.value,
        "factors": [[p, f] for p, f in ts.factors],
        "anomalies": [[p, f] for p, f in ts.anomalies],
    }
    return payload, None, None


def _cmd_singular_integral(args, cfg: RunConfig):
    params = cfg.params()
    N = params.n(args.i)
    n = args.n if args.n is not None else N
    if args.method == "closed_form":
        est = SingularIntegralEstimate(
            n=args.n,
            N=N,
            value=None,
            normalized=jn_closed_form(params.delta),
            method="closed_form",
            stderr=0.0,
        )
    elif args.method == "exact_lattice":
        if args.u is None or args.v is None:
            raise DomainError("exact_lattice needs --u and --v")
        value = jn_exact_small(n, args.u, args.v, (params.omega * n, float(n)))
        est = SingularIntegralEstimate(
            n=n,
            N=N,
            value=value,
            normalized=value / N ** (11.0 / 9.0),
            method="exact_lattice",
            stderr=0.0,
        )
    else:
        est = jn_monte_carlo(
            n, params, args.i, args.samples, cfg.seed, threads=cfg.effective_threads()
        )
    return dataclasses.asdict(est), None, None


def _cmd_xi(args, cfg: RunConfig):
    xi = enum_Xi(args.n, cfg.k, cfg.eta, args.vmax)
    payload = {
        "n": xi.N,
        "k": xi.k,
        "eta": xi.eta,
        "vmax": xi.L,
        "values": list(xi.values),
        "entries": [[n, c] for n, c in xi.entries],
        "total_multiplicity": xi.total_multiplicity(),
    }
    return payload, [(n, c) for n, c in xi.entries], ("n", "count")


def _cmd_measure(args, cfg: RunConfig):
    est = measure_sigma(cfg.lam, args.l, args.grid)
    payload = {
        "lambda": est.lam,
        "l": est.L,
        "grid": est.grid,
        "measure": est.measure,
        "empirical_exponent": est.empirical_exponent,
    }
    return payload, None, None


def _cmd_jsum(args, cfg: RunConfig):
    res = j_sum_exact(cfg.params(), args.lcap, threads=cfg.effective_threads())
    return {**dataclasses.asdict(res), "asserted": False}, None, None


def _cmd_rho(args, cfg: RunConfig):
    res = rho_counts(args.u, args.v)
    payload = {
        "u": res.U,
        "v": res.V,
        "quadruples": res.quadruples,
        "max_count": res.max_count,
        "bound_ratio": res.bound_ratio,
        "counts": [[n, c] for n, c in sorted(res.counts.items())],
        "asserted": False,
    }
    return payload, None, None


def _witness_payload(w) -> dict | None:
    if w is None:
        return None
    return {
        "n": w.N,
        "p1": w.p1,
        "cubes": list(w.cubes),
        "powers": list(w.powers),
        "residual": w.residual(),
    }


def _cmd_search(args, cfg: RunConfig):
    w = find_witness(args.n, cfg.k, args.mode)
    return {"n": args.n, "k": cfg.k, "mode": args.mode, "witness": _witness_payload(w)}, None, None


def _cmd_pair_search(args, cfg: RunConfig):
    pw = find_pair_witness(cfg.n1, cfg.n2, cfg.k, args.mode)
    payload = {
        "n1": cfg.n1,
        "n2": cfg.n2,
        "k": cfg.k,
        "mode": args.mode,
        "witness1": _witness_payload(pw.w1 if pw else None),
        "witness2": _witness_payload(pw.w2 if pw else None),
    }
    return payload, None, None


def _cmd_k_threshold(args, cfg: RunConfig):
    ledger = ConstantsLedger()
    c1 = args.c1 if args.c1 is not None else ledger.r1_coeff
    c2 = args.c2 if args.c2 is not None else ledger.r3_coeff
    k = k_threshold(c1, c2, cfg.lam)
    return {"c1": c1, "c2": c2, "lambda": cfg.lam, "k_threshold": k}, None, None


def _cmd_report(args, cfg: RunConfig):
    payload = full_report(
        cfg.params(), ReportBudgets(), seed=cfg.seed, threads=cfg.effective_threads()
    )
    return payload, None, None


_COMMANDS = {
    "sieve": _cmd_sieve,
    "eval": _cmd_eval,
    "arcs": _cmd_arcs,
    "singular-series": _cmd_singular_series,
    "singular-integral": _cmd_singular_integral,
    "xi": _cmd_xi,
    "measure": _cmd_measure,
    "jsum": _cmd_jsum,
    "rho": _cmd_rho,
    "search": _cmd_search,
    "pair-search": _cmd_pair_search,
    "k-threshold": _cmd_k_threshold,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 64
    try:
        cfg = _load_config(args)
        payload, rows, header = _COMMANDS[args.command](args, cfg)
        if isinstance(payload, dict):
            payload = {**payload, "config": cfg.audit()}
        _emit(payload, args, rows, header)
    except DomainError as exc:
        print(f"glinnik: domain error: {exc}", file=sys.stderr)
        return 1
    except ResourceError as exc:
        print(f"glinnik: resource error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"glinnik: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

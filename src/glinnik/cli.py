"""Command-line front end: thin adapters over the library surface.

Every subcommand parses flags (optionally seeded from a `key = value`
config file, flags winning), calls exactly one library operation, and
emits JSON (default) or CSV (--csv) carrying the full effective
configuration, byte-identical to json.dumps(sort_keys=True, indent=2) or
csv.writer.  Exit codes: 0 ok, 1 domain error, 2 resource error, 64 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .arith import dyadic_range, read_prime_cache, sieve_range, write_prime_cache
from .binary import enum_Xi, j_sum_exact, measure_sigma
from .errors import DomainError, NumericalIntegrityError, ResourceError, ToolkitError
from .expsums import (
    ProblemParams,
    _check_cube_hi,
    _require_finite,
    classify_arc,
    dyadic_table,
    eval_G,
    eval_cube,
    eval_grid,
    eval_linear,
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


@dataclasses.dataclass
class RunConfig:
    """Effective run parameters; canonical text form round-trips exactly.

    The fields are the config keys, in order, each typed by its default;
    a field's `key` metadata is its spelling in files, flags and JSON.
    """

    n1: int = 1_000_003
    n2: int = 1_000_003
    delta: float = 1e-4
    omega: float = 1e-5
    eta: float = 5e-5
    lam: float = dataclasses.field(default=LAMBDA_DEFAULT, metadata={"key": "lambda"})
    epsilon: float = 1e-10
    k: int = 231
    threads: int = 0  # 0 means all available cores
    seed: int = 20240901
    cache: bool = True

    @classmethod
    def config_keys(cls) -> list[tuple[str, str, type]]:
        """(config key, field name, type) for every field."""
        return [
            (f.metadata.get("key", f.name), f.name, type(f.default))
            for f in dataclasses.fields(cls)
        ]

    def to_text(self) -> str:
        lines = []
        for key, name, typ in self.config_keys():
            val = getattr(self, name)
            text = ("true" if val else "false") if typ is bool else repr(val)
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        known = {key: (name, typ) for key, name, typ in cls.config_keys()}
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
            name, typ = known[key]
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
            kwargs[name] = parsed
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
            (0.0 < self.epsilon < 1.0 / 18.0, "epsilon must lie in (0, 1/18)"),
            (self.k >= 1, "k must be >= 1"),
            (self.threads >= 0, "threads must be >= 0"),
            (self.seed >= 0, "seed must be >= 0"),
        )
        for ok, message in checks:
            if not ok:
                raise DomainError(f"config: {message}")

    def params(self) -> ProblemParams:
        shared = {f.name for f in dataclasses.fields(ProblemParams)}
        return ProblemParams(**{name: v for name, v in vars(self).items() if name in shared})

    def effective_threads(self) -> int:
        return self.threads if self.threads > 0 else (os.cpu_count() or 1)

    def audit(self) -> dict:
        # threads is execution-only: results are thread-invariant by
        # contract, so recording it would break byte-level reproducibility
        keys = self.config_keys()
        return {key: getattr(self, name) for key, name, _ in keys if key != "threads"}


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = RunConfig.from_text(args.config.read_text(encoding="utf-8"))
    overrides = {}
    for key, name, typ in RunConfig.config_keys():
        val = getattr(args, f"cfg_{key}")
        if val is not None:
            overrides[name] = (val == "true") if typ is bool else val
    cfg = dataclasses.replace(cfg, **overrides)
    cfg.validate()
    return cfg


MAX_EMIT_VALUES = 1 << 24  # numbers one subcommand may write


def _check_emit(count: int) -> None:
    if count > MAX_EMIT_VALUES:
        raise ResourceError(f"{count} output numbers exceed the emission budget "
                            f"MAX_EMIT_VALUES = {MAX_EMIT_VALUES}")


# Each handler takes (args, cfg) and returns (JSON payload, CSV (header,
# columns) or None).  Handlers reach the library through this module's
# globals, so rebinding one of them reroutes every subcommand.


def _cmd_sieve(args, cfg: RunConfig):
    cache_file = args.cache_file if cfg.cache else None
    table = read_prime_cache(cache_file) if cache_file and cache_file.exists() else None
    fresh = table is None or (table.lo, table.hi) != (args.lo, args.hi)
    if fresh:
        table = sieve_range(args.lo, args.hi, threads=cfg.effective_threads())
    _check_emit(len(table))
    if fresh and cache_file:
        write_prime_cache(cache_file, table)
    payload = {"lo": table.lo, "hi": table.hi, "count": len(table), "primes": table.primes}
    return payload, (("p",), (table.primes,))


def _cmd_eval(args, cfg: RunConfig):
    if (args.alpha is None) == (args.grid is None):
        raise DomainError("eval needs exactly one of --alpha or --grid")
    params, kind = cfg.params(), args.kind
    if kind == "linear":
        source = linear_table(params, args.i)
    elif kind == "binary":
        source = params.L
    else:
        x = params.u(args.i) if kind == "cube_u" else params.v(args.i)
        if args.alpha is not None:
            _check_cube_hi(dyadic_range(x)[1])  # before the sieve
        source = dyadic_table(x)
    if args.grid is not None:
        _check_emit(4 * args.grid)
        grid = eval_grid(kind, source, args.grid)
        j = np.arange(args.grid)
        columns = Columns((j, j / args.grid, grid.real, grid.imag))
        payload = {"kind": kind, "grid": args.grid, "rows": columns}
        return payload, (("j", "alpha", "re", "im"), columns)
    if kind == "linear":
        value = eval_linear(params, args.i, args.alpha, table=source)
    elif kind == "binary":
        value = eval_G(source, args.alpha)
    else:
        value = eval_cube(source, args.alpha)
    return {"kind": kind, "alpha": args.alpha, "re": value.real, "im": value.imag}, None


def _cmd_arcs(args, cfg: RunConfig):
    label = classify_arc(cfg.params(), args.i, args.alpha)
    return {"alpha": args.alpha, "arc": label.kind, "a": label.a, "q": label.q}, None


def _cmd_singular_series(args, cfg: RunConfig):
    ts = singular_series(args.n, args.cutoff)
    payload = {
        "n": ts.n,
        "cutoff": ts.prime_cutoff,
        "value": ts.value,
        "factors": Columns(zip(*ts.factors)),
        "anomalies": Columns(zip(*ts.anomalies)),
    }
    return payload, None


def _cmd_singular_integral(args, cfg: RunConfig):
    params = cfg.params()
    N = params.n(args.i)
    n = args.n if args.n is not None else N
    if args.method == "monte_carlo":
        est = jn_monte_carlo(
            n, params, args.i, args.samples, cfg.seed, threads=cfg.effective_threads()
        )
        return dataclasses.asdict(est), None
    if args.method == "closed_form":
        n, value, normalized = args.n, None, jn_closed_form(params.delta)
    else:
        if args.u is None or args.v is None:
            raise DomainError("exact_lattice needs --u and --v")
        value = jn_exact_small(n, args.u, args.v, (params.omega * n, float(n)))
        normalized = value / N ** (11.0 / 9.0)
    est = SingularIntegralEstimate(
        n=n,
        N=N,
        value=value,
        normalized=normalized,
        method=args.method,
        stderr=0.0,
    )
    return dataclasses.asdict(est), None


def _cmd_xi(args, cfg: RunConfig):
    xi = enum_Xi(args.n, cfg.k, cfg.eta, args.vmax)
    payload = {
        "n": xi.N,
        "k": xi.k,
        "eta": xi.eta,
        "vmax": xi.L,
        "values": xi.values,
        "entries": Columns(zip(*xi.entries)),
        "total_multiplicity": xi.total_multiplicity(),
    }
    return payload, (("n", "count"), payload["entries"])


def _cmd_measure(args, cfg: RunConfig):
    est = measure_sigma(cfg.lam, args.l, args.grid)
    payload = {
        "lambda": est.lam,
        "l": est.L,
        "grid": est.grid,
        "measure": est.measure,
        "empirical_exponent": est.empirical_exponent,
    }
    return payload, None


def _cmd_jsum(args, cfg: RunConfig):
    res = j_sum_exact(cfg.params(), args.lcap)
    return {**dataclasses.asdict(res), "asserted": False}, None


def _cmd_rho(args, cfg: RunConfig):
    res = rho_counts(args.u, args.v)
    payload = {
        "u": res.U,
        "v": res.V,
        "quadruples": res.quadruples,
        "max_count": res.max_count,
        "bound_ratio": res.bound_ratio,
        "counts": Columns(zip(*sorted(res.counts.items()))),
        "asserted": False,
    }
    return payload, None


def _witness_payload(w) -> dict | None:
    if w is None:
        return None
    return {
        "n": w.N,
        "p1": w.p1,
        "cubes": w.cubes,
        "powers": w.powers,
        "residual": w.residual(),
    }


def _cmd_search(args, cfg: RunConfig):
    w = find_witness(args.n, cfg.k, args.mode)
    return {"n": args.n, "k": cfg.k, "mode": args.mode, "witness": _witness_payload(w)}, None


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
    return payload, None


def _cmd_k_threshold(args, cfg: RunConfig):
    ledger = ConstantsLedger()
    c1 = args.c1 if args.c1 is not None else ledger.r1_coeff
    c2 = args.c2 if args.c2 is not None else ledger.r3_coeff
    k = k_threshold(c1, c2, cfg.lam)
    return {"c1": c1, "c2": c2, "lambda": cfg.lam, "k_threshold": k}, None


def _cmd_report(args, cfg: RunConfig):
    payload = full_report(
        cfg.params(), ReportBudgets(), seed=cfg.seed, threads=cfg.effective_threads()
    )
    return payload, None


def _flag(*names: str, **kwargs) -> tuple:
    """One flag as (names, add_argument kwargs)."""
    return names, kwargs


def _req(name: str, typ) -> tuple:
    return _flag(name, type=typ, required=True)


_I = _flag("--i", type=int, default=1, choices=(1, 2))
_MODE = _flag("--mode", choices=("free", "paper_ranges"), default="free")
_KINDS = ("linear", "cube_u", "cube_v", "binary")
_METHODS = ("closed_form", "monte_carlo", "exact_lattice")
_LATTICE = "lattice block scale (exact_lattice)"

# The CLI grammar: one row per subcommand, in help order, holding
# (name, help, flags as (names, add_argument kwargs), handler).
SUBCOMMANDS = (
    ("sieve", "primes in [lo, hi]",
     (_req("--lo", int), _req("--hi", int), _flag("--cache-file", type=Path)), _cmd_sieve),
    ("eval", "evaluate one generating sum",
     (_flag("--kind", choices=_KINDS, required=True), _I, _flag("--alpha", type=float),
      _flag("--grid", type=int)), _cmd_eval),
    ("arcs", "classify a point as major/minor", (_I, _req("--alpha", float)), _cmd_arcs),
    ("singular-series", "truncated series at n",
     (_req("--n", int), _flag("--cutoff", type=int, default=10_000)), _cmd_singular_series),
    ("singular-integral", "integral estimate at n",
     (_flag("--n", type=int), _I, _flag("--method", choices=_METHODS, default="monte_carlo"),
      _flag("--samples", type=int, default=1_000_000), _flag("--u", type=int, help=_LATTICE),
      _flag("--v", type=int, help=_LATTICE)), _cmd_singular_integral),
    ("xi", "admissible window values",
     (_flag("--n", "--N", dest="n", type=int, required=True), _req("--vmax", float)), _cmd_xi),
    ("measure", "level-set measure of the binary sum",
     (_flag("--l", type=float, default=20.0), _flag("--grid", type=int, default=1 << 20)),
     _cmd_measure),
    ("jsum", "exact shift-quadruple pair sum", (_req("--lcap", int),), _cmd_jsum),
    ("rho", "cube-difference counts", (_req("--u", int), _req("--v", int)), _cmd_rho),
    ("search", "representation witness for one target", (_req("--n", int), _MODE), _cmd_search),
    ("pair-search", "shared-shift witnesses for a pair", (_MODE,), _cmd_pair_search),
    ("k-threshold", "least admissible shift count",
     (_flag("--c1", type=float), _flag("--c2", type=float)), _cmd_k_threshold),
    ("report", "end-to-end report", (), _cmd_report),
)


class Columns(tuple):
    """Equal-length number columns, which JSON output writes as a list of rows."""


_NON_FINITE = frozenset(("nan", "inf", "-inf"))
_EMIT_BLOCK = 1 << 16  # table rows formatted at a time


def _finite(texts):
    if not _NON_FINITE.isdisjoint(texts):
        raise NumericalIntegrityError("the output holds a NaN or an infinity")
    return texts


def _numbers(col) -> list[str] | None:
    """repr (JSON's and csv's number text) of each int or finite float in col, else None."""
    if isinstance(col, np.ndarray):
        col = col.tolist()
    if not {int, float}.issuperset(map(type, col)):
        return None
    return _finite(list(map(repr, col)))


_SCALARS = {
    str: encode_basestring_ascii,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    int: int.__repr__,
    float: lambda x: _finite((float.__repr__(x),))[0],
}


def _json_text(obj, nl: str = "\n") -> str:
    """json.dumps(obj, sort_keys=True, indent=2, allow_nan=False), byte for byte.

    nl is the newline and indent before obj's closing bracket.  1-D arrays and lists
    of plain numbers are formatted a column at a time, Columns (written as rows)
    a block of rows at a time.
    """
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = nl + "  "
    if isinstance(obj, dict):
        items = [encode_basestring_ascii(key if isinstance(key, str) else _json_text(key))
                 + ": " + _json_text(value, inner) for key, value in sorted(obj.items())]
    elif isinstance(obj, Columns):
        deeper = inner + "  "
        comma = "," + deeper
        items = _row_blocks(obj, lambda row: "[" + deeper + comma.join(row) + inner + "]",
                            "," + inner)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = _numbers(obj)
        if items is None:
            items = [_json_text(item, inner) for item in obj]
    elif isinstance(obj, (str, int, float)):  # a subclass, such as np.float64
        return next(_SCALARS[base](obj) for base in type(obj).__mro__ if base in _SCALARS)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    brackets = "{}" if isinstance(obj, dict) else "[]"
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1] if items else brackets


def _csv_text(header, columns) -> str:
    """csv.writer's text for plain header names over equal-length number columns."""
    return "\r\n".join([",".join(header), *_row_blocks(columns, ",".join, "\r\n"), ""])


def _row_blocks(columns, row, sep: str) -> list[str]:
    """sep-joined texts row(number texts) of the rows of equal-length number columns.

    One text per block of _EMIT_BLOCK rows, so the number texts of only one
    block exist at a time; joined by sep, the blocks give every row.
    """
    rows = len(columns[0]) if columns else 0
    return [sep.join(map(row, zip(*(_numbers(col[i : i + _EMIT_BLOCK]) for col in columns))))
            for i in range(0, rows, _EMIT_BLOCK)]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64
        self.print_usage(sys.stderr)
        raise SystemExit(64)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="glinnik", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="key = value config file")
    common.add_argument("--out", type=Path, help="output path (default stdout)")
    common.add_argument("--csv", action="store_true", help="CSV output where supported")
    for key, _, typ in RunConfig.config_keys():
        domain = dict(choices=("true", "false")) if typ is bool else dict(type=typ)
        common.add_argument(f"--{key}", dest=f"cfg_{key}", **domain)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags, handler in SUBCOMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        for names, kwargs in flags:
            p.add_argument(*names, **kwargs)
        p.set_defaults(run=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 64
    try:
        cfg = _load_config(args)
        payload, table = args.run(args, cfg)
        if not args.csv:
            payload = {**payload, "config": {**payload.get("config", {}), **cfg.audit()}}
            text = _json_text(payload) + "\n"
        elif table is None:
            raise DomainError(f"--csv is not supported for {args.command!r}")
        else:
            text = _csv_text(*table)
        if args.out:
            args.out.write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except DomainError as exc:
        print(f"glinnik: domain error: {exc}", file=sys.stderr)
        return 1
    except ResourceError as exc:
        print(f"glinnik: resource error: {exc}", file=sys.stderr)
        return 2
    except (ToolkitError, OSError, UnicodeDecodeError) as exc:
        # I/O on --config, --out and cache files; a config that is not UTF-8
        print(f"glinnik: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

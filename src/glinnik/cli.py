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
from .arith import dyadic_range, sieve_range
from .binary import enum_Xi, j_sum_exact, measure_sigma
from .errors import DomainError, NumericalIntegrityError, ResourceError, ToolkitError
from .errors import NON_NEGATIVE_INTEGERS, _require_in
from .expsums import (
    DOMAINS,
    KINDS,
    ProblemParams,
    _check_cube_hi,
    _require_targets,
    classify_arc,
    dyadic_table,
    eval_G,
    eval_cube,
    eval_grid,
    eval_linear,
    linear_table,
)
from .local import singular_series
from .pipeline import ConstantsLedger, ReportBudgets, _record, full_report, k_threshold
from .search import find_pair_witness, find_witness, rho_counts
from .sint import SingularIntegralEstimate, _normalized, jn_closed_form, jn_exact_small, jn_monte_carlo


@dataclasses.dataclass
class RunConfig:
    """Effective run parameters; canonical text form round-trips exactly.

    The fields are the config keys, in order, each typed by its default;
    a field's `key` metadata is its spelling in files, flags and JSON.
    The problem's tunables take their defaults from ProblemParams.
    """

    n1: int = 1_000_003
    n2: int = 1_000_003
    delta: float = ProblemParams.delta
    omega: float = ProblemParams.omega
    eta: float = ProblemParams.eta
    lam: float = dataclasses.field(default=ProblemParams.lam, metadata={"key": "lambda"})
    epsilon: float = ProblemParams.epsilon
    k: int = ProblemParams.k
    threads: int = 0  # 0 means all available cores
    seed: int = 20240901

    @classmethod
    def config_keys(cls) -> list[tuple[str, str, type]]:
        """(config key, field name, type) for every field."""
        return [
            (f.metadata.get("key", f.name), f.name, type(f.default))
            for f in dataclasses.fields(cls)
        ]

    def to_text(self) -> str:
        return "".join(f"{key} = {getattr(self, name)!r}\n" for key, name, _ in self.config_keys())

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
            try:
                kwargs[name] = typ(val)
            except ValueError:
                msg = f"config key {key!r} must be {typ.__name__}, got {val!r}"
                raise DomainError(msg) from None
        return cls(**kwargs)

    def validate(self) -> None:
        """Check each key against its own domain, whatever the subcommand.

        Tunables read expsums.DOMAINS.  Constraints between keys (eta <
        delta/(1+delta), the arc dissection) belong to ProblemParams.
        """
        _require_targets(self.n1, self.n2)
        for key, name, _ in self.config_keys():
            if name in DOMAINS:
                _require_in(DOMAINS[name], **{key: getattr(self, name)})
        _require_in(NON_NEGATIVE_INTEGERS, threads=self.threads, seed=self.seed)

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
    for key, name, _ in RunConfig.config_keys():
        val = getattr(args, f"cfg_{key}")
        if val is not None:
            overrides[name] = val
    cfg = dataclasses.replace(cfg, **overrides)
    cfg.validate()
    return cfg


MAX_EMIT_VALUES = 1 << 24  # numbers one subcommand may write


def _check_emit(count: int) -> None:
    if count > MAX_EMIT_VALUES:
        raise ResourceError(f"{count} output numbers exceed the emission budget "
                            f"cli.MAX_EMIT_VALUES = {MAX_EMIT_VALUES}")


# Each handler takes (args, cfg) and returns (JSON payload, CSV (header,
# columns) or None).  Handlers reach the library through this module's
# globals, so rebinding one of them reroutes every subcommand.


def _cmd_sieve(args, cfg: RunConfig):
    table = sieve_range(args.lo, args.hi, threads=cfg.effective_threads())
    _check_emit(len(table))
    payload = {"lo": table.lo, "hi": table.hi, "count": len(table), "primes": table.primes}
    return payload, (("p",), (table.primes,))


def _cmd_eval(args, cfg: RunConfig):
    """One sum at --alpha, or its values at alpha = j/M for --grid M as a ConjugateGrid.

    Every kind's weights are real, so grid row M - j is the conjugate of row j;
    the writer checks that on the values' bits and formats re and im only for
    rows 0..M//2.
    """
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
        columns = ConjugateGrid((j, j / args.grid, grid.real, grid.imag))
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
    return {"alpha": args.alpha, **_record(label, kind="arc")}, None


def _cmd_singular_series(args, cfg: RunConfig):
    ts = singular_series(args.n, args.cutoff)
    payload = {
        **_record(ts, prime_cutoff="cutoff"),
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
        return _record(est), None
    if args.method == "closed_form":
        n, value, normalized = args.n, None, jn_closed_form(params.delta)
    else:
        if args.u is None or args.v is None:
            raise DomainError("exact_lattice needs --u and --v")
        value = jn_exact_small(n, args.u, args.v, (params.omega * n, float(n)))
        normalized = _normalized(value, N)
    est = SingularIntegralEstimate(
        n=n,
        N=N,
        value=value,
        normalized=normalized,
        method=args.method,
        stderr=0.0,
    )
    return _record(est), None


def _cmd_xi(args, cfg: RunConfig):
    xi = enum_Xi(args.n, cfg.k, cfg.eta, args.vmax)
    payload = {
        **_record(xi, N="n", L="vmax"),
        "values": xi.values,
        "entries": Columns(zip(*xi.entries)),
        "total_multiplicity": xi.total_multiplicity(),
    }
    return payload, (("n", "count"), payload["entries"])


def _cmd_measure(args, cfg: RunConfig):
    est = measure_sigma(cfg.lam, args.l, args.grid)
    return _record(est, lam="lambda", L="l"), None


def _cmd_jsum(args, cfg: RunConfig):
    res = j_sum_exact(cfg.params(), args.lcap)
    return {**_record(res), "asserted": False}, None


def _cmd_rho(args, cfg: RunConfig):
    res = rho_counts(args.u, args.v, delta=cfg.delta)
    payload = {
        **_record(res, "sums", "n_ref", U="u", V="v"),
        "counts": Columns(res.differences()),  # ascending n
        "asserted": False,
    }
    return payload, None


def _witness_payload(w) -> dict | None:
    if w is None:
        return None
    return {**_record(w, N="n"), "residual": w.residual()}


def _cmd_search(args, cfg: RunConfig):
    w = find_witness(args.n, cfg.k, args.mode, delta=cfg.delta, omega=cfg.omega)
    return {"n": args.n, "k": cfg.k, "mode": args.mode, "witness": _witness_payload(w)}, None


def _cmd_pair_search(args, cfg: RunConfig):
    pw = find_pair_witness(cfg.n1, cfg.n2, cfg.k, args.mode, delta=cfg.delta, omega=cfg.omega)
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
_METHODS = ("closed_form", "monte_carlo", "exact_lattice")
_LATTICE = "lattice block scale (exact_lattice)"

# The CLI grammar: one row per subcommand, in help order, holding
# (name, help, flags as (names, add_argument kwargs), handler).
SUBCOMMANDS = (
    ("sieve", "primes in [lo, hi]",
     (_req("--lo", int), _req("--hi", int)), _cmd_sieve),
    ("eval", "evaluate one generating sum",
     (_flag("--kind", choices=KINDS, required=True), _I, _flag("--alpha", type=float),
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


class ConjugateGrid(Columns):
    """Columns (j, alpha, re, im) of a sum with real weights at alpha = j/M, j = 0..M-1.

    Row M - j holds the conjugate of row j, so the writer formats re and im
    only for rows 0..M//2 and copies their texts to the rows above.
    """


_NON_FINITE = frozenset(("nan", "inf", "-inf"))
_EMIT_BLOCK = 1 << 16  # table rows formatted at a time


def _finite(texts):
    if not _NON_FINITE.isdisjoint(texts):
        raise NumericalIntegrityError("the output holds a NaN or an infinity")
    return texts


def _numbers(col) -> list[str] | None:
    """repr (JSON's and csv's number text) of each int or finite float in col, else None.

    A 1-D int, uint or float array (of at most 64 bits) is taken by its dtype
    and checked with one isfinite pass; any other array goes item by item.
    """
    if isinstance(col, np.ndarray):
        if col.ndim == 1 and col.dtype.kind in "iuf" and col.dtype.itemsize <= 8:
            if col.dtype.kind == "f" and not np.isfinite(col).all():
                raise NumericalIntegrityError("the output holds a NaN or an infinity")
            return list(map(repr, col.tolist()))
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
        if items is None:  # an array as the list tolist makes, so np.bool_ items are bools
            items = [_json_text(item, inner)
                     for item in (obj.tolist() if isinstance(obj, np.ndarray) else obj)]
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
    block exist at a time; joined by sep, the blocks give every row.  A
    ConjugateGrid goes to _mirrored_blocks.
    """
    if isinstance(columns, ConjugateGrid):
        return _mirrored_blocks(*columns, row, sep)
    rows = len(columns[0]) if columns else 0
    return [sep.join(map(row, zip(*(_numbers(col[i : i + _EMIT_BLOCK]) for col in columns))))
            for i in range(0, rows, _EMIT_BLOCK)]


def _mirrored_blocks(j, alpha, re, im, row, sep: str) -> list[str]:
    """_row_blocks for a ConjugateGrid, formatting each re and im number once.

    Rows 0..M//2 are formatted block by block.  Row M - t, for 0 < t < M - M//2,
    takes row t's re text as it is and its im text with the sign flipped as
    text, so -0.0 and 0.0 swap; its j and alpha are formatted with row t's block.
    The float64 bits of each row above M//2 must equal those of its mirror
    (im negated), else NumericalIntegrityError.
    """
    M = len(j)
    half, top = M // 2 + 1, M - M // 2  # rows 0..half-1 formatted; 1..top-1 mirrored
    if not (np.array_equal(re[1:top].view(np.int64), re[half:][::-1].view(np.int64))
            and np.array_equal(im[1:top].view(np.int64), (-im[half:][::-1]).view(np.int64))):
        raise NumericalIntegrityError("the grid values are not conjugate-symmetric")
    low, high = [], []
    for a in range(0, half, _EMIT_BLOCK):
        b = min(a + _EMIT_BLOCK, half)
        texts = [_numbers(col[a:b]) for col in (j, alpha, re, im)]
        lo, hi = max(a, 1), min(b, top)  # this block's mirrored rows
        if lo < hi:  # their mirrors, rows M - hi + 1 .. M - lo, in ascending order
            up, own = slice(M - hi + 1, M - lo + 1), slice(lo - a, hi - a)
            re_t = texts[2][own][::-1]
            im_t = [t[1:] if t[0] == "-" else "-" + t for t in reversed(texts[3][own])]
            high.append(sep.join(map(row, zip(_numbers(j[up]), _numbers(alpha[up]), re_t, im_t))))
        # this block's rows after their mirrors: fewer texts are live at the peak
        low.append(sep.join(map(row, zip(*texts))))
    return low + high[::-1]


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
        common.add_argument(f"--{key}", dest=f"cfg_{key}", type=typ)
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
        # I/O on --config and --out; a config that is not UTF-8
        print(f"glinnik: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

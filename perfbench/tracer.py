"""Span recorder that wraps glinnik's public functions from outside.

`install` replaces every binding of a public function (the names exported
by `glinnik/__init__.py`, plus `cli.main`) in every `glinnik.*` module
namespace with one timing wrapper.  Calls between modules go through those
namespaces, so nested calls such as pipeline -> local.singular_series or
linear_table -> sieve_range record child spans.  Calls inside a module go
through its globals, which are the same namespace, so they are caught too.

A span is (id, name, start_ns, end_ns, parent_id, op_id, info); `info`
holds counts taken from the call's inputs and outputs only, never from
private module state.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

MODULES = ("arith", "expsums", "local", "sint", "binary", "search", "pipeline", "cli")


def _info_sieve_range(a, r):
    return {"lo": a["lo"], "hi": a["hi"], "primes": len(r)}


def _info_table(a, r):
    return {"primes": len(r)}


def _info_diag(a, r):
    return {"samples": a["samples"]}


def _info_cube(a, r):
    return {"terms": len(a["table"])}


def _info_grid(a, r):
    return {"M": a["M"]}


def _info_local_A(a, r):
    return {"q": a["q"]}


def _info_mc_box(a, r):
    return {"samples": a["samples"]}


def _info_lattice(a, r):
    return {"U": a["U"]}


def _info_jsum(a, r):
    p = a["params"]
    return {"n1": p.n1, "n2": p.n2, "omega": p.omega, "l_cap": a["L_cap"]}


def _info_measure(a, r):
    return {"L": a["L"], "grid": a["grid"]}


def _info_witness(a, r):
    return {"found": r is not None}


EXTRACTORS = {
    "arith.sieve_range": _info_sieve_range,
    "expsums.linear_table": _info_table,
    "expsums.minor_arc_diagnostic": _info_diag,
    "expsums.eval_cube": _info_cube,
    "expsums.eval_grid": _info_grid,
    "local.local_A": _info_local_A,
    "sint.jn_monte_carlo_box": _info_mc_box,
    "sint.jn_exact_small": _info_lattice,
    "binary.j_sum_exact": _info_jsum,
    "binary.measure_sigma": _info_measure,
    "search.find_witness": _info_witness,
    "search.find_pair_witness": _info_witness,
}


class Tracer:
    """In-memory spans for one worker process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._local = threading.local()
        self._next = 0

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn):
        extract = EXTRACTORS.get(name)
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = tracer._next
            tracer._next += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            info = extract(signature.bind(*args, **kwargs).arguments, result) if extract else None
            tracer.spans.append((sid, name, start, end, parent, tracer.op, info))
            return result

        return traced


def public_functions() -> dict[str, object]:
    """Original public functions, keyed by 'module.name'."""
    pkg = importlib.import_module("glinnik")
    out = {}
    for attr, obj in vars(pkg).items():
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        module = obj.__module__.rsplit(".", 1)[-1]
        if module in MODULES:
            out[f"{module}.{obj.__name__}"] = obj
    cli = importlib.import_module("glinnik.cli")
    out["cli.main"] = cli.main
    return out


def install(tracer: Tracer) -> None:
    """Wrap every binding of every public function."""
    originals = public_functions()
    wrappers = {id(fn): tracer.wrap(name, fn) for name, fn in originals.items()}
    namespaces = [importlib.import_module("glinnik")]
    namespaces += [importlib.import_module(f"glinnik.{m}") for m in MODULES]
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            w = wrappers.get(id(obj))
            if w is not None:
                setattr(ns, attr, w)

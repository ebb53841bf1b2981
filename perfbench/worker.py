"""One repetition of one workload, in a fresh interpreter.

Prints one JSON line: the monotonic times at which set-up and the timed
phase ended, each operation's monotonic start time, latency and check
result, the digests of its outputs, `ru_maxrss`, and with --trace 1 the
per-layer metrics from its spans (the spans themselves go to
.perfbench/spans-<workload>-seed<seed>.jsonl).
Run by run.py from the root of a checkout, with `src` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _feed(h, obj) -> None:
    """Hash an output bit for bit: floats by hex, arrays by bytes."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode() + str(obj.shape).encode())
        h.update(memoryview(np.ascontiguousarray(obj)).cast("B"))
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        for k in sorted(obj, key=repr):
            h.update(repr(k).encode())
            _feed(h, obj[k])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for x in obj:
            _feed(h, x)
    elif isinstance(obj, (float, np.floating)):
        h.update(float(obj).hex().encode())
    elif isinstance(obj, (complex, np.complexfloating)):
        h.update(complex(obj).real.hex().encode() + complex(obj).imag.hex().encode())
    else:
        h.update(repr(obj).encode())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args()

    g = importlib.import_module("glinnik")
    import workloads

    wl = workloads.build(g, args.workload, args.seed, args.size)
    setup_done = time.monotonic()
    if args.setup_only:
        sys.stdout.write(json.dumps({"setup_done": setup_done}) + "\n")
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    ops = []
    exact_all = []
    raw = hashlib.sha256()
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = i
        at = time.monotonic()
        start = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # an operation's failure is a measured outcome
            out, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.op = -1
        ok, exact, counts = False, None, {}
        if error is None:
            try:
                ok, exact, counts = op.check(out)
            except Exception as exc:  # a check that cannot read the output fails it
                error = f"check {type(exc).__name__}: {exc}"
            _feed(raw, out)
        del out
        exact_all.append(exact)
        ops.append({"name": op.name, "tag": op.tag, "at": at, "latency_s": latency,
                    "ok": bool(ok), "error": error, "counts": counts})

    timed_end = time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    exact_text = json.dumps(exact_all, sort_keys=True, separators=(",", ":"), default=str)
    record = {
        "setup_done": setup_done,
        "timed_end": timed_end,
        "wall_s": sum(o["latency_s"] for o in ops),
        "peak_rss_mb": rss_mb,
        "ops": ops,
        "exact_digest": hashlib.sha256(exact_text.encode()).hexdigest(),
        "raw_digest": raw.hexdigest(),
        "inputs": wl.inputs,
    }
    if tracer is not None:
        import layers

        record["layers"] = layers.layer_metrics(tracer.spans, ops)
        record["spans"] = len(tracer.spans)
        os.makedirs(".perfbench", exist_ok=True)
        path = os.path.join(".perfbench", f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op, info in tracer.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "info": info}) + "\n")
    sys.stdout.write(json.dumps(record, default=str) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

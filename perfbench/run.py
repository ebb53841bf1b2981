"""glinnik benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload report --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  Each repetition runs in a fresh interpreter (perfbench/worker.py)
so glinnik's module caches start cold, as for every CLI user.  Repetitions
run back to back until the measuring time is used up (at least three);
with --trace 0 each is followed by two interpreters that only set up, to
add samples to setup_s from across the whole run.

--trace 0 prints the end-to-end metrics.  The machine is a share of a
busy host whose speed drifts, so a SpeedProbe (perfbench/speed.py)
samples it all through the run, and each operation's latency is
multiplied by the speed factor of the time it ran: the times read as
seconds on the baseline machine in its usual state.  An operation's
latency is then its median over the run's repetitions; set-up time is
the median, over all the run's interpreters, of each one's time scaled
by the factor of its own set-up; peak memory is the lowest peak of the
repetitions.  The run
record keeps the unscaled figures and every factor.  --trace 1
alternates traced and untraced repetitions and prints the per-layer
metrics from the traced ones (medians over them, unscaled), with
trace.overhead_s, the median over adjacent traced/untraced pairs of the
traced minus the untraced scaled wall time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full run record (machine
header, every budget and seed, per-repetition figures and digests) is
written to .perfbench/ in the checkout.  With no program in the working
directory the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import BUILDERS, THREADS  # noqa: E402

END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
}
# a run must end within 180 s even if a worker hangs
RUN_DEADLINE_S = 170
MIN_REPS = 3
MIN_PAIRS = 2
SETUP_PER_REP = 2
RECORD_DIR = ".perfbench"


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine_header() -> dict:
    cpu = None
    info = _read("/proc/cpuinfo") or ""
    for line in info.splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{idx}/level")
        kind = _read(f"{base}/{idx}/type")
        size = _read(f"{base}/{idx}/size")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
        "caches": caches,
        "threads_used": THREADS,
    }


def run_worker(deadline: float, workload: str, seed: int, size: str, trace: int,
               *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(trace), *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"failed": "worker passed the run deadline", "trace": trace}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failed": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}",
                "trace": trace}
    rec = json.loads(lines[-1])
    rec["spawned"] = spawned
    rec["setup_s"] = rec["setup_done"] - spawned
    rec["trace"] = trace
    return rec


def op_latencies(reps: list[dict], scaled: bool = True) -> list[float]:
    """Each operation's median latency over the repetitions of a run.

    Every repetition runs the same operations on the same inputs in a fresh
    interpreter, so operation i of one repetition is operation i of every
    other.  With `scaled`, each latency is first multiplied by the speed
    factor of the time the operation ran (`scale` in the op).
    """
    rows = ([o["latency_s"] * (o["scale"] if scaled else 1.0) for o in r["ops"]] for r in reps)
    return [statistics.median(col) for col in zip(*rows)]


def op_percentiles(latencies: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it.

    Below 21 samples that percentile would not lie above the median, and
    the maximum is reported instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n >= 21:
        tail, pct = xs[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = xs[-1], 100.0
    return {"p50": statistics.median(xs), "tail": tail, "tail_percentile": pct, "samples": n}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every operation at toy sizes, for the smoke test")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "glinnik", "__init__.py")):
        print("perfbench: no src/glinnik in the working directory; run from a checkout",
              file=sys.stderr)
        return 2

    header = machine_header()
    reps: list[dict] = []
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    pattern = [1, 0] if args.trace else [0]
    unit_min = MIN_PAIRS if args.trace else MIN_REPS
    setups: list[dict] = []
    units = 0
    probe = SpeedProbe()
    probe.start()
    try:
        while True:
            for trace in pattern:
                reps.append(run_worker(deadline, args.workload, args.seed, args.size, trace))
            for _ in range(0 if args.trace else SETUP_PER_REP):
                setups.append(run_worker(deadline, args.workload, args.seed, args.size, 0,
                                         "--setup-only"))
            units += 1
            elapsed = time.monotonic() - started
            per_unit = elapsed / units
            if any("failed" in r for r in reps):
                break
            if units >= unit_min and elapsed + per_unit > args.seconds:
                break
    finally:
        probe.stop()
    for r in reps + setups:
        if "failed" not in r:
            r["setup_factor"] = probe.factor(r["spawned"], r["setup_done"])
            if "timed_end" in r:
                r["factor"] = probe.factor(r["setup_done"], r["timed_end"])
                # the host's speed changes within a repetition, so each
                # operation takes the factor of the time it ran
                for o in r["ops"]:
                    o["scale"] = probe.factor(o["at"], o["at"] + o["latency_s"])

    broken = [r["failed"] for r in reps + setups if "failed" in r]
    good = [r for r in reps if "failed" not in r]
    untraced = [r for r in good if r["trace"] == 0]
    traced = [r for r in good if r["trace"] == 1]
    attempted = sum(len(r["ops"]) for r in good) + len(broken)
    failed = sum(1 for r in good for o in r["ops"] if not o["ok"]) + len(broken)
    digests = {(r["exact_digest"], r["raw_digest"]) for r in good}
    correct = not broken and failed == 0 and len(digests) == 1

    metrics: dict[str, dict] = {}
    summary: dict = {}
    if untraced and not args.trace:
        lat = op_latencies(untraced)
        pct = op_percentiles(lat)
        interps = untraced + setups
        values = {
            "wall_s": sum(lat),
            "setup_s": statistics.median(r["setup_s"] * r["setup_factor"] for r in interps),
            "peak_rss_mb": min(r["peak_rss_mb"] for r in untraced),
            "op_p50_s": pct["p50"],
            "op_tail_s": pct["tail"],
        }
        summary["op_tail"] = {"percentile": pct["tail_percentile"], "samples": pct["samples"],
                              "reps": len(untraced)}
        raw = op_latencies(untraced, scaled=False)
        raw_pct = op_percentiles(raw)
        summary["raw"] = {
            "wall_s": sum(raw), "op_p50_s": raw_pct["p50"], "op_tail_s": raw_pct["tail"],
            "setup_s": statistics.median(r["setup_s"] for r in interps),
        }
        summary["speed"] = {"factors": [r["factor"] for r in untraced],
                            "probe_samples": len(probe.costs),
                            "probe_median_s": statistics.median(probe.costs)}
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}
    elif traced and untraced:
        layer = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        # the host's speed drifts over a run, so compare each traced
        # repetition with the untraced one that ran right after it
        layer["trace.overhead_s"] = statistics.median(
            t["wall_s"] * t["factor"] - u["wall_s"] * u["factor"]
            for t, u in zip(traced, untraced))
        metrics = {k: {"value": layer[k], "unit": layers.PER_LAYER[k][0]}
                   for k in layers.PER_LAYER}

    if not metrics:
        correct = False
    summary["fail_frac"] = failed / attempted if attempted else 1.0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": header,
        "inputs": good[0]["inputs"] if good else None,
        "correct": correct, "attempted": attempted, "failed": failed,
        "summary": summary, "metrics": metrics, "broken": broken,
        "digests": sorted({d[0] for d in digests}), "raw_digests": sorted({d[1] for d in digests}),
        "setup_only_s": [r.get("setup_s") for r in setups],
        "reps": [{k: v for k, v in r.items() if k not in ("ops", "inputs")} for r in reps],
        "failed_ops": [o for r in good for o in r["ops"] if not o["ok"]][:20],
    }
    os.makedirs(RECORD_DIR, exist_ok=True)
    path = os.path.join(RECORD_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:10s} {'fail_frac':32s} {summary['fail_frac']:>16.6g} "
          f"({failed}/{attempted})")
    if "op_tail" in summary:
        print(f"{args.workload:10s} op_tail_s is {summary['op_tail']}")
    print(f"{args.workload:10s} record {path}; exact digest {record['digests']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

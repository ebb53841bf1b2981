"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --workloads report,arcs --out spread.json

Every run is untraced (--trace 0) and measures for BENCHMARK.json's
run_seconds.  For every workload and end-to-end metric this prints the
median of the per-seed values and the spread (third minus first quartile, as
statistics.quantiles(values, n=4) gives them) as a share of the median,
next to a third of the metric's bound in BENCHMARK.json.  Run from the
root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", help="write every run's result line and the spreads here")
    args = ap.parse_args()

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results: dict = {}
    spreads: dict = {}
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds_from(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            line["seed"] = seed
            runs.append(line)
            print(f"{wl} seed {seed}: correct={line['correct']} failed={line['failed']}/"
                  f"{line['attempted']}", flush=True)
        results[wl] = runs
        spreads[wl] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("nan")
            spreads[wl][name] = {"median": med, "q1": q1, "q3": q3, "spread": share}
            bound = bounds.get(name)
            limit = f"  (a third of the bound: {bound / 3:.4f})" if bound else ""
            print(f"{wl:10s} {name:30s} median {med:12.6g}  spread {share:8.4f}{limit}",
                  flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "runs": results,
                       "spreads": spreads}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Run from the root of a checkout.  Every workload runs once untraced and
once traced at toy sizes: each run must print every metric BENCHMARK.json
names for its mode, with its unit, fail no operation, and produce the same
output digest traced as untraced.  A directory holding only the benchmark
must make it exit non-zero without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = BENCH["command"][1:] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                                  "--trace", str(trace), "--size", "tiny"]
    return subprocess.run([sys.executable] + cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_tiny(workload):
    digests = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1  # fail_frac is 0
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], float | int) for m in result["metrics"].values())
        path = os.path.join(ROOT, ".perfbench", f"{workload}-seed3-trace{trace}.json")
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        assert len(record["digests"]) == 1
        digests[trace] = record["digests"][0]
    assert digests[0] == digests[1]


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(BENCH["workloads"][0]["name"], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

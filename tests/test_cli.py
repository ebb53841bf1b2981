import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import glinnik
import glinnik.cli as cli
from glinnik.arith import sieve_range
from glinnik.cli import SUBCOMMANDS, RunConfig, main
from glinnik.cli import Columns, _csv_text, _json_text
from glinnik.errors import NumericalIntegrityError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def readme_cli_lines() -> list[str]:
    """The `glinnik ...` lines of the fenced block under README.md's CLI heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("glinnik ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where report --out writes
    lines = readme_cli_lines()
    assert len(lines) == 13
    for line in lines:
        command, _, note = (part.strip() for part in line.partition("#"))
        argv = shlex.split(command)[1:]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", line
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
        if note.startswith("reproduces"):
            assert json.loads(out)["k_threshold"] == int(note.split()[-1])
        elif note.startswith("{"):
            assert json.loads(out)["values"] == json.loads(f"[{note[1:-1]}]")
        elif note:
            assert out.splitlines()[0] == note.replace(", ", ","), line
        else:
            assert json.loads(out)["config"], line


def key_tree(obj):
    """The nested dict keys of a JSON value, None at a leaf; a list has its dict items' keys."""
    if isinstance(obj, dict):
        return {key: key_tree(value) for key, value in obj.items()}
    if isinstance(obj, list):
        trees = [key_tree(item) for item in obj if isinstance(item, dict)]
        return {key: sub for tree in trees for key, sub in tree.items()} or None
    return None


def leaves(*keys: str) -> dict:
    return dict.fromkeys(keys)


def block(*keys: str) -> dict:
    """The tree of a report block annotated with its method and seed."""
    return {**leaves("method", "seed"), "value": leaves(*keys)}


CONFIG = leaves("delta", "epsilon", "eta", "k", "lambda", "n1", "n2", "omega", "seed")
WITNESS = leaves("cubes", "n", "p1", "powers", "residual")
# the key tree of each JSON example under README.md's CLI heading, with the config block
KEY_TREES = {
    "k-threshold": leaves("c1", "c2", "k_threshold", "lambda"),
    "sieve --lo 1 --hi 10": leaves("count", "hi", "lo", "primes"),
    "xi --N 101 --k 2 --eta 0.1 --vmax 3":
        leaves("entries", "eta", "k", "n", "total_multiplicity", "values", "vmax"),
    "arcs --alpha 0.5": leaves("a", "alpha", "arc", "q"),
    "singular-series --n 5 --cutoff 1000": leaves("anomalies", "cutoff", "factors", "n", "value"),
    "singular-integral --method monte_carlo --samples 100000":
        leaves("N", "method", "n", "normalized", "samples", "seed", "stderr", "value"),
    "measure --lambda 0.9 --l 20 --grid 1048576":
        leaves("empirical_exponent", "grid", "l", "lambda", "measure"),
    "jsum --lcap 8 --n1 100003 --n2 100003":
        leaves("asserted", "diagonal", "l_cap", "n1", "n2", "omega", "ratio", "value"),
    "rho --u 10 --v 5":
        leaves("asserted", "bound_ratio", "counts", "max_count", "quadruples", "u", "v"),
    "search --n 37 --k 1": {**leaves("k", "mode", "n"), "witness": WITNESS},
    "pair-search --n1 111 --n2 109 --k 2":
        {**leaves("k", "mode", "n1", "n2"), "witness1": WITNESS, "witness2": WITNESS},
    "report --out report.json": {
        **leaves("exponent_note", "k_threshold", "regime_note", "schema"),
        "config": {**CONFIG, "budgets": leaves(
            "jsum_l_cap", "jsum_n", "mc_n", "mc_samples", "measure_L", "measure_grid",
            "measure_lambdas", "rho_u", "rho_v", "sigma_cutoff", "sigma_samples", "sigma_window",
            "witness_count", "witness_k", "witness_start", "xi_eta", "xi_k", "xi_n", "xi_vmax")},
        "constants": block("b", "e_lambda_bound", "j_const", "jsum_const", "k_threshold",
                           "lambda", "r1_coeff", "r3_coeff", "sigma_min", "st_moment_const"),
        "jsum": block("asserted", "bound_const", "l_cap", "n1", "n2", "ratio", "value"),
        "measure": block("L", "empirical_exponent", "grid", "lambda", "measure"),
        "rho": block("asserted", "bound_const", "bound_ratio", "max_count", "u", "v"),
        "singular_integral": {
            "closed_form": leaves("method", "seed", "value"),
            "monte_carlo": block("N", "n", "normalized", "samples", "stderr", "value"),
        },
        "singular_series": block("bound", "count", "cutoff", "max", "mean", "min",
                                 "tail_allowance", "violations"),
        "witness_density": block("count", "found", "k", "missing", "start"),
        "xi": block("eta", "k", "n", "pair_count", "total_multiplicity", "values", "vmax"),
    },
}


@pytest.mark.parametrize("line", [line for line in readme_cli_lines() if "--csv" not in line])
def test_readme_json_examples_keep_their_key_trees(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)  # where report --out writes
    command = line.partition("#")[0].strip().removeprefix("glinnik ")
    argv = shlex.split(command)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
    expected = KEY_TREES[command]
    assert key_tree(json.loads(out)) == {"config": CONFIG, **expected}


def test_k_threshold_prints_231(capsys):
    code, out, _ = run_cli(capsys, "k-threshold")
    assert code == 0
    assert "231" in out
    payload = json.loads(out)
    assert payload["k_threshold"] == 231
    assert payload["config"]["lambda"] == 0.961917


def test_k_threshold_custom_constants(capsys):
    payload = run_json(capsys, "k-threshold", "--c1", "1.0", "--c2", "0.5", "--lambda", "0.9")
    assert payload["k_threshold"] == 2


def test_sieve_small(capsys):
    payload = run_json(capsys, "sieve", "--lo", "1", "--hi", "10")
    assert payload["primes"] == [2, 3, 5, 7]
    assert payload["count"] == 4


def test_sieve_csv(capsys):
    code, out, _ = run_cli(capsys, "sieve", "--lo", "1", "--hi", "10", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "p"
    assert [int(x) for x in out.splitlines()[1:]] == [2, 3, 5, 7]


def test_xi_worked_example(capsys):
    payload = run_json(
        capsys, "xi", "--N", "101", "--k", "2", "--eta", "0.1", "--vmax", "3"
    )
    assert payload["values"] == [91, 93, 95, 97]


def test_eval_single_point(capsys):
    payload = run_json(
        capsys,
        "eval", "--kind", "binary", "--alpha", "0",
        "--n1", "1000003", "--n2", "1000003",
    )
    assert payload["re"] == pytest.approx(16.0)  # floor(L) at this scale
    assert payload["im"] == 0.0


def test_eval_grid_csv_header(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval", "--kind", "cube_u", "--grid", "8", "--csv",
        "--n1", "1000003", "--n2", "1000003",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j,alpha,re,im"
    assert len(lines) == 9


def test_eval_requires_exactly_one_mode(capsys):
    code, _, err = run_cli(capsys, "eval", "--kind", "binary")
    assert code == 1
    assert "domain error" in err


def test_eval_cube_point(capsys):
    payload = run_json(capsys, "eval", "--kind", "cube_u", "--alpha", "0.3")
    params = glinnik.ProblemParams(n1=1_000_003, n2=1_000_003)
    value = glinnik.eval_cube(glinnik.dyadic_table(params.u(1)), 0.3)
    assert (payload["re"], payload["im"]) == (value.real, value.imag)


def test_arcs_classification(capsys):
    payload = run_json(
        capsys, "arcs", "--alpha", "0.5", "--n1", "1000003", "--n2", "1000003"
    )
    assert payload["arc"] == "major" and payload["a"] == 1 and payload["q"] == 2


def test_singular_series_schema(capsys):
    payload = run_json(capsys, "singular-series", "--n", "5", "--cutoff", "100")
    assert payload["n"] == 5 and payload["cutoff"] == 100
    assert payload["value"] > 0
    assert payload["factors"][0][0] == 2
    assert payload["anomalies"] == []


def test_singular_integral_closed_form(capsys):
    payload = run_json(capsys, "singular-integral", "--method", "closed_form")
    assert payload["normalized"] == pytest.approx(2.7335671, rel=1e-4)
    assert payload["stderr"] == 0.0


def test_singular_integral_monte_carlo(capsys):
    payload = run_json(
        capsys,
        "singular-integral", "--method", "monte_carlo", "--samples", "5000",
        "--n1", "1000003", "--n2", "1000003", "--seed", "9",
    )
    assert payload["method"] == "monte_carlo"
    assert payload["samples"] == 5000 and payload["seed"] == 9
    assert payload["stderr"] > 0


def test_singular_integral_exact_lattice(capsys):
    argv = ("singular-integral", "--method", "exact_lattice", "--n1", "1001", "--n2", "1001")
    payload = run_json(capsys, *argv, "--u", "3", "--v", "2")
    value = glinnik.jn_exact_small(1001, 3, 2, (glinnik.ProblemParams.omega * 1001, 1001.0))
    assert value > 0 and payload["value"] == value
    assert payload["normalized"] == value / 1001 ** (11 / 9)
    for flag in ("--u", "--v"):
        code, out, err = run_cli(capsys, *argv, flag, "3")
        assert code == 1 and out == "" and "needs --u and --v" in err


def test_measure_subcommand(capsys):
    payload = run_json(capsys, "measure", "--lambda", "0.5", "--l", "12", "--grid", "1024")
    assert payload["measure"] == glinnik.measure_sigma(0.5, 12.0, 1024).measure > 0.0


def test_jsum_subcommand(capsys):
    payload = run_json(capsys, "jsum", "--lcap", "3", "--n1", "101", "--n2", "101")
    assert payload["value"] > 0 and payload["asserted"] is False


def test_rho_subcommand(capsys):
    payload = run_json(capsys, "rho", "--u", "3", "--v", "2")
    assert payload["max_count"] > 0 and payload["asserted"] is False


# SHA-256 of stdout, taken when the rho table was still built on every call
RHO_STDOUT_SHA256 = {
    "--u 10 --v 5": "69968d19f1c65d75ae0eb65c8373ebb927644ecc0188c6611944278316547d39",
    "--u 12 --v 5": "7849682c9c198175200641d398bc13b621176c5046e44e84704395df2a7fc2a6",
}


@pytest.mark.parametrize("args", RHO_STDOUT_SHA256)
def test_rho_subcommand_bytes_are_pinned(capsys, args):
    code, out, err = run_cli(capsys, "rho", *args.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == RHO_STDOUT_SHA256[args]


# SHA-256 of stdout, taken before the sieve flagged odd numbers only and before a table
# kept its log weights and block plan
LINEAR_STDOUT_SHA256 = {
    "sieve --lo 0 --hi 3000000":
        "c55a8c5df00b17ca35b15012780301957cec6b10de55d11647280a593552a1dc",
    "eval --kind linear --alpha 0.6 --n1 10000001 --n2 10000001":
        "64f079a13c9241d5f1063285f3ee40558c3d42051f1fc3f998dacc31034703e6",
    "eval --kind linear --grid 4096 --csv":
        "774e9d93d51708718d3fb044299486190254d07c6404fc3aa14f18a43ce204d9",
}


@pytest.mark.parametrize("args", LINEAR_STDOUT_SHA256)
def test_sieve_and_linear_eval_bytes_are_pinned(capsys, args):
    code, out, err = run_cli(capsys, *args.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == LINEAR_STDOUT_SHA256[args]


# SHA-256 of stdout, taken when the writer still formatted every number of a grid
GRID_STDOUT_SHA256 = {
    "eval --kind cube_u --grid 65536 --csv":
        "7da9a05ddc0dde8036ed471d402bd2debd7b4837f20d9e9978ddeffd5de80c06",
    "eval --kind binary --grid 65536":
        "ca9bf7c9593c569021958448e6fb249b1443ab829a46711fbcd99db3a2067888",
    "eval --kind cube_v --grid 4097":
        "cd4009bc039a79fa210828196db5fb1d7a8150a19c39659c259c6585c3f40356",
}


@pytest.mark.parametrize("args", GRID_STDOUT_SHA256)
def test_grid_eval_bytes_are_pinned(capsys, args):
    code, out, err = run_cli(capsys, *args.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GRID_STDOUT_SHA256[args]


def test_rho_subcommand_reads_delta(capsys):
    payload = run_json(capsys, "rho", "--u", "10", "--v", "5", "--delta", "0.002")
    assert payload["config"]["delta"] == 0.002
    assert payload["bound_ratio"] == glinnik.rho_counts(10, 5, delta=0.002).bound_ratio
    assert payload["bound_ratio"] != glinnik.rho_counts(10, 5).bound_ratio


def test_search_subcommand(capsys):
    payload = run_json(capsys, "search", "--n", "37", "--k", "1")
    w = payload["witness"]
    assert w["p1"] == 3 and w["cubes"] == [2, 2, 2, 2] and w["powers"] == [1]
    assert w["residual"] == 0


def test_search_none_result(capsys):
    payload = run_json(capsys, "search", "--n", "35", "--k", "1")
    assert payload["witness"] is None


def test_pair_search_subcommand(capsys):
    payload = run_json(
        capsys, "pair-search", "--n1", "111", "--n2", "109", "--k", "2"
    )
    assert payload["witness1"]["residual"] == 0
    assert payload["witness2"]["residual"] == 0
    assert sorted(payload["witness1"]["powers"]) == sorted(payload["witness2"]["powers"])


def test_search_paper_ranges_reads_delta_and_omega(capsys):
    # the default witness has p1 = 109, outside omega = 0.5's window (216.5, 433]
    argv = ("search", "--n", "433", "--k", "2", "--mode", "paper_ranges")
    assert run_json(capsys, *argv)["witness"]["p1"] == 109
    assert run_json(capsys, *argv, "--omega", "0.5")["witness"] is None
    w = glinnik.find_witness(433, 2, "paper_ranges", delta=0.05)
    got = run_json(capsys, *argv, "--delta", "0.05")["witness"]
    assert (got["p1"], tuple(got["cubes"]), tuple(got["powers"])) == (w.p1, w.cubes, w.powers)
    assert w.p1 == 223


def test_pair_search_paper_ranges_reads_omega(capsys):
    argv = ("pair-search", "--n1", "435", "--n2", "433", "--k", "2", "--mode", "paper_ranges")
    payload = run_json(capsys, *argv)
    assert (payload["witness1"]["p1"], payload["witness2"]["p1"]) == (13, 109)
    payload = run_json(capsys, *argv, "--omega", "0.5")
    assert payload["witness1"] is None and payload["witness2"] is None


def test_exit_code_usage_error(capsys):
    code, _, _ = run_cli(capsys, "k-threshold", "--bogus-flag")
    assert code == 64
    code, _, _ = run_cli(capsys, "not-a-command")
    assert code == 64


def test_exit_code_domain_error(capsys):
    code, _, err = run_cli(capsys, "search", "--n", "36", "--k", "1")
    assert code == 1 and "domain error" in err
    code, _, err = run_cli(capsys, "xi", "--N", "100", "--k", "2", "--vmax", "3")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("measure", "--lambda", "nan", "--l", "12", "--grid", "1024"),
        ("eval", "--kind", "binary", "--alpha", "nan"),
        ("arcs", "--alpha", "nan"),
        ("eval", "--kind", "linear", "--alpha", "inf"),
        ("xi", "--N", "101", "--k", "2", "--eta", "2.0", "--vmax", "3"),
        ("xi", "--N", "101", "--k", "2", "--eta", "0.1", "--vmax", "inf"),
        ("xi", "--N", "101", "--k", "2", "--eta", "0.1", "--vmax", "nan"),
        ("xi", "--N", "101", "--k", "2", "--eta", "nan", "--vmax", "3"),
        ("k-threshold", "--c1", "nan"),
    ],
)
def test_non_finite_input_is_a_domain_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1 and "domain error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags",
    [
        ("--n1", "4"),
        ("--n2", "1000004"),
        ("--n1", "101", "--n2", "103"),
        ("--delta", "-1"),
        ("--delta", "nan"),
        ("--omega", "1.5"),
        ("--eta", "0"),
        ("--lambda", "-0.5"),
        ("--lambda", "inf"),
        ("--epsilon", "nan"),
        ("--k", "0"),
        ("--threads", "-1"),
        ("--seed", "-1"),
        ("--epsilon", "1e308"),
    ],
)
def test_bad_config_is_a_domain_error_for_every_subcommand(capsys, flags):
    subcommands = (("sieve", "--lo", "2", "--hi", "30"), ("k-threshold",), ("rho", "--u", "10", "--v", "5"))
    for argv in subcommands:
        code, out, err = run_cli(capsys, *argv, *flags)
        assert code == 1 and "domain error" in err, (argv, flags)
        assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("name", [row[0] for row in SUBCOMMANDS])
def test_every_subcommand_has_help_and_rejects_unknown_flags(capsys, name):
    code, out, _ = run_cli(capsys, name, "--help")
    assert code == 0 and out.startswith("usage: glinnik " + name)
    code, out, err = run_cli(capsys, name, "--no-such-flag")
    assert code == 64 and out == "" and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("k-threshold", "--config", "{tmp}/missing.cfg"),
        ("k-threshold", "--out", "{tmp}/missing/out.json"),
        ("k-threshold", "--config", "{tmp}/latin1.cfg"),
        ("singular-integral", "--samples", "1000", "--seed", "-1"),
        ("sieve", "--lo", "2", "--hi", str(2**63)),
        ("xi", "--n", "101", "--vmax", "3", "--k", "1000000"),
        ("singular-integral", "--samples", str(10**15)),
        ("measure", "--l", "1100", "--grid", "1024"),
        ("measure", "--l", "1023.5", "--grid", "1024"),
        ("singular-integral", "--method", "exact_lattice", "--u", "2", "--v", "2",
         "--n1", str(10**300 + 1), "--n2", str(10**300 + 1)),
        ("report", "--n1", str(10**400 + 1), "--n2", str(10**400 + 1)),
    ],
)
def test_hostile_argv_exits_with_an_error_line_not_a_traceback(tmp_path, capsys, argv):
    (tmp_path / "latin1.cfg").write_bytes("# caf\xe9\nk = 231\n".encode("latin-1"))
    code, out, err = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code in (1, 2) and out == ""
    assert err.startswith("glinnik: ") and "Traceback" not in err


def test_eval_linear_sieves_once(capsys, monkeypatch):
    import glinnik.expsums as expsums

    calls = []

    def counting_sieve(*args, **kwargs):
        calls.append(args)
        return sieve_range(*args, **kwargs)

    monkeypatch.setattr(expsums, "sieve_range", counting_sieve)
    payload = run_json(capsys, "eval", "--kind", "linear", "--alpha", "0.3")
    assert payload["kind"] == "linear"
    assert len(calls) == 1


def test_python_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(glinnik.__file__).resolve().parents[1])}

    def run(module, *argv):
        cmd = [sys.executable, "-m", module, "k-threshold", *argv]
        return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)

    for module in ("glinnik", "glinnik.cli"):
        done = run(module)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["k_threshold"] == 231
        done = run(module, "--c1", "nan")
        assert done.returncode == 1 and "domain error" in done.stderr


def test_exit_code_resource_error(capsys):
    code, _, err = run_cli(capsys, "jsum", "--lcap", "30", "--n1", "101", "--n2", "101")
    assert code == 2 and "resource error" in err
    code, _, err = run_cli(capsys, "measure", "--l", "1e308", "--grid", "1024")
    assert code == 2 and "term budget" in err


def test_cube_sum_budget_exits_2(capsys, monkeypatch):
    # u(1) passes 2^20 here, so the cube table reaches 2^21 and p^3 could leave int64;
    # at 10^28 + 1 the dyadic block is a span the sieve allows, but takes seconds
    def no_sieve(*args, **kwargs):
        raise AssertionError("the cube-sum budget is checked before the sieve")

    monkeypatch.setattr(cli, "dyadic_table", no_sieve)
    for n in (str(18_500_000_000_000_000_001), str(10**28 + 1)):
        argv = ("eval", "--kind", "cube_u", "--alpha", "0.3", "--n1", n, "--n2", n)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "MAX_CUBE_HI" in err and "Traceback" not in err


def test_singular_series_cutoff_budget(capsys):
    code, out, err = run_cli(capsys, "singular-series", "--n", "5", "--cutoff", "1000000000")
    assert code == 2 and out == ""
    assert "local.MAX_SERIES_CUTOFF" in err and "Traceback" not in err


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "k-threshold", "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["k_threshold"] == 231


def test_report_bytes_identical_across_thread_counts(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["report", "--out", str(a), "--threads", "1"]) == 0
    assert main(["report", "--out", str(b), "--threads", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["k_threshold"] == 231
    assert payload["schema"] == 1
    assert payload["config"]["budgets"] == json.loads(json.dumps(asdict(glinnik.ReportBudgets())))


def test_config_round_trip():
    cfg = RunConfig(n1=55_555, delta=2e-4, lam=0.95, threads=2)
    text = cfg.to_text()
    assert RunConfig.from_text(text) == cfg
    assert RunConfig.from_text(text).to_text() == text  # canonical form is a fixed point
    assert RunConfig.from_text(RunConfig().to_text()) == RunConfig()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(RunConfig(n1=101, n2=101, k=1).to_text(), encoding="utf-8")
    payload = run_json(capsys, "search", "--n", "37", "--config", str(cfg_path))
    assert payload["witness"]["p1"] == 3
    payload = run_json(
        capsys, "search", "--n", "35", "--config", str(cfg_path), "--k", "1"
    )
    assert payload["witness"] is None


@pytest.mark.parametrize("line", ["n1 = abc", "delta = 1e-4x", "threads = 1.5"])
def test_config_value_that_does_not_parse_is_a_domain_error(tmp_path, capsys, line):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(line + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "k-threshold", "--config", str(cfg_path))
    assert code == 1 and "domain error" in err and line.split()[0] in err
    assert out == "" and "Traceback" not in err


def test_config_rejects_unknown_key():
    from glinnik.errors import DomainError

    with pytest.raises(DomainError, match="unknown config key"):
        RunConfig.from_text("bogus = 1\n")


def test_config_rejects_eta_delta_combination(capsys):
    # constraint is named in the error message
    code, _, err = run_cli(
        capsys,
        "singular-integral", "--method", "monte_carlo", "--samples", "1000",
        "--eta", "0.1",
    )
    assert code == 1
    assert "eta < delta" in err


def test_csv_unsupported_command(capsys):
    code, _, err = run_cli(capsys, "k-threshold", "--csv")
    assert code == 1
    assert "not supported" in err


# ---------------------------------------------------------------------------
# the writer against json.dumps and csv.writer


def plain(obj):
    """The payload with arrays and Columns turned into the lists they stand for."""
    if isinstance(obj, Columns):
        return [list(row) for row in zip(*map(plain, obj))]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(item) for item in obj]
    return obj


def json_oracle(payload) -> str:
    return json.dumps(plain(payload), sort_keys=True, indent=2, allow_nan=False)


def csv_oracle(header, columns) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *zip(*map(plain, columns))])
    return buf.getvalue()


SMALL_ARGV = {
    "sieve": ("sieve", "--lo", "1", "--hi", "200"),
    "eval": ("eval", "--kind", "cube_u", "--grid", "16", "--n1", "100003", "--n2", "100003"),
    "arcs": ("arcs", "--alpha", "0.5"),
    "singular-series": ("singular-series", "--n", "5", "--cutoff", "100"),
    "singular-integral": ("singular-integral", "--samples", "2000", "--seed", "3"),
    "xi": ("xi", "--N", "101", "--k", "2", "--eta", "0.1", "--vmax", "3"),
    "measure": ("measure", "--lambda", "0.5", "--l", "12", "--grid", "1024"),
    "jsum": ("jsum", "--lcap", "3", "--n1", "101", "--n2", "101"),
    "rho": ("rho", "--u", "3", "--v", "2"),
    "search": ("search", "--n", "37", "--k", "1"),
    "pair-search": ("pair-search", "--n1", "111", "--n2", "109", "--k", "2"),
    "k-threshold": ("k-threshold",),
    "report": ("report", "--threads", "1"),
}
CSV_SUBCOMMANDS = ("sieve", "eval", "xi")


def test_small_argv_cover_every_subcommand():
    assert set(SMALL_ARGV) == {row[0] for row in SUBCOMMANDS}


def run_cli_and_oracle(capsys, monkeypatch, *argv):
    """run_cli's (code, out, err), and the oracle's text for the payload main wrote, or None.

    The oracle is csv_oracle for --csv and json_oracle otherwise, applied to the
    arguments of main's outermost _csv_text or _json_text call.
    """
    seen = []

    def spy(writer):
        def run(*args):
            seen.append(args)
            return writer(*args)
        return run

    with monkeypatch.context() as m:
        m.setattr(cli, "_json_text", spy(_json_text))
        m.setattr(cli, "_csv_text", spy(_csv_text))
        code, out, err = run_cli(capsys, *argv)
    if not seen:
        return code, out, err, None
    args = seen[0]  # the outermost call; _json_text recurses through the spy
    return code, out, err, csv_oracle(*args) if "--csv" in argv else json_oracle(*args) + "\n"


@pytest.mark.parametrize("name", sorted(SMALL_ARGV))
@pytest.mark.parametrize("as_csv", [False, True])
def test_output_is_byte_identical_to_json_dumps_and_csv_writer(capsys, monkeypatch, name, as_csv):
    code, out, err, expected = run_cli_and_oracle(
        capsys, monkeypatch, *SMALL_ARGV[name], *(("--csv",) if as_csv else ()))
    if as_csv and name not in CSV_SUBCOMMANDS:
        assert code == 1 and "not supported" in err and expected is None
        return
    assert code == 0, err
    assert out == expected


def test_eval_grid_columns_equal_the_per_point_rows(capsys):
    M = 24
    doc = run_json(capsys, "eval", "--kind", "binary", "--grid", str(M))
    grid = cli.eval_grid("binary", RunConfig().params().L, M)
    expected = [[j, j / M, float(z.real), float(z.imag)] for j, z in enumerate(grid)]
    assert doc["rows"] == expected


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        (),
        np.array([], dtype=np.int64),
        np.array([], dtype=np.float64),
        {"a": {}, "b": [], "c": [[], {}], "d": [[[]]], "e": Columns(()), "f": Columns(([], []))},
        {3: "three", -1: [1], 10**30: None},
        {1.5: 1, -0.0: 2, 1e16: 3},
        {True: 1, False: 2},
        {None: 3},
        (1, (2, 3), [4.5, (6,)]),
        [(1, 2.5), (3, -0.0), (5, 5e-324)],
        [(1, 2), (3,)],
        [(1, "x"), (2, "y")],
        [(), ()],
        [-0.0, 5e-324, 1e16, 1e-7, 123456789.0, 2**64, -(2**70), 0.1 + 0.2],
        [True, False, None, 1, 1.0],
        {"nested": [{"x": np.arange(3), "y": np.linspace(0, 1, 4)}, Columns((np.arange(2), [0.5, 1e300]))]},
        ["caf\xe9", "\u2603 snow", "tab\t\"quote\"\\", "\U0001f600", "\x00\x1f"],
        {"\xe9": 1, "e": 2, "": 3},
        [np.float64(0.25), np.float64(-1e-300)],
        np.arange(5, dtype=np.uint8),
        np.array([[1, 2], [3, 4]]),
        np.array([[0.5], [-0.0]]),
        np.array([2**64 - 1, 0], dtype=np.uint64),
        np.array([-(2**63)], dtype=np.int64),
        np.array([0.1, -0.0, 1e-7], dtype=np.float32),
        np.array([1, "a", None, 2.5], dtype=object),
        np.array([True, False]),
        np.array([[True], [False]]),
    ],
)
def test_json_text_matches_json_dumps(payload):
    assert _json_text(payload) == json_oracle(payload)


@pytest.mark.parametrize("payload", [np.array([1.5], dtype=np.longdouble), np.array([1j])])
def test_json_text_refuses_what_json_dumps_refuses(payload):
    with pytest.raises(TypeError):
        _json_text(payload)
    with pytest.raises(TypeError):
        json_oracle(payload)


@pytest.mark.parametrize(
    "payload",
    [
        [float("nan")],
        {"x": float("inf")},
        np.array([1.0, -np.inf]),
        np.array([np.nan], dtype=np.float32),
        Columns((np.arange(2), np.array([0.0, np.nan]))),
        [(1, 2.0), (2, float("nan"))],
        {float("nan"): 1},
        np.float64("nan"),
    ],
)
def test_json_text_rejects_non_finite_numbers(payload):
    with pytest.raises(NumericalIntegrityError):
        _json_text(payload)
    with pytest.raises(ValueError):
        json_oracle(payload)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_tables_written_in_blocks_of_rows_match_the_oracles(monkeypatch, block):
    monkeypatch.setattr(cli, "_EMIT_BLOCK", block)
    for n in range(8):
        cols = (np.arange(n), np.arange(n) / 7, list(range(-n, 0)), tuple(k / 2 for k in range(n)))
        assert _csv_text(("a", "b", "c", "d"), cols) == csv_oracle(("a", "b", "c", "d"), cols)
        payload = {"rows": Columns(cols), "one": Columns(cols[:1]), "n": n}
        assert _json_text(payload) == json_oracle(payload)
    late_nan = (np.arange(7), np.array([0.0] * 6 + [math.nan]))
    with pytest.raises(NumericalIntegrityError):
        _csv_text(("j", "x"), late_nan)
    with pytest.raises(NumericalIntegrityError):
        _json_text(Columns(late_nan))


@pytest.mark.parametrize("block", [1, 2, 3, cli._EMIT_BLOCK])
@pytest.mark.parametrize("kind", ["linear", "binary", "cube_u", "cube_v"])
def test_mirrored_grid_rows_match_the_oracles(capsys, monkeypatch, block, kind):
    """Rows above M//2 reuse their mirror's texts; blocks of 2 and 3 straddle M//2."""
    monkeypatch.setattr(cli, "_EMIT_BLOCK", block)
    for M in (2, 3, 4, 5, 8, 9, 17, 4097):
        for fmt in ((), ("--csv",)):
            code, out, err, expected = run_cli_and_oracle(
                capsys, monkeypatch, "eval", "--kind", kind, "--grid", str(M), *fmt)
            assert code == 0, err
            assert out == expected


def test_mirrored_grid_swaps_signed_zeros(capsys):
    code, out, err = run_cli(capsys, "eval", "--kind", "binary", "--grid", "4", "--csv")
    assert code == 0, err
    ims = [line.split(",")[3] for line in out.splitlines()[1:]]
    assert ims[1] == "-0.0" and ims[3] == "0.0"


@pytest.mark.parametrize("M", [64, 65])
def test_grid_formats_each_value_once(capsys, monkeypatch, M):
    eval_grid, numbers = cli.eval_grid, cli._numbers
    grids, made = [], []

    def spy_grid(*args):
        grids.append(eval_grid(*args))
        return grids[-1]

    def spy_numbers(col):
        texts = numbers(col)
        if isinstance(col, np.ndarray) and np.shares_memory(col, grids[0]):
            made.extend(texts)
        return texts

    monkeypatch.setattr(cli, "eval_grid", spy_grid)
    monkeypatch.setattr(cli, "_numbers", spy_numbers)
    for fmt in ((), ("--csv",)):
        grids.clear(), made.clear()
        code, _, err = run_cli(capsys, "eval", "--kind", "binary", "--grid", str(M), *fmt)
        assert code == 0, err
        assert 0 < len(made) <= 2 * (M // 2 + 1)  # re and im of rows 0..M//2


@pytest.mark.parametrize(
    "grid",
    [
        lambda M: np.arange(M) * (1 + 1j),
        lambda M: np.full(M, 1 + 1j),  # equal, not conjugate, halves
        lambda M: np.ones(M, dtype=complex),  # im 0.0 mirrored as 0.0, not -0.0
    ],
    ids=["ascending", "equal_halves", "unsigned_zeros"],
)
@pytest.mark.parametrize("fmt", [(), ("--csv",)])
def test_grid_that_is_not_conjugate_symmetric_is_an_error_line(capsys, monkeypatch, grid, fmt):
    monkeypatch.setattr(cli, "eval_grid", lambda kind, source, M: grid(M))
    code, out, err = run_cli(capsys, "eval", "--kind", "binary", "--grid", "6", *fmt)
    assert code == 1 and out == ""
    assert err.startswith("glinnik: error: ") and "conjugate" in err and "Traceback" not in err


def test_csv_text_rejects_non_finite_numbers():
    with pytest.raises(NumericalIntegrityError):
        _csv_text(("a", "b"), (np.arange(2), np.array([1.0, np.inf])))


def test_non_finite_output_is_an_error_line_not_a_traceback(capsys, monkeypatch):
    monkeypatch.setattr(cli, "eval_G", lambda source, alpha: complex(math.nan, 0.0))
    code, out, err = run_cli(capsys, "eval", "--kind", "binary", "--alpha", "0.1")
    assert code == 1 and out == ""
    assert err.startswith("glinnik: error: ") and "Traceback" not in err
    monkeypatch.setattr(cli, "eval_grid", lambda kind, source, M: np.full(M, complex(0.0, math.inf)))
    code, out, err = run_cli(capsys, "eval", "--kind", "binary", "--grid", "4", "--csv")
    assert code == 1 and out == ""
    assert err.startswith("glinnik: error: ") and "Traceback" not in err


def test_sieve_emission_budget(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_EMIT_VALUES", 24)
    code, out, err = run_cli(capsys, "sieve", "--lo", "1", "--hi", "100")
    assert code == 2 and out == "" and "MAX_EMIT_VALUES" in err  # 25 primes
    code, _, _ = run_cli(capsys, "sieve", "--lo", "3", "--hi", "100")
    assert code == 0  # 24 primes fit


def test_eval_grid_emission_budget_is_checked_before_the_dft(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_EMIT_VALUES", 16)

    def no_dft(*args, **kwargs):
        raise AssertionError("eval_grid ran over the emission budget")

    monkeypatch.setattr(cli, "eval_grid", no_dft)
    code, out, err = run_cli(capsys, "eval", "--kind", "binary", "--grid", "5")
    assert code == 2 and out == ""
    assert "resource error" in err and "MAX_EMIT_VALUES" in err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_EMIT_VALUES", 16)
    assert len(run_json(capsys, "eval", "--kind", "binary", "--grid", "4")["rows"]) == 4


finite = st.floats(allow_nan=False, allow_infinity=False)
int64s = st.integers(-(2**63), 2**63 - 1)
number = st.one_of(st.integers(), finite)


def column(n):
    return st.one_of(
        hnp.arrays(np.int64, n, elements=int64s),
        hnp.arrays(np.float64, n, elements=finite),
        st.lists(number, min_size=n, max_size=n),
    )


columns = st.integers(0, 5).flatmap(lambda n: st.lists(column(n), min_size=1, max_size=4))
rows = st.integers(1, 3).flatmap(lambda k: st.lists(st.tuples(*[number] * k), max_size=5))
leaves = st.one_of(
    st.none(), st.booleans(), number, st.text(max_size=8),
    hnp.arrays(np.int64, st.integers(0, 5), elements=int64s),
    hnp.arrays(np.float64, st.integers(0, 5), elements=finite),
    columns.map(Columns), rows,
)
payloads = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=3),
    ),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(payloads)
def test_json_text_property(payload):
    assert _json_text(payload) == json_oracle(payload)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(columns, st.lists(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=6), max_size=4))
def test_csv_text_property(cols, header):
    assert _csv_text(header, cols) == csv_oracle(header, cols)


half_spectra = st.integers(2, 12).flatmap(lambda M: st.tuples(
    st.just(M), *[hnp.arrays(np.float64, M // 2 + 1, elements=finite)] * 2))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(half_spectra, st.sampled_from([1, 2, 3, cli._EMIT_BLOCK]))
def test_conjugate_grid_property(spectrum, block):
    """A grid whose row M - t is the conjugate of row t, as eval_grid's, matches the oracles."""
    M, re, im = spectrum
    grid = np.empty(M, dtype=np.complex128)
    grid.real[: M // 2 + 1], grid.imag[: M // 2 + 1] = re, im
    grid[M // 2 + 1 :] = np.conjugate(grid[1 : (M + 1) // 2][::-1])
    j = np.arange(M)
    cols = cli.ConjugateGrid((j, j / M, grid.real, grid.imag))
    saved, cli._EMIT_BLOCK = cli._EMIT_BLOCK, block
    try:
        assert _csv_text(("j", "alpha", "re", "im"), cols) == csv_oracle(("j", "alpha", "re", "im"), cols)
        assert _json_text({"rows": cols}) == json_oracle({"rows": cols})
    finally:
        cli._EMIT_BLOCK = saved

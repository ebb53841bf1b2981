import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glinnik
from glinnik.arith import sieve_range
from glinnik.cli import SUBCOMMANDS, RunConfig, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


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


def test_sieve_cache_identical_results(tmp_path, capsys):
    cache = tmp_path / "primes.txt"
    first = run_json(capsys, "sieve", "--lo", "5", "--hi", "50", "--cache-file", str(cache))
    assert cache.exists()
    second = run_json(capsys, "sieve", "--lo", "5", "--hi", "50", "--cache-file", str(cache))
    third = run_json(capsys, "sieve", "--lo", "5", "--hi", "50", "--cache", "false")
    assert first["primes"] == second["primes"] == third["primes"]


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


def test_measure_subcommand(capsys):
    payload = run_json(capsys, "measure", "--lambda", "0", "--l", "12", "--grid", "1024")
    assert payload["measure"] == 1.0


def test_jsum_subcommand(capsys):
    payload = run_json(capsys, "jsum", "--lcap", "3", "--n1", "101", "--n2", "101")
    assert payload["value"] > 0 and payload["asserted"] is False


def test_rho_subcommand(capsys):
    payload = run_json(capsys, "rho", "--u", "3", "--v", "2")
    assert payload["max_count"] > 0 and payload["asserted"] is False


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
        ("sieve", "--lo", "2", "--hi", "30", "--cache-file", "{tmp}/bad_cache.txt"),
        ("xi", "--n", "101", "--vmax", "3", "--k", "1000000"),
        ("singular-integral", "--samples", str(10**15)),
    ],
)
def test_hostile_argv_exits_with_an_error_line_not_a_traceback(tmp_path, capsys, argv):
    (tmp_path / "latin1.cfg").write_bytes("# caf\xe9\nk = 231\n".encode("latin-1"))
    (tmp_path / "bad_cache.txt").write_text("# primes lo=2 hi=30\n2\nthree\n", encoding="utf-8")
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


def test_singular_series_cutoff_budget(capsys):
    code, out, err = run_cli(capsys, "singular-series", "--n", "5", "--cutoff", "1000000000")
    assert code == 2 and out == ""
    assert "residue budget" in err and "Traceback" not in err


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


def test_config_round_trip():
    cfg = RunConfig(n1=55_555, delta=2e-4, lam=0.95, threads=2, cache=False)
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

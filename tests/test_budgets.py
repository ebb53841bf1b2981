"""Every resource budget is a module constant that its entry points read at call time."""

import re

import pytest

import glinnik.cli as cli
from glinnik import (
    ResourceError,
    arith,
    binary,
    count_pairs,
    cubic_C3,
    enum_Xi,
    eval_grid,
    expsums,
    find_pair_witness,
    find_witness,
    local,
    measure_sigma,
    moment_ST4_exact,
    multiplicative,
    rho_counts,
    search,
    sieve_range,
    singular_series,
)


def xi_cli():
    return cli.main(["xi", "--N", "101", "--k", "2", "--eta", "0.1", "--vmax", "3"])


# (module, constant, small value, entry point); each call succeeds at the constant's real value
CASES = [
    pytest.param(arith, "MAX_SPAN", 99, lambda: sieve_range(1, 100), id="MAX_SPAN-sieve_range"),
    pytest.param(arith, "MAX_RHO_STEPS", 1, lambda: multiplicative((2**31 - 1) * (2**61 - 1)),
                 id="MAX_RHO_STEPS-multiplicative"),
    pytest.param(expsums, "MAX_GRID", 1024, lambda: eval_grid("binary", 12.0, 2048),
                 id="MAX_GRID-eval_grid"),
    pytest.param(expsums, "MAX_GRID", 1024, lambda: measure_sigma(0.9, 20.0, 4096),
                 id="MAX_GRID-measure_sigma"),
    pytest.param(expsums, "MAX_QUADRUPLES", 1, lambda: rho_counts(10, 5),
                 id="MAX_QUADRUPLES-rho_counts"),
    pytest.param(expsums, "MAX_QUADRUPLES", 1, lambda: moment_ST4_exact(20, 8),
                 id="MAX_QUADRUPLES-moment_ST4_exact"),
    pytest.param(search, "MAX_DIFFS", 1, lambda: rho_counts(10, 5), id="MAX_DIFFS-rho_counts"),
    pytest.param(binary, "MAX_NODES", 0, lambda: enum_Xi(101, 2, 0.1, 3.0),
                 id="MAX_NODES-enum_Xi"),
    pytest.param(binary, "MAX_NODES", 0, lambda: count_pairs(101, 103, 2, 0.1, 3.0),
                 id="MAX_NODES-count_pairs"),
    pytest.param(binary, "MAX_NODES", 0, lambda: find_witness(433, 2), id="MAX_NODES-find_witness"),
    pytest.param(binary, "MAX_NODES", 0, lambda: find_pair_witness(111, 109, 2),
                 id="MAX_NODES-find_pair_witness"),
    pytest.param(binary, "MAX_NODES", 0, xi_cli, id="MAX_NODES-cli_xi"),
    pytest.param(search, "MAX_WITNESS_N", 100, lambda: find_witness(433, 2),
                 id="MAX_WITNESS_N-find_witness"),
    pytest.param(local, "MAX_RESIDUES", 6, lambda: cubic_C3(7, 1), id="MAX_RESIDUES-cubic_C3"),
    pytest.param(local, "MAX_SERIES_CUTOFF", 99, lambda: singular_series(5, 100),
                 id="MAX_SERIES_CUTOFF-singular_series"),
]


@pytest.mark.parametrize("module, name, value, call", CASES)
def test_budget_constant_is_read_at_call_time(monkeypatch, capsys, module, name, value, call):
    named = f"{module.__name__.rsplit('.', 1)[1]}.{name} = {value}"
    monkeypatch.setattr(module, name, value)
    if call is xi_cli:  # the CLI reports a resource error as exit code 2
        assert call() == 2
        assert named in capsys.readouterr().err
    else:
        with pytest.raises(ResourceError, match=re.escape(named)):
            call()

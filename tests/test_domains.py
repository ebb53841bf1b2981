"""Every check of a tunable accepts exactly its one interval in expsums.DOMAINS."""

import math

import pytest

from glinnik import (
    ProblemParams,
    count_pairs,
    enum_Xi,
    find_pair_witness,
    find_witness,
    jn_closed_form,
    k_threshold,
    rho_counts,
    rho_counts_from_primes,
)
from glinnik.cli import RunConfig, main
from glinnik.errors import DomainError, ResourceError
from glinnik.expsums import DOMAINS

# the library functions that take each tunable themselves, called at desk-scale sizes
READERS = {
    "delta": (lambda v: find_witness(37, 1, delta=v),
              lambda v: find_pair_witness(111, 109, 1, delta=v),
              lambda v: rho_counts(3, 2, delta=v),
              lambda v: rho_counts_from_primes([5], [3], U=3, V=2, delta=v),
              jn_closed_form),
    "omega": (lambda v: find_witness(37, 1, omega=v),
              lambda v: find_pair_witness(111, 109, 1, omega=v)),
    "eta": (lambda v: enum_Xi(101, 2, v, 3.0), lambda v: count_pairs(101, 103, 2, v, 3.0)),
    "lam": (lambda v: k_threshold(1.0, 0.5, v),),
    "epsilon": (),
    "k": (lambda v: find_witness(37, v), lambda v: find_pair_witness(111, 109, v),
          lambda v: enum_Xi(101, v, 0.1, 3.0), lambda v: count_pairs(101, 103, v, 0.1, 3.0)),
}
CONFIG_KEYS = {name: key for key, name, _ in RunConfig.config_keys()}


def probes(name: str) -> list[tuple[float, bool]]:
    """(value, inside) for NaN and +-inf, then just inside, at and just outside each
    finite end, and 10^300 inside each infinite end (a cap far from it fails there)."""
    lo, hi, ends = DOMAINS[name]
    big = 10**300 if name == "k" else 1e300  # k is an integer

    def step(x, d):  # the next value in direction d
        return x + d if name == "k" else math.nextafter(x, d * math.inf)

    out = [(math.nan, False), (math.inf, hi == math.inf and ends[1] == "]"),
           (-math.inf, lo == -math.inf and ends[0] == "[")]
    for end, d, closed in ((lo, 1, ends[0] == "["), (hi, -1, ends[1] == "]")):
        if math.isfinite(end):
            out += [(step(end, d), True), (end, closed), (step(end, -d), False)]
        else:
            out.append((-d * big, True))
    return out


def refusal(call, value) -> str | None:
    """The DomainError message of call(value), or None if it is accepted."""
    try:
        call(value)
    except DomainError as exc:
        return str(exc)
    except ResourceError:  # the value passed the domain checks; a budget refused its size
        pass
    return None


def test_readers_cover_every_tunable():
    assert set(READERS) == set(DOMAINS) <= set(CONFIG_KEYS)


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_every_check_of_a_tunable_reads_its_one_domain(capsys, name):
    for value, inside in probes(name):
        # ProblemParams refuses on the tunable's own grounds exactly outside the domain;
        # inside, only a constraint between tunables (eta < delta/(1+delta)) may refuse
        msg = refusal(lambda v: ProblemParams(n1=101, n2=101, **{name: v}), value)
        assert (msg is not None and msg.startswith(f"{name} must")) == (not inside), (value, msg)
        assert msg is None or not inside or msg.startswith("constraint violated"), (value, msg)

        code = main(["k-threshold", f"--{CONFIG_KEYS[name]}={value!r}"])
        err = capsys.readouterr().err
        assert (code != 0) == (not inside), (value, code, err)
        assert code in (0, 1, 64) and "Traceback" not in err

        for call in READERS[name]:
            msg = refusal(call, value)
            assert (msg is not None) == (not inside), (value, msg)
            assert msg is None or msg.startswith(f"{name} must"), (value, msg)

"""Brute-force representation witnesses and cube-difference counts.

A witness for N is a tuple (p1; p2..p5; v1..vk) with

    N = p1 + p2^3 + p3^3 + p4^3 + p5^3 + 2^(v1) + ... + 2^(vk),

all p prime and every v >= 1.  The search hashes sums of two prime cubes
and, for each shift multiset and cube-pair combination, tests primality
of the residual p1 against a sieve bitset.  Searches are exhaustive over
the active mode's ranges, so a None result is definitive.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import _round_pow2, dyadic_table, is_prime, sieve_range
from .binary import _power_multisets
from .errors import REALS, DomainError, ResourceError, _require_in, _require_odd
from .expsums import DOMAINS, ProblemParams, _check_quadruples, _cube_scales, _quadruple_buckets
from .expsums import _require_targets, _shift_scale

log = logging.getLogger(__name__)

MAX_WITNESS_N = 10**7  # largest target of a witness search, and of its prime bitset
MAX_DIFFS = 1 << 24  # entries of the difference table of two quadruple-sum tables
_MIN_WITNESS = 2 + 4 * 8  # smallest possible p1 + four cubes


@dataclass(frozen=True)
class RepWitness:
    """One concrete solution of the representation equation."""

    N: int
    p1: int
    cubes: tuple[int, int, int, int]
    powers: tuple[int, ...]

    def residual(self) -> int:
        return self.N - self.p1 - sum(p**3 for p in self.cubes) - sum(
            1 << v for v in self.powers
        )

    def validate(self) -> bool:
        return (
            self.residual() == 0
            and is_prime(self.p1)
            and all(is_prime(p) for p in self.cubes)
            and all(v >= 1 for v in self.powers)
        )


@dataclass(frozen=True)
class PairWitness:
    """Witnesses for two targets sharing one powers-of-two multiset."""

    w1: RepWitness
    w2: RepWitness

    def validate(self) -> bool:
        return (
            self.w1.validate()
            and self.w2.validate()
            and sorted(self.w1.powers) == sorted(self.w2.powers)
        )


@dataclass(frozen=True, eq=False)
class RhoCounts:
    """Cube-difference representation counts and the reported density ratio.

    sums holds each distinct quadruple sum s = a^3 + b^3 + c^3 + d^3, ascending,
    and counts its number c(s) of ordered tuples, both int64.  The count of a
    difference n is rho(n) = sum_s c(s) c(s + n), at most rho(0) = sum_s c(s)^2
    by Cauchy-Schwarz, so max_count is that diagonal.
    """

    U: int
    V: int
    sums: np.ndarray
    counts: np.ndarray
    quadruples: int
    max_count: int
    n_ref: float
    bound_ratio: float

    def differences(self) -> tuple[np.ndarray, np.ndarray]:
        """Every n with rho(n) > 0, ascending, and rho(n), as two int64 arrays."""
        diffs = np.subtract.outer(self.sums, self.sums).ravel()
        prods = np.multiply.outer(self.counts, self.counts).ravel()
        dvals, inverse = np.unique(diffs, return_inverse=True)
        return dvals, np.bincount(inverse, weights=prods.astype(np.float64)).astype(np.int64)


def _cube_pairs(primes) -> tuple[list[int], dict[int, tuple[int, int]]]:
    """Sorted distinct two-cube sums and one witness pair per sum."""
    sums: dict[int, tuple[int, int]] = {}
    ps = [int(p) for p in primes]
    for ai, a in enumerate(ps):
        a3 = a**3
        for b in ps[ai:]:
            s = a3 + b**3
            if s not in sums:
                sums[s] = (a, b)
    return sorted(sums), sums


class _SearchSets(NamedTuple):
    """Cube-pair tables, p1 window and shift cap of one target."""

    u_sums: list[int]
    u_pairs: dict[int, tuple[int, int]]
    v_sums: list[int]
    v_pairs: dict[int, tuple[int, int]]
    p1_lo: float
    p1_hi: float
    v_max: int


def _complete_cubes_and_prime(
    target: int, sets: _SearchSets, isp: np.ndarray
) -> tuple[int, tuple[int, int, int, int]] | None:
    """Find p1 + (two cubes) + (two cubes) = target, or None (exhaustive)."""
    u_sums, u_pairs, v_sums, v_pairs, p1_lo, p1_hi, _ = sets
    for c1 in u_sums:
        if c1 + v_sums[0] + 2 > target:
            break
        for c2 in v_sums:
            r = target - c1 - c2
            if r < 2:
                break
            if r <= p1_lo or r > p1_hi:
                continue
            if isp[r]:
                a, b = u_pairs[c1]
                c, d = v_pairs[c2]
                return r, tuple(sorted((a, b, c, d)))
    return None


def _search_sets(N: int, mode: str, delta: float, omega: float) -> _SearchSets:
    """The search sets of N in free mode, or else in paper_ranges mode."""
    if mode == "free":
        cube_primes = sieve_range(2, math.floor((N - 34) ** (1 / 3)) + 1).primes
        cube_primes = [int(p) for p in cube_primes if p**3 <= N - 34 + 8]
        sums, pairs = _cube_pairs(cube_primes)
        v_max = (N - _MIN_WITNESS).bit_length() - 1
        return _SearchSets(sums, pairs, sums, pairs, 0.0, float(N), v_max)
    u, v = _cube_scales(N, delta)
    tu = dyadic_table(u)
    tv = dyadic_table(v)
    for name, t in (("cube-u", tu), ("cube-v", tv)):
        if len(t) == 0:
            log.warning("paper_ranges: %s prime range (%d, %d] is empty", name, t.lo - 1, t.hi)
    l_cap = max(1, math.floor(_shift_scale(N)))
    return _SearchSets(
        *_cube_pairs(tu.primes), *_cube_pairs(tv.primes), omega * N, float(N), l_cap
    )


@lru_cache(maxsize=1)
def _prime_bitset(limit: int) -> np.ndarray:
    """Read-only primality flags for 0..limit, shared by consecutive searches."""
    isp = np.zeros(limit + 1, dtype=bool)
    isp[sieve_range(2, limit).primes] = True
    isp.flags.writeable = False
    return isp


def _check_witness_n(N: int) -> None:
    if N > MAX_WITNESS_N:
        raise ResourceError(f"witness search needs N <= search.MAX_WITNESS_N = {MAX_WITNESS_N}")


def _search(
    targets: tuple[int, ...], k: int, mode: str, delta: float, omega: float
) -> list[RepWitness] | None:
    """Witnesses for every target sharing one shift multiset, or None.

    Shift multisets come in lexicographic order; the first one that every
    target completes with a prime and four prime cubes wins.
    """
    if mode not in ("free", "paper_ranges"):
        raise DomainError(f"unknown search mode {mode!r}")
    delta = _require_in(DOMAINS["delta"], delta=delta)
    omega = _require_in(DOMAINS["omega"], omega=omega)
    k = _require_in(DOMAINS["k"], k=k)
    _check_witness_n(max(targets))
    if min(targets) < _MIN_WITNESS + 2 * k:
        return None  # every shift is at least 2
    sets = [_search_sets(N, mode, delta, omega) for N in targets]
    if not all(t.u_sums and t.v_sums for t in sets):
        return None
    # one bitset serves every target up to the next power of two, within MAX_WITNESS_N
    isp = _prime_bitset(min(_round_pow2(max(targets)), MAX_WITNESS_N))
    v_max = min(t.v_max for t in sets)
    s_allow = min(targets) - _MIN_WITNESS
    for s, _, powers in _power_multisets(k, v_max, s_allow):
        witnesses = []
        for N, t in zip(targets, sets):
            hit = _complete_cubes_and_prime(N - s, t, isp)
            if hit is None:
                break
            witnesses.append(RepWitness(N=N, p1=hit[0], cubes=hit[1], powers=powers))
        else:
            assert all(w.validate() for w in witnesses)
            return witnesses
    return None


def find_witness(
    N: int,
    k: int,
    mode: str = "free",
    *,
    delta: float = ProblemParams.delta,
    omega: float = ProblemParams.omega,
) -> RepWitness | None:
    """A witness for N, or a definitive None (search is exhaustive).

    Free mode searches every prime and every shift exponent that fits;
    paper_ranges mode restricts the cube primes to their dyadic blocks
    (U, 2U] and (V, 2V] at delta, p1 to (omega N, N], and shift exponents
    to the log-scale cap, logging any desk-scale-empty range.

    Raises:
        DomainError: N not an odd integer >= 1, an unknown mode, or k, delta
            or omega outside its expsums.DOMAINS interval
        ResourceError: N above MAX_WITNESS_N, or the shift enumeration
            beyond binary.MAX_NODES
    """
    found = _search((_require_odd(N=N),), k, mode, delta, omega)
    return None if found is None else found[0]


def find_pair_witness(
    N1: int,
    N2: int,
    k: int,
    mode: str = "free",
    *,
    delta: float = ProblemParams.delta,
    omega: float = ProblemParams.omega,
) -> PairWitness | None:
    """Witnesses for odd N1 >= N2 sharing one shift multiset, or None (raises as find_witness)."""
    found = _search(_require_targets(N1, N2), k, mode, delta, omega)
    return None if found is None else PairWitness(*found)


def rho_counts_from_primes(
    primes_u,
    primes_v,
    *,
    U: int,
    V: int,
    delta: float = ProblemParams.delta,
) -> RhoCounts:
    """Representation counts of n = (a^3+b^3+c^3+d^3) - (a'^3+b'^3+c'^3+d'^3).

    a, a' run over primes_u (two per side) and c, c' over primes_v, all
    ordered.  The quadruple sums are bucketed (meet in the middle), and
    max_count is the diagonal rho(0) = sum of the squared bucket counts,
    exact in int64; RhoCounts.differences() builds the table of every
    difference only when asked.

    Raises:
        DomainError: U or V not an integer in [1, 2^63); a prime list not iterable or
            empty, an entry not an integer >= 2 or a repeated one, or
            2 max(P_U)^3 + 2 max(P_V)^3 >= 2^63;
            delta outside expsums.DOMAINS, or 16 (1 + delta) U^3 not a finite float
        ResourceError: over expsums.MAX_QUADRUPLES four-tuples or MAX_DIFFS differences by a bound
    """
    U, V, n_ref = _reference_target(U, V, delta)
    return _rho(_prime_entries("primes_u", primes_u), _prime_entries("primes_v", primes_v),
                U, V, n_ref)


def _prime_entries(name: str, primes) -> list[int]:
    """primes ascending as ints, after checking that they are distinct integers >= 2."""
    try:
        entries = list(primes)
    except TypeError:
        raise DomainError(f"{name} must be a list of primes, got {primes!r}") from None
    entries = sorted(_require_in((2, math.inf, "[)Z"), **{f"{name}[{j}]": p})
                     for j, p in enumerate(entries))
    if not entries or len(set(entries)) < len(entries):
        raise DomainError(f"{name} must hold at least one prime, and none twice")
    return entries


def _rho(pu, pv, U: int, V: int, n_ref: float) -> RhoCounts:
    """rho over the ascending distinct primes pu and pv, checked against every bound first."""
    if 2 * int(pu[-1]) ** 3 + 2 * int(pv[-1]) ** 3 >= 1 << 63:
        raise DomainError(f"quadruple sums up to 2 {pu[-1]}^3 + 2 {pv[-1]}^3 do not fit int64")
    _check_quadruples(len(pu), len(pv))
    # the multisets {a, b, c, d}, i of them only in P_U, j only in P_V, bound the distinct sums
    both = len(set(pu).intersection(pv))
    entries = sum(_multisets(len(pu) - both, i) * _multisets(len(pv) - both, j)
                  * _multisets(both, 4 - i - j) for i in range(3) for j in range(3)) ** 2
    if entries > MAX_DIFFS:
        raise ResourceError(f"difference table of up to {entries} entries exceeds "
                            f"search.MAX_DIFFS = {MAX_DIFFS}")
    sums, counts = _quadruple_buckets(pu, pv)
    max_count = int(counts @ counts)
    bound_ratio = max_count * math.log(n_ref) ** 8 / (float(U) * float(V) ** 4)
    return RhoCounts(
        U=U,
        V=V,
        sums=sums,
        counts=counts,
        quadruples=int(counts.sum()),
        max_count=max_count,
        n_ref=n_ref,
        bound_ratio=bound_ratio,
    )


def _multisets(n: int, k: int) -> int:
    """Multisets of k items drawn from n kinds."""
    return math.comb(n + k - 1, k) if k else 1


def _reference_target(U: int, V: int, delta: float) -> tuple[int, int, float]:
    """U, V as ints and N = 16 (1 + delta) U^3, the target whose cube scale is U, after checks."""
    U, V = _require_in((1, 1 << 63, "[)Z"), U=U, V=V)
    delta = _require_in(DOMAINS["delta"], delta=delta)
    n_ref = 16.0 * (1.0 + delta) * float(U) ** 3  # as U < 2^63, only a huge delta overflows
    _require_in(REALS, **{f"16 (1 + delta) U^3 at U={U}, delta={delta}": n_ref})
    return U, V, n_ref


def rho_counts(U: int, V: int, *, delta: float = ProblemParams.delta) -> RhoCounts:
    """rho over the dyadic prime blocks (U, 2U] and (V, 2V].

    The reported ratio max rho * (log N)^8 / (U V^4), with N recovered
    from the cube-scale relation N = 16 (1 + delta) U^3, is diagnostic
    only; the density constant it shadows is asymptotic.

    Raises:
        DomainError: U, V or delta as rho_counts_from_primes, before any sieving; an
            empty dyadic block
    """
    U, V, n_ref = _reference_target(U, V, delta)
    tu = dyadic_table(U)
    tv = dyadic_table(V)
    if len(tu) == 0 or len(tv) == 0:
        raise DomainError(f"empty dyadic prime block for U={U} or V={V}")
    return _rho(tu.primes, tv.primes, U, V, n_ref)

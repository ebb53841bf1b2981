"""Desk-scale circle-method toolkit.

Computable objects for representations of pairs of odd integers as one
prime, four prime cubes, and k powers of two: prime sieving, exponential
sums with arc dissection, local densities and the truncated singular
series, the singular integral, powers-of-2 combinatorics, brute-force
representation witnesses, and the constants pipeline that reproduces the
k = 231 threshold.
"""

__version__ = "0.1.0"

from .arith import (
    Factorization,
    PrimeTable,
    dyadic_table,
    is_prime,
    modpow,
    multiplicative,
    sieve_range,
)
from .binary import (
    JSumExact,
    MeasureEstimate,
    XiSet,
    count_pairs,
    enum_Xi,
    j_sum_exact,
    measure_sigma,
)
from .errors import DomainError, NumericalIntegrityError, ResourceError, ToolkitError
from .expsums import (
    ArcLabel,
    DirichletApprox,
    MinorArcReport,
    ProblemParams,
    classify_arc,
    dirichlet_approx,
    eval_G,
    eval_cube,
    eval_grid,
    eval_linear,
    linear_table,
    minor_arc_diagnostic,
    moment2_exact,
    moment_ST4_exact,
)
from .local import (
    LocalFactor,
    TruncatedSeries,
    cubic_C3,
    local_A,
    ramanujan_C1,
    singular_series,
)
from .pipeline import (
    ConstantsLedger,
    ReportBudgets,
    full_report,
    k_threshold,
    r1_coefficient,
    r3_coefficient,
)
from .search import (
    PairWitness,
    RepWitness,
    RhoCounts,
    find_pair_witness,
    find_witness,
    rho_counts,
    rho_counts_from_primes,
)
from .sint import (
    SingularIntegralEstimate,
    jn_closed_form,
    jn_exact_small,
    jn_monte_carlo,
    jn_monte_carlo_box,
)

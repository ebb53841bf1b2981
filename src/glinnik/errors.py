"""Exception hierarchy shared by every module, and the checks that raise DomainError."""

import math
from fractions import Fraction

import numpy as np


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ToolkitError, ValueError):
    """An argument lies outside an operation's stated domain."""


class ResourceError(ToolkitError, RuntimeError):
    """A computation would exceed a budget; the message names it as `module.NAME = value`."""


class NumericalIntegrityError(ToolkitError, ArithmeticError):
    """A quantity that must be numerically real/exact failed its check."""


def _require_finite(**values) -> None:
    """Raise DomainError naming the first value that is NaN or infinite."""
    for name, x in values.items():
        if not isinstance(x, (int, Fraction)) and not math.isfinite(x):
            raise DomainError(f"{name} must be finite, got {x!r}")


def _require_in(name: str, value, domain: tuple) -> None:
    """Raise DomainError unless value lies in domain = (lo, hi, ends).

    ends holds interval notation's brackets, "(" or "[" then ")" or "]", for an
    open or a closed end.  NaN fails every comparison, so it lies in no domain.
    """
    lo, hi, ends = domain
    if not ((lo < value if ends[0] == "(" else lo <= value)
            and (value < hi if ends[1] == ")" else value <= hi)):
        raise DomainError(f"{name} must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {value!r}")


def _require_int(**values) -> None:
    """Raise DomainError naming the first value that is not an int or a numpy integer."""
    for name, x in values.items():
        if not isinstance(x, (int, np.integer)):
            raise DomainError(f"{name} must be an integer, got {x!r}")

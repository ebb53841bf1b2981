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


def _require_int(**values) -> None:
    """Raise DomainError naming the first value that is not an int or a numpy integer."""
    for name, x in values.items():
        if not isinstance(x, (int, np.integer)):
            raise DomainError(f"{name} must be an integer, got {x!r}")

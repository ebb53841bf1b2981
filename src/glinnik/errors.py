"""Exception hierarchy shared by every module, and the checks that raise DomainError."""

import dataclasses
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


_INTS = (int, np.integer)
_NUMBERS = (float, int, Fraction, np.floating, np.integer)  # the only types a domain holds
_EXACT = (int, np.integer, Fraction)  # kept exact in a "Q" domain
REALS = (-math.inf, math.inf, "()")
PHASES = (-math.inf, math.inf, "()Q")  # a phase alpha, whose int or Fraction stays exact
INTEGERS = (-math.inf, math.inf, "()Z")
POSITIVE_INTEGERS = (1, math.inf, "[)Z")
NON_NEGATIVE_INTEGERS = (0, math.inf, "[)Z")


def _require_in(domain: tuple, **values):
    """Each value checked against domain = (lo, hi, ends) and returned converted.

    ends is interval notation, "(" or "[" then ")" or "]", then "Z" for an integer
    slot or "Q" for a phase alpha.  The converted value is what is checked and
    returned.  In a "Z" domain an int or a numpy integer becomes its int, and every
    other value is refused.  In any other domain a number (an int, a float, a numpy
    number or a Fraction) becomes its float, so one beyond the float range is
    refused, and so is one that rounds onto or past an open end; a string, a complex
    number or None is refused.  In a "Q" domain only a float or a numpy float is
    converted so: an int or a Fraction stays exact, and a numpy integer becomes its
    int, for the exact rational phase path.  NaN fails every comparison, so it lies
    in no domain, and an infinity lies in one only at a closed infinite end.
    Returns the one value given, or a tuple of them in order; DomainError names the
    first value refused.
    """
    lo, hi, ends = domain
    integer = ends[-1] == "Z"
    out = []
    for name, x in values.items():
        v = x
        if type(v) is not (int if integer else float):  # a plain int or float is kept as is
            if ends[-1] == "Q" and isinstance(x, _EXACT):
                v = x if isinstance(x, Fraction) else int(x)
            else:
                v = _plain(name, x, not integer)
        if isinstance(v, int if integer else (float, int, Fraction)) and (
                lo < v if ends[0] == "(" else lo <= v) and (v < hi if ends[1] == ")" else v <= hi):
            out.append(v)
            continue
        if not isinstance(x, _NUMBERS):
            kind = "an integer" if integer else "a real number"
            raise DomainError(f"{name} must be {kind}, got {x!r}")
        finite = isinstance(v, (int, Fraction)) or math.isfinite(v)
        if integer and not isinstance(v, int):
            raise DomainError(f"{name} must be {'an' if finite else 'a finite'} integer, got {x!r}")
        low, high = (">" if ends[0] == "(" else ">="), ("<" if ends[1] == ")" else "<=")
        if not finite and (lo, low) != (-math.inf, ">=") and (hi, high) != (math.inf, "<="):
            raise DomainError(f"{name} must be finite, got {x!r}")
        bound = f"{high} {hi}" if (lo < v if low == ">" else lo <= v) else f"{low} {lo}"
        raise DomainError(f"{name} must satisfy {name} {bound}, got {x!r}")
    return out[0] if len(out) == 1 else tuple(out)


def _require_odd(**values):
    """The values as _require_in returns them; DomainError unless each is an odd integer >= 1."""
    out = _require_in(POSITIVE_INTEGERS, **values)
    for name, x in values.items():
        if x % 2 == 0:
            raise DomainError(f"{name} must be odd, got {x!r}")
    return out


def _store_plain(obj) -> None:
    """Store each field of a frozen dataclass as the int or float every caller computes with.

    A field whose default is a float, or a tuple of floats, is real: a number in it, tuple
    entries included, becomes its float.  In every other field a numpy integer becomes its
    int.  Anything else stays as given, for a domain check to refuse.  Call it after the
    fields' own checks.  DomainError for a real number beyond the largest float.
    """
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        default = f.default[0] if isinstance(f.default, tuple) else f.default
        real = isinstance(default, float)
        if isinstance(value, tuple):
            value = tuple(_plain(f.name, x, real) for x in value)
        else:
            value = _plain(f.name, value, real)
        object.__setattr__(obj, f.name, value)


def _plain(name: str, x, real: bool):
    """x as a float if real and a number, as an int if not real and an integer, else as given."""
    if not real:
        return int(x) if isinstance(x, _INTS) else x
    if not isinstance(x, _NUMBERS):
        return x
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"{name} must be within the float range, got {x!r}") from None

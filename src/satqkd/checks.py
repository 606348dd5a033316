"""The package's range policy, in one place.

:func:`require` holds a value (a float, or an array in every lane) to an
interval written as in mathematics, "(0, 1]" or "[1, inf)"; its comparisons
are written so that NaN lies in no interval.  :func:`finite_positive` holds
a quantity derived from the parameters to (0, inf).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


@lru_cache
def _bounds(interval: str) -> "tuple[float, float, bool, bool]":
    """(lo, hi, lo_open, hi_open) of an interval such as "(0, 1]"."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return lo, hi, interval[0] == "(", interval[-1] == ")"


def require(name: str, value, interval: str):
    """``value`` if it lies in ``interval`` (in every lane of an array), else a
    ValueError naming ``name`` and the first value outside."""
    lo, hi, lo_open, hi_open = _bounds(interval)
    inside = ((value > lo) if lo_open else (value >= lo)) \
        & ((value < hi) if hi_open else (value <= hi))
    if inside is not True and not np.all(inside):  # a float's test needs no NumPy
        got = np.asarray(value)[~np.asarray(inside)][0]
        raise ValueError(f"{name} must lie in {interval}, got {got}")
    return value


def require_fields(obj, **intervals: str) -> None:
    """:func:`require` for each named field of ``obj``, in the order given."""
    for name, interval in intervals.items():
        require(name, getattr(obj, name), interval)


def finite_positive(what: str, compute) -> float:
    """``compute()``, a quantity derived from the parameters, if it lies in
    (0, inf), else a ValueError naming ``what``; an overflow on the way
    counts as infinite."""
    try:
        with np.errstate(all="ignore"):
            value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    return require(what, value, "(0, inf)")

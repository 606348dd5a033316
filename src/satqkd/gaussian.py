"""Entropy of a thermal Gaussian mode, in shot-noise units.

A Gaussian state's entropy is the sum of g(nu) over its symplectic
eigenvalues nu, and a state is physical iff every one is >= 1.  The CV
engine (:mod:`satqkd.cv`) computes the eigenvalues in closed form and
takes g from here: :func:`thermal_entropy` on NumPy arrays and
:func:`thermal_entropy_float` on Python floats.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)

# Symplectic eigenvalues this far below 1 are attributed to floating-point
# noise and clamped to exactly 1; anything lower raises.
SYMPLECTIC_FLOOR_TOL = 1e-9

# Below this distance from 1 the thermal entropy is indistinguishable from 0
# at double precision, and the exact expression degenerates to 0 * inf.
_ENTROPY_CUTOFF = 1e-12


class UnphysicalStateError(ValueError):
    """A covariance matrix (or derived quantity) violates the uncertainty bound."""


def thermal_entropy(nu):
    """von Neumann entropy, in bits, of a thermal mode with symplectic eigenvalue nu.

    Parameters
    ----------
    nu : float or ndarray
        Symplectic eigenvalue(s), physically >= 1.  Values within
        ``SYMPLECTIC_FLOOR_TOL`` below 1 are treated as 1.

    Returns
    -------
    float or ndarray
        ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2), continued by 0
        at nu = 1.

    Notes
    -----
    Evaluated as ``log2((nu+1)/2) + ((nu-1)/2) * log1p(2/(nu-1)) / ln 2``,
    which is algebraically identical but keeps full relative precision for
    nu up to ~1e20, where the textbook two-term form loses the entire
    1/ln 2 tail to cancellation.
    """
    arr = np.asarray(nu, dtype=float)
    if np.any(arr < 1.0 - SYMPLECTIC_FLOOR_TOL):
        bad = float(np.min(arr))
        raise UnphysicalStateError(
            f"symplectic eigenvalue {bad!r} is below 1 beyond tolerance"
        )
    x = arr - 1.0
    # Guard the log1p argument; masked-out lanes still get evaluated by where().
    safe_x = np.where(x < _ENTROPY_CUTOFF, 1.0, x)
    value = np.log2(0.5 * (arr + 1.0)) + 0.5 * safe_x * np.log1p(2.0 / safe_x) / LN2
    out = np.where(x < _ENTROPY_CUTOFF, 0.0, value)
    if np.ndim(nu) == 0:
        return float(out)
    return out


def thermal_entropy_float(nu: float) -> float:
    """:func:`thermal_entropy` for one Python float, in plain ``math``.

    Same expression, without NumPy dispatch, for inner loops that call it a
    few times per evaluation.  No floor check: any nu below ``1 + 1e-12``
    gives 0, i.e. the spectrum is clamped at the vacuum value nu = 1.
    """
    x = nu - 1.0
    if x < _ENTROPY_CUTOFF:
        return 0.0
    return math.log2(0.5 * (nu + 1.0)) + 0.5 * x * math.log1p(2.0 / x) / LN2

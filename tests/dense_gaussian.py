"""Dense Gaussian-state toolbox and the dense Holevo bounds: the references
the closed-form CV kernel is checked against.

States are zero-mean Gaussian states of n bosonic modes, described by a
2n x 2n covariance matrix (CM) over the quadrature vector
(x1, p1, x2, p2, ...).  Vacuum noise is normalised to 1 (shot-noise units),
so a CM ``V`` is physical iff ``V + i*Omega >= 0``, i.e. iff every
symplectic eigenvalue is >= 1.  Here are state constructors, beam-splitter
transforms, partial trace, homodyne conditioning and symplectic spectra by
eigendecomposition, and the reverse- and direct-reconciliation (method 1)
Holevo bounds of a full 8x8 CM from ``satqkd.cv.build_cm``.  The package
computes the same bounds in closed form (``satqkd.cv._chi``); only the
thermal-state entropy g(nu) (``satqkd.cv.thermal_entropy``) is shared with
it.  The package counts any symplectic eigenvalue below 1 as the vacuum;
this toolbox instead checks physicality, and raises
:class:`UnphysicalStateError` below ``1 - floor_tol``.
"""

from __future__ import annotations

import math

import numpy as np

from satqkd.cv import UnphysicalStateError, thermal_entropy

# Symplectic eigenvalues this far below 1 are attributed to floating-point
# noise and clamped to exactly 1; anything lower raises.
SYMPLECTIC_FLOOR_TOL = 1e-9

# The dense bounds (holevo_rr, holevo_dr_m1) condition large covariance
# matrices, which cancels large like terms, so they accept symplectic
# eigenvalues down to 1 - 1e-6 as numerical noise (the default of 1e-9 is
# tuned for O(1) matrices).  The closed-form kernel behind the rates does not
# cancel, and counts any eigenvalue below 1 as the vacuum.
_ENGINE_FLOOR_TOL = 1e-6


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form, block-diagonal in [[0, 1], [-1, 0]]."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def symplectic_eigenvalues(cm: np.ndarray, *, floor_tol: float = SYMPLECTIC_FLOOR_TOL) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted descending.

    The spectrum is read off the ordinary eigenvalues of ``Omega @ V``,
    which come in pairs ``+/- i nu_k``; the moduli are sorted and adjacent
    pairs averaged, which is robust when distinct nus are nearly degenerate.

    Eigenvalues in ``[1 - floor_tol, 1)`` are clamped to exactly 1.  Anything
    below ``1 - floor_tol`` raises :class:`UnphysicalStateError`.  The default
    tolerance suits O(1)-scale matrices; callers conditioning very large CMs
    may pass a looser ``floor_tol``.
    """
    cm = np.asarray(cm, dtype=float)
    n2 = cm.shape[0]
    if cm.shape != (n2, n2) or n2 % 2:
        raise ValueError(f"covariance matrix must be square and even-sized, got {cm.shape}")
    mods = np.sort(np.abs(np.linalg.eigvals(symplectic_form(n2 // 2) @ cm)))
    nus = 0.5 * (mods[0::2] + mods[1::2])
    low = float(np.min(nus)) if nus.size else 1.0
    if low < 1.0 - floor_tol:
        raise UnphysicalStateError(
            f"covariance matrix is unphysical: smallest symplectic eigenvalue {low!r}"
        )
    return np.maximum(nus, 1.0)[::-1]


def von_neumann_entropy(cm: np.ndarray, *, floor_tol: float = SYMPLECTIC_FLOOR_TOL) -> float:
    """Entropy of the Gaussian state with covariance matrix ``cm``, in bits."""
    return float(np.sum(thermal_entropy(symplectic_eigenvalues(cm, floor_tol=floor_tol))))


def vacuum_cm(n_modes: int = 1) -> np.ndarray:
    return np.eye(2 * n_modes)


def thermal_cm(variance: float, n_modes: int = 1) -> np.ndarray:
    """Thermal state of quadrature variance ``variance`` (>= 1) per mode."""
    if variance < 1.0:
        raise UnphysicalStateError(f"thermal variance must be >= 1, got {variance}")
    return variance * np.eye(2 * n_modes)


def two_mode_squeezed_cm(v: float) -> np.ndarray:
    """Two-mode squeezed vacuum with quadrature variance ``v`` per arm.

    The cross correlations are sqrt(v^2 - 1) with opposite signs on x and p,
    so v = 1 degenerates to two vacua.
    """
    if v < 1.0:
        raise UnphysicalStateError(f"TMSV variance must be >= 1, got {v}")
    c = math.sqrt(v * v - 1.0)
    z = np.diag([1.0, -1.0])
    eye = np.eye(2)
    return np.block([[v * eye, c * z], [c * z, v * eye]])


def direct_sum(*cms: np.ndarray) -> np.ndarray:
    """Covariance matrix of a product state (block-diagonal stacking)."""
    blocks = [np.asarray(cm, dtype=float) for cm in cms]
    n = sum(block.shape[0] for block in blocks)
    out = np.zeros((n, n))
    i = 0
    for block in blocks:
        k = block.shape[0]
        out[i:i + k, i:i + k] = block
        i += k
    return out


def beamsplitter_symplectic(eta: float, mode_a: int, mode_b: int, n_modes: int) -> np.ndarray:
    """Symplectic matrix of a beam splitter of transmissivity ``eta``.

    Rotation convention::

        out_a = sqrt(eta) a + sqrt(1-eta) b
        out_b = -sqrt(1-eta) a + sqrt(eta) b

    so eta = 1 is the identity and eta = 0 swaps the modes up to a sign.
    The inverse of the transform is its transpose.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    if mode_a == mode_b:
        raise ValueError("beam splitter needs two distinct modes")
    t = math.sqrt(eta)
    r = math.sqrt(1.0 - eta)
    s = np.eye(2 * n_modes)
    ia, ib = 2 * mode_a, 2 * mode_b
    for off in (0, 1):
        s[ia + off, ia + off] = t
        s[ib + off, ib + off] = t
        s[ia + off, ib + off] = r
        s[ib + off, ia + off] = -r
    return s


def apply_symplectic(cm: np.ndarray, s: np.ndarray) -> np.ndarray:
    return s @ cm @ s.T


def pure_loss(cm: np.ndarray, mode: int, eta: float) -> np.ndarray:
    """Transmit one mode through a loss channel of transmissivity ``eta``.

    Acts as V -> G V G + (1-eta) P on the chosen mode, i.e. the diagonal
    block maps to eta*V_mm + (1-eta)*I and cross correlations scale by
    sqrt(eta); equivalent to mixing with vacuum on a beam splitter and
    discarding the reflected port.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    out = np.array(cm, dtype=float, copy=True)
    i = 2 * mode
    root = math.sqrt(eta)
    out[i:i + 2, :] *= root
    out[:, i:i + 2] *= root
    out[i, i] += 1.0 - eta
    out[i + 1, i + 1] += 1.0 - eta
    return out


def partial_trace(cm: np.ndarray, keep: "list[int] | tuple[int, ...]") -> np.ndarray:
    """Reduce to the listed modes, preserving the order given in ``keep``."""
    idx = []
    for m in keep:
        idx.extend((2 * m, 2 * m + 1))
    return cm[np.ix_(idx, idx)]


def condition_on_homodyne(cm: np.ndarray, mode: int, quadrature: str = "x") -> np.ndarray:
    """Covariance matrix of the remaining modes after homodyning one mode.

    Homodyne detection of a single quadrature is a rank-one update: with
    measured variance ``V_m`` and cross-covariance column ``c`` the
    conditional CM of the rest is ``V_rest - c c^T / V_m``.  The outcome
    value itself never enters (Gaussian conditioning is outcome-independent).

    Parameters
    ----------
    cm : ndarray
        Input covariance matrix.
    mode : int
        Mode to measure; it is removed from the output.
    quadrature : {"x", "p"}
        Which quadrature the detector projects on.
    """
    if quadrature not in ("x", "p"):
        raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    cm = np.asarray(cm, dtype=float)
    n2 = cm.shape[0]
    meas = 2 * mode + (0 if quadrature == "x" else 1)
    v_meas = cm[meas, meas]
    if v_meas <= 0.0:
        raise UnphysicalStateError(f"non-positive measured variance {v_meas!r}")
    rest = [i for i in range(n2) if i not in (2 * mode, 2 * mode + 1)]
    col = cm[rest, meas]
    return cm[np.ix_(rest, rest)] - np.outer(col, col) / v_meas


def holevo_rr(cm: np.ndarray, *, floor_tol: float = _ENGINE_FLOOR_TOL) -> float:
    """Holevo bound on Eve's information about Bob's x-homodyne outcome.

    ``cm`` is the 8x8 (A, B, E, E') matrix from ``satqkd.cv.build_cm``; Eve
    holds (E, E').  Conditioning on Bob's x quadrature is the rank-one update
    of the Eve block by Bob's cross-covariance column.
    """
    eve = cm[4:8, 4:8]
    col = cm[4:8, 2]
    cond = eve - np.outer(col, col) / cm[2, 2]
    return von_neumann_entropy(eve, floor_tol=floor_tol) \
        - von_neumann_entropy(cond, floor_tol=floor_tol)


def holevo_dr_m1(cm: np.ndarray, *, floor_tol: float = _ENGINE_FLOOR_TOL) -> float:
    """Holevo bound on Eve's information about Alice's heterodyne outcome.

    Alice's heterodyne splits her mode on a balanced beam splitter; the x
    outcome of one half carries her data.  That halves her cross covariances
    and maps her variance to (v + 1)/2, after which the conditioning is the
    same rank-one update as in the reverse case.  For very large source
    variance prefer ``satqkd.cv.key_rate_point``, which evaluates the
    cancellation analytically.
    """
    eve = cm[4:8, 4:8]
    v_a = cm[0, 0]
    col = cm[4:8, 0]  # Eve's covariance with Alice's x, before the split
    cond = eve - np.outer(col, col) / (v_a + 1.0)
    return von_neumann_entropy(eve, floor_tol=floor_tol) \
        - von_neumann_entropy(cond, floor_tol=floor_tol)

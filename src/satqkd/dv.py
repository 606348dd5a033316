"""Prepare-and-measure BB84 key-rate bounds with a size-limited eavesdropper.

The eavesdropper can only intercept photons entering her limited collection
aperture, parameterised by the per-photon collection probability ``eta_ae``.
Rounds in which she caught *no* photon are secret for free; rounds where a
single photon was sent and she caught it are charged the usual single-photon
penalty.  With gain ``Q`` and error rate ``E`` estimated from the sifted key,
the asymptotic rate is bounded by

    R >= q Q [ -f h(E) + (S11_L / Q)(1 - h(e11_U)) + S0_L / Q ]

with  S0_L  = max{Q - (1 - p0_eve), 0},
      S11_L = max{Q - (1 - p11), 0},
      e11_U = min{E Q / S11_L, 1/2}          (= 1/2 when S11_L = 0),

where ``p0_eve`` is the probability Eve holds zero photons of a round and
``p11`` the probability exactly one photon was emitted and she holds it.
Both follow from the source model: an ideal single-photon source gives
(1 - eta_ae, eta_ae); a phase-randomised weak coherent pulse of mean photon
number ``mu`` gives (exp(-mu eta_ae), mu eta_ae exp(-mu)).

The channel itself is a simple threshold-detector model: two detectors of
dark-count probability ``p_dc`` each, overall transmission
``eta = eta_ch * eta_d``, misalignment error ``e_d`` on signal detections and
random (1/2) error on dark counts.

One NumPy kernel evaluates this whole chain (channel model, photon-number
terms and rate, with the single-photon best of three) on broadcastable
arrays, one lane per operating point: :func:`rate_arrays` runs it on whole
sweeps, and :func:`binary_entropy`, :func:`channel_observables`,
:func:`photon_number_bounds`, :func:`restricted_rate` and :func:`rate_at`
are one-lane calls of it that return Python floats.
:func:`optimize_mu_arrays` maximises the WCP rate over the pulse intensity
for a whole array of operating points: one array for the coarse scan over
``MU_RANGE``, then a golden-section search run in lockstep, each lane with
its own bracket and stopping rule, so no lane's result depends on the
others.  :func:`optimize_mu` is its one-point wrapper.  The parameter
classes and :func:`binary_entropy` check their ranges through
:mod:`satqkd.checks`, in which NaN lies in no range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .checks import require, require_fields

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # inverse golden ratio

# The WCP intensity search: MU_COARSE_POINTS log-spaced intensities over
# MU_RANGE, then golden section on log10(mu) to MU_TOL.
MU_RANGE = (1e-4, 1e3)
MU_COARSE_POINTS = 200
MU_TOL = 1e-6


@dataclass(frozen=True)
class DvParams:
    """Source, channel and post-processing parameters for one operating point."""

    source: Literal["sps", "wcp"]
    eta_ch: float          # channel transmissivity
    eta_d: float           # detector efficiency
    p_dc: float            # dark-count probability per detector per gate
    e_d: float             # misalignment error probability
    f: float               # error-correction inefficiency, >= 1
    q: float               # sifting factor, (0, 1]
    eta_ae: float          # Eve's per-photon collection probability, (0, 1]
    mu: float = 1.0        # mean photon number (WCP only)

    def __post_init__(self):
        if self.source not in ("sps", "wcp"):
            raise ValueError(f"source must be 'sps' or 'wcp', got {self.source!r}")
        require_fields(self, mu="(0, inf)", eta_ch="(0, 1]", eta_d="(0, 1]", p_dc="[0, 1)",
                       e_d="[0, 0.5]", f="[1, inf)", q="(0, 1]", eta_ae="(0, 1]")

    @property
    def eta(self) -> float:
        """End-to-end photon transmission probability."""
        return self.eta_ch * self.eta_d


@dataclass(frozen=True)
class DvObservables:
    """Sifted-key statistics: total gain and quantum bit error rate."""

    gain: float
    qber: float

    def __post_init__(self):
        require_fields(self, gain="(0, 1]", qber="[0, 0.5]")


# ---------------------------------------------------------------------------
# Kernel: broadcastable arrays, one lane per operating point.  Both branches
# of ``np.where`` are evaluated, so the kernel guards its own domains.
# ---------------------------------------------------------------------------

def _entropy(x):
    """Binary entropy in bits, continued by 0 outside (0, 1)."""
    inner = (x > 0.0) & (x < 1.0)
    x = np.where(inner, x, 0.5)
    return np.where(inner, -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x), 0.0)


def _observables(wcp, eta, mu, p_dc, e_d):
    """(gain, qber) of the threshold-detector channel; qber = 1/2 at zero gain.

    The dark-count-only clicks, gain - p_signal, are written as the product
    (1 - p_signal) p_dc (2 - p_dc): the difference cancels, and without dark
    counts left a QBER of about +-1e-16 where it is 0.
    """
    p_signal = -np.expm1(-eta * mu) if wcp else eta
    gain = 1.0 - (1.0 - p_dc) ** 2 * (1.0 - p_signal)
    eq = e_d * p_signal + 0.5 * (1.0 - p_signal) * p_dc * (2.0 - p_dc)
    seen = gain > 0.0
    qber = np.where(seen, eq / np.where(seen, gain, 1.0), 0.5)
    return gain, np.minimum(qber, 0.5)


def _photon_terms(wcp, mu, eta_ae):
    """(p0_eve, p11) of the source model."""
    if wcp:
        return np.exp(-mu * eta_ae), mu * eta_ae * np.exp(-mu)
    return 1.0 - eta_ae, eta_ae


def _rate(wcp, gain, qber, p0_eve, p11, f, q):
    """The restricted bound; for the single-photon source the best of three."""
    s0 = np.maximum(gain - (1.0 - p0_eve), 0.0)
    s11 = np.maximum(gain - (1.0 - p11), 0.0)
    credited = s11 > 0.0
    e11 = np.where(credited,
                   np.minimum(qber * gain / np.where(credited, s11, 1.0), 0.5), 0.5)
    h_e, h_11 = _entropy(qber), _entropy(e11)
    rate = q * (-f * gain * h_e + s11 * (1.0 - h_11) + s0)
    if wcp:
        return rate
    no_s0 = q * gain * (-f * h_e + 1.0 - h_11)
    all_single = q * gain * (1.0 - (1.0 + f) * h_e)
    return np.maximum(np.maximum(rate, no_s0), all_single)


def _bb84_rate(wcp, eta, mu, p_dc, e_d, f, q, eta_ae):
    gain, qber = _observables(wcp, eta, mu, p_dc, e_d)
    p0_eve, p11 = _photon_terms(wcp, mu, eta_ae)
    return _rate(wcp, gain, qber, p0_eve, p11, f, q)


# ---------------------------------------------------------------------------
# One operating point: one-lane calls of the kernel, returning Python floats
# ---------------------------------------------------------------------------

def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit with bias ``x``, in bits; h(0) = h(1) = 0."""
    require("binary_entropy argument", x, "[0, 1]")
    return float(_entropy(x))


def channel_observables(p: DvParams) -> DvObservables:
    """Expected gain and QBER of the threshold-detector channel model.

    WCP: Q = 1 - (1 - p_dc)^2 exp(-eta mu); SPS: Q = 1 - (1 - p_dc)^2 (1 - eta).
    Errors: e_d on rounds with at least one signal photon detected, 1/2 on
    dark-count-only clicks.
    """
    gain, qber = _observables(p.source == "wcp", p.eta, p.mu, p.p_dc, p.e_d)
    return DvObservables(gain=float(gain), qber=float(qber))


def photon_number_bounds(p: DvParams) -> "tuple[float, float]":
    """(p0_eve, p11): Eve holds nothing / exactly the one photon that was sent."""
    p0_eve, p11 = _photon_terms(p.source == "wcp", p.mu, p.eta_ae)
    return float(p0_eve), float(p11)


def restricted_rate(p: DvParams, obs: DvObservables) -> float:
    """Lower bound on the key rate (bits/pulse); negative values are returned as-is.

    For the single-photon source the best of three bounds is returned: the
    restricted bound above, its variant without the S0 credit, and the
    eavesdropper-independent bound q Q [1 - (1 + f) h(E)] that treats every
    detection as a single-photon event.
    """
    p0_eve, p11 = photon_number_bounds(p)
    return float(_rate(p.source == "wcp", obs.gain, obs.qber, p0_eve, p11, p.f, p.q))


def rate_at(p: DvParams) -> float:
    """Convenience: model the channel, then bound the rate."""
    return restricted_rate(p, channel_observables(p))


@dataclass(frozen=True)
class MuOptimum:
    mu: float
    rate: float


def optimize_mu(p: DvParams) -> MuOptimum:
    """Maximise the WCP rate over the pulse intensity.

    A log-spaced coarse scan over ``MU_RANGE`` brackets the maximum, then
    golden-section search on log10(mu) polishes it to ``MU_TOL``.  If no
    intensity gives a positive rate the returned rate is 0.0 and mu is the
    coarse-scan argmax, which keeps sweeps well-defined in the no-key
    region.  One lane of :func:`optimize_mu_arrays`.
    """
    if p.source != "wcp":
        raise ValueError("mu optimisation only applies to the WCP source")
    mu, rate = optimize_mu_arrays(eta_ch=p.eta_ch, eta_d=p.eta_d, p_dc=p.p_dc,
                                  e_d=p.e_d, f=p.f, q=p.q, eta_ae=p.eta_ae)
    return MuOptimum(mu=float(mu), rate=float(rate))


# ---------------------------------------------------------------------------
# Many operating points: arrays of the DvParams fields, one lane per point.
# The caller validates them (the scenario runner probes both sweep ends).
# ---------------------------------------------------------------------------

def rate_arrays(source: str, *, eta_ch, eta_d, p_dc, e_d, f, q, eta_ae, mu=1.0):
    """:func:`rate_at` over broadcastable arrays of the :class:`DvParams` fields."""
    return _bb84_rate(source == "wcp", eta_ch * eta_d, mu, p_dc, e_d, f, q, eta_ae)


def optimize_mu_arrays(*, eta_ch, eta_d, p_dc, e_d, f, q, eta_ae):
    """:func:`optimize_mu` for every operating point of broadcastable arrays of
    the WCP fields; returns arrays (mu, rate) of their broadcast shape.

    Each operating point is a lane (a row): the coarse scan is one
    (lanes, MU_COARSE_POINTS) array, and each golden-section step moves the
    bracket of every lane still wider than ``MU_TOL``, so each lane takes
    exactly the steps it would take alone.
    """
    lo, hi = math.log10(MU_RANGE[0]), math.log10(MU_RANGE[1])
    fields = np.broadcast_arrays(eta_ch * eta_d, p_dc, e_d, f, q, eta_ae)
    shape = fields[0].shape
    eta, p_dc, e_d, f, q, eta_ae = (np.reshape(a, (-1, 1)) for a in fields)

    def rate_log(x):
        return _bb84_rate(True, eta, 10.0 ** x, p_dc, e_d, f, q, eta_ae)

    xs = lo + (hi - lo) * np.arange(MU_COARSE_POINTS) / (MU_COARSE_POINTS - 1)
    rates = rate_log(xs[None, :])
    k = np.argmax(rates, axis=1)[:, None]
    x_scan, r_scan = xs[k], np.take_along_axis(rates, k, axis=1)
    no_key = r_scan <= 0.0

    a = xs[np.maximum(k - 1, 0)]
    b = xs[np.minimum(k + 1, MU_COARSE_POINTS - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = rate_log(c), rate_log(d)
    active = (b - a > MU_TOL) & ~no_key
    while active.any():
        left = active & (fc >= fd)   # the maximum lies in [a, d]
        right = active & ~left       # ... in [c, b]
        b[left], d[left], fd[left] = d[left], c[left], fc[left]
        a[right], c[right], fc[right] = c[right], d[right], fd[right]
        c[left] = b[left] - _GOLDEN * (b[left] - a[left])
        d[right] = a[right] + _GOLDEN * (b[right] - a[right])
        f_new = rate_log(np.where(left, c, d))
        fc[left], fd[right] = f_new[left], f_new[right]
        active &= b - a > MU_TOL

    x_best = 0.5 * (a + b)
    r_best = rate_log(x_best)
    guard = r_scan > r_best  # a non-unimodal bracket
    x_best = np.where(guard | no_key, x_scan, x_best)
    r_best = np.where(no_key, 0.0, np.where(guard, r_scan, r_best))
    return (10.0 ** x_best).reshape(shape), r_best.reshape(shape)

"""Key-rate bounds for CV QKD against a restricted, observation-consistent attacker.

Physical picture
----------------
Alice holds one arm of a two-mode squeezed vacuum of variance ``v`` and sends
the other arm to Bob over a monitored free-space channel.  Monitoring limits
the eavesdropper to collecting a fraction ``eta_ae`` of the transmitted beam.
What she collects she passes through an entangling cloner: a beam splitter of
transmissivity ``eta_e`` fed with one arm of her own two-mode squeezed state
of variance ``v_e``.  The light she did *not* collect is not necessarily
lost: a fraction ``eta_s`` of it survives an uncharacterised bypass path
(aperture spill-over, scattering, ...) and reaches Bob's collector, where a
combiner of transmissivity ``eta_t`` merges the two paths; the combiner's
unused port admits an environment mode of variance ``v_s``.

Alice and Bob only see the equivalent one-way channel: transmissivity
``t_eq`` and excess noise ``xi`` (plus trusted detector parameters).  For a
hypothesised split (``eta_ae``, ``eta_s``, ``eta_t``), :func:`solve_attack`
finds the cloner (``eta_e``, ``v_e``) that reproduces those observations
exactly, or reports that none exists.  Key rates then follow from the joint
covariance matrix of Alice, Bob and the two cloner output modes:

* reverse reconciliation — Holevo bound on Eve about Bob's homodyne data;
* direct reconciliation, conditional-entropy bound ("method 1") — Holevo
  bound on Eve about Alice's heterodyne data;
* direct reconciliation, entropy-difference bound ("method 2") — a
  device-independent-flavoured bound that only uses ``eta_ae`` and ``v``.

Because the legitimate users cannot characterise the bypass, operational
security statements minimise the rate over (``eta_s``, ``eta_t``);
see :func:`worst_case_rate`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gaussian import (
    UnphysicalStateError,
    thermal_entropy,
    thermal_entropy_float,
    von_neumann_entropy,
)

# Feasibility comparisons tolerate this much floating-point slack.
_FEAS_TOL = 1e-12

# The dense bounds (holevo_rr, holevo_dr_m1) condition large covariance
# matrices, which cancels large like terms, so they accept symplectic
# eigenvalues down to 1 - 1e-6 as numerical noise (the gaussian-core default
# of 1e-9 is tuned for O(1) matrices).  The closed-form kernel behind the
# rates (_chi) does not cancel, and clamps its spectra at 1.
_ENGINE_FLOOR_TOL = 1e-6

_DEFAULT_V = {"rr": 300.0, "dr-m1": 1e7, "dr-m2": 1e7}


class CvMode(str, Enum):
    """Which reconciliation direction / bounding technique to use."""

    RR = "rr"
    DR_M1 = "dr-m1"
    DR_M2 = "dr-m2"


class InfeasibleAttackError(RuntimeError):
    """No attacker configuration reproduces the observed channel."""


@dataclass(frozen=True)
class CvScenario:
    """Restriction and bypass hypothesis, plus Alice's source and reconciliation.

    eta_ae : fraction of Alice's beam the eavesdropper collects, [0, 1]
    eta_s  : bypass-path transmissivity for the uncollected light, [0, 1]
    eta_t  : transmissivity of Bob's combiner toward the eavesdropper path, [0, 1]
    v      : variance of Alice's two-mode squeezed source, > 1 (shot-noise units)
    beta   : reconciliation efficiency, (0, 1]
    v_s    : variance of the environment mode entering the combiner, >= 1
    """

    eta_ae: float
    eta_s: float
    eta_t: float
    v: float
    beta: float = 1.0
    v_s: float = 1.0

    def __post_init__(self):
        for name in ("eta_ae", "eta_s", "eta_t"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        if not self.v > 1.0:
            raise ValueError(f"v must be > 1, got {self.v}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if self.v_s < 1.0:
            raise ValueError(f"v_s must be >= 1, got {self.v_s}")


@dataclass(frozen=True)
class ChannelObservation:
    """What Alice and Bob actually measure about their channel.

    t_eq  : end-to-end transmissivity, detector efficiency included, (0, 1]
    xi    : excess noise referred to the channel input, >= 0
    eta_d : homodyne detector efficiency, (0, 1]
    nu_el : electronic noise of the detector, >= 0 (shot-noise units)
    """

    t_eq: float
    xi: float
    eta_d: float = 1.0
    nu_el: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.t_eq <= 1.0:
            raise ValueError(f"t_eq must lie in (0, 1], got {self.t_eq}")
        if self.xi < 0.0:
            raise ValueError(f"xi must be >= 0, got {self.xi}")
        if not 0.0 < self.eta_d <= 1.0:
            raise ValueError(f"eta_d must lie in (0, 1], got {self.eta_d}")
        if self.nu_el < 0.0:
            raise ValueError(f"nu_el must be >= 0, got {self.nu_el}")
        if self.t_eq > self.eta_d + _FEAS_TOL:
            raise ValueError(
                f"t_eq={self.t_eq} exceeds detector efficiency eta_d={self.eta_d}"
            )

    @property
    def t_channel(self) -> float:
        """Transmissivity of the propagation channel alone (detector factored out)."""
        return min(self.t_eq / self.eta_d, 1.0)


@dataclass(frozen=True)
class AttackSolution:
    """Cloner settings reproducing an observation, or a reason they cannot."""

    eta_e: float
    v_e: float
    feasible: bool
    reason: str = ""


@dataclass(frozen=True)
class WorstCaseResult:
    rate: float
    eta_s: float
    eta_t: float
    rate_nobypass: "float | None"
    n_feasible: int


def max_bypass_transmissivity(eta_ae: float, eta_t: float, obs: ChannelObservation) -> float:
    """Largest eta_s consistent with the observed transmissivity.

    Beyond t_channel / ((1-eta_ae)(1-eta_t)) the bypass alone would deliver
    more light than Bob sees, so no attack exists.  May exceed 1, in which
    case the full [0, 1] range is available.
    """
    denom = (1.0 - eta_ae) * (1.0 - eta_t)
    if denom <= 0.0:
        return math.inf
    return obs.t_channel / denom


def solve_attack(scenario: CvScenario, obs: ChannelObservation) -> AttackSolution:
    """Find the entangling-cloner settings that reproduce the observation.

    The direct path contributes amplitude sqrt(eta_ae * eta_e * eta_t) and the
    bypass sqrt((1-eta_ae) * eta_s * (1-eta_t)); their squared sum must equal
    the channel transmissivity, and the cloner plus environment noise must
    add up to the observed excess noise.  Infeasibility is a returned value,
    never an exception.
    """
    t_ch = obs.t_channel
    return AttackSolution(*_attack(scenario.eta_ae, scenario.eta_s, scenario.eta_t,
                                   t_ch, t_ch * obs.xi, scenario.v_s))


def _attack(eta_ae: float, eta_s: float, eta_t: float, t_ch: float, xi_rx: float,
            v_s: float) -> "tuple[float, float, bool, str]":
    """:func:`solve_attack` on plain floats: (eta_e, v_e, feasible, reason)."""
    bypass_amp = math.sqrt((1.0 - eta_ae) * eta_s * (1.0 - eta_t))
    direct_amp = math.sqrt(t_ch) - bypass_amp
    if direct_amp < -_FEAS_TOL:
        return 0.0, 1.0, False, "bypass alone exceeds the observed transmissivity"
    direct_amp = max(direct_amp, 0.0)
    denom_e = eta_ae * eta_t
    if denom_e <= 0.0:
        if direct_amp <= _FEAS_TOL:
            # Degenerate: Eve's path carries nothing, so her settings are moot;
            # still need the noise budget to close below.
            eta_e = 1.0
        else:
            return 0.0, 1.0, False, "no eavesdropper path but a direct amplitude is required"
    else:
        eta_e = direct_amp * direct_amp / denom_e
        if eta_e > 1.0 + 1e-9:
            return (min(eta_e, 1.0), 1.0, False,
                    "required cloner transmissivity exceeds 1 (observed channel too good)")
        eta_e = min(eta_e, 1.0)
    thermal_extra = (1.0 - eta_s) * (1.0 - eta_t) * (v_s - 1.0)
    residual = xi_rx - thermal_extra
    denom_n = (1.0 - eta_e) * eta_t
    if denom_n <= _FEAS_TOL:
        if abs(residual) <= 1e-9:
            return eta_e, 1.0, True, ""
        return eta_e, 1.0, False, "transparent cloner cannot account for the excess-noise budget"
    v_e = 1.0 + residual / denom_n
    if v_e < 1.0 - 1e-9:
        return (eta_e, max(v_e, 0.0), False,
                "environment noise through the combiner already exceeds the observed excess noise")
    return eta_e, max(v_e, 1.0), True, ""


def _collected_variance(eta_ae, v):
    """Variance w = eta_ae (v - 1) + 1 of the beam the eavesdropper collects."""
    return eta_ae * (v - 1.0) + 1.0


def _eve_entries(eta_ae, eta_e, v_e, eta_s, eta_t, v, w):
    """(c_be, c_be', c_ee', v_e'): Bob's x covariances with Eve's kept mode E
    and her cloner output E', the E-E' covariance and the variance of E',
    given the collected variance ``w``.  Arithmetic and ``** 0.5`` only, so
    floats and arrays both work; :func:`build_cm` and :func:`_chi` share it.
    """
    refl = 1.0 - eta_e  # cloner reflectivity
    c_e = (v_e * v_e - 1.0) ** 0.5
    c_be = (refl * eta_t) ** 0.5 * c_e
    c_be_out = (eta_e * refl * eta_t) ** 0.5 * (v_e - w) \
        - (eta_ae * (1.0 - eta_ae) * refl * eta_s * (1.0 - eta_t)) ** 0.5 * (v - 1.0)
    c_ee_out = eta_e ** 0.5 * c_e
    v_e_out = refl * w + eta_e * v_e
    return c_be, c_be_out, c_ee_out, v_e_out


def build_cm(scenario: CvScenario, attack: AttackSolution) -> np.ndarray:
    """Joint covariance matrix of (Alice, Bob, Eve-kept, Eve-output), 8x8.

    Closed-form assembly of the state after the four beam splitters; cross-
    checkable against brute-force symplectic propagation of the six-mode
    system.  Raises :class:`InfeasibleAttackError` for an infeasible attack.
    """
    if not attack.feasible:
        raise InfeasibleAttackError(attack.reason or "attack marked infeasible")
    v, v_s = scenario.v, scenario.v_s
    a, s_, t = scenario.eta_ae, scenario.eta_s, scenario.eta_t
    e, v_e = attack.eta_e, attack.v_e
    c_be, c_be_out, c_ee_out, v_e_out = _eve_entries(
        a, e, v_e, s_, t, v, _collected_variance(a, v))
    c = math.sqrt(v * v - 1.0)
    t_amp = math.sqrt(a * e * t) + math.sqrt((1.0 - a) * s_ * (1.0 - t))
    v_b = t_amp * t_amp * (v - 1.0) + 1.0 \
        + (1.0 - e) * t * (v_e - 1.0) \
        + (1.0 - s_) * (1.0 - t) * (v_s - 1.0)
    c_ab = t_amp * c
    c_ae_out = -math.sqrt(a * (1.0 - e)) * c

    eye = np.eye(2)
    z = np.diag([1.0, -1.0])
    zero = np.zeros((2, 2))
    return np.block([
        [v * eye,        c_ab * z,        zero,           c_ae_out * z],
        [c_ab * z,       v_b * eye,       c_be * z,       c_be_out * eye],
        [zero,           c_be * z,        v_e * eye,      c_ee_out * z],
        [c_ae_out * z,   c_be_out * eye,  c_ee_out * z,   v_e_out * eye],
    ])


def mutual_info(obs: ChannelObservation, v: float) -> float:
    """Alice-Bob mutual information for homodyne detection, bits per use.

    Standard noisy-homodyne expression: the channel contributes
    (1 - t)/t + xi referred to its input and the trusted detector adds
    ((1 - eta_d) + nu_el)/eta_d, scaled back through the channel.
    """
    t_ch = obs.t_channel
    chi_line = (1.0 - t_ch) / t_ch + obs.xi
    chi_det = ((1.0 - obs.eta_d) + obs.nu_el) / obs.eta_d
    chi_tot = chi_line + chi_det / t_ch
    return 0.5 * math.log2((v + chi_tot) / (1.0 + chi_tot))


def holevo_rr(cm: np.ndarray, *, floor_tol: float = _ENGINE_FLOOR_TOL) -> float:
    """Holevo bound on Eve's information about Bob's x-homodyne outcome.

    ``cm`` is the 8x8 (A, B, E, E') matrix from :func:`build_cm`; Eve holds
    (E, E').  Conditioning on Bob's x quadrature is the rank-one update of
    the Eve block by Bob's cross-covariance column.
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
    variance prefer :func:`key_rate_point`, which evaluates the cancellation
    analytically.
    """
    eve = cm[4:8, 4:8]
    v_a = cm[0, 0]
    col = cm[4:8, 0]  # Eve's covariance with Alice's x, before the split
    cond = eve - np.outer(col, col) / (v_a + 1.0)
    return von_neumann_entropy(eve, floor_tol=floor_tol) \
        - von_neumann_entropy(cond, floor_tol=floor_tol)


def holevo_dr_m2_bound(eta_ae: float, v: float) -> float:
    """Direct-reconciliation bound that charges Eve only for what she collects.

    The collected beam has variance eta_ae*(v-1) + 1 =: w; the bound is
    g(w) - g(sqrt(w)), the entropy of the collected mode minus the minimum
    entropy of a state purifying it.  Independent of the bypass split.
    """
    if not 0.0 <= eta_ae <= 1.0:
        raise ValueError(f"eta_ae must lie in [0, 1], got {eta_ae}")
    if not v >= 1.0:
        raise UnphysicalStateError(f"source variance must be >= 1, got {v}")
    w = _collected_variance(eta_ae, v)
    return thermal_entropy_float(w) - thermal_entropy_float(math.sqrt(w))


# ---------------------------------------------------------------------------
# Closed-form Holevo kernel: arrays for the bypass grid, floats for the polish.
# ---------------------------------------------------------------------------


def _solve_attack_arrays(eta_ae, eta_s, eta_t, t_ch, xi_rx, v_s):
    """Vectorised :func:`solve_attack` over arrays of (eta_s, eta_t)."""
    bypass_amp = np.sqrt((1.0 - eta_ae) * eta_s * (1.0 - eta_t))
    direct_amp = math.sqrt(t_ch) - bypass_amp
    denom_e = eta_ae * eta_t
    with np.errstate(divide="ignore", invalid="ignore"):
        eta_e = np.where(denom_e > 0.0, direct_amp**2 / np.where(denom_e > 0, denom_e, 1.0), np.inf)
    feasible = (direct_amp >= -_FEAS_TOL) & (denom_e > 0.0) & (eta_e <= 1.0 + 1e-9)
    eta_e = np.clip(eta_e, 0.0, 1.0)
    thermal_extra = (1.0 - eta_s) * (1.0 - eta_t) * (v_s - 1.0)
    residual = xi_rx - thermal_extra
    denom_n = (1.0 - eta_e) * eta_t
    tight = denom_n <= _FEAS_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        v_e = np.where(tight, 1.0, 1.0 + residual / np.where(tight, 1.0, denom_n))
    feasible &= np.where(tight, np.abs(residual) <= 1e-9, v_e >= 1.0 - 1e-9)
    v_e = np.maximum(v_e, 1.0)
    return eta_e, v_e, feasible


def _nu_pair(tr, root_det):
    """Symplectic eigenvalues (nu+, nu-) of a two-mode state with V = X (+) P.

    nu+^2 and nu-^2 are the eigenvalues of the 2x2 product XP: with
    tr = tr(XP) and root_det = sqrt(det X det P), nu+^2 is
    (tr + sqrt(tr^2 - 4 root_det^2)) / 2 and nu- = root_det / nu+, which
    keeps full relative precision however close nu- is to 1.  ``abs`` takes
    care of a discriminant rounded below 0 at degeneracy, where the entropy
    sum is stationary in the split between nu+ and nu-.  ``root_det`` must
    be >= 0.
    """
    nu_p = (0.5 * (tr + abs(tr * tr - 4.0 * root_det * root_det) ** 0.5)) ** 0.5
    return nu_p, root_det / nu_p


def _chi(mode: CvMode, entropy, eta_ae, eta_e, v_e, eta_s, eta_t, v, t_ch, xi_rx):
    """Holevo bound from closed-form covariance entries and symplectic spectra.

    Works on floats and on broadcastable arrays alike: only arithmetic,
    ``abs`` and ``** 0.5`` touch the inputs, and ``entropy`` is the g(nu) of
    the matching type, clamped at nu = 1.

    Every state here keeps x and p apart (the cross blocks are multiples of
    I and Z), so V = X (+) P, and the two symplectic eigenvalues follow from
    tr(XP) and det X det P [Serafini, Illuminati, De Siena, J. Phys. B 37,
    L21 (2004); Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)].  Eve's
    modes (E, E') have X = [[v_e, c], [c, v_e']] and P = Z X Z, where
    c^2 = eta_e (v_e^2 - 1), v_e' = (1-eta_e) w + eta_e v_e and
    w = eta_ae (v-1) + 1 is the variance of the collected beam.  Written
    out, the invariants carry no cancellation:

        det X  = (1-eta_e) v_e w + eta_e,
        tr(XP) = (1-eta_e)^2 (v_e - w)^2 + 2 det X.

    Reverse reconciliation: Bob's x homodyne (variance v_b) updates X by
    -u u^T / v_b, with u = (c_be, c_be') his x covariances with (E, E'), so
    tr(X'P) = tr(XP) - u^T P u / v_b and det X' = det X - u^T adj(X) u / v_b.

    Direct reconciliation, method 1: Alice's heterodyne maps v_e' in X to
    v_e' - eta_ae (1-eta_e)(v-1) = (1-eta_e) + eta_e v_e, so

        det X'  = (1-eta_e) v_e + eta_e,
        tr(X'P) = (1-eta_e)^2 (v_e^2 + w) + eta_e (1-eta_e) v_e (w+1) + 2 eta_e.

    Near the cloner limit eta_e -> 1, v_e grows as 1 / (1-eta_e); with
    v ~ 1e7 the dense matrix entries then cancel by eight digits or more,
    while these forms do not.
    """
    refl = 1.0 - eta_e  # cloner reflectivity
    w = _collected_variance(eta_ae, v)
    det_e = refl * v_e * w + eta_e
    gap = refl * (v_e - w)
    tr_e = gap * gap + 2.0 * det_e
    if mode is CvMode.RR:
        v_b = t_ch * (v - 1.0) + 1.0 + xi_rx
        p, q, c, v_e_out = _eve_entries(eta_ae, eta_e, v_e, eta_s, eta_t, v, w)
        pp, pq, qq = p * p, p * q, q * q
        tr_c = tr_e - (v_e * pp - 2.0 * c * pq + v_e_out * qq) / v_b
        det_c = det_e - (v_e_out * pp - 2.0 * c * pq + v_e * qq) / v_b
    elif mode is CvMode.DR_M1:
        det_c = refl * v_e + eta_e
        tr_c = refl * refl * (v_e * v_e + w) + eta_e * refl * v_e * (w + 1.0) + 2.0 * eta_e
    else:
        raise ValueError(f"no covariance-based bound for mode {mode}")
    e_p, e_m = _nu_pair(tr_e, det_e)
    c_p, c_m = _nu_pair(tr_c, abs(det_c * det_e) ** 0.5)
    return entropy(e_p) + entropy(e_m) - entropy(c_p) - entropy(c_m)


def _entropy_arrays(nu):
    return thermal_entropy(np.maximum(nu, 1.0))


def _rates_on_arrays(mode, scenario_like, obs, eta_s, eta_t):
    """Signed key rate per (eta_s, eta_t) hypothesis; +inf where infeasible."""
    eta_ae, v, beta, v_s = scenario_like
    t_ch = obs.t_channel
    xi_rx = t_ch * obs.xi
    eta_e, v_e, feasible = _solve_attack_arrays(eta_ae, eta_s, eta_t, t_ch, xi_rx, v_s)
    i_ab = mutual_info(obs, v)
    with np.errstate(invalid="ignore", divide="ignore"):  # infeasible lanes may be unphysical
        chi = _chi(mode, _entropy_arrays, eta_ae, eta_e, v_e, eta_s, eta_t, v, t_ch, xi_rx)
    rate = beta * i_ab - chi
    return np.where(feasible, rate, np.inf), feasible


def _polish_objective(mode, scenario_like, obs):
    """Float twin of :func:`_rates_on_arrays` for one hypothesis x = (eta_s, eta_t).

    Feasibility follows :func:`solve_attack` (which, unlike the grid, also
    admits eta_t = 0 when the bypass alone delivers the light) and the rate
    the same kernel :func:`_chi`, on Python floats; +inf outside the unit
    square and where no attack reproduces the observation.
    """
    eta_ae, v, beta, v_s = scenario_like
    t_ch = obs.t_channel
    xi_rx = t_ch * obs.xi
    key = beta * mutual_info(obs, v)

    def objective(x):
        eta_s, eta_t = x.tolist()
        if not (0.0 <= eta_s <= 1.0 and 0.0 <= eta_t <= 1.0):
            return math.inf
        eta_e, v_e, feasible, _ = _attack(eta_ae, eta_s, eta_t, t_ch, xi_rx, v_s)
        if not feasible:
            return math.inf
        return key - _chi(mode, thermal_entropy_float, eta_ae, eta_e, v_e,
                          eta_s, eta_t, v, t_ch, xi_rx)

    return objective


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported on the first polish: the polish
    is the package's only SciPy user, so ``import satqkd`` loads no SciPy."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(fun, x0, **kwargs)


def _ceiling_minimum(objective, eta_ae: float, obs: ChannelObservation):
    """Lowest ``objective`` along the bypass ceiling: (rate, eta_s, eta_t).

    The ceiling eta_s = min(1, t_channel / ((1-eta_ae)(1-eta_t))) is where
    the bypass carries all the light it may; the reverse-reconciliation
    minimiser lies on it, near 1 - eta_t ~ t_channel.  It is curved in
    (eta_s, eta_t), and a Nelder-Mead simplex started at a grid node beside
    it can stall against its infeasible side.  Scan log10(1 - eta_t) over
    [-8, 0], then narrow the best bracket by golden section.
    """
    def on_ceiling(log_u):
        eta_t = 1.0 - 10.0 ** log_u
        eta_s = min(1.0, max_bypass_transmissivity(eta_ae, eta_t, obs))
        return objective(np.array([eta_s, eta_t])), log_u, eta_s, eta_t

    scan = [on_ceiling(x) for x in np.linspace(-8.0, 0.0, 33).tolist()]
    i = min(range(len(scan)), key=lambda k: scan[k][0])
    lo, hi = scan[max(i - 1, 0)][1], scan[min(i + 1, len(scan) - 1)][1]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a = on_ceiling(hi - inv_phi * (hi - lo))
    b = on_ceiling(lo + inv_phi * (hi - lo))
    for _ in range(40):
        if a[0] <= b[0]:
            hi, b = b[1], a
            a = on_ceiling(hi - inv_phi * (hi - lo))
        else:
            lo, a = a[1], b
            b = on_ceiling(lo + inv_phi * (hi - lo))
    rate, _, eta_s, eta_t = min(scan[i], a, b, key=lambda r: r[0])
    return rate, eta_s, eta_t


def key_rate_point(scenario: CvScenario, obs: ChannelObservation, mode) -> float:
    """Asymptotic secret-key rate (bits/use) at a fixed bypass hypothesis.

    Raises :class:`InfeasibleAttackError` when no attack reproduces the
    observation at this scenario's (eta_s, eta_t).
    """
    mode = CvMode(mode)
    i_ab = mutual_info(obs, scenario.v)
    return scenario.beta * i_ab - holevo_bound(scenario, obs, mode)


def holevo_bound(scenario: CvScenario, obs: ChannelObservation, mode) -> float:
    """Eve's Holevo information at a fixed bypass hypothesis (diagnostic)."""
    mode = CvMode(mode)
    if mode is CvMode.DR_M2:
        return holevo_dr_m2_bound(scenario.eta_ae, scenario.v)
    attack = solve_attack(scenario, obs)
    if not attack.feasible:
        raise InfeasibleAttackError(attack.reason)
    t_ch = obs.t_channel
    return float(_chi(mode, thermal_entropy_float, scenario.eta_ae, attack.eta_e, attack.v_e,
                      scenario.eta_s, scenario.eta_t, scenario.v, t_ch, t_ch * obs.xi))


def worst_case_rate(eta_ae: float, obs: ChannelObservation, mode, *,
                    grid_points: int = 101, v: "float | None" = None,
                    beta: float = 1.0, v_s: float = 1.0,
                    refine: bool = True) -> WorstCaseResult:
    """Minimise the key rate over all bypass hypotheses (eta_s, eta_t).

    A ``grid_points`` x ``grid_points`` scan of the unit square is optionally
    polished by deterministic Nelder-Mead descents from the five best grid
    points and a 1-D search along the bypass ceiling
    (:func:`_ceiling_minimum`).  Also reports the no-bypass rate (eta_s=0, eta_t=1) when that
    attack is feasible; below eta_ae < t_channel it is not, and ``None`` is
    returned for it.

    Raises :class:`InfeasibleAttackError` if no grid point admits an attack.
    """
    mode = CvMode(mode)
    if v is None:
        v = _DEFAULT_V[mode.value]
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    params = (eta_ae, v, beta, v_s)

    def rate_nobypass():
        try:
            return key_rate_point(CvScenario(eta_ae, 0.0, 1.0, v, beta, v_s), obs, mode)
        except InfeasibleAttackError:
            return None

    if mode is CvMode.DR_M2:
        rate = key_rate_point(CvScenario(eta_ae, 0.0, 1.0, v, beta, v_s), obs, mode)
        return WorstCaseResult(rate, 0.0, 1.0, rate, grid_points * grid_points)

    axis = np.linspace(0.0, 1.0, grid_points)
    ss, tt = np.meshgrid(axis, axis, indexing="ij")
    rates, feasible = _rates_on_arrays(mode, params, obs, ss, tt)
    n_feasible = int(np.count_nonzero(feasible))
    if n_feasible == 0:
        raise InfeasibleAttackError(
            f"no feasible attack on the {grid_points}x{grid_points} bypass grid for "
            f"eta_ae={eta_ae}, t_eq={obs.t_eq}, xi={obs.xi}; the eavesdropper path "
            "cannot reproduce these observations"
        )

    flat = rates.ravel()
    order = np.argsort(flat, kind="stable")
    best_idx = int(order[0])
    best_rate = float(flat[best_idx])
    best_s = float(ss.ravel()[best_idx])
    best_t = float(tt.ravel()[best_idx])

    if refine:
        objective = _polish_objective(mode, params, obs)
        n_seeds = min(5, n_feasible)
        for k in range(n_seeds):
            idx = int(order[k])
            x0 = np.array([ss.ravel()[idx], tt.ravel()[idx]])
            res = minimize(objective, x0, method="Nelder-Mead",
                           options={"xatol": 1e-6, "fatol": 1e-12, "maxiter": 400})
            if np.isfinite(res.fun) and res.fun < best_rate:
                best_rate = float(res.fun)
                best_s, best_t = float(res.x[0]), float(res.x[1])
        rate, eta_s, eta_t = _ceiling_minimum(objective, eta_ae, obs)
        if rate < best_rate:
            best_rate, best_s, best_t = rate, eta_s, eta_t

    nb = rate_nobypass()

    if mode is CvMode.RR and nb is not None and best_rate < nb - 1e-9:
        # Only meaningful when the bypass actually hurts: on the flat part of
        # the landscape (rate == no-bypass rate) the argmin location is noise.
        ceiling = min(1.0, max_bypass_transmissivity(eta_ae, best_t, obs))
        step = 1.0 / (grid_points - 1)
        if best_s < ceiling - 2.0 * step:
            warnings.warn(
                "reverse-reconciliation worst case found away from the bypass "
                f"ceiling (eta_s={best_s:.4f} < {ceiling:.4f}); check the landscape",
                RuntimeWarning,
                stacklevel=2,
            )

    return WorstCaseResult(best_rate, best_s, best_t, nb, n_feasible)

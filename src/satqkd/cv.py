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

One attack solver (``_attack``), one closed-form Holevo kernel (``_chi``)
and one mutual information run on Python floats and on NumPy arrays alike.
The kernel sums g(nu), the entropy of a thermal mode, over the symplectic
spectra of ``_nu_pair``: :func:`thermal_entropy` on arrays and
:func:`thermal_entropy_float` on floats, both 0 for any nu below 1.
:func:`solve_attack`, :func:`key_rate_point`, :func:`holevo_bound` and the
worst-case polish evaluate one hypothesis on floats (``_FLOAT_OPS``);
:func:`rate_arrays` is the one array entry point, behind the worst-case
bypass grid and the scenario runner's fixed-hypothesis and DR-M2 sweeps.
A mode is one of the strings ``"rr"``, ``"dr-m1"``, ``"dr-m2"``: the keys of
``MAX_V`` and ``MAX_XI``, which every entry point checks (:func:`checked_v`).
Every other range, of a field or of an argument, is checked through
:mod:`satqkd.checks`, in which NaN lies in no range.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .checks import require, require_fields

# The NumPy functions the kernels call, for Python floats: the polish makes
# ~1e5 calls per file.  Both branches of ``where`` are evaluated, as in NumPy.
# maximum and minimum return what max and min do, at a third of their cost.
_FLOAT_OPS = SimpleNamespace(log2=math.log2, sqrt=math.sqrt,
                             maximum=lambda a, b: b if b > a else a,
                             minimum=lambda a, b: b if b < a else a,
                             where=lambda cond, a, b: a if cond else b)

_LN2 = math.log(2.0)

# Feasibility comparisons tolerate this much floating-point slack.
_FEAS_TOL = 1e-12

# A feasible attack reproduces the observed excess noise to within this much,
# in the units of xi (referred to the channel input).
_XI_SLACK = 1e-12

# solve_attack's reasons, indexed by the code _attack returns; 0 is feasible.
_ATTACK_REASONS = (
    "",
    "bypass alone exceeds the observed transmissivity",
    "no eavesdropper path but a direct amplitude is required",
    "required cloner transmissivity exceeds 1 (observed channel too good)",
    "transparent cloner cannot account for the excess-noise budget",
    "environment noise through the combiner already exceeds the observed excess noise",
)

_DEFAULT_V = {"rr": 300.0, "dr-m1": 1e7, "dr-m2": 1e7}

#: The largest source variance per mode: the last decade at which 200 seeded
#: feasible hypotheses stay within 1e-8 bits of a 60-digit evaluation.  RR
#: cancels (1.4e-8 bits at 1e8), DR-M1 overflows from 1e78.
MAX_V = {"rr": 1e7, "dr-m1": 1e77, "dr-m2": 1e308}

#: The largest excess noise per mode, found the same way with v up to MAX_V,
#: and where hypotheses whose bypass carries the light (eta_t down to 1e-12)
#: stay finite: RR drifts (1.3e-7 bits at xi = 100 and v = 1e7), DR-M1
#: overflows from 1e66, DR-M2 at 1e308.
MAX_XI = {"rr": 10.0, "dr-m1": 1e65, "dr-m2": 1e307}


def checked_v(mode: str, v, xi):
    """``v``, or ``mode``'s default source variance if None.  Raises
    ValueError for an unknown mode, and for a v or an xi (in any lane of an
    array) above ``MAX_V[mode]`` or ``MAX_XI[mode]``."""
    if mode not in MAX_V:
        raise ValueError(f"mode must be one of {', '.join(MAX_V)}, got {mode!r}")
    if v is None:
        v = _DEFAULT_V[mode]
    if not np.all(v <= MAX_V[mode]):
        raise ValueError(f"v must be <= {MAX_V[mode]:g} in mode {mode}, got {v}")
    if not np.all(xi <= MAX_XI[mode]):
        raise ValueError(f"xi must be <= {MAX_XI[mode]:g} in mode {mode}, got {xi}")
    return v


class InfeasibleAttackError(RuntimeError):
    """No attacker configuration reproduces the observed channel."""


class UnphysicalStateError(ValueError):
    """A covariance matrix (or derived quantity) violates the uncertainty bound."""


@dataclass(frozen=True)
class CvScenario:
    """Restriction and bypass hypothesis, plus Alice's source and reconciliation.

    eta_ae : fraction of Alice's beam the eavesdropper collects, [0, 1]
    eta_s  : bypass-path transmissivity for the uncollected light, [0, 1]
    eta_t  : transmissivity of Bob's combiner toward the eavesdropper path, [0, 1]
    v      : variance of Alice's two-mode squeezed source, (1, inf) (shot-noise units)
    beta   : reconciliation efficiency, (0, 1]
    v_s    : variance of the environment mode entering the combiner, [1, inf)
    """

    eta_ae: float
    eta_s: float
    eta_t: float
    v: float
    beta: float = 1.0
    v_s: float = 1.0

    def __post_init__(self):
        require_fields(self, eta_ae="[0, 1]", eta_s="[0, 1]", eta_t="[0, 1]",
                       v="(1, inf)", beta="(0, 1]", v_s="[1, inf)")


@dataclass(frozen=True)
class ChannelObservation:
    """What Alice and Bob actually measure about their channel.

    t_eq  : end-to-end transmissivity, detector efficiency included, (0, 1]
    xi    : excess noise referred to the channel input, [0, inf)
    eta_d : homodyne detector efficiency, (0, 1]
    nu_el : electronic noise of the detector, [0, inf) (shot-noise units)
    """

    t_eq: float
    xi: float
    eta_d: float = 1.0
    nu_el: float = 0.0

    def __post_init__(self):
        require_fields(self, t_eq="(0, 1]", xi="[0, inf)", eta_d="(0, 1]", nu_el="[0, inf)")
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
    eta_e, v_e, code = _attack(_FLOAT_OPS, scenario.eta_ae, scenario.eta_s, scenario.eta_t,
                               t_ch, t_ch * obs.xi, scenario.v_s)
    return AttackSolution(eta_e, v_e, code == 0, _ATTACK_REASONS[code])


def _attack(xp, eta_ae, eta_s, eta_t, t_ch, xi_rx, v_s):
    """:func:`solve_attack` on Python floats (``xp`` is ``_FLOAT_OPS``) or on
    broadcastable arrays (``xp`` is ``np``): (eta_e, v_e, code).

    ``code`` indexes ``_ATTACK_REASONS``, 0 meaning feasible; the first check
    that fails names the reason.  ``xi_rx = t_ch * xi`` is the excess noise at
    the receiver.  A returned attack reproduces xi to within ``_XI_SLACK``.
    Where infeasible, eta_e and v_e are only clamped into [0, 1] and [1, inf).
    """
    bypass_amp = xp.sqrt((1.0 - eta_ae) * eta_s * (1.0 - eta_t))
    direct_amp = xp.sqrt(t_ch) - bypass_amp
    amp = xp.maximum(direct_amp, 0.0)
    denom_e = eta_ae * eta_t
    # With no path to Eve (denom_e = 0) her settings are moot, eta_e = 1, as
    # long as the bypass alone carries the light: adding 1 above and below
    # gives 1 + amp^2, which is 1 there.  The noise budget must still close.
    no_path = denom_e <= 0.0
    eta_e = (amp * amp + no_path) / (denom_e + no_path)
    too_good = eta_e > 1.0 + 1e-9
    eta_e = xp.minimum(eta_e, 1.0)
    residual = xi_rx - (1.0 - eta_s) * (1.0 - eta_t) * (v_s - 1.0)
    denom_n = (1.0 - eta_e) * eta_t
    tight = denom_n <= _FEAS_TOL  # a transparent cloner: v_e = 1
    v_e = xp.maximum(1.0 + residual / xp.where(tight, math.inf, denom_n), 1.0)
    # The noise budget misses xi by more than the slack: either way for a
    # transparent cloner (reason 4), by too much environment noise otherwise (5).
    slack = _XI_SLACK * t_ch
    noisy = (residual < -slack) | (tight & (residual > slack))
    code = xp.where(direct_amp < -_FEAS_TOL, 1,
                    xp.where(no_path & (amp > _FEAS_TOL), 2,
                             xp.where(too_good, 3, noisy * (5 - tight))))
    return eta_e, v_e, code


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
    ((1 - eta_d) + nu_el)/eta_d, scaled back through the channel; the
    source variance ``v`` must lie in [1, inf).
    """
    require("v", v, "[1, inf)")
    return _mutual_info(_FLOAT_OPS, obs.t_channel, obs.xi, obs.eta_d, obs.nu_el, v)


def _mutual_info(xp, t_ch, xi, eta_d, nu_el, v):
    """:func:`mutual_info` on floats or arrays, given the channel's t_ch."""
    chi_line = (1.0 - t_ch) / t_ch + xi
    chi_det = ((1.0 - eta_d) + nu_el) / eta_d
    chi_tot = chi_line + chi_det / t_ch
    return 0.5 * xp.log2((v + chi_tot) / (1.0 + chi_tot))


def holevo_dr_m2_bound(eta_ae: float, v: float) -> float:
    """Direct-reconciliation bound that charges Eve only for what she collects.

    The collected beam has variance eta_ae*(v-1) + 1 =: w; the bound is
    g(w) - g(sqrt(w)), the entropy of the collected mode minus the minimum
    entropy of a state purifying it.  Independent of the bypass split;
    ``v`` must lie in [1, ``MAX_V["dr-m2"]``].
    """
    require("eta_ae", eta_ae, "[0, 1]")
    require("v", v, f"[1, {MAX_V['dr-m2']:g}]")
    return _dr_m2_chi(_FLOAT_OPS, thermal_entropy_float, eta_ae, v)


def _dr_m2_chi(xp, entropy, eta_ae, v):
    """:func:`holevo_dr_m2_bound` on floats or arrays, unvalidated."""
    w = _collected_variance(eta_ae, v)
    return entropy(w) - entropy(xp.sqrt(w))


# ---------------------------------------------------------------------------
# Closed-form Holevo kernel: arrays for the bypass grid and scenario slices,
# floats for single hypotheses and the polish.
# ---------------------------------------------------------------------------


# Below this distance from 1 the thermal entropy is indistinguishable from 0
# at double precision, and the exact expression degenerates to 0 * inf.
_ENTROPY_CUTOFF = 1e-12


def thermal_entropy(nu):
    """g(nu), the entropy in bits of a thermal mode of symplectic eigenvalue
    ``nu``, on NumPy arrays (:func:`thermal_entropy_float` on floats); 0 for
    any nu below ``1 + 1e-12``, so spectra that round below 1 need no clamp.

    Evaluated as ``log2((nu+1)/2) + ((nu-1)/2) log1p(2/(nu-1)) / ln 2``,
    which keeps full relative precision up to nu ~ 1e20, where the textbook
    ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2) cancels.
    """
    x = nu - 1.0
    vacuum = x < _ENTROPY_CUTOFF
    # Guard the log1p argument; masked-out lanes still get evaluated by where().
    safe_x = np.where(vacuum, 1.0, x)
    value = np.log2(0.5 * (nu + 1.0)) + 0.5 * safe_x * np.log1p(2.0 / safe_x) / _LN2
    return np.where(vacuum, 0.0, value)


def thermal_entropy_float(nu: float) -> float:
    """:func:`thermal_entropy` for one Python float, in plain ``math``: the
    polish makes a few calls per evaluation."""
    x = nu - 1.0
    if x < _ENTROPY_CUTOFF:
        return 0.0
    return math.log2(0.5 * (nu + 1.0)) + 0.5 * x * math.log1p(2.0 / x) / _LN2


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


def _chi(mode: str, entropy, eta_ae, eta_e, v_e, eta_s, eta_t, v, t_ch, xi_rx):
    """Holevo bound from closed-form covariance entries and symplectic spectra.

    Works on floats and on broadcastable arrays alike: only arithmetic,
    ``abs`` and ``** 0.5`` touch the inputs, and ``entropy`` is the g(nu) of
    the matching type, 0 for any nu below 1.

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
    if mode == "rr":
        v_b = t_ch * (v - 1.0) + 1.0 + xi_rx
        p, q, c, v_e_out = _eve_entries(eta_ae, eta_e, v_e, eta_s, eta_t, v, w)
        pp, pq, qq = p * p, p * q, q * q
        tr_c = tr_e - (v_e * pp - 2.0 * c * pq + v_e_out * qq) / v_b
        det_c = det_e - (v_e_out * pp - 2.0 * c * pq + v_e * qq) / v_b
    elif mode == "dr-m1":
        det_c = refl * v_e + eta_e
        tr_c = refl * refl * (v_e * v_e + w) + eta_e * refl * v_e * (w + 1.0) + 2.0 * eta_e
    else:
        raise ValueError(f"no covariance-based bound for mode {mode}")
    e_p, e_m = _nu_pair(tr_e, det_e)
    c_p, c_m = _nu_pair(tr_c, abs(det_c * det_e) ** 0.5)
    return entropy(e_p) + entropy(e_m) - entropy(c_p) - entropy(c_m)


def rate_arrays(mode: str, *, eta_ae, t_eq, xi, eta_d=1.0, nu_el=0.0, v=None, beta=1.0,
                v_s=1.0, eta_s=0.0, eta_t=1.0):
    """(rate, chi, feasible) over broadcastable arrays of the :class:`CvScenario`
    and :class:`ChannelObservation` fields, one lane per hypothesis.

    Each lane is :func:`key_rate_point`, :func:`holevo_bound` and
    ``solve_attack(...).feasible`` at its fields; rate and chi of an
    infeasible lane mean nothing.  DR-M2 ignores the bypass split and ``v_s``
    and is feasible everywhere.  :func:`checked_v` checks the mode and every
    lane's v and xi; the caller validates the other fields (the scenario
    runner probes both sweep ends).
    """
    v = checked_v(mode, v, xi)
    t_ch = np.minimum(t_eq / eta_d, 1.0)
    # Infeasible lanes may be unphysical, or overflow on subnormal inputs.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if mode == "dr-m2":
            chi = _dr_m2_chi(np, thermal_entropy, eta_ae, v)
            feasible = True
        else:
            xi_rx = t_ch * xi
            eta_e, v_e, code = _attack(np, eta_ae, eta_s, eta_t, t_ch, xi_rx, v_s)
            chi = _chi(mode, thermal_entropy, eta_ae, eta_e, v_e, eta_s, eta_t, v, t_ch, xi_rx)
            feasible = code == 0
        rate = beta * _mutual_info(np, t_ch, xi, eta_d, nu_el, v) - chi
    return tuple(np.broadcast_arrays(rate, chi, feasible))


def _polish_objective(mode, scenario_like, obs):
    """The key rate at one hypothesis x = (eta_s, eta_t), on Python floats:
    the float lane of :func:`rate_arrays`; +inf outside the unit square and
    where no attack reproduces the observation.
    """
    eta_ae, v, beta, v_s = scenario_like
    t_ch = obs.t_channel
    xi_rx = t_ch * obs.xi
    key = beta * mutual_info(obs, v)

    def objective(x):
        eta_s, eta_t = x.tolist()
        if not (0.0 <= eta_s <= 1.0 and 0.0 <= eta_t <= 1.0):
            return math.inf
        eta_e, v_e, code = _attack(_FLOAT_OPS, eta_ae, eta_s, eta_t, t_ch, xi_rx, v_s)
        if code:
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


def key_rate_point(scenario: CvScenario, obs: ChannelObservation, mode: str) -> float:
    """Asymptotic secret-key rate (bits/use) at a fixed bypass hypothesis.

    Raises :class:`InfeasibleAttackError` when no attack reproduces the
    observation at this scenario's (eta_s, eta_t); :func:`holevo_bound`
    checks the mode, v and xi.
    """
    i_ab = mutual_info(obs, scenario.v)
    return scenario.beta * i_ab - holevo_bound(scenario, obs, mode)


def holevo_bound(scenario: CvScenario, obs: ChannelObservation, mode: str) -> float:
    """Eve's Holevo information at a fixed bypass hypothesis (diagnostic)."""
    checked_v(mode, scenario.v, obs.xi)
    if mode == "dr-m2":
        return holevo_dr_m2_bound(scenario.eta_ae, scenario.v)
    attack = solve_attack(scenario, obs)
    if not attack.feasible:
        raise InfeasibleAttackError(attack.reason)
    t_ch = obs.t_channel
    return float(_chi(mode, thermal_entropy_float, scenario.eta_ae, attack.eta_e, attack.v_e,
                      scenario.eta_s, scenario.eta_t, scenario.v, t_ch, t_ch * obs.xi))


def worst_case_rate(eta_ae: float, obs: ChannelObservation, mode: str, *,
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
    v = checked_v(mode, v, obs.xi)
    require("grid_points", grid_points, "[2, inf)")
    nobypass = CvScenario(eta_ae, 0.0, 1.0, v, beta, v_s)
    params = (eta_ae, v, beta, v_s)

    def rate_nobypass():
        try:
            return key_rate_point(nobypass, obs, mode)
        except InfeasibleAttackError:
            return None

    if mode == "dr-m2":
        rate = key_rate_point(nobypass, obs, mode)
        return WorstCaseResult(rate, 0.0, 1.0, rate, grid_points * grid_points)

    axis = np.linspace(0.0, 1.0, grid_points)
    ss, tt = np.meshgrid(axis, axis, indexing="ij")
    rates, _, feasible = rate_arrays(mode, eta_ae=eta_ae, t_eq=obs.t_eq, xi=obs.xi,
                                     eta_d=obs.eta_d, nu_el=obs.nu_el, v=v, beta=beta,
                                     v_s=v_s, eta_s=ss, eta_t=tt)
    rates = np.where(feasible, rates, np.inf)
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

    if mode == "rr" and nb is not None and best_rate < nb - 1e-9:
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

"""Independent reference implementations the test suite checks the package
against.

Everything here is written from scratch on purpose — different formulas,
different propagation style, different precision — so agreement with the
package is evidence rather than tautology:

* entropy by explicit photon-number summation instead of the closed form;
* two-mode entropies through the determinant (Delta) invariants instead of
  a symplectic eigendecomposition;
* measurement conditioning through the projector/pseudo-inverse Schur
  complement instead of the rank-one update;
* the four-mode conditional state assembled by brute-force six-mode
  symplectic propagation instead of closed-form matrix entries;
* reverse-reconciliation and direct-reconciliation (method 1) rates
  re-evaluated in 50- to 60-digit arithmetic;
* photon-count statistics by per-term series and by Monte Carlo instead of
  the aggregated expressions.

Only numpy/mpmath are used; nothing is imported from the package itself.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

# ---------------------------------------------------------------------------
# Entropy
# ---------------------------------------------------------------------------


def fock_entropy(nu: float, terms: int = 400_000) -> float:
    """Thermal-mode entropy in bits by summing -p_k log2 p_k over photon number.

    The occupation is geometric with mean (nu - 1)/2.  Suitable for moderate
    nu (the series needs O(nu) terms); tests use it up to nu ~ 1e3.
    """
    nbar = 0.5 * (nu - 1.0)
    if nbar <= 0.0:
        return 0.0
    ratio = nbar / (1.0 + nbar)
    k = np.arange(terms, dtype=float)
    log_p = math.log(1.0 - ratio) + k * math.log(ratio)
    p = np.exp(log_p)
    if p[-1] > 1e-18:
        raise ValueError(f"series truncated too early for nu={nu}; raise terms")
    return float(-np.sum(p * log_p) / math.log(2.0))


def closed_g(nu: float) -> float:
    """Textbook two-term thermal entropy, adequate away from huge nu."""
    if nu <= 1.0:
        return 0.0
    a = 0.5 * (nu + 1.0)
    b = 0.5 * (nu - 1.0)
    return a * math.log2(a) - b * math.log2(b)


def delta_entropy_two_mode(cm: np.ndarray) -> float:
    """Entropy of a two-mode Gaussian state from its determinant invariants.

    Delta = det A + det B + 2 det C; the symplectic eigenvalues are
    sqrt((Delta +/- sqrt(Delta^2 - 4 det V)) / 2).
    """
    cm = np.asarray(cm, dtype=float)
    if cm.shape != (4, 4):
        raise ValueError(f"need a 4x4 covariance matrix, got {cm.shape}")
    det_a = np.linalg.det(cm[:2, :2])
    det_b = np.linalg.det(cm[2:, 2:])
    det_c = np.linalg.det(cm[:2, 2:])
    det_v = np.linalg.det(cm)
    delta = det_a + det_b + 2.0 * det_c
    disc = math.sqrt(max(delta * delta - 4.0 * det_v, 0.0))
    nu_plus = math.sqrt(max(0.5 * (delta + disc), 1.0))
    nu_minus = math.sqrt(max(0.5 * (delta - disc), 0.0))
    return closed_g(nu_plus) + closed_g(max(nu_minus, 1.0))


def single_mode_entropy(cm: np.ndarray) -> float:
    """Entropy of one mode: the symplectic eigenvalue is sqrt(det)."""
    return closed_g(math.sqrt(max(np.linalg.det(np.asarray(cm)[:2, :2]), 1.0)))


# ---------------------------------------------------------------------------
# Measurement conditioning via the pseudo-inverse Schur complement
# ---------------------------------------------------------------------------


def schur_homodyne(cm: np.ndarray, mode: int, quadrature: str = "x") -> np.ndarray:
    """Condition on a homodyne outcome with the full projector formula.

    V_rest - C (Pi V_m Pi)^+ C^T, where Pi projects onto the measured
    quadrature of the measured mode.  Equivalent to the rank-one update but
    derived differently, which is the point.
    """
    cm = np.asarray(cm, dtype=float)
    n2 = cm.shape[0]
    meas = [2 * mode, 2 * mode + 1]
    rest = [i for i in range(n2) if i not in meas]
    pi = np.zeros((2, 2))
    pi[0 if quadrature == "x" else 1][0 if quadrature == "x" else 1] = 1.0
    v_m = pi @ cm[np.ix_(meas, meas)] @ pi
    cross = cm[np.ix_(rest, meas)]
    return cm[np.ix_(rest, rest)] - cross @ np.linalg.pinv(v_m, rcond=1e-14) @ cross.T


# ---------------------------------------------------------------------------
# Brute-force six-mode propagation of the bypass attack
# ---------------------------------------------------------------------------


def _bs(eta: float, a: int, b: int, n_modes: int) -> np.ndarray:
    """Beam-splitter symplectic, out_a = sqrt(eta) a + sqrt(1-eta) b."""
    s = np.eye(2 * n_modes)
    t, r = math.sqrt(eta), math.sqrt(1.0 - eta)
    for off in (0, 1):
        ia, ib = 2 * a + off, 2 * b + off
        s[ia, ia] = t
        s[ib, ib] = t
        s[ia, ib] = r
        s[ib, ia] = -r
    return s


def brute_force_cm(eta_ae: float, eta_s: float, eta_t: float, v: float,
                   v_s: float, eta_e: float, v_e: float) -> np.ndarray:
    """(A, B, E, E') covariance matrix by stepwise six-mode propagation.

    Modes: 0 Alice's kept arm, 1 the travelling signal, 2 an ancilla vacuum
    that receives the eavesdropper's tap, 3/4 the eavesdropper's TMSV
    (kept arm / cloner input), 5 the thermal environment of the bypass.

    Sequence: tap the signal (eta_ae into mode 2), attenuate the bypass
    remainder against the environment (eta_s), run the entangling cloner on
    the tap (eta_e against mode 4), recombine at the receiver (eta_t).
    """
    def tmsv(var: float) -> np.ndarray:
        c = math.sqrt(var * var - 1.0)
        z = np.diag([1.0, -1.0])
        return np.block([[var * np.eye(2), c * z], [c * z, var * np.eye(2)]])

    blocks = [tmsv(v), np.eye(2), tmsv(v_e), v_s * np.eye(2)]
    n = 6
    cm = np.zeros((2 * n, 2 * n))
    at = 0
    for b in blocks:
        cm[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]

    for s in (_bs(1.0 - eta_ae, 2, 1, n),   # mode 2 <- sqrt(eta_ae) * signal
              _bs(eta_s, 1, 5, n),          # bypass remainder vs environment
              _bs(eta_e, 2, 4, n),          # entangling cloner on the tap
              _bs(eta_t, 2, 1, n)):         # receiver combiner -> mode 2 is B
        cm = s @ cm @ s.T

    keep = []
    for m in (0, 2, 3, 4):                  # A, B, E, E'
        keep.extend((2 * m, 2 * m + 1))
    return cm[np.ix_(keep, keep)]


# ---------------------------------------------------------------------------
# Holevo cross-checks from structure, not formulas
# ---------------------------------------------------------------------------


def purification_chi_rr(cm_ab: np.ndarray) -> float:
    """chi for reverse reconciliation under a total-collection attack.

    When the eavesdropper collects the whole beam and owns the receiver
    combiner (eta_ae = 1, eta_t = 1), her two modes are the only entangled
    environment: the untouched ports are vacua.  Global purity then gives
    S(EE') = S(AB) and, after Bob's x-homodyne, S(EE'|b) = S(A|b), so
    chi = S(AB) - S(A|b_x) from the 4x4 (A, B) block alone.  Not valid for
    a genuinely restricted attack, where the uncollected beam fraction is
    an environment Eve does not hold.
    """
    s_ab = delta_entropy_two_mode(cm_ab)
    a_cond = schur_homodyne(cm_ab, mode=1, quadrature="x")
    return s_ab - single_mode_entropy(a_cond)


def heterodyne_chi_dr(cm8: np.ndarray, v: float) -> float:
    """Direct-reconciliation chi by explicit heterodyne decomposition.

    Builds the joint state of (measured Alice variable, E, E'): the measured
    variable keeps variance (V+1)/2 per quadrature, is uncorrelated with E,
    and couples to E' through the A-E' block scaled by 1/sqrt(2).  Then
    chi = S(EE') - S(EE' | A_x) with projector-based conditioning.
    """
    cm8 = np.asarray(cm8, dtype=float)
    c_ae = cm8[0:2, 4:6]
    if np.max(np.abs(c_ae)) > 1e-9:
        raise ValueError("expected no direct A-E correlations in this model")
    joint = np.zeros((6, 6))
    joint[0:2, 0:2] = 0.5 * (v + 1.0) * np.eye(2)
    joint[2:6, 2:6] = cm8[4:8, 4:8]
    coupling = cm8[0:2, 6:8] / math.sqrt(2.0)
    joint[0:2, 4:6] = coupling
    joint[4:6, 0:2] = coupling.T
    s_eve = delta_entropy_two_mode(cm8[4:8, 4:8])
    cond = schur_homodyne(joint, mode=0, quadrature="x")
    return s_eve - delta_entropy_two_mode(cond)


# ---------------------------------------------------------------------------
# Arbitrary-precision rates (v_s = 1): reverse reconciliation and DR method 1
# ---------------------------------------------------------------------------


def _mp_g(nu):
    if nu <= 1 + mp.mpf("1e-40"):
        return mp.mpf(0)
    a, b = (nu + 1) / 2, (nu - 1) / 2
    return a * mp.log(a, 2) - b * mp.log(b, 2)


def _mp_two_mode(mat):
    det_a = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    det_b = mat[2, 2] * mat[3, 3] - mat[2, 3] * mat[3, 2]
    det_c = mat[0, 2] * mat[1, 3] - mat[0, 3] * mat[1, 2]
    delta = det_a + det_b + 2 * det_c
    disc = mp.sqrt(delta ** 2 - 4 * mp.det(mat))
    return _mp_g(mp.sqrt((delta + disc) / 2)) + _mp_g(mp.sqrt((delta - disc) / 2))


def _mp_eve(eta_ae, eta_s, eta_t, t, xi, v):
    """Attack solve and Eve's (E, E') block at the working precision:
    returns (eta_e, c_e, collected, eve)."""
    bypass = mp.sqrt((1 - eta_ae) * eta_s * (1 - eta_t))
    direct = mp.sqrt(t) - bypass
    if direct < -mp.mpf("1e-12"):
        raise ValueError("no attack reproduces these observations")
    direct = max(direct, mp.mpf(0))
    eta_e = direct ** 2 / (eta_ae * eta_t)
    if eta_e > 1:
        raise ValueError("required cloner transmissivity exceeds 1")
    v_e = 1 + (t * xi) / ((1 - eta_e) * eta_t)

    c_e = mp.sqrt(v_e * v_e - 1)
    collected = eta_ae * (v - 1) + 1
    c_eep = mp.sqrt(eta_e) * c_e
    v_ep = (1 - eta_e) * collected + eta_e * v_e
    eve = mp.matrix(4)
    for i in range(2):
        eve[i, i] = v_e
        eve[2 + i, 2 + i] = v_ep
    eve[0, 2] = eve[2, 0] = c_eep
    eve[1, 3] = eve[3, 1] = -c_eep
    return eta_e, c_e, collected, eve


def _mp_mutual_info(t, xi, v):
    chi_tot = (1 - t) / t + xi
    return mp.log((v + chi_tot) / (1 + chi_tot), 2) / 2


def mp_rate_rr(eta_ae: float, eta_s: float, eta_t: float,
               t_eq: float, xi: float, v: float, dps: int = 50) -> float:
    """Key rate for reverse reconciliation at a fixed bypass hypothesis,
    evaluated end to end in arbitrary precision (vacuum environment).

    Returns a float; the intermediate arithmetic carries ``dps`` digits, so
    the result is exact to double precision whenever the model is
    well-conditioned.
    """
    with mp.workdps(dps):
        eta_ae, eta_s, eta_t = mp.mpf(eta_ae), mp.mpf(eta_s), mp.mpf(eta_t)
        t, xi, v = mp.mpf(t_eq), mp.mpf(xi), mp.mpf(v)
        eta_e, c_e, collected, eve = _mp_eve(eta_ae, eta_s, eta_t, t, xi, v)
        v_e = eve[0, 0]
        v_b = t * (v - 1) + 1 + t * xi
        c_be = mp.sqrt((1 - eta_e) * eta_t) * c_e
        c_bep = (mp.sqrt(eta_e * eta_t * (1 - eta_e)) * (v_e - collected)
                 - mp.sqrt(eta_ae * (1 - eta_ae) * (1 - eta_e)
                           * eta_s * (1 - eta_t)) * (v - 1))
        col = mp.matrix([c_be, 0, c_bep, 0])
        cond = eve - (col * col.T) / v_b
        chi = _mp_two_mode(eve) - _mp_two_mode(cond)
        return float(_mp_mutual_info(t, xi, v) - chi)


def mp_rate_dr_m1(eta_ae: float, eta_s: float, eta_t: float,
                  t_eq: float, xi: float, v: float, dps: int = 60) -> float:
    """Key rate for direct reconciliation, method 1, at a fixed bypass
    hypothesis, in arbitrary precision (vacuum environment).

    Eve's block is conditioned on the x outcome of Alice's heterodyne by the
    plain rank-one update: Alice's x covariance with E',
    -sqrt(eta_ae (1 - eta_e) (v^2 - 1)), squared over (v + 1).  With ``dps``
    digits the large like terms of that update cancel harmlessly, even at
    the cloner limit.
    """
    with mp.workdps(dps):
        eta_ae, eta_s, eta_t = mp.mpf(eta_ae), mp.mpf(eta_s), mp.mpf(eta_t)
        t, xi, v = mp.mpf(t_eq), mp.mpf(xi), mp.mpf(v)
        eta_e, _, _, eve = _mp_eve(eta_ae, eta_s, eta_t, t, xi, v)
        col = mp.matrix([0, 0, -mp.sqrt(eta_ae * (1 - eta_e) * (v * v - 1)), 0])
        cond = eve - (col * col.T) / (v + 1)
        chi = _mp_two_mode(eve) - _mp_two_mode(cond)
        return float(_mp_mutual_info(t, xi, v) - chi)


# ---------------------------------------------------------------------------
# Photon-count statistics: series and Monte Carlo
# ---------------------------------------------------------------------------


def wcp_observables_series(mu: float, eta: float, p_dc: float, e_d: float,
                           n_max: int = 120) -> "tuple[float, float]":
    """Gain and QBER summed photon number by photon number.

    Each term carries the Poisson weight, the chance of at least one signal
    photon surviving, the double-detector dark complement, and the e_d / 1/2
    error split between signal and dark-only clicks.
    """
    no_dark = (1.0 - p_dc) ** 2
    gain = errors = weight_left = 0.0
    log_fact = 0.0
    for n in range(n_max + 1):
        if n > 0:
            log_fact += math.log(n)
        p_n = math.exp(-mu + n * math.log(mu) - log_fact) if mu > 0 else (n == 0)
        p_sig = 1.0 - (1.0 - eta) ** n
        p_click = 1.0 - no_dark * (1.0 - p_sig)
        gain += p_n * p_click
        errors += p_n * (e_d * p_sig + 0.5 * (p_click - p_sig))
        weight_left += p_n
    if weight_left < 1.0 - 1e-12:
        raise ValueError(f"Poisson tail not exhausted at n_max={n_max}")
    return gain, errors / gain


def eve_number_series(mu: float, eta_ae: float, n_max: int = 120) -> "tuple[float, float]":
    """(P[Eve holds nothing], P[single photon sent and Eve holds it]) for WCP,
    summed explicitly: sum_n P(n) (1-eta_ae)^n and P(1) * eta_ae."""
    p0 = 0.0
    log_fact = 0.0
    for n in range(n_max + 1):
        if n > 0:
            log_fact += math.log(n)
        p_n = math.exp(-mu + n * math.log(mu) - log_fact)
        p0 += p_n * (1.0 - eta_ae) ** n
    p1 = mu * math.exp(-mu)
    return p0, p1 * eta_ae


def simulate_dv(source: str, mu: float, eta: float, eta_ae: float,
                p_dc: float, e_d: float, pulses: int, seed: int) -> dict:
    """Tagged Monte-Carlo of the threshold-detector channel.

    Per pulse: draw the photon number (Poisson(mu) or exactly 1), Bob's
    detected count Binomial(n, eta), the eavesdropper's held count
    Binomial(n, eta_ae), a double-detector dark event, and the error coin
    (e_d when signal photons arrived, 1/2 on dark-only clicks).  Bob's and
    the eavesdropper's draws are independent given n — the quantities under
    test are marginal union bounds, valid for any coupling, so no photon
    bookkeeping between the two is needed.

    Returns means and standard errors for the gain, the QBER, and the
    tagged gain split: clicks where Eve holds nothing (s0), clicks from
    single-photon pulses whose photon Eve holds (s11), and the remainder.
    """
    rng = np.random.default_rng(seed)
    if source == "wcp":
        n = rng.poisson(mu, pulses)
    elif source == "sps":
        n = np.ones(pulses, dtype=np.int64)
    else:
        raise ValueError(f"unknown source {source!r}")
    k = rng.binomial(n, eta)
    m = rng.binomial(n, eta_ae)
    dark = rng.random(pulses) < 1.0 - (1.0 - p_dc) ** 2
    signal = k >= 1
    click = signal | dark
    coin = rng.random(pulses)
    error = click & np.where(signal, coin < e_d, coin < 0.5)

    n_click = int(np.count_nonzero(click))
    if n_click == 0:
        raise ValueError("no clicks at all; raise pulses or the efficiencies")

    def rate(mask) -> "tuple[float, float]":
        p = float(np.count_nonzero(mask)) / pulses
        return p, math.sqrt(max(p * (1.0 - p), 1e-300) / pulses)

    gain, gain_se = rate(click)
    qber = float(np.count_nonzero(error)) / n_click
    qber_se = math.sqrt(max(qber * (1.0 - qber), 1e-300) / n_click)
    s0, s0_se = rate(click & (m == 0))
    s11, s11_se = rate(click & (n == 1) & (m == 1))
    rest, rest_se = rate(click & ~((m == 0) | ((n == 1) & (m == 1))))
    return {"gain": gain, "gain_se": gain_se, "qber": qber, "qber_se": qber_se,
            "s0": s0, "s0_se": s0_se, "s11": s11, "s11_se": s11_se,
            "rest": rest, "rest_se": rest_se}


# ---------------------------------------------------------------------------
# Intensity search
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_mu_search(rate_of_mu, mu_range: "tuple[float, float]" = (1e-4, 1e3),
                     coarse_points: int = 200, tol: float = 1e-6) -> "tuple[float, float]":
    """(mu, rate) maximising ``rate_of_mu`` one evaluation at a time.

    The scalar search the package ran before its lockstep version: a
    log-spaced coarse scan, then golden-section search on log10(mu) down to a
    bracket of ``tol``.  No positive rate anywhere gives rate 0 at the scan
    argmax; a polished point worse than the scan's best falls back to it.
    """
    lo, hi = math.log10(mu_range[0]), math.log10(mu_range[1])

    def rate_log(x: float) -> float:
        return rate_of_mu(10.0 ** x)

    xs = [lo + (hi - lo) * i / (coarse_points - 1) for i in range(coarse_points)]
    rates = [rate_log(x) for x in xs]
    k = max(range(coarse_points), key=lambda i: rates[i])
    if rates[k] <= 0.0:
        return 10.0 ** xs[k], 0.0

    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, coarse_points - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = rate_log(c), rate_log(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = rate_log(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = rate_log(d)
    x_best = 0.5 * (a + b)
    r_best = rate_log(x_best)
    if rates[k] > r_best:
        x_best, r_best = xs[k], rates[k]
    return 10.0 ** x_best, r_best

"""Row checks computed apart from the package.

Nothing here imports ``satqkd``.  The CV rates are rebuilt in mpmath from
the model's closed-form covariance entries and the two-mode determinant
(Delta) invariants, the DV rate from the published bound written out again
in NumPy, and the LIDAR/radar cells from the closed forms quoted in the
``lidar.py`` docstrings.  Every ``check_*`` function takes one parsed table
(``columns`` and a float array ``data``, NaN for an empty cell) plus the
scenario parameters, and returns one list of failure messages per row
(empty list: the row passed).
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

# Package feasibility slack, mirrored so that a point the package calls
# feasible at the boundary is evaluated, not rejected, here.
_FEAS_TOL = 1e-12

# |k_package - k_oracle| allowed at the emitted argmin.  The reverse case
# agrees to ~2e-11 today; the smallest genuine DR-M1 miss is ~5e-6 bits.
RATE_TOL = 1e-8
# k_worst may exceed a sampled feasible hypothesis's rate by at most this:
# the polish stops at xatol = 1e-6 along a ridge of slope ~1e-3 bits.
SAMPLE_TOL = 1e-7
# Hypotheses drawn per worst-case row for the "is it really the minimum" test.
SAMPLES_PER_ROW = 6
# The sampled hypotheses keep clear of the bypass ceiling, where the
# reverse-reconciliation minimiser lies, so each worst-case row is also
# held against a 1-D minimisation along the ceiling: a scan of
# log10(1 - eta_t) over this range, then golden-section steps.
CEILING_LOG_U = (-8.0, 0.0)
CEILING_SCAN = 17
CEILING_GOLDEN_STEPS = 16
# k_worst may exceed that ceiling minimum by at most this.  The polish
# misses it by up to 1.9e-7 bits at eta_ae ~ 1e-4 today (see CHANGES.md); a
# worst case read off the grid without the polish misses it by 2e-6 or more
# on those rows.
CEILING_TOL = 1e-6


# ---------------------------------------------------------------------------
# Continuous variables, in extended precision
# ---------------------------------------------------------------------------

def _g(nu):
    """Thermal entropy in bits; 0 at nu <= 1."""
    if nu <= 1:
        return mp.mpf(0)
    a, b = (nu + 1) / 2, (nu - 1) / 2
    return (a * mp.log(a) - b * mp.log(b)) / mp.log(2)


def _two_mode_entropy(m):
    """Entropy of a two-mode state from Delta = det A + det B + 2 det C and det V.

    The states here correlate no x quadrature (indices 0, 2) with a p
    quadrature (1, 3), so det V is the product of the x- and p-block
    determinants."""
    det_a = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    det_b = m[2][2] * m[3][3] - m[2][3] * m[3][2]
    det_c = m[0][2] * m[1][3] - m[0][3] * m[1][2]
    delta = det_a + det_b + 2 * det_c
    det_v = ((m[0][0] * m[2][2] - m[0][2] * m[2][0])
             * (m[1][1] * m[3][3] - m[1][3] * m[3][1]))
    disc = mp.sqrt(max(delta * delta - 4 * det_v, mp.mpf(0)))
    nu_p = mp.sqrt((delta + disc) / 2)
    nu_m = mp.sqrt(max((delta - disc) / 2, mp.mpf(0)))
    return _g(nu_p) + _g(nu_m)


def cv_attack(eta_ae, eta_s, eta_t, t_eq, xi):
    """Cloner (eta_e, v_e) reproducing (t_eq, xi) with a vacuum environment,
    as mp numbers, or None where no attack exists.  Arguments are mpf."""
    bypass = mp.sqrt((1 - eta_ae) * eta_s * (1 - eta_t))
    direct = mp.sqrt(t_eq) - bypass
    if direct < -_FEAS_TOL or eta_ae * eta_t <= 0:
        return None
    direct = max(direct, mp.mpf(0))
    eta_e = direct * direct / (eta_ae * eta_t)
    if eta_e > 1 + mp.mpf("1e-9"):
        return None
    eta_e = min(eta_e, mp.mpf(1))
    denom = (1 - eta_e) * eta_t
    if denom <= _FEAS_TOL:
        return None
    return eta_e, 1 + t_eq * xi / denom


def cv_rate(mode, eta_ae, eta_s, eta_t, t_eq, xi, v, beta, dps=60):
    """Signed key rate (bits/use) of ``mode`` ('rr' | 'dr-m1') at a fixed
    bypass hypothesis, or None where the hypothesis admits no attack.

    Reverse reconciliation conditions Eve's (E, E') block on Bob's x
    quadrature; DR-M1 conditions it on the x outcome of Alice's heterodyne
    (her variance becomes (v + 1)/2 and her correlations halve).  Detector
    efficiency 1, no electronic noise, vacuum environment: the only settings
    the benchmark's scenario files use.
    """
    with mp.workdps(dps):
        a, s, t = mp.mpf(eta_ae), mp.mpf(eta_s), mp.mpf(eta_t)
        teq, x, vv = mp.mpf(t_eq), mp.mpf(xi), mp.mpf(v)
        att = cv_attack(a, s, t, teq, x)
        if att is None:
            return None
        e, v_e = att
        c = mp.sqrt(vv * vv - 1)
        c_e = mp.sqrt(v_e * v_e - 1)
        collected = a * (vv - 1) + 1
        v_ep = (1 - e) * collected + e * v_e
        c_eep = mp.sqrt(e) * c_e
        eve = [[v_e, 0, c_eep, 0], [0, v_e, 0, -c_eep],
               [c_eep, 0, v_ep, 0], [0, -c_eep, 0, v_ep]]
        if mode == "rr":
            v_b = teq * (vv - 1) + 1 + teq * x
            col = [mp.sqrt((1 - e) * t) * c_e, 0,
                   mp.sqrt(e * (1 - e) * t) * (v_e - collected)
                   - mp.sqrt(a * (1 - a) * (1 - e) * s * (1 - t)) * (vv - 1), 0]
            var = v_b
        elif mode == "dr-m1":
            col = [0, 0, -mp.sqrt(a * (1 - e)) * c, 0]
            var = vv + 1
        else:
            raise ValueError(f"no covariance bound for mode {mode!r}")
        cond = [[eve[i][j] - col[i] * col[j] / var for j in range(4)]
                for i in range(4)]
        chi = _two_mode_entropy(eve) - _two_mode_entropy(cond)
        chi_tot = (1 - teq) / teq + x
        i_ab = mp.log((vv + chi_tot) / (1 + chi_tot)) / (2 * mp.log(2))
        return float(beta * i_ab - chi)


def feasible_samples(eta_ae, t_eq, count, rng):
    """``count`` bypass hypotheses (eta_s, eta_t) inside the feasible set.

    For a given eta_t the feasible eta_s form one interval: the bypass may
    not deliver more than sqrt(t_eq), and the cloner may not need a
    transmissivity above 1.  Draw eta_t, then eta_s inside its interval.
    """
    out = []
    tries = 0
    while len(out) < count and tries < 50 * count:
        tries += 1
        eta_t = float(rng.uniform(0.0, 1.0))
        room = (1.0 - eta_ae) * (1.0 - eta_t)
        if room <= 0.0 or eta_ae * eta_t <= 0.0:
            continue
        lo = max(math.sqrt(t_eq) - math.sqrt(eta_ae * eta_t), 0.0) ** 2 / room
        hi = min(t_eq / room, 1.0)
        if lo >= hi:
            continue
        # Keep clear of the two edges, where the attack degenerates.
        eta_s = lo + (hi - lo) * float(rng.uniform(0.02, 0.98))
        out.append((eta_s, eta_t))
    return out


def ceiling_minimum(rate, eta_ae, t_eq):
    """Smallest ``rate(eta_s, eta_t)`` found along the bypass ceiling.

    The ceiling is eta_s = min(1, t_eq / ((1 - eta_ae)(1 - eta_t))), the
    most the bypass may carry; the reverse-reconciliation minimiser lies on
    it, with 1 - eta_t near t_eq.  ``rate`` returns None off the feasible
    set.  Scan log10(1 - eta_t) coarsely, then narrow the bracket around the
    best node by golden section.  Returns None if no scanned point is
    feasible.
    """
    def on_ceiling(log_u):
        u = 10.0 ** log_u
        room = (1.0 - eta_ae) * u
        r = rate(min(1.0, t_eq / room) if room > 0.0 else 1.0, 1.0 - u)
        return math.inf if r is None else r

    nodes = np.linspace(CEILING_LOG_U[0], CEILING_LOG_U[1], CEILING_SCAN)
    values = [on_ceiling(x) for x in nodes]
    i = int(np.argmin(values))
    if not math.isfinite(values[i]):
        return None
    best = values[i]
    lo, hi = nodes[max(i - 1, 0)], nodes[min(i + 1, len(nodes) - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fa, fb = on_ceiling(a), on_ceiling(b)
    for _ in range(CEILING_GOLDEN_STEPS):
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - inv_phi * (hi - lo)
            fa = on_ceiling(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + inv_phi * (hi - lo)
            fb = on_ceiling(b)
    return min(best, fa, fb)


def _close(a, b, tol):
    return a is not None and b is not None and abs(a - b) <= tol


def check_cv_worst(table, params, mode, sweep_var, seed):
    """Worst-case rows: the rate at the argmin, the no-bypass rate, the
    clamped copies, and that sampled feasible hypotheses do not beat it."""
    col = {c: i for i, c in enumerate(table["columns"])}
    rng = np.random.default_rng(seed)
    dps = 50 if mode == "rr" else 60
    out = []
    for cells in table["data"]:
        row = [None if math.isnan(x) else float(x) for x in cells]
        p = {**params, sweep_var: row[0]}
        bad = []
        k = row[col["k_worst"]]
        if row[col["feasible"]] != 1 or k is None:
            out.append(["worst case reported infeasible"])
            continue
        ref = cv_rate(mode, p["eta_ae"], row[col["argmin_eta_s"]],
                      row[col["argmin_eta_t"]], p["t_eq"], p["xi"], p["v"],
                      p["beta"], dps)
        if not _close(k, ref, RATE_TOL):
            bad.append(f"k_worst {k!r} vs {ref!r} at its argmin")
        if row[col["k_worst_pos"]] != max(k, 0.0):
            bad.append("k_worst_pos is not max(k_worst, 0)")
        nb = cv_rate(mode, p["eta_ae"], 0.0, 1.0, p["t_eq"], p["xi"], p["v"],
                     p["beta"], dps)
        k_nb = row[col["k_nobypass"]]
        if (nb is None) != (row[col["feasible_nobypass"]] == 0):
            bad.append(f"no-bypass feasibility flag wrong (oracle {nb!r})")
        elif nb is not None:
            if not _close(k_nb, nb, RATE_TOL):
                bad.append(f"k_nobypass {k_nb!r} vs {nb!r}")
            elif row[col["k_nobypass_pos"]] != max(k_nb, 0.0):
                bad.append("k_nobypass_pos is not max(k_nobypass, 0)")
            if k > nb + RATE_TOL:
                bad.append(f"k_worst {k!r} above the no-bypass rate {nb!r}")
        for eta_s, eta_t in feasible_samples(p["eta_ae"], p["t_eq"],
                                             SAMPLES_PER_ROW, rng):
            r = cv_rate(mode, p["eta_ae"], eta_s, eta_t, p["t_eq"], p["xi"],
                        p["v"], p["beta"], dps)
            if r is not None and k > r + SAMPLE_TOL:
                bad.append(f"k_worst {k!r} above {r!r} at ({eta_s}, {eta_t})")
                break
        low = ceiling_minimum(
            lambda eta_s, eta_t: cv_rate(mode, p["eta_ae"], eta_s, eta_t, p["t_eq"],
                                         p["xi"], p["v"], p["beta"], dps),
            p["eta_ae"], p["t_eq"])
        if low is not None and k > low + CEILING_TOL:
            bad.append(f"k_worst {k!r} above the ceiling minimum {low!r}")
        out.append(bad)
    return out


def _column(table, name):
    return table["data"][:, table["columns"].index(name)]


def _per_row(n, *conditions):
    """Merge (message, mask-of-failing-rows) pairs into per-row message lists."""
    out = [[] for _ in range(n)]
    for msg, mask in conditions:
        for i in np.flatnonzero(mask):
            out[i].append(msg)
    return out


def _mismatch(got, want, rtol, atol=0.0):
    """Rows where two float columns disagree (inf matches inf, NaN matches nothing)."""
    same_inf = np.isinf(got) & np.isinf(want) & (np.sign(got) == np.sign(want))
    with np.errstate(invalid="ignore"):
        close = np.abs(got - want) <= atol + rtol * np.abs(want)
    return ~(same_inf | close)


def _pos_wrong(rate, pos):
    return ~(pos == np.maximum(rate, 0.0))


def _mutual_info(t_eq, xi, v):
    chi_tot = (1.0 - t_eq) / t_eq + xi
    return 0.5 * np.log2((v + chi_tot) / (1.0 + chi_tot))


def _g_float(nu):
    nu = np.maximum(np.asarray(nu, dtype=float), 1.0)
    a, b = 0.5 * (nu + 1.0), 0.5 * (nu - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        blog = np.where(b > 0.0, b * np.log2(np.where(b > 0.0, b, 1.0)), 0.0)
    return a * np.log2(a) - blog


def _two_mode_entropy_float(v11, v33, c13, d11, d33, d13):
    """Entropy of stacked two-mode states with x-block (v11, c13; c13, v33)
    and p-block (d11, d13; d13, d33): Delta = det A + det B + 2 det C,
    det V = det(x-block) * det(p-block)."""
    delta = v11 * d11 + v33 * d33 + 2.0 * c13 * d13
    det_v = (v11 * v33 - c13 * c13) * (d11 * d33 - d13 * d13)
    disc = np.sqrt(np.maximum(delta * delta - 4.0 * det_v, 0.0))
    nu_p = np.sqrt(np.maximum(0.5 * (delta + disc), 1.0))
    nu_m = np.sqrt(np.maximum(0.5 * (delta - disc), 1.0))
    return _g_float(nu_p) + _g_float(nu_m)


def _rr_fixed_rates(p):
    """(k, chi, feasible) of reverse reconciliation at fixed hypotheses."""
    a, s, t = p["eta_ae"], p["eta_s"], p["eta_t"]
    teq, xi, v, beta = p["t_eq"], p["xi"], p["v"], p["beta"]
    bypass = np.sqrt((1.0 - a) * s * (1.0 - t))
    direct = np.maximum(np.sqrt(teq) - bypass, 0.0)
    e = direct ** 2 / (a * t)
    feasible = ((np.sqrt(teq) - bypass >= -_FEAS_TOL) & (e <= 1.0 + 1e-9)
                & ((1.0 - np.minimum(e, 1.0)) * t > _FEAS_TOL))
    v_e = 1.0 + teq * xi / ((1.0 - e) * t)
    c_e = np.sqrt(v_e * v_e - 1.0)
    collected = a * (v - 1.0) + 1.0
    v_ep = (1.0 - e) * collected + e * v_e
    c_eep = np.sqrt(e) * c_e
    v_b = teq * (v - 1.0) + 1.0 + teq * xi
    c_be = np.sqrt((1.0 - e) * t) * c_e
    c_bep = (np.sqrt(e * (1.0 - e) * t) * (v_e - collected)
             - np.sqrt(a * (1.0 - a) * (1.0 - e) * s * (1.0 - t)) * (v - 1.0))
    # Bob's x homodyne only touches Eve's x block.
    h_eve = _two_mode_entropy_float(v_e, v_ep, c_eep, v_e, v_ep, -c_eep)
    h_cond = _two_mode_entropy_float(v_e - c_be ** 2 / v_b, v_ep - c_bep ** 2 / v_b,
                                     c_eep - c_be * c_bep / v_b, v_e, v_ep, -c_eep)
    chi = h_eve - h_cond
    return beta * _mutual_info(teq, xi, v) - chi, chi, feasible


def check_cv_fixed_rr(table, params, sweep_var):
    """Fixed-hypothesis reverse-reconciliation rows, in double precision from
    the determinant invariants (well conditioned at v ~ 300)."""
    p = {k: np.full(len(table["data"]), v) for k, v in params.items()
         if isinstance(v, float)}
    p[sweep_var] = _column(table, sweep_var)
    with np.errstate(all="ignore"):  # infeasible rows may compute garbage
        k, chi, feasible = _rr_fixed_rates(p)
    flag = _column(table, "feasible")
    got_k, got_chi = _column(table, "k"), _column(table, "chi_eve")
    empty = np.isnan(got_k) & np.isnan(got_chi) & np.isnan(_column(table, "k_pos"))
    return _per_row(
        len(k),
        ("feasible flag disagrees with the oracle", flag != feasible.astype(float)),
        ("infeasible row has cells", ~feasible & ~empty),
        ("k disagrees with the oracle", feasible & _mismatch(got_k, k, 0.0, 1e-9)),
        ("chi_eve disagrees with the oracle",
         feasible & _mismatch(got_chi, chi, 0.0, 1e-9)),
        ("k_pos is not max(k, 0)", feasible & _pos_wrong(got_k, _column(table, "k_pos"))),
    )


def check_dr_m2(table, params, sweep_var):
    """Entropy-difference bound g(w) - g(sqrt(w)), w = eta_ae (v - 1) + 1."""
    eta = _column(table, sweep_var)
    v, beta = params["v"], params["beta"]
    i_ab = float(_mutual_info(params["t_eq"], params["xi"], v))
    chi = np.empty(len(eta))
    with mp.workdps(30):
        for i, a in enumerate(eta):
            w = mp.mpf(a) * (mp.mpf(v) - 1) + 1
            chi[i] = float(_g(w) - _g(mp.sqrt(w)))
    k = beta * i_ab - chi
    got_k = _column(table, "k")
    return _per_row(
        len(k),
        ("eve_bound disagrees with the oracle",
         _mismatch(_column(table, "eve_bound"), chi, 0.0, 1e-9)),
        ("k disagrees with the oracle", _mismatch(got_k, k, 0.0, 1e-9)),
        ("k_pos is not max(k, 0)", _pos_wrong(got_k, _column(table, "k_pos"))),
    )


# ---------------------------------------------------------------------------
# Discrete variables
# ---------------------------------------------------------------------------

# Optimised intensities are compared against a log-spaced scan of this many
# values over the package's intensity range.
MU_SCAN = np.logspace(-4.0, 3.0, 20001)


def _h2(x):
    x = np.clip(x, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where((x == 0.0) | (x == 1.0), 0.0, out)


def dv_rate(source, mu, p):
    """Restricted BB84 rate (bits/pulse), broadcast over ``mu`` and p['eta_ae']."""
    eta = p["eta_ch"] * p["eta_d"]
    eta_ae = np.asarray(p["eta_ae"], dtype=float)
    if source == "wcp":
        mu = np.asarray(mu, dtype=float)
        p_sig = -np.expm1(-eta * mu)
        p0, p11 = np.exp(-mu * eta_ae), mu * eta_ae * np.exp(-mu)
    else:
        p_sig = eta
        p0, p11 = 1.0 - eta_ae, eta_ae
    gain = 1.0 - (1.0 - p["p_dc"]) ** 2 * (1.0 - p_sig)
    qber = np.minimum((p["e_d"] * p_sig + 0.5 * (gain - p_sig)) / gain, 0.5)
    s0 = np.maximum(gain - (1.0 - p0), 0.0)
    s11 = np.maximum(gain - (1.0 - p11), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        e11 = np.where(s11 > 0.0, np.minimum(qber * gain / s11, 0.5), 0.5)
    h_e = _h2(qber)
    rate = p["q"] * (-p["f"] * gain * h_e + s11 * (1.0 - _h2(e11)) + s0)
    if source == "sps":
        rate = np.maximum(np.maximum(
            rate, p["q"] * gain * (-p["f"] * h_e + 1.0 - _h2(e11))),
            p["q"] * gain * (1.0 - (1.0 + p["f"]) * h_e))
    return rate


def check_dv(table, params, sweep_var):
    """dv-sps / dv-wcp rows.  With an optimised intensity, the rate must
    match the oracle at ``mu_opt`` and no intensity of MU_SCAN may beat it."""
    cols = table["columns"]
    p = dict(params)
    p[sweep_var] = _column(table, sweep_var)
    n = len(table["data"])
    conds = []
    sps = dv_rate("sps", None, p)
    if "rate_sps" in cols:
        got = _column(table, "rate_sps")
        conds += [("rate_sps disagrees with the oracle", _mismatch(got, sps, 1e-9, 1e-15)),
                  ("rate_sps_pos is not max(rate, 0)",
                   _pos_wrong(got, _column(table, "rate_sps_pos")))]
    if "rate_wcp" in cols:
        got = _column(table, "rate_wcp")
        conds.append(("rate_wcp_pos is not max(rate, 0)",
                      _pos_wrong(got, _column(table, "rate_wcp_pos"))))
        if "mu_opt" in cols:
            at_opt = dv_rate("wcp", _column(table, "mu_opt"), p)
            # With no positive rate anywhere the package reports 0.
            conds.append(("rate_wcp disagrees with the oracle at mu_opt",
                          (got != 0.0) & _mismatch(got, at_opt, 1e-9, 1e-15)))
            scan = {**p, "eta_ae": p["eta_ae"][:, None]}
            best = np.max(dv_rate("wcp", MU_SCAN[None, :], scan), axis=1)
            conds.append(("a scanned intensity beats rate_wcp",
                          best > np.maximum(got, 0.0) * (1.0 + 1e-9) + 1e-15))
        else:
            want = dv_rate("wcp", p["mu"], p)
            conds.append(("rate_wcp disagrees with the oracle",
                          _mismatch(got, want, 1e-9, 1e-15)))
    return _per_row(n, *conds)


# ---------------------------------------------------------------------------
# LIDAR and radar, from the closed forms in the lidar.py docstrings
# ---------------------------------------------------------------------------

K_B = 1.380649e-23
EARTH_RADIUS = 6.371e6
LIDAR_DEFAULTS = {"r_a": 0.15, "r_b": 0.5, "waist": 0.15, "wavelength": 8e-7,
                  "quality": 3.0, "reflectivity": 0.1, "loss_factor": 0.25,
                  "power_sat": 1.0, "power_ground": 1.0}
RADAR_DEFAULTS = {"radar_power": 1e5, "radar_antenna_radius": 2.0,
                  "radar_wavelength": 0.04, "radar_bandwidth": 2.5e6,
                  "radar_noise_figure_db": 8.0, "radar_loss_db": 7.0,
                  "radar_aperture_efficiency": 0.6, "radar_antenna_temp": 60.0}
ELEVATION_DEFAULTS = {"profile_points": 201, "extinction_coefficient": 0.7,
                      "detection_efficiency": 0.5, "optics_transmittance": 0.8}


def _moonlight(r_a):
    """a_E a_M R_M^2 r_A^2 (fov / d_EM^2) H B."""
    return 0.3 * 0.12 * 1.7374e6 ** 2 * r_a ** 2 * 2.5e-7 / 3.844e8 ** 2 * 1.0 * 1.0


def _night_sky(r_b):
    """H_sky fov pi r_B^2 B."""
    return 8.5e-7 * 2.5e-7 * math.pi * r_b ** 2 * 1.0


def _size_bound(z, power, p_min, w0, q):
    """r_E(z) = sqrt(-ln(1 - u)) lambda z M^2 / (pi W0),
    u = 2 P_min kappa z^2 / (alpha P_T W0^2); inf once u >= 1."""
    u = 2.0 * p_min * q["loss_factor"] * z * z / (q["reflectivity"] * power * w0 * w0)
    r = np.sqrt(-np.log1p(-np.where(u < 1.0, u, 0.0)))
    r = np.where(u < 1.0, r, np.inf)
    return r * q["wavelength"] * z * q["quality"] / (math.pi * w0)


def _width(z, q):
    """W(z) = W0 sqrt(1 + (z M^2 / z_R)^2), z_R = pi W0^2 / lambda."""
    z_r = math.pi * q["waist"] ** 2 / q["wavelength"]
    return q["waist"] * np.sqrt(1.0 + (z * q["quality"] / z_r) ** 2)


def _dual_profile(z, total, q):
    """(r_e, eta_ae, eta_eb, alpha_min_sat, alpha_min_ground) along z."""
    inner = (z > 0.0) & (z < total)
    r_sat = _size_bound(z, q["power_sat"], q["noise_floor_sat"], q["waist"], q)
    r_gnd = _size_bound(total - z, q["power_ground"], q["noise_floor_ground"],
                        q["r_b"], q)
    r_e = np.where(inner, np.minimum(r_sat, r_gnd), 0.0)
    eta_ae, eta_eb = _efficiencies(z, total, r_e, q)
    k = q["loss_factor"]
    a_sat = 2.0 * q["noise_floor_sat"] * k * z * z / (q["power_sat"] * q["waist"] ** 2)
    a_gnd = (2.0 * q["noise_floor_ground"] * k * (total - z) ** 2
             / (q["power_ground"] * q["r_b"] ** 2))
    return r_e, eta_ae, eta_eb, a_sat, a_gnd


def _efficiencies(z, total, r_e, q):
    """eta_ae = 1 - exp(-2 r_e^2 / W(z)^2); eta_eb through a beam of waist
    W_E = lambda (L - z) / (pi r_e) focused on B; 0 at r_e = 0, 1 at r_e = inf."""
    finite = np.isfinite(r_e) & (r_e > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta_ae = -np.expm1(-2.0 * r_e ** 2 / _width(z, q) ** 2)
        w_e = q["wavelength"] * (total - z) / (math.pi * r_e)
        eta_eb = -np.expm1(-2.0 * q["r_b"] ** 2 / w_e ** 2)
    eta_ae = np.where(finite, eta_ae, np.where(np.isinf(r_e), 1.0, 0.0))
    eta_eb = np.where(finite, eta_eb, np.where(np.isinf(r_e), 1.0, 0.0))
    return eta_ae, eta_eb


def _lidar_params(params):
    q = {**LIDAR_DEFAULTS, **params}
    q.setdefault("noise_floor_sat", _moonlight(q["r_a"]))
    q.setdefault("noise_floor_ground", _night_sky(q["r_b"]))
    return q


def check_lidar_profile(table, params, sweep_var):
    """lidar-profile rows (dual LIDAR or ground radar)."""
    z = _column(table, sweep_var)
    total = params["total_range"]
    r_e_got = _column(table, "r_e")
    if params.get("bound_source") == "radar-ground":
        q = {**LIDAR_DEFAULTS, **RADAR_DEFAULTS, **params}
        lam = q["radar_wavelength"]
        gain = 4.0 * math.pi * q["radar_aperture_efficiency"] * math.pi \
            * q["radar_antenna_radius"] ** 2 / lam ** 2
        t_sys = q["radar_antenna_temp"] \
            + (10.0 ** (q["radar_noise_figure_db"] / 10.0) - 1.0) * 290.0
        p_min = K_B * t_sys * q["radar_bandwidth"]
        d = total - z
        # sigma = P_min (4 pi)^3 kappa d^4 / (P_T G^2 lambda^2), r = sqrt(sigma / pi)
        sigma = (p_min * (4.0 * math.pi) ** 3 * 10.0 ** (q["radar_loss_db"] / 10.0)
                 * d ** 4 / (q["radar_power"] * gain ** 2 * lam ** 2))
        r_e = np.where((z > 0.0) & (z < total), np.sqrt(sigma / math.pi), 0.0)
        eta_ae, eta_eb = _efficiencies(z, total, r_e, q)
        want = {"r_e": r_e, "eta_ae": eta_ae, "eta_eb": eta_eb}
    else:
        q = _lidar_params(params)
        cells = _dual_profile(z, total, q)
        want = dict(zip(("r_e", "eta_ae", "eta_eb", "alpha_min_sat",
                         "alpha_min_ground"), cells))
    ends = (z <= 0.0) | (z >= total)
    conds = [("r_e is not 0 at an end of the link", ends & (r_e_got != 0.0))]
    conds += [(f"{name} disagrees with the closed form",
               _mismatch(_column(table, name), ref, 1e-9, 1e-300))
              for name, ref in want.items()]
    return _per_row(len(z), *conds)


def check_elevation(table, params, sweep_var):
    """lidar-elevation rows: profile maxima along the slant path, and the
    legitimate link's diffraction-only and effective transmittance."""
    q = {**_lidar_params(params), **ELEVATION_DEFAULTS}
    theta = np.radians(_column(table, sweep_var))
    h = params["altitude"]
    rows = {k: np.empty(len(theta)) for k in
            ("max_eta_ae", "max_eta_eb", "eta_ab_diffraction", "eta_ab_effective")}
    for i, th in enumerate(theta):
        # d = sqrt((R + h)^2 - R^2 sin^2 theta) - R cos theta
        d = math.sqrt((EARTH_RADIUS + h) ** 2 - (EARTH_RADIUS * math.sin(th)) ** 2) \
            - EARTH_RADIUS * math.cos(th)
        z = np.linspace(0.0, d, q["profile_points"])
        _, eta_ae, eta_eb, _, _ = _dual_profile(z, d, q)
        diff = -math.expm1(-2.0 * q["r_b"] ** 2 / float(_width(d, q)) ** 2)
        rows["max_eta_ae"][i] = eta_ae.max()
        rows["max_eta_eb"][i] = eta_eb.max()
        rows["eta_ab_diffraction"][i] = diff
        rows["eta_ab_effective"][i] = (diff * math.exp(-q["extinction_coefficient"]
                                                       / math.cos(th))
                                       * q["detection_efficiency"]
                                       * q["optics_transmittance"])
    return _per_row(len(theta), *[
        (f"{name} disagrees with the closed form",
         _mismatch(_column(table, name), ref, 1e-9, 1e-300))
        for name, ref in rows.items()])


def check_file(kind, table, params, sweep_var, seed):
    """Per-row failure lists for one table of the given file kind."""
    if kind.startswith("rr-") and kind != "rr-fixed":
        return check_cv_worst(table, params, "rr", sweep_var, seed)
    if kind.startswith("dr-m1"):
        return check_cv_worst(table, params, "dr-m1", sweep_var, seed)
    if kind == "rr-fixed":
        return check_cv_fixed_rr(table, params, sweep_var)
    if kind == "dr-m2":
        return check_dr_m2(table, params, sweep_var)
    if kind in ("wcp-opt", "wcp-fixed", "sps"):
        return check_dv(table, params, sweep_var)
    if kind in ("lidar-dual", "radar"):
        return check_lidar_profile(table, params, sweep_var)
    if kind == "elevation":
        return check_elevation(table, params, sweep_var)
    raise ValueError(f"no check for file kind {kind!r}")

"""Bypass-channel CV engine: attack solving, covariance assembly, rate bounds."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from dense_gaussian import holevo_dr_m1, holevo_rr, partial_trace
from satqkd.cv import (
    _ATTACK_REASONS,
    MAX_V,
    MAX_XI,
    AttackSolution,
    ChannelObservation,
    CvScenario,
    InfeasibleAttackError,
    _attack,
    _polish_objective,
    build_cm,
    holevo_bound,
    holevo_dr_m2_bound,
    key_rate_point,
    max_bypass_transmissivity,
    mutual_info,
    rate_arrays,
    solve_attack,
    worst_case_rate,
)

OBS_NOMINAL = ChannelObservation(t_eq=1e-3, xi=0.1)

# Drawn wide but kept away from the degenerate eta_ae = 0 / eta_t = 0 corners,
# where solve_attack's answers are correct but trivial.
feasible_draws = st.tuples(
    st.floats(min_value=0.05, max_value=1.0),   # eta_ae
    st.floats(min_value=0.0, max_value=1.0),    # eta_s
    st.floats(min_value=0.05, max_value=1.0),   # eta_t
    st.floats(min_value=0.01, max_value=0.9),   # t_eq
    st.floats(min_value=0.0, max_value=0.5),    # xi
    st.floats(min_value=1.2, max_value=50.0),   # v
    st.floats(min_value=1.0, max_value=2.0),    # v_s
)


# ---------------------------------------------------------------------------
# solve_attack
# ---------------------------------------------------------------------------

def test_solve_attack_half_collection_lossless():
    sol = solve_attack(CvScenario(0.5, 0.0, 1.0, 300.0), ChannelObservation(0.001, 0.0))
    assert sol.feasible
    assert sol.eta_e == pytest.approx(0.002, rel=1e-12)
    assert sol.v_e == 1.0


def test_solve_attack_noise_budget_sets_cloner_variance():
    sol = solve_attack(CvScenario(0.5, 0.0, 1.0, 300.0), ChannelObservation(0.001, 0.1))
    assert sol.feasible
    assert sol.v_e == pytest.approx(1.0 + 0.0001 / 0.998, rel=1e-12)


def test_bypass_ceiling_formula():
    obs = ChannelObservation(0.001, 0.1)
    assert max_bypass_transmissivity(0.5, 0.5, obs) == pytest.approx(0.001 / 0.25)
    assert max_bypass_transmissivity(0.5, 1.0, obs) == math.inf


def test_solve_attack_bypass_above_ceiling_is_infeasible():
    # eta_s beyond t_channel / ((1-eta_ae)(1-eta_t)) over-delivers light.
    sol = solve_attack(CvScenario(0.5, 0.01, 0.5, 300.0), ChannelObservation(0.001, 0.1))
    assert not sol.feasible
    assert "bypass" in sol.reason


def test_solve_attack_channel_too_good_is_infeasible():
    # Observed transmissivity exceeding eta_ae * eta_t needs eta_e > 1.
    sol = solve_attack(CvScenario(0.1, 0.0, 1.0, 300.0), ChannelObservation(0.5, 0.0))
    assert not sol.feasible
    assert "exceeds 1" in sol.reason


def test_solve_attack_no_path_but_direct_needed():
    sol = solve_attack(CvScenario(0.0, 0.1, 0.5, 300.0), ChannelObservation(0.5, 0.0))
    assert not sol.feasible
    assert "no eavesdropper path" in sol.reason


def test_solve_attack_environment_noise_overshoot():
    # A hot bypass environment already injects more noise than observed.
    sol = solve_attack(CvScenario(0.3, 0.0, 0.5, 300.0, v_s=3.0),
                       ChannelObservation(0.05, 0.0))
    assert not sol.feasible
    assert "excess noise" in sol.reason


def test_solve_attack_transparent_cloner_cannot_add_noise():
    sol = solve_attack(CvScenario(0.3, 0.0, 1.0, 300.0), ChannelObservation(0.3, 0.1))
    assert not sol.feasible
    assert "transparent" in sol.reason


@settings(deadline=None, max_examples=120)
@given(feasible_draws)
# A transparent cloner (eta_e = 1) adds no noise, yet xi = 1e-9 was accepted.
@example((0.1, 0.0, 0.1, 0.01, 1e-9, 2.0, 1.0))
# The bypass environment adds 1e-10 of noise over xi = 0, ~2e-10 in xi units.
@example((1.0, 0.99999, 0.99999, 0.5, 0.0, 2.0, 2.0))
def test_feasible_attack_reproduces_the_observation(draw):
    eta_ae, eta_s, eta_t, t_eq, xi, v, v_s = draw
    scn = CvScenario(eta_ae, eta_s, eta_t, v, v_s=v_s)
    obs = ChannelObservation(t_eq, xi)
    sol = solve_attack(scn, obs)
    assume(sol.feasible)
    cm = build_cm(scn, sol)
    t_ch = cm[0, 2] ** 2 / (v * v - 1.0)
    xi_rec = (cm[2, 2] - 1.0 - t_ch * (v - 1.0)) / t_ch
    assert t_ch * obs.eta_d == pytest.approx(t_eq, abs=1e-10)
    assert xi_rec == pytest.approx(xi, abs=1e-10)


# ---------------------------------------------------------------------------
# build_cm
# ---------------------------------------------------------------------------

def test_transparent_cloner_gives_pure_loss_output():
    scn = CvScenario(0.3, 0.0, 1.0, 8.0)
    sol = solve_attack(scn, ChannelObservation(0.3, 0.0))
    assert sol.eta_e == pytest.approx(1.0, abs=1e-12)
    cm = build_cm(scn, sol)
    assert cm[2, 2] == pytest.approx(0.3 * 7.0 + 1.0, rel=1e-12)


def test_infeasible_attack_refused():
    scn = CvScenario(0.5, 0.01, 0.5, 300.0)
    sol = solve_attack(scn, ChannelObservation(0.001, 0.1))
    with pytest.raises(InfeasibleAttackError):
        build_cm(scn, sol)


def test_thermal_bypass_bumps_bob_variance_only():
    attack = AttackSolution(eta_e=0.4, v_e=1.5, feasible=True)
    cold = build_cm(CvScenario(0.3, 0.2, 0.6, 12.0, v_s=1.0), attack)
    hot = build_cm(CvScenario(0.3, 0.2, 0.6, 12.0, v_s=3.0), attack)
    bump = (1.0 - 0.2) * (1.0 - 0.6) * (3.0 - 1.0)
    diff = hot - cold
    assert diff[2, 2] == pytest.approx(bump, rel=1e-12)
    assert diff[3, 3] == pytest.approx(bump, rel=1e-12)
    diff[2, 2] = diff[3, 3] = 0.0
    np.testing.assert_allclose(diff, 0.0, atol=1e-14)


def test_cm_matches_brute_force_propagation_fixed_point():
    scn = CvScenario(0.4, 0.3, 0.8, 20.0, v_s=1.7)
    obs = ChannelObservation(0.2, 0.6)
    sol = solve_attack(scn, obs)
    assert sol.feasible
    cm = build_cm(scn, sol)
    want = oracles.brute_force_cm(scn.eta_ae, scn.eta_s, scn.eta_t, scn.v,
                                  scn.v_s, sol.eta_e, sol.v_e)
    np.testing.assert_allclose(cm, want, atol=1e-12)


@settings(deadline=None, max_examples=100)
@given(feasible_draws)
def test_cm_matches_brute_force_propagation(draw):
    eta_ae, eta_s, eta_t, t_eq, xi, v, v_s = draw
    scn = CvScenario(eta_ae, eta_s, eta_t, v, v_s=v_s)
    sol = solve_attack(scn, ChannelObservation(t_eq, xi))
    assume(sol.feasible)
    cm = build_cm(scn, sol)
    want = oracles.brute_force_cm(eta_ae, eta_s, eta_t, v, v_s, sol.eta_e, sol.v_e)
    np.testing.assert_allclose(cm, want, atol=1e-12)


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------

def test_mutual_info_lossless_noiseless():
    for v in (2.0, 20.0, 300.0):
        assert mutual_info(ChannelObservation(1.0, 0.0), v) == \
            pytest.approx(0.5 * math.log2(v), rel=1e-14)


def test_mutual_info_vanishes_with_the_modulation():
    assert mutual_info(OBS_NOMINAL, 1.0 + 1e-9) < 1e-11
    assert mutual_info(OBS_NOMINAL, 1.0 + 1e-12) < 1e-14


def test_mutual_info_nominal_point():
    # 50-digit re-evaluation of the same closed form gives
    # 0.18868411309695529...; the engine should sit within float error of it.
    assert mutual_info(OBS_NOMINAL, 300.0) == \
        pytest.approx(1.8868411309695524e-01, rel=1e-14)


@pytest.mark.parametrize("v", [math.nan, math.inf, 1.0 - 1e-12])
def test_mutual_info_rejects_a_source_variance_out_of_range(v):
    with pytest.raises(ValueError, match=re.escape("v must lie in [1, inf)")):
        mutual_info(OBS_NOMINAL, v)


def test_electronic_noise_reduces_mutual_info():
    noisy = ChannelObservation(0.5, 0.1, 1.0, 0.1)
    clean = ChannelObservation(0.5, 0.1)
    assert mutual_info(noisy, 300.0) < mutual_info(clean, 300.0)


# ---------------------------------------------------------------------------
# Holevo bounds, reverse reconciliation
# ---------------------------------------------------------------------------

def test_holevo_rr_transparent_cloner_learns_nothing():
    scn = CvScenario(0.3, 0.0, 1.0, 8.0)
    cm = build_cm(scn, solve_attack(scn, ChannelObservation(0.3, 0.0)))
    assert abs(holevo_rr(cm)) < 1e-9


@pytest.mark.parametrize("scn, obs, frozen", [
    (CvScenario(1.0, 0.0, 1.0, 5.0), ChannelObservation(0.4, 0.0),
     4.2829277834534920e-01),
    (CvScenario(1.0, 0.0, 1.0, 20.0), ChannelObservation(0.3, 0.25),
     1.3690057356010130e+00),
])
def test_holevo_rr_total_collection_matches_purification(scn, obs, frozen):
    # With everything collected, (E, E') purifies (A, B) and Eve's bound can
    # be computed from the A-B marginal alone.  That identity fails once any
    # light escapes to the environment, so it is pinned only at eta_ae = 1.
    cm = build_cm(scn, solve_attack(scn, obs))
    chi = holevo_rr(cm)
    assert chi == pytest.approx(oracles.purification_chi_rr(partial_trace(cm, [0, 1])),
                                abs=1e-10)
    assert chi == pytest.approx(frozen, rel=1e-9)


def test_holevo_rr_grows_toward_the_bypass_ceiling():
    ceiling = max_bypass_transmissivity(0.01, 0.99, OBS_NOMINAL)
    grid = np.linspace(0.0, 0.95 * ceiling, 20)
    chis = [holevo_bound(CvScenario(0.01, float(s), 0.99, 300.0), OBS_NOMINAL, "rr")
            for s in grid]
    assert all(b >= a - 1e-12 for a, b in zip(chis, chis[1:]))
    # The overall maximum hugs the ceiling (within its top decile); the exact
    # peak sits a hair inside the boundary, at depth ~1e-7 of the chi scale.
    full = np.linspace(0.0, ceiling * (1.0 - 1e-9), 50)
    chis_full = [holevo_bound(CvScenario(0.01, float(s), 0.99, 300.0), OBS_NOMINAL, "rr")
                 for s in full]
    assert int(np.argmax(chis_full)) >= 45
    assert chis_full[-1] > chis_full[0]


# ---------------------------------------------------------------------------
# Holevo bounds, direct reconciliation
# ---------------------------------------------------------------------------

def test_holevo_dr_blind_eavesdropper_learns_nothing():
    # eta_ae = 0 with the whole beam re-routed through the bypass.
    chi = holevo_bound(CvScenario(0.0, 0.5, 0.5, 300.0),
                       ChannelObservation(0.25, 0.0), "dr-m1")
    assert abs(chi) < 1e-9


def test_holevo_dr_vanishes_with_the_modulation():
    obs = ChannelObservation(0.7, 0.5)
    chi4 = holevo_bound(CvScenario(0.8, 0.3, 0.9, 1.0 + 1e-4), obs, "dr-m1")
    chi6 = holevo_bound(CvScenario(0.8, 0.3, 0.9, 1.0 + 1e-6), obs, "dr-m1")
    assert chi6 < chi4 < 2e-4
    assert chi6 < 2e-6


def test_holevo_dr_matches_heterodyne_decomposition():
    scn = CvScenario(0.8, 0.3, 0.9, 1e4)
    cm = build_cm(scn, solve_attack(scn, ChannelObservation(0.7, 0.5)))
    chi = holevo_dr_m1(cm)
    assert chi == pytest.approx(oracles.heterodyne_chi_dr(cm, scn.v), abs=1e-10)
    assert chi == pytest.approx(6.0270303061306070e+00, rel=1e-9)


def test_dr_m2_bound_trivial_zeros():
    assert holevo_dr_m2_bound(0.0, 300.0) == 0.0
    assert holevo_dr_m2_bound(0.3, 1.0) == 0.0


def test_dr_m2_bound_rejects_bad_collection():
    with pytest.raises(ValueError):
        holevo_dr_m2_bound(1.5, 300.0)


def test_dr_m2_bound_rejects_a_sub_vacuum_source():
    with pytest.raises(ValueError):
        holevo_dr_m2_bound(0.3, 0.5)


@pytest.mark.parametrize("v", [math.inf, math.nan])
def test_dr_m2_bound_rejects_a_source_above_the_mode_bound(v):
    with pytest.raises(ValueError, match=re.escape(f"v must lie in [1, {MAX_V['dr-m2']:g}]")):
        holevo_dr_m2_bound(0.5, v)


def test_dr_m2_bound_fixed_point():
    # g(w) - g(sqrt(w)) at w = 0.3 * 39 + 1, checked to 50 digits offline.
    assert holevo_dr_m2_bound(0.3, 40.0) == \
        pytest.approx(1.8512825506890991e+00, rel=1e-14)


def test_dr_m2_bound_monotone_in_both_arguments():
    etas = np.linspace(0.0, 1.0, 30)
    chis = [holevo_dr_m2_bound(float(a), 50.0) for a in etas]
    assert all(b >= a for a, b in zip(chis, chis[1:]))
    vs = np.linspace(1.0, 1e4, 30)
    chis_v = [holevo_dr_m2_bound(0.2, float(v)) for v in vs]
    assert all(b >= a for a, b in zip(chis_v, chis_v[1:]))


def test_dr_m2_bound_ignores_the_bypass_split():
    obs = ChannelObservation(1e-3, 1.0)
    a = holevo_bound(CvScenario(0.01, 0.0, 1.0, 1e7), obs, "dr-m2")
    b = holevo_bound(CvScenario(0.01, 0.7, 0.3, 1e7), obs, "dr-m2")
    assert a == b


def test_dr_m2_bound_deep_restriction_saturates():
    # Hardware-grade restriction with an enormous source: the bound stays
    # finite while the mutual information keeps growing.
    assert holevo_dr_m2_bound(1e-18, 1e20) == \
        pytest.approx(3.3314699593058501e+00, rel=1e-12)


# ---------------------------------------------------------------------------
# key_rate_point against the 50-digit reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scn, obs, frozen", [
    (CvScenario(0.05, 0.0, 1.0, 300.0), OBS_NOMINAL, 1.2582345441130930e-02),
    (CvScenario(0.01, 1.0, 0.999, 300.0), OBS_NOMINAL, 4.8106859320670410e-02),
    (CvScenario(0.3, 0.5, 0.999, 300.0), OBS_NOMINAL, 1.5817118639516460e-03),
    (CvScenario(0.5, 1.0, 0.999, 300.0), ChannelObservation(1e-3, 1.0),
     -4.7614181544703980e-03),
])
def test_rr_rate_matches_high_precision_reference(scn, obs, frozen):
    rate = key_rate_point(scn, obs, "rr")
    assert rate == pytest.approx(frozen, abs=1e-12)
    assert rate == pytest.approx(
        oracles.mp_rate_rr(scn.eta_ae, scn.eta_s, scn.eta_t, obs.t_eq, obs.xi, scn.v),
        abs=1e-12)


def test_dr_m1_rate_at_the_cloner_limit_matches_high_precision_reference():
    # eta_s puts the cloner at 1 - eta_e = 1e-6, so v_e ~ 1e7 and Eve's
    # covariance entries reach ~1e14 in their squares: a dense
    # eigendecomposition loses the small symplectic eigenvalue here and
    # misses the rate by ~1e-3 bits.
    t_eq, xi, v, eta_ae, eta_t = 0.5, 1.0, 1e7, 0.7, 0.05
    eta_s = (math.sqrt(t_eq) - math.sqrt(eta_ae * eta_t * (1.0 - 1e-6))) ** 2 \
        / ((1.0 - eta_ae) * (1.0 - eta_t))
    scn = CvScenario(eta_ae, eta_s, eta_t, v)
    obs = ChannelObservation(t_eq, xi)
    assert 1.0 - solve_attack(scn, obs).eta_e == pytest.approx(1e-6, rel=1e-6)
    assert key_rate_point(scn, obs, "dr-m1") == pytest.approx(
        oracles.mp_rate_dr_m1(eta_ae, eta_s, eta_t, t_eq, xi, v), abs=1e-9)


def test_key_rate_point_raises_on_infeasible_hypothesis():
    with pytest.raises(InfeasibleAttackError):
        key_rate_point(CvScenario(0.5, 0.01, 0.5, 300.0), OBS_NOMINAL, "rr")


def test_key_rate_point_scales_with_reconciliation_efficiency():
    full = key_rate_point(CvScenario(0.05, 0.0, 1.0, 300.0), OBS_NOMINAL, "rr")
    partial = key_rate_point(CvScenario(0.05, 0.0, 1.0, 300.0, beta=0.95),
                             OBS_NOMINAL, "rr")
    i_ab = mutual_info(OBS_NOMINAL, 300.0)
    assert partial == pytest.approx(full - 0.05 * i_ab, rel=1e-12)


# ---------------------------------------------------------------------------
# the float and array call paths of the attack solver and the kernel
# ---------------------------------------------------------------------------

# One lane per reason, plus the eta_t = 0 and eta_ae = 0 corners where the
# bypass alone carries the light:
# (eta_ae, eta_s, eta_t, t_eq, xi, v_s, reason code).
ATTACK_LANES = [
    (0.5, 0.0, 1.0, 1e-3, 0.1, 1.0, 0),
    (0.5, 0.01, 0.5, 1e-3, 0.1, 1.0, 1),
    (0.0, 0.1, 0.5, 0.5, 0.0, 1.0, 2),
    (0.1, 0.0, 1.0, 0.5, 0.0, 1.0, 3),
    (0.3, 0.0, 1.0, 0.3, 0.1, 1.0, 4),
    (0.3, 0.0, 0.5, 0.05, 0.0, 3.0, 5),
    (0.5, 0.5, 0.0, 0.25, 0.0, 1.0, 0),
    (0.0, 0.25, 0.0, 0.25, 0.0, 1.0, 0),
    (0.5, 0.5, 0.0, 0.25, 0.1, 1.0, 4),
]

_unit_or_corner = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
attack_lanes = st.lists(st.tuples(
    _unit_or_corner,                            # eta_ae
    _unit_or_corner,                            # eta_s
    _unit_or_corner,                            # eta_t
    st.floats(min_value=1e-3, max_value=1.0),   # t_eq
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.2)),  # xi
    st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=3.0)),  # v_s
), min_size=1, max_size=12)


def test_attack_lanes_reach_every_reason():
    codes = [code for *_, code in ATTACK_LANES]
    assert set(codes) == set(range(len(_ATTACK_REASONS)))
    for *lane, code in ATTACK_LANES:
        scn = CvScenario(lane[0], lane[1], lane[2], 300.0, v_s=lane[5])
        assert solve_attack(scn, ChannelObservation(lane[3], lane[4])).reason == \
            _ATTACK_REASONS[code]


@settings(deadline=None, max_examples=200)
@given(attack_lanes)
@example([lane[:-1] for lane in ATTACK_LANES])
def test_array_attack_codes_give_solve_attacks_reasons(lanes):
    eta_ae, eta_s, eta_t, t_eq, xi, v_s = np.array(lanes).T
    # Guarded domains only; a subnormal eta_ae * eta_t sends eta_e to inf.
    with np.errstate(divide="raise", invalid="raise", over="ignore"):
        eta_e, v_e, code = _attack(np, eta_ae, eta_s, eta_t, t_eq, t_eq * xi, v_s)
    for i, lane in enumerate(lanes):
        sol = solve_attack(CvScenario(*lane[:3], 300.0, v_s=lane[5]),
                           ChannelObservation(*lane[3:5]))
        assert (_ATTACK_REASONS[code[i]], code[i] == 0) == (sol.reason, sol.feasible)
        if sol.feasible:
            assert (eta_e[i], v_e[i]) == (sol.eta_e, sol.v_e)


# Every sweepable field of each mode, over the ranges the scenarios use.
SLICE_FIELDS = {
    "eta_ae": st.floats(min_value=0.0, max_value=1.0),
    "eta_s": st.floats(min_value=0.0, max_value=1.0),
    "eta_t": st.floats(min_value=0.0, max_value=1.0),
    "t_eq": st.floats(min_value=1e-3, max_value=0.9),
    "xi": st.floats(min_value=0.0, max_value=1.2),
    "eta_d": st.floats(min_value=0.9, max_value=1.0),
    "nu_el": st.floats(min_value=0.0, max_value=0.2),
    "beta": st.floats(min_value=0.5, max_value=1.0),
    "v_s": st.floats(min_value=1.0, max_value=2.0),
}
_DR_M2_FIELDS = ("eta_ae", "t_eq", "xi", "eta_d", "nu_el", "v", "beta")
_KERNEL_FIELDS = _DR_M2_FIELDS + ("v_s", "eta_s", "eta_t")

# Source variances as the scenarios use them: 300 and 3.5 for reverse
# reconciliation, 1e7 for the direct bounds.  Reverse reconciliation at
# v ~ 1e7 is conditioned to ~1e-9 bits only, in any arithmetic order.
slice_modes = st.one_of(
    st.tuples(st.just("rr"), st.sampled_from([3.5, 300.0]), st.sampled_from(_KERNEL_FIELDS)),
    st.tuples(st.just("dr-m1"), st.sampled_from([3.5, 300.0, 1e7]),
              st.sampled_from(_KERNEL_FIELDS)),
    st.tuples(st.just("dr-m2"), st.sampled_from([3.5, 300.0, 1e7]),
              st.sampled_from(_DR_M2_FIELDS)),
)


@st.composite
def cv_slices(draw):
    """(mode, fixed fields, swept field, its values) of one scenario slice."""
    mode, v, swept = draw(slice_modes)
    fields = draw(st.fixed_dictionaries(SLICE_FIELDS))
    fields["v"] = v
    values = st.floats(min_value=1.5, max_value=v) if swept == "v" else SLICE_FIELDS[swept]
    return mode, fields, swept, draw(st.lists(values, min_size=1, max_size=8))


@settings(deadline=None, max_examples=300)
@given(cv_slices())
def test_slice_rows_equal_the_single_hypothesis_functions(draw):
    mode, fields, swept, values = draw
    keys = _DR_M2_FIELDS if mode == "dr-m2" else _KERNEL_FIELDS
    rate, chi, feasible = rate_arrays(mode, **{**{k: fields[k] for k in keys},
                                               swept: np.array(values)})
    assert rate.shape == chi.shape == feasible.shape == (len(values),)
    for i, x in enumerate(values):
        p = {**fields, swept: x}
        scn = CvScenario(p["eta_ae"], p["eta_s"], p["eta_t"], p["v"], p["beta"], p["v_s"])
        obs = ChannelObservation(p["t_eq"], p["xi"], p["eta_d"], p["nu_el"])
        want = mode == "dr-m2" or solve_attack(scn, obs).feasible
        assert feasible[i] == want
        if not want:
            continue
        assert rate[i] == pytest.approx(key_rate_point(scn, obs, mode), rel=1e-12, abs=1e-14)
        assert chi[i] == pytest.approx(holevo_bound(scn, obs, mode), rel=1e-12, abs=1e-14)
        if mode != "dr-m2":  # the polish objective is the float lane
            objective = _polish_objective(mode, (scn.eta_ae, scn.v, scn.beta, scn.v_s),
                                          obs)
            assert objective(np.array([scn.eta_s, scn.eta_t])) == \
                key_rate_point(scn, obs, mode)


@settings(deadline=None, max_examples=150)
@given(feasible_draws)
def test_rr_kernel_matches_the_dense_holevo_bound(draw):
    # build_cm is checked against brute-force propagation above; the dense
    # eigendecomposition it feeds is accurate while v_e stays moderate.
    eta_ae, eta_s, eta_t, t_eq, xi, _, v_s = draw
    v = 300.0
    scn = CvScenario(eta_ae, eta_s, eta_t, v, v_s=v_s)
    obs = ChannelObservation(t_eq, xi)
    sol = solve_attack(scn, obs)
    assume(sol.feasible and sol.v_e < 1e3)
    _, chi, _ = rate_arrays("rr", eta_ae=eta_ae, t_eq=t_eq, xi=xi, v=v, v_s=v_s,
                            eta_s=np.array([eta_s]), eta_t=np.array([eta_t]))
    assert float(chi[0]) == pytest.approx(holevo_rr(build_cm(scn, sol)), abs=1e-9)


# ---------------------------------------------------------------------------
# worst_case_rate
# ---------------------------------------------------------------------------

def test_worst_case_never_beats_no_bypass():
    for eta_ae, mode in [(0.01, "rr"), (0.3, "rr"), (0.3, "dr-m1")]:
        res = worst_case_rate(eta_ae, OBS_NOMINAL, mode, v=300.0, grid_points=41)
        assert res.rate_nobypass is not None
        assert res.rate <= res.rate_nobypass + 1e-9


def test_worst_case_is_self_consistent():
    res = worst_case_rate(0.01, OBS_NOMINAL, "rr", v=300.0)
    again = key_rate_point(CvScenario(0.01, res.eta_s, res.eta_t, 300.0),
                           OBS_NOMINAL, "rr")
    assert again == pytest.approx(res.rate, abs=1e-12)
    assert res.rate == pytest.approx(4.8106550429286380e-02, rel=1e-9)
    assert res.rate_nobypass == pytest.approx(5.1618200348502650e-02, rel=1e-9)


def test_worst_case_is_no_higher_than_any_point_on_the_bypass_ceiling():
    # At eta_ae = 1e-4 the minimiser sits where the ceiling
    # eta_s = t_eq / ((1-eta_ae)(1-eta_t)) reaches eta_s = 1.  Descents
    # started at grid nodes beside that curved edge stall ~2e-7 bits above it.
    eta_ae, t_eq, xi, v = 1e-4, 1e-3, 0.1, 300.0
    res = worst_case_rate(eta_ae, ChannelObservation(t_eq, xi), "rr", v=v)
    corner = t_eq / (1.0 - eta_ae)
    along = []
    for u in corner * 10.0 ** np.linspace(-0.3, 0.3, 25):
        eta_s = min(1.0, t_eq / ((1.0 - eta_ae) * u))
        try:
            along.append(oracles.mp_rate_rr(eta_ae, eta_s, 1.0 - u, t_eq, xi, v))
        except ValueError:  # no attack at this point of the ceiling
            pass
    assert len(along) > 10
    assert res.rate <= min(along) + 1e-9


def test_worst_case_rate_non_increasing_in_collection():
    rates = [worst_case_rate(a, OBS_NOMINAL, "rr", v=300.0, grid_points=61).rate
             for a in (0.01, 0.05, 0.2, 0.5, 1.0)]
    assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))


def test_worst_case_finds_the_bypass_penalty():
    # At one-percent collection the bypass hypothesis costs a visible slice
    # of the no-bypass rate.
    res = worst_case_rate(0.01, OBS_NOMINAL, "rr", v=300.0)
    gap = (res.rate_nobypass - res.rate) / res.rate_nobypass
    assert 0.01 < gap < 0.15
    assert res.eta_s > 0.9  # worst hypothesis routes everything it can around


def test_worst_case_dr_m2_has_no_bypass_dependence():
    res = worst_case_rate(1e-3, OBS_NOMINAL, "dr-m2")
    assert res.rate == res.rate_nobypass
    assert (res.eta_s, res.eta_t) == (0.0, 1.0)
    assert res.rate == pytest.approx(
        key_rate_point(CvScenario(1e-3, 0.0, 1.0, 1e7), OBS_NOMINAL, "dr-m2"),
        abs=1e-15)


def test_worst_case_raises_when_nothing_reproduces_the_channel():
    with pytest.raises(InfeasibleAttackError):
        worst_case_rate(0.001, ChannelObservation(1.0, 0.0), "rr",
                        v=300.0, grid_points=11, refine=False)


def test_worst_case_rejects_degenerate_grid():
    with pytest.raises(ValueError):
        worst_case_rate(0.01, OBS_NOMINAL, "rr", grid_points=1)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(eta_ae=-0.1, eta_s=0.0, eta_t=1.0, v=300.0),
    dict(eta_ae=0.5, eta_s=1.5, eta_t=1.0, v=300.0),
    dict(eta_ae=0.5, eta_s=0.0, eta_t=1.0, v=1.0),
    dict(eta_ae=0.5, eta_s=0.0, eta_t=1.0, v=300.0, beta=0.0),
    dict(eta_ae=0.5, eta_s=0.0, eta_t=1.0, v=300.0, v_s=0.5),
    dict(eta_ae=0.5, eta_s=0.0, eta_t=1.0, v=300.0, v_s=math.nan),
    dict(eta_ae=0.5, eta_s=0.0, eta_t=1.0, v=math.inf),
])
def test_scenario_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        CvScenario(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(t_eq=0.0, xi=0.1),
    dict(t_eq=1.2, xi=0.1),
    dict(t_eq=0.5, xi=-0.1),
    dict(t_eq=0.5, xi=0.1, eta_d=0.4),  # more light out than the detector admits
    dict(t_eq=0.5, xi=0.1, nu_el=-1.0),
    dict(t_eq=0.5, xi=math.nan),
    dict(t_eq=0.5, xi=0.1, nu_el=math.nan),  # once a worst case of rate=inf
])
def test_observation_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        ChannelObservation(**kwargs)


@pytest.mark.parametrize("mode", ["rr", "dr-m1", "dr-m2"])
def test_worst_case_rejects_a_source_variance_above_the_mode_bound(mode):
    at_bound = CvScenario(0.5, 0.0, 1.0, MAX_V[mode])
    assert math.isfinite(key_rate_point(at_bound, OBS_NOMINAL, mode))
    with pytest.raises(ValueError, match="v must be <="):
        worst_case_rate(0.5, OBS_NOMINAL, mode, v=MAX_V[mode] * 2.0, grid_points=3)


# Per mode, a source variance above MAX_V (the inputs CvScenario once checked
# when given a mode) and an excess noise above MAX_XI.
ABOVE_THE_MODE_BOUNDS = [("rr", 2e7, 100.0), ("dr-m1", 1e78, 1e66),
                         ("dr-m2", 1.7e308, 1e308)]


def _above_one_bound(mode, v, xi, bound):
    """(v, xi) with only ``bound`` above the mode's cap, and its message."""
    cap = (MAX_V if bound == "v" else MAX_XI)[mode]
    message = re.escape(f"{bound} must be <= {cap:g} in mode {mode}")
    return (v, 0.1, message) if bound == "v" else (300.0, xi, message)


@pytest.mark.parametrize("entry", [key_rate_point, holevo_bound])
@pytest.mark.parametrize("bound", ["v", "xi"])
@pytest.mark.parametrize("mode, v, xi", ABOVE_THE_MODE_BOUNDS)
def test_single_hypotheses_reject_values_above_the_mode_bounds(mode, v, xi, bound, entry):
    assert v > MAX_V[mode] and xi > MAX_XI[mode]
    v, xi, message = _above_one_bound(mode, v, xi, bound)
    with pytest.raises(ValueError, match=message):
        entry(CvScenario(0.5, 0.0, 1.0, v), ChannelObservation(1e-3, xi), mode)


@pytest.mark.parametrize("bound", ["v", "xi"])
@pytest.mark.parametrize("mode, v, xi", ABOVE_THE_MODE_BOUNDS)
def test_rate_arrays_rejects_one_lane_above_the_mode_bounds(mode, v, xi, bound):
    v, xi, message = _above_one_bound(mode, v, xi, bound)
    fields = {"v": v, "xi": xi}
    good = {"v": 300.0, "xi": 0.1}[bound]
    fields[bound] = np.array([good, fields[bound], good])
    with pytest.raises(ValueError, match=message):
        rate_arrays(mode, eta_ae=0.5, t_eq=1e-3, **fields)


@pytest.mark.parametrize("mode", ["cv-rr", "RR", "dr-m3"])
def test_every_entry_rejects_an_unknown_mode(mode):
    scn = CvScenario(0.5, 0.0, 1.0, 300.0)
    for call in (lambda: key_rate_point(scn, OBS_NOMINAL, mode),
                 lambda: holevo_bound(scn, OBS_NOMINAL, mode),
                 lambda: worst_case_rate(0.5, OBS_NOMINAL, mode, grid_points=3),
                 lambda: rate_arrays(mode, eta_ae=0.5, t_eq=1e-3, xi=0.1)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("mode", ["rr", "dr-m1", "dr-m2"])
def test_worst_case_rejects_an_excess_noise_above_the_mode_bound(mode):
    at_bound = worst_case_rate(0.5, ChannelObservation(1e-3, MAX_XI[mode]), mode,
                               grid_points=3, refine=False)
    assert math.isfinite(at_bound.rate)
    with pytest.raises(ValueError, match="xi must be <="):
        worst_case_rate(0.5, ChannelObservation(1e-3, MAX_XI[mode] * 10.0), mode,
                        grid_points=3)


def _rates_match_the_oracle(mode, oracle, v, xi=None):
    """20 seeded feasible hypotheses at source variance ``v``, and at ``xi``
    or an excess noise drawn in [1e-3, 1], within 1e-8 bits of the
    wide-precision rate, on floats and as one array."""
    rng = np.random.default_rng(7)
    lanes = []
    while len(lanes) < 20:
        eta_ae, t_eq, drawn = 10.0 ** rng.uniform([-3.0, -4.0, -3.0], [0.0, -0.05, 0.0])
        lane_xi = drawn if xi is None else xi
        eta_t = rng.uniform()
        obs = ChannelObservation(t_eq, lane_xi)
        eta_s = rng.uniform(0.0, min(1.0, max_bypass_transmissivity(eta_ae, eta_t, obs)))
        if solve_attack(CvScenario(eta_ae, eta_s, eta_t, v), obs).feasible:
            lanes.append((eta_ae, eta_s, eta_t, t_eq, lane_xi))
    cols = np.array(lanes).T
    rates, _, feasible = rate_arrays(mode, eta_ae=cols[0], eta_s=cols[1], eta_t=cols[2],
                                     t_eq=cols[3], xi=cols[4], v=v)
    assert feasible.all()
    for (eta_ae, eta_s, eta_t, t_eq, lane_xi), lane in zip(lanes, rates.tolist()):
        digits = 60 + 2 * round(math.log10(v)) + 2 * max(round(math.log10(lane_xi)), 0)
        want = oracle(eta_ae, eta_s, eta_t, t_eq, lane_xi, v, dps=digits)
        got = key_rate_point(CvScenario(eta_ae, eta_s, eta_t, v),
                             ChannelObservation(t_eq, lane_xi), mode)
        assert abs(got - want) <= 1e-8 and abs(lane - want) <= 1e-8


@pytest.mark.parametrize("mode, oracle", [("rr", oracles.mp_rate_rr),
                                          ("dr-m1", oracles.mp_rate_dr_m1)])
def test_rates_at_the_variance_bound_match_the_oracle(mode, oracle):
    # MAX_V is the last decade at which the kernel stays within 1e-8 bits of
    # the wide-precision rate.
    _rates_match_the_oracle(mode, oracle, MAX_V[mode])


@pytest.mark.parametrize("mode, oracle", [("rr", oracles.mp_rate_rr),
                                          ("dr-m1", oracles.mp_rate_dr_m1)])
def test_rates_at_both_bounds_match_the_oracle(mode, oracle):
    # MAX_XI is the last decade of xi at which the same holds, with v up to
    # MAX_V; RR misses by 1.3e-7 bits at xi = 100, and DR-M1 overflows from
    # 1e66 where the bypass carries the light.
    _rates_match_the_oracle(mode, oracle, MAX_V[mode], MAX_XI[mode])

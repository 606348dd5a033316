"""BB84 restricted-eavesdropping bounds: observables, photon-number credit, rates."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from satqkd import dv
from satqkd.dv import (
    DvObservables,
    DvParams,
    binary_entropy,
    channel_observables,
    optimize_mu,
    optimize_mu_arrays,
    photon_number_bounds,
    rate_arrays,
    rate_at,
    restricted_rate,
)

# 30 dB channel, the reference operating point used throughout.
BASE = dict(eta_ch=1e-3, eta_d=0.9, p_dc=1e-7, e_d=0.01, f=1.16, q=1.0)

SPS_RATE_30DB = 7.4170272351627750e-04


def wcp(eta_ae, mu=0.5, **overrides):
    return DvParams(source="wcp", mu=mu, eta_ae=eta_ae, **{**BASE, **overrides})


def sps(eta_ae, **overrides):
    return DvParams(source="sps", eta_ae=eta_ae, **{**BASE, **overrides})


# ---------------------------------------------------------------------------
# binary entropy
# ---------------------------------------------------------------------------

def test_binary_entropy_known_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # 50-digit evaluation of -x lg x - (1-x) lg(1-x) at x = 0.11.
    assert binary_entropy(0.11) == pytest.approx(4.9991595816452800e-01, rel=1e-15)


def test_binary_entropy_symmetry():
    for x in (0.05, 0.2, 0.43):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), rel=1e-14)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


# ---------------------------------------------------------------------------
# channel observables
# ---------------------------------------------------------------------------

def test_bright_clean_channel_saturates():
    p = wcp(0.5, mu=1e4, eta_ch=1.0, eta_d=1.0, p_dc=0.0)
    obs = channel_observables(p)
    assert obs.gain == pytest.approx(1.0, abs=1e-12)
    assert obs.qber == pytest.approx(p.e_d, rel=1e-9)


def test_dark_channel_is_pure_noise():
    p = wcp(0.5, eta_ch=1e-30)
    obs = channel_observables(p)
    assert obs.gain == pytest.approx(1.0 - (1.0 - p.p_dc) ** 2, rel=1e-9)
    assert obs.qber == pytest.approx(0.5, abs=1e-12)


def test_gain_never_below_dark_floor():
    for mu in (0.1, 0.5, 2.0):
        obs = channel_observables(wcp(0.5, mu=mu))
        assert obs.gain >= 1.0 - (1.0 - BASE["p_dc"]) ** 2


def test_observables_match_photon_number_summation():
    # The closed forms fold a Poisson source into exponentials; the oracle
    # keeps the photon-number expansion explicit and sums it.
    for mu, eta_ae in ((0.5, 0.01), (2.0, 0.3)):
        p = wcp(eta_ae, mu=mu)
        obs = channel_observables(p)
        q_ref, e_ref = oracles.wcp_observables_series(mu, p.eta, p.p_dc, p.e_d)
        assert obs.gain == pytest.approx(q_ref, rel=1e-10)
        assert obs.qber == pytest.approx(e_ref, rel=1e-10)


def test_sps_observables_closed_form():
    p = sps(0.3)
    obs = channel_observables(p)
    eta = p.eta
    gain = 1.0 - (1.0 - p.p_dc) ** 2 * (1.0 - eta)
    assert obs.gain == pytest.approx(gain, rel=1e-14)
    assert obs.qber == pytest.approx((p.e_d * eta + 0.5 * (gain - eta)) / gain, rel=1e-12)


# ---------------------------------------------------------------------------
# photon-number credit
# ---------------------------------------------------------------------------

def test_sps_credit_is_the_collection_probability():
    assert photon_number_bounds(sps(0.3)) == (0.7, 0.3)


def test_wcp_blind_eavesdropper_limit():
    p0, p11 = photon_number_bounds(wcp(1e-15, mu=1.0))
    assert p0 == pytest.approx(1.0, abs=1e-14)
    assert p11 == pytest.approx(1e-15 * math.exp(-1.0), rel=1e-12)


def test_wcp_credit_matches_term_by_term_summation():
    for mu, eta_ae in ((0.5, 0.01), (2.0, 0.3)):
        p0, p11 = photon_number_bounds(wcp(eta_ae, mu=mu))
        p0_ref, p11_ref = oracles.eve_number_series(mu, eta_ae)
        assert p0 == pytest.approx(p0_ref, rel=1e-14)
        assert p11 == pytest.approx(p11_ref, rel=1e-14)


def test_unrestricted_wcp_credit_is_gllp():
    # At eta_ae = 1 the zero- and single-photon credits must collapse to the
    # no-decoy expressions exp(-mu) and mu exp(-mu) exactly.
    for mu in (0.3, 0.7, 1.5):
        p0, p11 = photon_number_bounds(wcp(1.0, mu=mu))
        assert p0 == math.exp(-mu)
        assert p11 == mu * math.exp(-mu)


# ---------------------------------------------------------------------------
# restricted rate
# ---------------------------------------------------------------------------

def test_sps_rate_independent_of_collection():
    rates = [rate_at(sps(a)) for a in (1e-4, 0.01, 0.3, 1.0)]
    assert all(r == rates[0] for r in rates)
    assert rates[0] == pytest.approx(SPS_RATE_30DB, rel=1e-10)


def test_sps_rate_is_the_eavesdropper_independent_bound_here():
    obs = channel_observables(sps(0.5))
    fallback = 1.0 * obs.gain * (1.0 - (1.0 + BASE["f"]) * binary_entropy(obs.qber))
    assert rate_at(sps(0.5)) == pytest.approx(fallback, rel=1e-12)


def test_zero_photon_credit_positive_below_channel_transmissivity():
    p = wcp(1e-4)
    obs = channel_observables(p)
    p0, _ = photon_number_bounds(p)
    s0 = obs.gain - (1.0 - p0)
    assert s0 > 0.0
    # and it is what lifts the rate above the unrestricted case
    assert rate_at(p) > rate_at(wcp(1.0))


def test_wcp_rate_non_increasing_in_collection_at_fixed_observation():
    obs = channel_observables(wcp(0.5))
    rates = [restricted_rate(wcp(a), obs) for a in np.linspace(1e-6, 1.0, 40)]
    assert all(b <= a + 1e-15 for a, b in zip(rates, rates[1:]))


def test_terrible_channel_rate_is_negative_not_an_error():
    assert restricted_rate(wcp(0.5), DvObservables(gain=1.0, qber=0.5)) < 0.0


def test_observables_require_positive_gain():
    with pytest.raises(ValueError):
        DvObservables(gain=0.0, qber=0.1)


# ---------------------------------------------------------------------------
# intensity optimisation
# ---------------------------------------------------------------------------

def test_unrestricted_wcp_has_no_key():
    out = optimize_mu(wcp(1.0))
    assert out.rate == 0.0


def test_optimized_rate_positive_below_the_threshold():
    out = optimize_mu(wcp(3e-4))
    assert out.rate == pytest.approx(2.7863201441e-01, rel=1e-6)
    # At this restriction level the search rails at the intensity cap:
    # brighter is strictly better when Eve collects almost nothing.
    assert out.mu == pytest.approx(1e3)


def test_optimized_intensity_grows_as_restriction_deepens():
    mu_8 = optimize_mu(wcp(8e-4)).mu
    mu_3 = optimize_mu(wcp(3e-4)).mu
    assert mu_3 > mu_8 > 1.0


def test_threshold_bracket():
    assert optimize_mu(wcp(8.0e-4)).rate > 0.0
    assert optimize_mu(wcp(8.2e-4)).rate == 0.0


def test_optimized_wcp_beats_sps_only_below_threshold():
    assert optimize_mu(wcp(3e-4)).rate > SPS_RATE_30DB
    assert optimize_mu(wcp(8e-4)).rate > SPS_RATE_30DB
    assert optimize_mu(wcp(2e-3)).rate < SPS_RATE_30DB


def test_optimize_rejects_sps():
    with pytest.raises(ValueError):
        optimize_mu(sps(0.5))


# ---------------------------------------------------------------------------
# array kernel against the float wrappers
# ---------------------------------------------------------------------------

# One lane per branch of the kernel, as (source, DvParams fields, branch).
BRIGHT = {**BASE, "eta_ch": 1.0, "eta_d": 1.0}
BRANCH_LANES = [
    ("wcp", dict(BASE, eta_ae=0.3, mu=0.5), "s0 = 0 and s11 = 0, so e11 = 1/2"),
    ("wcp", dict(BASE, eta_ae=1e-4, mu=0.5), "s0 > 0"),
    ("sps", dict(BRIGHT, p_dc=1e-6, eta_ae=0.7), "e11 below 1/2; restricted arm"),
    ("sps", dict(BASE, eta_ae=1.0 - 0.99 * 9.0e-4), "e11 capped at 1/2 from above"),
    # The raw QBER never exceeds 1/2 for valid inputs: the cap is met at e_d = 1/2.
    ("sps", dict(BASE, e_d=0.5, eta_ae=0.5), "QBER at its cap of 1/2"),
    ("sps", dict(BRIGHT, p_dc=0.0, e_d=0.0, eta_ae=0.7), "h(0)"),
    ("sps", dict(BRIGHT, eta_ch=0.1, p_dc=0.0, e_d=0.0, eta_ae=0.5),
     "QBER 0 without dark counts, where gain - p_signal rounded to -1.4e-17"),
    ("sps", dict(BASE, eta_ae=1e-6), "restricted arm"),
    ("sps", dict(BASE, eta_ae=0.5), "all-single arm"),
    # At eta_ae = 1 the three bounds coincide; this one wins by rounding.
    ("sps", dict(eta_ch=0.00824527590299888, eta_d=0.20175196890522462,
                 p_dc=0.00013868837508583415, e_d=0.056836009960701706,
                 f=1.391228190495662, q=0.5409031734902955, eta_ae=1.0),
     "no-S0 arm"),
]


def _branches(source, fields):
    """The kernel branches one lane takes, recomputed from the float wrappers."""
    p = DvParams(source=source, **fields)
    obs = channel_observables(p)
    p0, p11 = photon_number_bounds(p)
    s0 = max(obs.gain - (1.0 - p0), 0.0)
    s11 = max(obs.gain - (1.0 - p11), 0.0)
    out = {"s0 = 0" if s0 == 0.0 else "s0 > 0", "s11 = 0" if s11 == 0.0 else "s11 > 0"}
    e11 = 0.5
    if s11 > 0.0:
        raw = obs.qber * obs.gain / s11
        out.add("e11 capped" if raw > 0.5 else "e11 below 1/2")
        e11 = min(raw, 0.5)
    if obs.qber == 0.5:
        out.add("QBER at 1/2")
    if obs.qber == 0.0:
        out.add("h(0)")
    if source == "sps":
        h_e, h_11 = binary_entropy(obs.qber), binary_entropy(e11)
        arms = (p.q * (-p.f * obs.gain * h_e + s11 * (1.0 - h_11) + s0),
                p.q * obs.gain * (-p.f * h_e + 1.0 - h_11),
                p.q * obs.gain * (1.0 - (1.0 + p.f) * h_e))
        out.add(("restricted arm", "no-S0 arm", "all-single arm")[arms.index(max(arms))])
    return out


def test_branch_lanes_reach_every_branch():
    reached = set().union(*(_branches(source, fields) for source, fields, _ in BRANCH_LANES))
    assert reached >= {"s0 = 0", "s0 > 0", "s11 = 0", "s11 > 0", "e11 capped",
                       "e11 below 1/2", "QBER at 1/2", "h(0)", "restricted arm",
                       "no-S0 arm", "all-single arm"}


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


lane_fields = st.fixed_dictionaries({
    "eta_ch": st.one_of(st.just(1.0), _log_uniform(-8.0, 0.0)),
    "eta_d": st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
    "p_dc": st.one_of(st.just(0.0), _log_uniform(-9.0, -2.0)),
    "e_d": st.one_of(st.sampled_from((0.0, 0.5)), st.floats(0.0, 0.5)),
    "f": st.floats(1.0, 2.0),
    "q": st.floats(0.05, 1.0),
    "eta_ae": st.one_of(st.just(1.0), _log_uniform(-8.0, 0.0)),
    "mu": _log_uniform(-4.0, 3.0),
})


def _batch(source):
    return [dict(fields, mu=fields.get("mu", 1.0))
            for src, fields, _ in BRANCH_LANES if src == source]


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(("sps", "wcp")), st.lists(lane_fields, min_size=1, max_size=12))
@example("wcp", _batch("wcp"))
@example("sps", _batch("sps"))
# Without dark counts or misalignment the rate is 0; as a difference the
# dark-count clicks came out at -1.6e-15 on arrays and 0 on floats.
@example("wcp", [dict(eta_ch=0.007905526569734594, eta_d=0.9161509999678396, p_dc=0.0,
                      e_d=0.0, f=1.6887732995736144, q=0.6002746799616322, eta_ae=1.0,
                      mu=56.67150365529856)])
# A bright pulse (p_signal ~ 1) with dark counts: the difference cancelled to
# 7e-9 relative, differently on floats and arrays.
@example("wcp", [dict(eta_ch=0.0022868403035724433, eta_d=1.0, p_dc=2.063321225481381e-08,
                      e_d=0.0, f=1.0446676572153766, q=0.9827490585368744,
                      eta_ae=0.03427185373796296, mu=480.3786979018513)])
def test_array_kernel_matches_the_float_wrappers_lane_by_lane(source, lanes):
    arrays = {key: np.array([lane[key] for lane in lanes]) for key in lanes[0]}
    with np.errstate(divide="raise", invalid="raise"):  # guarded domains only
        got = rate_arrays(source, **arrays)
    assert got.shape == (len(lanes),)
    for lane, value in zip(lanes, got.tolist()):
        want = rate_at(DvParams(source=source, **lane))
        # Each term is a multiple of the gain; one ulp of p0 ~ 1 is 1.1e-16.
        assert value == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_rounding_leaves_no_negative_qber_without_dark_counts():
    # 1 - (1 - 0.1) rounds to 0.09999999999999998: the error count
    # 0.5 (gain - p_signal) came out at -1.4e-17 and DvObservables raised.
    p = sps(0.5, eta_ch=0.1, eta_d=1.0, p_dc=0.0, e_d=0.0)
    assert channel_observables(p).qber == 0.0
    assert rate_at(p) == pytest.approx(0.1, rel=1e-14)


def test_array_kernel_takes_zero_gain_as_no_key():
    # Without dark counts a faint enough pulse is never seen: the float
    # wrappers reject the zero gain, the kernel reports QBER 1/2 and rate 0.
    with np.errstate(divide="raise", invalid="raise"):
        rate = rate_arrays("wcp", eta_ch=np.array([1e-12, 1e-3]), eta_d=1.0,
                           p_dc=0.0, e_d=0.01, f=1.16, q=1.0, eta_ae=0.5, mu=1e-6)
    assert rate[0] == 0.0 and rate[1] < 0.0


def test_scalar_wrappers_return_python_floats():
    p = wcp(3e-4)
    assert type(rate_at(p)) is float
    assert type(restricted_rate(p, channel_observables(p))) is float
    obs = channel_observables(p)
    assert type(obs.gain) is float and type(obs.qber) is float
    out = optimize_mu(p)
    assert type(out.mu) is float and type(out.rate) is float


# ---------------------------------------------------------------------------
# lockstep intensity search against the one-point reference
# ---------------------------------------------------------------------------

# (eta_ch, eta_ae) per lane.  On the 30 dB link the first three rail at the
# intensity cap (the bracket holds the last scan node), 8.2e-4 and 1 have no
# key and the rest peak inside the scan.  On the lossless link the optimum
# intensity is 1.2 at eta_ae = 0.5 and 2.6 at 0.1.
SEARCH_LANES = [(1e-3, 1e-4), (1e-3, 3e-4), (1e-3, 5e-4), (1e-3, 7e-4), (1e-3, 8e-4),
                (1e-3, 8.2e-4), (1e-3, 1.0), (1.0, 0.5), (1.0, 0.1)]


@pytest.mark.parametrize("mu_range", [(1e-4, 1e3), (2.0, 1e3)],
                         ids=["default", "peak-below-range"])
def test_lockstep_search_matches_the_scalar_reference(monkeypatch, mu_range):
    # The reference evaluates the same array kernel one point at a time, so
    # this checks the search alone.  From mu = 2 up, the eta_ae = 0.5 lane
    # falls from the first scan node on: its bracket holds the lower end.
    monkeypatch.setattr(dv, "MU_RANGE", mu_range)
    eta_ch, eta_ae = (np.array(column) for column in zip(*SEARCH_LANES))
    link = {key: BASE[key] for key in ("eta_d", "p_dc", "e_d", "f", "q")}
    mu, rate = optimize_mu_arrays(eta_ch=eta_ch, eta_ae=eta_ae, **link)
    assert mu.shape == rate.shape == eta_ae.shape
    for i, (ch, ea) in enumerate(SEARCH_LANES):
        fields = dict(link, eta_ch=ch, eta_ae=ea)
        ref_mu, ref_rate = oracles.golden_mu_search(
            lambda m: float(rate_arrays("wcp", mu=m, **fields)), mu_range)
        assert rate[i] >= ref_rate - 1e-15 * abs(ref_rate)
        assert abs(math.log10(mu[i] / ref_mu)) <= 1e-6
        if ref_rate == 0.0:
            assert rate[i] == 0.0
    assert np.count_nonzero(rate == 0.0) == 2
    if mu_range[0] == 2.0:
        assert mu[7] == pytest.approx(2.0)  # the lower-end lane


def test_lockstep_lanes_do_not_depend_on_each_other(monkeypatch):
    # With the intensity capped at 780, the eta_ae = 7e-4 optimum (764.5)
    # lies in the last scan interval: its bracket is half as wide as the
    # interior ones and must stop after fewer steps.  1e-3 has no key.
    monkeypatch.setattr(dv, "MU_RANGE", (1e-4, 780.0))
    eta_ae = np.array([7e-4, 5e-4, 8e-4, 1e-3])
    mu, rate = optimize_mu_arrays(eta_ae=eta_ae, **BASE)
    for i in range(eta_ae.size):
        mu_i, rate_i = optimize_mu_arrays(eta_ae=eta_ae[i:i + 1], **BASE)
        assert (mu_i[0], rate_i[0]) == (mu[i], rate[i])


# ---------------------------------------------------------------------------
# Monte-Carlo cross-checks (photon-number-resolved simulation)
# ---------------------------------------------------------------------------

def mc_case(source, mu, eta_ch, eta_ae, seed):
    p = DvParams(source=source, mu=mu, eta_ae=eta_ae,
                 **{**BASE, "eta_ch": eta_ch, "p_dc": 1e-6})
    sim = oracles.simulate_dv(source, mu=mu, eta=p.eta, eta_ae=eta_ae,
                              p_dc=1e-6, e_d=p.e_d, pulses=10_000_000, seed=seed)
    return p, sim


@pytest.mark.parametrize("source, mu, eta_ch, eta_ae, seed", [
    ("wcp", 0.5, 1e-3, 0.3, 20240817),   # deep-loss reference point
    ("wcp", 0.5, 1.0, 0.01, 7),          # bright channel, S0 credit active
    ("sps", 1.0, 1.0, 0.7, 99),          # bright channel, S11 credit active
])
def test_simulation_confirms_observables(source, mu, eta_ch, eta_ae, seed):
    p, sim = mc_case(source, mu, eta_ch, eta_ae, seed)
    obs = channel_observables(p)
    assert abs(obs.gain - sim["gain"]) <= 3.0 * sim["gain_se"]
    assert abs(obs.qber - sim["qber"]) <= 3.0 * sim["qber_se"]


@pytest.mark.parametrize("source, mu, eta_ch, eta_ae, seed", [
    ("wcp", 0.5, 1e-3, 0.3, 20240817),
    ("wcp", 0.5, 1.0, 0.01, 7),
    ("sps", 1.0, 1.0, 0.7, 99),
])
def test_photon_number_credits_are_true_lower_bounds(source, mu, eta_ch, eta_ae, seed):
    # Tagging each detection with (photons sent, photons Eve caught) splits the
    # gain into untouched / single-photon-caught / other pieces exactly; the
    # analytic credits must sit below their simulated counterparts.
    p, sim = mc_case(source, mu, eta_ch, eta_ae, seed)
    obs = channel_observables(p)
    p0, p11 = photon_number_bounds(p)
    s0_bound = max(obs.gain - (1.0 - p0), 0.0)
    s11_bound = max(obs.gain - (1.0 - p11), 0.0)
    total = sim["s0"] + sim["s11"] + sim["rest"]
    assert total == pytest.approx(sim["gain"], abs=1e-15)
    assert s0_bound <= sim["s0"] + 3.0 * sim["s0_se"]
    assert s11_bound <= sim["s11"] + 3.0 * sim["s11_se"]


def test_bright_channel_credits_are_non_trivial():
    # Guard that the two bright configurations above actually exercise the
    # credits rather than passing through the max(..., 0) clamp.
    p_wcp = wcp(0.01, eta_ch=1.0, p_dc=1e-6)
    obs = channel_observables(p_wcp)
    p0, _ = photon_number_bounds(p_wcp)
    assert obs.gain - (1.0 - p0) > 0.1

    p_sps = sps(0.7, eta_ch=1.0, p_dc=1e-6)
    obs = channel_observables(p_sps)
    _, p11 = photon_number_bounds(p_sps)
    assert obs.gain - (1.0 - p11) > 0.1


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field, value", [
    ("source", "decoy"),
    ("mu", 0.0),
    ("eta_ch", 0.0),
    ("eta_d", 1.5),
    ("p_dc", 1.0),
    ("e_d", 0.6),
    ("f", 0.9),
    ("q", 0.0),
    ("eta_ae", 0.0),
])
def test_params_reject_out_of_range(field, value):
    kwargs = dict(source="wcp", mu=0.5, eta_ae=0.3, **BASE)
    kwargs[field] = value
    with pytest.raises(ValueError):
        DvParams(**kwargs)


def test_eta_is_the_product():
    assert wcp(0.3).eta == pytest.approx(9e-4, rel=1e-15)

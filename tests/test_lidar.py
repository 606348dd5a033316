"""Optical/radar monitoring bounds: beam optics, size limits, link profiles."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from satqkd.lidar import (
    BeamParams,
    LidarConfig,
    LinkGeometry,
    RadarParams,
    aperture_transmittance,
    atmospheric_extinction,
    beam_width,
    elevation_sweep,
    eve_efficiencies,
    eve_efficiency_profile,
    focused_beam_width,
    lidar_size_bound,
    moonlight_background_power,
    nominal_comm_beam,
    nominal_geometry,
    nominal_ground_lidar,
    nominal_radar,
    nominal_satellite_lidar,
    radar_cross_section_bound,
    radar_size_bound,
    reflectivity_threshold,
    slant_range,
    sky_background_power,
)


# ---------------------------------------------------------------------------
# Gaussian-beam geometry
# ---------------------------------------------------------------------------

def test_beam_width_at_source_is_the_waist():
    assert beam_width(0.0, nominal_comm_beam()) == 0.15


def test_rayleigh_range_of_the_nominal_transmitter():
    assert nominal_comm_beam().rayleigh_range == pytest.approx(88357.2934, rel=1e-8)


def test_beam_width_after_the_full_path():
    assert beam_width(500e3, nominal_comm_beam()) == pytest.approx(2.5508931285, rel=1e-9)


def test_beam_width_far_field_is_linear():
    beam = nominal_comm_beam()
    assert beam_width(400e3, beam) / beam_width(200e3, beam) == pytest.approx(2.0, rel=1e-2)


def test_beam_width_vectorizes():
    out = beam_width(np.array([0.0, 500e3]), nominal_comm_beam())
    assert out.shape == (2,)
    assert out[0] == 0.15


def test_beam_params_validation():
    with pytest.raises(ValueError):
        BeamParams(waist=0.0, wavelength=800e-9)
    with pytest.raises(ValueError):
        BeamParams(waist=0.15, wavelength=800e-9, quality=0.5)


def test_aperture_transmittance_limits():
    assert aperture_transmittance(0.0, 2.5) == 0.0
    assert aperture_transmittance(1e3, 2.5) == pytest.approx(1.0, abs=1e-12)
    rho = np.linspace(0.0, 3.0, 50)
    eta = aperture_transmittance(rho, 2.5)
    assert np.all(np.diff(eta) > 0.0)


@pytest.mark.parametrize("waist, wavelength", [(1e200, 8e-7), (1e-200, 8e-7), (0.15, 1e-320)])
def test_beam_params_reject_a_rayleigh_range_out_of_float_range(waist, wavelength):
    with pytest.raises(ValueError, match="Rayleigh range of waist"):
        BeamParams(waist=waist, wavelength=wavelength)


@pytest.mark.parametrize("field, value", [("antenna_radius", 1e200), ("antenna_radius", 1e-200),
                                          ("wavelength", 1e-200), ("wavelength", 1e100)])
def test_radar_rejects_a_squared_gain_out_of_float_range(field, value):
    with pytest.raises(ValueError, match=f"squared gain of .*{field} = {re.escape(str(value))}"):
        replace(nominal_radar(), **{field: value})


def test_aperture_transmittance_saturates_out_of_float_range():
    # rho^2 or W^2 overflows or underflows: the fraction rounds to 0 or 1,
    # with no floating-point warning (tests turn those into errors).
    assert aperture_transmittance(0.5, 1e160) == 0.0
    assert aperture_transmittance(1e160, 0.5) == 1.0
    assert aperture_transmittance(0.5, 1e-170) == 1.0
    # rho in [0, inf] and width in (0, inf] take their infinite ends.
    assert aperture_transmittance(0.5, math.inf) == 0.0
    assert aperture_transmittance(math.inf, 0.5) == 1.0
    # Both overflow or both underflow: the fraction is that of rho / W.
    for rho, width in [(1e160, 1e160), (1e155, 1e155), (1e-170, 1e-170), (1e200, 2e200)]:
        assert aperture_transmittance(rho, width) == -math.expm1(-2.0 * (rho / width) ** 2)
    assert aperture_transmittance(1e-170, 1e-170) == 0.8646647167633873
    assert aperture_transmittance(0.0, 1e-170) == 0.0
    np.testing.assert_array_equal(
        aperture_transmittance(np.array([1e160, 0.5, 1e-170]), np.array([1e160, 1.0, 1e-170])),
        [0.8646647167633873, -math.expm1(-0.5), 0.8646647167633873])
    # (inf, inf) has no limit.
    assert math.isnan(aperture_transmittance(math.inf, math.inf))


def test_diffraction_only_link_transmittance():
    # 0.5 m receiver against the 2.55 m spot after 500 km.
    eta = aperture_transmittance(0.5, beam_width(500e3, nominal_comm_beam()))
    assert eta == pytest.approx(0.0739616842, rel=1e-8)


def test_focused_beam_width_scaling():
    geom = nominal_geometry()
    w = focused_beam_width(100e3, 0.1, geom, 800e-9)
    assert w == pytest.approx(800e-9 * 400e3 / (math.pi * 0.1), rel=1e-12)
    assert focused_beam_width(100e3, 0.2, geom, 800e-9) == pytest.approx(w / 2.0, rel=1e-12)
    # approaching the receiver, any aperture focuses to a point
    assert focused_beam_width(500e3 - 1.0, 0.1, geom, 800e-9) < 1e-5


def test_focused_beam_width_rejects_bad_geometry():
    geom = nominal_geometry()
    with pytest.raises(ValueError):
        focused_beam_width(500e3, 0.1, geom, 800e-9)
    with pytest.raises(ValueError):
        focused_beam_width(100e3, 0.0, geom, 800e-9)


# ---------------------------------------------------------------------------
# radar bound
# ---------------------------------------------------------------------------

def test_radar_noise_floor_from_system_temperature():
    radar = nominal_radar()
    t_sys = 60.0 + (10.0 ** 0.8 - 1.0) * 290.0
    assert radar.noise_floor == pytest.approx(1.380649e-23 * t_sys * 2.5e6, rel=1e-12)
    assert radar.noise_floor == pytest.approx(5.5218238686e-14, rel=1e-9)


def test_radar_undetected_radius_at_orbit():
    assert radar_size_bound(500e3, nominal_radar()) == pytest.approx(4.4127584587, rel=1e-8)


def test_radar_bound_follows_the_fourth_power_law():
    radar = nominal_radar()
    assert radar_cross_section_bound(250e3, radar) == pytest.approx(
        radar_cross_section_bound(500e3, radar) / 16.0, rel=1e-12)
    # radius scales as the square of the distance
    assert radar_size_bound(250e3, radar) == pytest.approx(
        radar_size_bound(500e3, radar) / 4.0, rel=1e-12)


def test_radar_bound_linear_in_power():
    radar = nominal_radar()
    doubled = replace(radar, transmit_power=2e5)
    assert radar_cross_section_bound(500e3, doubled) == pytest.approx(
        radar_cross_section_bound(500e3, radar) / 2.0, rel=1e-12)


def test_radar_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        radar_size_bound(0.0, nominal_radar())


def test_radar_rejects_a_nan_distance_in_any_lane():
    with pytest.raises(ValueError, match="distance must lie in .*, got nan"):
        radar_cross_section_bound(np.array([1e5, math.nan]), nominal_radar())


# ---------------------------------------------------------------------------
# LIDAR bound
# ---------------------------------------------------------------------------

def test_lidar_bound_zero_at_the_transmitter():
    assert lidar_size_bound(0.0, nominal_satellite_lidar()) == 0.0


def test_lidar_bound_monotone_in_range_and_parameters():
    cfg = nominal_satellite_lidar()
    zs = np.linspace(10e3, 400e3, 30)
    rs = [lidar_size_bound(float(z), cfg) for z in zs]
    assert all(b > a for a, b in zip(rs, rs[1:]))
    z = 200e3
    base = lidar_size_bound(z, cfg)
    assert lidar_size_bound(z, replace(cfg, noise_floor=2 * cfg.noise_floor)) > base
    assert lidar_size_bound(z, replace(cfg, transmit_power=4.0)) < base
    assert lidar_size_bound(z, replace(cfg, reflectivity=0.5)) < base


def test_quadrupled_power_halves_the_bound_when_returns_are_strong():
    # In the small-argument regime r_E ~ sqrt(P_min / P_T), so 1 W -> 4 W
    # halves the undetectable size.
    r1 = lidar_size_bound(50e3, nominal_satellite_lidar(1.0))
    r4 = lidar_size_bound(50e3, nominal_satellite_lidar(4.0))
    assert r1 / r4 == pytest.approx(2.0, rel=2e-3)


def test_reflectivity_threshold_is_the_divergence_boundary():
    cfg = nominal_satellite_lidar()
    z = 300e3
    alpha_min = reflectivity_threshold(z, cfg)
    w0 = cfg.beam.waist
    assert alpha_min == pytest.approx(
        2.0 * cfg.noise_floor * cfg.loss_factor * z * z / (cfg.transmit_power * w0 * w0),
        rel=1e-12)
    assert math.isinf(lidar_size_bound(z, replace(cfg, reflectivity=0.99 * alpha_min)))
    assert math.isfinite(lidar_size_bound(z, replace(cfg, reflectivity=1.01 * alpha_min)))


def test_reflectivity_threshold_grows_quadratically():
    cfg = nominal_satellite_lidar()
    assert reflectivity_threshold(400e3, cfg) == pytest.approx(
        4.0 * reflectivity_threshold(200e3, cfg), rel=1e-12)


def test_lidar_config_validation():
    beam = nominal_comm_beam()
    with pytest.raises(ValueError):
        LidarConfig(transmit_power=0.0, loss_factor=0.25, reflectivity=0.1,
                    noise_floor=1e-15, beam=beam)
    with pytest.raises(ValueError):
        LidarConfig(transmit_power=1.0, loss_factor=1.5, reflectivity=0.1,
                    noise_floor=1e-15, beam=beam)


def test_lidar_size_bound_rejects_a_nan_range_in_any_lane():
    # Once inf there: an object of any size unseen, so eta_ae = 1.
    with pytest.raises(ValueError, match="z must lie in .*, got nan"):
        lidar_size_bound(np.array([1e3, math.nan]), nominal_satellite_lidar())


# ---------------------------------------------------------------------------
# array forms: element by element the scalar calls
# ---------------------------------------------------------------------------

def test_lidar_size_bound_on_arrays_equals_the_scalar_calls():
    cfg = nominal_satellite_lidar()
    # z = 0, the finite region, and u >= 1 (inf) beyond ~1040 km
    z = np.concatenate(([0.0], np.linspace(1e3, 2e6, 40)))
    got = lidar_size_bound(z, cfg)
    want = [lidar_size_bound(float(x), cfg) for x in z]
    assert all(type(w) is float for w in want)
    np.testing.assert_array_equal(got, want)
    assert got[0] == 0.0 and np.isinf(got[-1]) and np.isfinite(got[1])
    with pytest.raises(ValueError):
        lidar_size_bound(np.array([1e3, -1.0]), cfg)


def test_radar_size_bound_on_arrays_equals_the_scalar_calls():
    radar = nominal_radar()
    d = np.linspace(1.0, 1e6, 25)
    got = radar_size_bound(d, radar)
    want = [radar_size_bound(float(x), radar) for x in d]
    assert all(type(w) is float for w in want)
    np.testing.assert_array_equal(got, want)
    with pytest.raises(ValueError):
        radar_size_bound(np.array([1e3, 0.0]), radar)


def test_focused_beam_width_on_arrays_equals_the_scalar_calls():
    geom = nominal_geometry()
    z = np.linspace(0.0, geom.total_range, 30, endpoint=False)  # from z = 0
    r_e = np.linspace(0.01, 1.0, 30)
    got = focused_beam_width(z, r_e, geom, 800e-9)
    want = [focused_beam_width(float(a), float(b), geom, 800e-9) for a, b in zip(z, r_e)]
    assert all(type(w) is float for w in want)
    np.testing.assert_array_equal(got, want)
    with pytest.raises(ValueError):
        focused_beam_width(np.array([0.0, geom.total_range]), 0.1, geom, 800e-9)
    with pytest.raises(ValueError):
        focused_beam_width(z[:2], np.array([0.1, 0.0]), geom, 800e-9)


def test_efficiency_convention_at_the_ends_and_for_unbounded_objects():
    geom = nominal_geometry()
    z = np.array([0.0, 1e5, 2e5, geom.total_range])
    r_e, eta_ae, eta_eb = eve_efficiencies(
        z, lambda zi, link: np.where(zi < 1.5e5, 0.2, np.inf), geom, nominal_comm_beam())
    np.testing.assert_array_equal(r_e, [0.0, 0.2, np.inf, 0.0])
    assert eta_ae[0] == eta_eb[0] == eta_ae[3] == eta_eb[3] == 0.0
    assert eta_ae[2] == eta_eb[2] == 1.0
    assert 0.0 < eta_ae[1] < 1.0 and 0.0 < eta_eb[1] < 1.0


# ---------------------------------------------------------------------------
# background noise floors
# ---------------------------------------------------------------------------

def test_background_vanishes_with_the_filter():
    assert moonlight_background_power(0.15, bandwidth_nm=0.0) == 0.0
    assert sky_background_power(0.5, bandwidth_nm=0.0) == 0.0


def test_background_scales_with_aperture_area():
    assert moonlight_background_power(0.3) == pytest.approx(
        4.0 * moonlight_background_power(0.15), rel=1e-12)
    assert sky_background_power(1.0) == pytest.approx(
        4.0 * sky_background_power(0.5), rel=1e-12)


def test_background_nominal_floors_are_sub_picowatt():
    # Both ends sit far below a picowatt: photon counting territory.
    assert moonlight_background_power(0.15) == pytest.approx(4.1367369347e-15, rel=1e-9)
    assert sky_background_power(0.5) == pytest.approx(1.6689710972e-13, rel=1e-9)


# ---------------------------------------------------------------------------
# dual-monitor profile
# ---------------------------------------------------------------------------

def test_profile_endpoints_pin_the_eavesdropper_to_zero():
    prof = eve_efficiency_profile(nominal_geometry(), nominal_satellite_lidar(),
                                  nominal_ground_lidar(), 51)
    for arr in (prof.r_e, prof.eta_ae, prof.eta_eb):
        assert arr[0] == 0.0 and arr[-1] == 0.0


def test_profile_takes_the_smaller_of_the_two_bounds():
    geom = nominal_geometry()
    sat, gnd = nominal_satellite_lidar(), nominal_ground_lidar()
    prof = eve_efficiency_profile(geom, sat, gnd, 11)
    for i in range(1, 10):
        z = float(prof.z[i])
        want = min(lidar_size_bound(z, sat),
                   lidar_size_bound(geom.total_range - z, gnd))
        assert prof.r_e[i] == pytest.approx(want, rel=1e-12)


def test_profile_equals_the_pointwise_reference():
    # Scalar calls point by point, with the terminal and unbounded-object
    # convention spelled out.  At 50 mW both monitors lose an object of any
    # size mid-path (u >= 1 for z ~ 230-380 km), so every branch is taken.
    geom, beam = nominal_geometry(), nominal_comm_beam()
    sat, gnd = nominal_satellite_lidar(0.05), nominal_ground_lidar(0.05)
    prof = eve_efficiency_profile(geom, sat, gnd, 101)
    for z, r_e, eta_ae, eta_eb in zip(prof.z.tolist(), prof.r_e.tolist(),
                                      prof.eta_ae.tolist(), prof.eta_eb.tolist()):
        if z <= 0.0 or z >= geom.total_range:
            want = (0.0, 0.0, 0.0)
        else:
            r = min(lidar_size_bound(z, sat), lidar_size_bound(geom.total_range - z, gnd))
            if math.isinf(r):
                want = (r, 1.0, 1.0)
            else:
                w_e = focused_beam_width(z, r, geom, beam.wavelength)
                want = (r, aperture_transmittance(r, beam_width(z, beam)),
                        aperture_transmittance(geom.r_b, w_e))
        assert (r_e, eta_ae, eta_eb) == pytest.approx(want, rel=1e-14, abs=0.0)
    assert np.isinf(prof.r_e).any() and np.isfinite(prof.r_e[1:-1]).any()


def test_profile_maximum_is_interior():
    prof = eve_efficiency_profile(nominal_geometry(), nominal_satellite_lidar(),
                                  nominal_ground_lidar(), 201)
    k = int(np.argmax(prof.r_e))
    assert 0 < k < 200


def test_one_watt_profile_frozen_maxima():
    prof = eve_efficiency_profile(nominal_geometry(), nominal_satellite_lidar(1.0),
                                  nominal_ground_lidar(1.0), 201)
    assert prof.max_eta_ae == pytest.approx(0.0836176001, rel=1e-8)
    assert prof.max_eta_eb == pytest.approx(0.9957513781, rel=1e-8)


def test_four_watt_profile_frozen_maxima():
    prof = eve_efficiency_profile(nominal_geometry(), nominal_satellite_lidar(4.0),
                                  nominal_ground_lidar(4.0), 201)
    assert prof.max_eta_ae == pytest.approx(0.0207486642, rel=1e-8)
    assert prof.max_eta_eb == pytest.approx(0.7107694898, rel=1e-8)


def test_undetected_object_can_still_reach_the_receiver():
    # The smallest undetectable object, parked at its best position, focuses
    # a spot of roughly 30 cm onto the 0.5 m receiver: re-injection is easy.
    geom = nominal_geometry()
    prof = eve_efficiency_profile(geom, nominal_satellite_lidar(1.0),
                                  nominal_ground_lidar(1.0), 201)
    widths = [focused_beam_width(float(z), float(r), geom, 800e-9)
              for z, r in zip(prof.z[1:-1], prof.r_e[1:-1])]
    assert min(widths) == pytest.approx(0.3026, rel=1e-3)


def test_profile_transmittances_stay_physical():
    for power in (0.5, 1.0, 4.0):
        prof = eve_efficiency_profile(nominal_geometry(),
                                      nominal_satellite_lidar(power),
                                      nominal_ground_lidar(power), 101)
        for arr in (prof.eta_ae, prof.eta_eb):
            assert np.all((arr >= 0.0) & (arr <= 1.0))


def test_profile_needs_two_points():
    with pytest.raises(ValueError):
        eve_efficiency_profile(nominal_geometry(), nominal_satellite_lidar(),
                               nominal_ground_lidar(), 1)


# ---------------------------------------------------------------------------
# elevation geometry
# ---------------------------------------------------------------------------

def test_slant_range_at_zenith_is_the_altitude():
    assert slant_range(0.0, 500e3) == pytest.approx(500e3, rel=1e-12)


def test_slant_range_solves_the_triangle():
    # d must satisfy the law of cosines against the Earth-centre triangle:
    # (R + h)^2 = R^2 + d^2 + 2 R d cos(theta).
    r, h = 6.371e6, 500e3
    for theta in (0.2, 0.7, 1.2):
        d = slant_range(theta, h)
        lhs = r * r + d * d + 2.0 * r * d * math.cos(theta)
        assert lhs == pytest.approx((r + h) ** 2, rel=1e-12)


def test_slant_range_frozen_at_sixty_degrees():
    assert slant_range(math.radians(60.0), 500e3) == pytest.approx(909424.938, rel=1e-8)


def test_slant_range_monotone_in_zenith_angle():
    theta = np.linspace(0.0, 1.4, 20)
    ds = [slant_range(t, 500e3) for t in theta.tolist()]
    assert all(type(d) is float for d in ds)
    assert all(b > a for a, b in zip(ds, ds[1:]))
    np.testing.assert_array_equal(slant_range(theta, 500e3), ds)


@pytest.mark.parametrize("altitude", [-1e5, 0.0, math.nan, math.inf])
def test_slant_range_rejects_an_altitude_out_of_range(altitude):
    with pytest.raises(ValueError, match=r"altitude must lie in \(0, inf\)"):
        slant_range(0.0, altitude)


def test_slant_range_rejects_the_horizon():
    with pytest.raises(ValueError):
        slant_range(math.pi / 2.0, 500e3)
    with pytest.raises(ValueError):
        slant_range(np.array([0.0, math.pi / 2.0]), 500e3)


def test_extinction_zenith_value_and_decay():
    assert atmospheric_extinction(0.0) == pytest.approx(math.exp(-0.7), rel=1e-12)
    assert atmospheric_extinction(1.0) < atmospheric_extinction(0.5) < atmospheric_extinction(0.0)
    theta = np.linspace(0.0, 1.5, 31)
    for beta in (0.7, 0.0, 2.5):
        want = [atmospheric_extinction(t, beta) for t in theta.tolist()]
        assert all(type(w) is float for w in want)
        np.testing.assert_array_max_ulp(atmospheric_extinction(theta, beta), want, maxulp=1)


def test_elevation_sweep_frozen_values():
    sw = elevation_sweep(500e3, nominal_satellite_lidar(1.0), nominal_ground_lidar(1.0),
                         [0.0, math.radians(30.0), math.radians(60.0)])
    np.testing.assert_allclose(sw.max_eta_ae, [0.0836176001, 0.1110580712, 0.3005502663],
                               rtol=1e-8)
    np.testing.assert_allclose(sw.eta_ab_diffraction,
                               [0.0739616842, 0.0573567034, 0.0230141399], rtol=1e-8)
    np.testing.assert_allclose(sw.eta_ab_effective,
                               [0.0146913142, 0.0102237006, 0.0022700868], rtol=1e-8)


def test_elevation_sweep_zenith_matches_the_plain_profile():
    # Every row is the plain profile at its angle's slant range, bit for bit;
    # at zenith that is the altitude.  18 x 4001 lanes take two passes.
    theta = np.radians(np.linspace(0.0, 85.0, 18))
    sat, ground = nominal_satellite_lidar(1.0), nominal_ground_lidar(1.0)
    for points in (201, 4001):
        sw = elevation_sweep(500e3, sat, ground, theta, profile_points=points)
        for i, th in enumerate(theta.tolist()):
            prof = eve_efficiency_profile(LinkGeometry(slant_range(th, 500e3), 0.5), sat,
                                          ground, points)
            assert (sw.max_eta_ae[i], sw.max_eta_eb[i]) == (prof.max_eta_ae, prof.max_eta_eb)
        zenith = eve_efficiency_profile(nominal_geometry(500e3), sat, ground, points)
        assert (sw.max_eta_ae[0], sw.max_eta_eb[0]) == (zenith.max_eta_ae, zenith.max_eta_eb)


def test_more_power_helps_most_at_low_elevation():
    # At 60 degrees the 1 W monitor lets a 30 %-collection object through,
    # the 4 W one only 7 %.
    grid = [0.0, math.radians(60.0)]
    one = elevation_sweep(500e3, nominal_satellite_lidar(1.0), nominal_ground_lidar(1.0), grid)
    four = elevation_sweep(500e3, nominal_satellite_lidar(4.0), nominal_ground_lidar(4.0), grid)
    assert four.max_eta_ae[1] == pytest.approx(0.0702639544, rel=1e-8)
    assert four.max_eta_ae[1] < 0.25 * one.max_eta_ae[1]
    assert one.max_eta_ae[1] > 0.25  # 1 W is not a useful bound down there
    assert four.max_eta_ae[0] < one.max_eta_ae[0] < 0.1  # both fine at zenith


# ---------------------------------------------------------------------------
# raw-number functions check their ranges
# ---------------------------------------------------------------------------

_BEAM, _LIDAR = nominal_comm_beam(), nominal_satellite_lidar()


@pytest.mark.parametrize("call, name", [
    # Past the horizon the transmission was above 1 (5.38 at 2 rad).
    (lambda: atmospheric_extinction(2.0), "zenith angle"),
    (lambda: atmospheric_extinction(np.array([0.1, -0.1])), "zenith angle"),
    (lambda: atmospheric_extinction(math.nan), "zenith angle"),
    # A negative range gave a positive width (0.531 m) or threshold (9.2e-4).
    (lambda: beam_width(-1e5, _BEAM), "z"),
    (lambda: beam_width(np.array([0.0, math.nan]), _BEAM), "z"),
    (lambda: reflectivity_threshold(-1e5, _LIDAR), "z"),
    (lambda: reflectivity_threshold(math.nan, _LIDAR), "z"),
    # A negative radius gave a positive fraction (0.1175 at -0.5).
    (lambda: aperture_transmittance(-0.5, 2.0), "rho"),
    (lambda: aperture_transmittance(math.nan, 2.0), "rho"),
    (lambda: aperture_transmittance(0.5, 0.0), "width"),
    (lambda: aperture_transmittance(0.5, math.nan), "width"),
    # A NaN aperture gave nan, a negative one a positive power.
    (lambda: moonlight_background_power(-1.0), "r_a"),
    (lambda: moonlight_background_power(math.nan), "r_a"),
    (lambda: moonlight_background_power(math.inf), "r_a"),
    (lambda: sky_background_power(-1.0), "r_b"),
    (lambda: sky_background_power(math.nan), "r_b"),
])
def test_raw_number_functions_reject_arguments_out_of_range(call, name):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must lie in "):
        call()

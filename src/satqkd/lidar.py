"""Link budgets and monitoring bounds for a satellite-to-ground optical channel.

Everything here is classical Gaussian-beam optics plus the radar/LIDAR
equation.  The question answered is: how large an object could an
eavesdropper park in the beam path without the legitimate users' monitoring
instruments noticing, and what collection / re-injection efficiencies would
such an object achieve?

Geometry: the satellite transmitter A orbits at altitude ``L`` above the
ground station B.  ``z`` always measures distance from A along the line of
sight.  Monitoring is performed simultaneously by a LIDAR on the satellite
(looking down, range z) and one on the ground (looking up, range L - z);
an undetected object must sit below both size bounds.

Every function of a range or an angle takes a float (and gives a float) or
a NumPy array (and gives an array), so a profile along z, or one per zenith
angle, is one array evaluation through :func:`eve_efficiencies`.  The
parameter classes and the functions of raw numbers check their ranges
through :mod:`satqkd.checks`, in which NaN lies in no range; the classes
also reject values whose derived quantities (the Rayleigh range, the
radar's squared gain) are not finite positive floats.

Default constants not fixed by the optical model itself (albedos, sky
radiance, field of view, filter bandwidth, radar system temperature) are
sourced, overridable engineering values; see the named factories at the
bottom and the README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .checks import finite_positive, require, require_fields

BOLTZMANN = 1.380649e-23     # J/K
EARTH_RADIUS = 6.371e6       # m, mean spherical

# --- background-light defaults (satellite looking at moonlit Earth,
#     ground station looking at the night sky) ---------------------------
EARTH_ALBEDO = 0.3
MOON_ALBEDO = 0.12
MOON_RADIUS = 1.7374e6       # m
EARTH_MOON_DISTANCE = 3.844e8  # m
FIELD_OF_VIEW = 2.5e-7       # sr, narrow monitoring telescope
SOLAR_SPECTRAL_IRRADIANCE = 1.0   # W m^-2 nm^-1 near 800 nm
SKY_SPECTRAL_RADIANCE = 8.5e-7    # W m^-2 sr^-1 nm^-1, clear night sky
FILTER_BANDWIDTH_NM = 1.0    # nm

# --- radar receiver defaults --------------------------------------------
RADAR_REFERENCE_TEMP = 290.0  # K, noise-figure reference
RADAR_ANTENNA_TEMP = 60.0     # K, cold-sky antenna temperature


@dataclass(frozen=True)
class BeamParams:
    """Gaussian beam leaving a transmitter: waist = aperture radius."""

    waist: float        # m, beam waist W0 at the transmitter
    wavelength: float   # m
    quality: float = 1.0  # M^2 factor, >= 1

    def __post_init__(self):
        require_fields(self, waist="(0, inf)", wavelength="(0, inf)", quality="[1, inf)")
        finite_positive(f"the Rayleigh range of waist = {self.waist} and wavelength = "
                        f"{self.wavelength}", lambda: self.rayleigh_range)

    @property
    def rayleigh_range(self) -> float:
        """z_R = pi W0^2 / lambda (diffraction-limited definition)."""
        return math.pi * self.waist ** 2 / self.wavelength


@dataclass(frozen=True)
class LidarConfig:
    """A monitoring LIDAR: transmitted power, optics, and its noise floor."""

    transmit_power: float   # W
    loss_factor: float      # kappa, round-trip system loss, (0, 1]
    reflectivity: float     # alpha, assumed reflectivity of the target, (0, 1]
    noise_floor: float      # P_min, W, smallest detectable return power
    beam: BeamParams

    def __post_init__(self):
        require_fields(self, transmit_power="(0, inf)", loss_factor="(0, 1]",
                       reflectivity="(0, 1]", noise_floor="(0, inf)")


@dataclass(frozen=True)
class LinkGeometry:
    """Alice-Bob line of sight and Bob's (ground) aperture radius."""

    total_range: "float | np.ndarray"  # m, distance A -> B, or one per lane
    r_b: float                         # m, ground aperture radius

    def __post_init__(self):
        require_fields(self, total_range="(0, inf)", r_b="(0, inf)")


@dataclass(frozen=True)
class RadarParams:
    """Ground radar used as an alternative monitor (microwave, monostatic)."""

    transmit_power: float        # W
    antenna_radius: float        # m
    wavelength: float            # m
    bandwidth: float             # Hz
    noise_figure: float          # linear (not dB)
    loss_factor: float           # kappa, linear
    aperture_efficiency: float = 0.6
    antenna_temperature: float = RADAR_ANTENNA_TEMP  # K

    def __post_init__(self):
        require_fields(self, transmit_power="(0, inf)", antenna_radius="(0, inf)",
                       wavelength="(0, inf)", bandwidth="(0, inf)",
                       antenna_temperature="(0, inf)", loss_factor="(0, inf)",
                       noise_figure="[1, inf)", aperture_efficiency="(0, 1]")
        finite_positive(f"the squared gain of aperture_efficiency = {self.aperture_efficiency}, "
                        f"antenna_radius = {self.antenna_radius} and wavelength = "
                        f"{self.wavelength}", lambda: self.gain ** 2)

    @property
    def gain(self) -> float:
        """G = 4 pi (E_a pi r^2) / lambda^2 — aperture gain."""
        effective_area = self.aperture_efficiency * math.pi * self.antenna_radius ** 2
        return 4.0 * math.pi * effective_area / self.wavelength ** 2

    @property
    def noise_floor(self) -> float:
        """P_min = k_B T_sys B with T_sys = T_ant + (F - 1) * 290 K."""
        t_sys = self.antenna_temperature + (self.noise_figure - 1.0) * RADAR_REFERENCE_TEMP
        return BOLTZMANN * t_sys * self.bandwidth


def _float_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


def beam_width(z, beam: BeamParams):
    """Beam radius after propagating a distance z >= 0: W0 sqrt(1 + (z M^2 / z_R)^2)."""
    z = require("z", np.asarray(z, dtype=float), "[0, inf)")
    ratio = z * beam.quality / beam.rayleigh_range
    return _float_or_array(beam.waist * np.sqrt(1.0 + ratio * ratio))


def aperture_transmittance(rho, width):
    """Power fraction of a Gaussian beam of radius ``width`` through a centred
    circular aperture of radius ``rho``: 1 - exp(-2 rho^2 / W^2).  Where rho^2
    or W^2 leaves a float's range the fraction is 0 or 1, as it rounds to;
    where both overflow or both underflow it is taken from rho / W.  rho lies
    in [0, inf] and W in (0, inf]; (inf, inf) has no limit and gives nan."""
    rho = require("rho", np.asarray(rho, dtype=float), "[0, inf]")
    width = require("width", np.asarray(width, dtype=float), "(0, inf]")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = 2.0 * rho * rho / width ** 2
        ratio = np.where(np.isnan(ratio), 2.0 * (rho / width) ** 2, ratio)
    return _float_or_array(-np.expm1(-ratio))


def focused_beam_width(z, r_e, geom: LinkGeometry, wavelength: float):
    """Waist at B of a beam the eavesdropper (aperture radius r_e, at z)
    focuses on B: W_E = lambda (L - z) / (pi r_e).  z and r_e are floats or
    broadcastable arrays; every z must lie in [0, L) and every r_e be > 0."""
    z = np.asarray(z, dtype=float)
    r_e = np.asarray(r_e, dtype=float)
    require("z", z, "[0, inf)")
    to_b = require("total_range - z", geom.total_range - z, "(0, inf)")
    require("r_e", r_e, "(0, inf)")
    return _float_or_array(wavelength * to_b / (math.pi * r_e))


def radar_cross_section_bound(distance, radar: RadarParams):
    """Largest radar cross-section sigma (m^2) that stays below the noise floor
    at the given range(s): sigma = P_min (4 pi)^3 kappa d^4 / (P_T G^2 lambda^2)."""
    distance = require("distance", np.asarray(distance, dtype=float), "(0, inf)")
    return _float_or_array(
        radar.noise_floor * (4.0 * math.pi) ** 3 * radar.loss_factor * distance ** 4
        / (radar.transmit_power * radar.gain ** 2 * radar.wavelength ** 2))


def radar_size_bound(distance, radar: RadarParams):
    """Sphere-equivalent radius of the undetectable cross-section, sqrt(sigma/pi)."""
    return _float_or_array(np.sqrt(radar_cross_section_bound(distance, radar) / math.pi))


def lidar_size_bound(z, cfg: LidarConfig):
    """Largest object radius (m) whose LIDAR return stays below the noise floor,
    at a float or an array of ranges z >= 0.

    From the Gaussian-beam LIDAR equation,
        r_E(z)^2 = -ln(1 - u) * (lambda z M^2 / (pi W0))^2,
        u = 2 P_min kappa z^2 / (alpha P_T W0^2).
    The bound is 0 at z = 0, and ``inf`` where u >= 1: past that range an
    object of any size returns less than the noise floor (for the assumed
    reflectivity).
    """
    z = require("z", np.asarray(z, dtype=float), "[0, inf)")
    w0 = cfg.beam.waist
    u = 2.0 * cfg.noise_floor * cfg.loss_factor * z * z \
        / (cfg.reflectivity * cfg.transmit_power * w0 * w0)
    far_field = cfg.beam.wavelength * z * cfg.beam.quality / (math.pi * w0)
    below = u < 1.0
    r_e = np.sqrt(-np.log1p(-np.where(below, u, 0.0))) * far_field
    return _float_or_array(np.where(below, r_e, np.inf))


def reflectivity_threshold(z, cfg: LidarConfig):
    """Smallest target reflectivity alpha for which the size bound is finite
    at range z >= 0 (a float or an array): alpha_min = 2 P_min kappa z^2 / (P_T W0^2)."""
    require("z", z, "[0, inf)")
    w0 = cfg.beam.waist
    return 2.0 * cfg.noise_floor * cfg.loss_factor * z * z / (cfg.transmit_power * w0 * w0)


def moonlight_background_power(r_a: float = 0.15, *, fov: float = FIELD_OF_VIEW,
                               bandwidth_nm: float = FILTER_BANDWIDTH_NM) -> float:
    """Noise floor of the satellite LIDAR: moonlight reflected by the Earth
    into the monitoring telescope.  P = a_E a_M R_M^2 r_A^2 (fov / d_EM^2) H B."""
    require("r_a", r_a, "(0, inf)")
    return (EARTH_ALBEDO * MOON_ALBEDO * MOON_RADIUS ** 2 * r_a ** 2
            * fov / EARTH_MOON_DISTANCE ** 2
            * SOLAR_SPECTRAL_IRRADIANCE * bandwidth_nm)


def sky_background_power(r_b: float = 0.5, *, fov: float = FIELD_OF_VIEW,
                         bandwidth_nm: float = FILTER_BANDWIDTH_NM) -> float:
    """Noise floor of the ground LIDAR: night-sky radiance over the aperture.
    P = H_sky fov pi r_B^2 B."""
    require("r_b", r_b, "(0, inf)")
    return SKY_SPECTRAL_RADIANCE * fov * math.pi * r_b ** 2 * bandwidth_nm


@dataclass(frozen=True)
class EveProfile:
    """Size and efficiency bounds along the line of sight (the last axis)."""

    z: np.ndarray        # m from the satellite
    r_e: np.ndarray      # m, largest undetected object radius
    eta_ae: np.ndarray   # collection efficiency of that object
    eta_eb: np.ndarray   # its re-injection efficiency into B

    @property
    def max_eta_ae(self) -> float:
        return float(np.max(self.eta_ae))

    @property
    def max_eta_eb(self) -> float:
        return float(np.max(self.eta_eb))


def dual_lidar_size_bound(z, geom: LinkGeometry, cfg_sat: LidarConfig,
                          cfg_ground: LidarConfig):
    """Undetected radius under simultaneous dual monitoring: the *smaller* of
    the satellite bound (range z) and the ground bound (range L - z)."""
    return np.minimum(lidar_size_bound(z, cfg_sat),
                      lidar_size_bound(geom.total_range - z, cfg_ground))


def eve_efficiencies(z, size_bound, geom: LinkGeometry, beam: BeamParams):
    """Arrays (r_e, eta_ae, eta_eb) along ``z`` for any monitor, whose bound
    ``size_bound(z, link)`` maps an array of interior positions 0 < z < L to
    r_e.  ``geom.total_range`` may be an array that broadcasts with ``z``,
    one link length per lane; ``link`` holds those of the lanes passed.

    An object touching either terminal is always seen (r_e = 0, and both
    efficiencies are 0 wherever r_e = 0); an unbounded one (r_e = inf) has
    both efficiencies 1.  A finite r_e collects the communication beam
    through a disc of radius r_e at z and re-injects through the beam it
    focuses on B's aperture (:func:`focused_beam_width`).
    """
    z, length = np.broadcast_arrays(np.asarray(z, dtype=float), geom.total_range)
    r_e = np.zeros(z.shape)
    inner = (z > 0.0) & (z < length)
    r_e[inner] = size_bound(z[inner], replace(geom, total_range=length[inner]))
    eta_ae = np.where(np.isinf(r_e), 1.0, 0.0)
    eta_eb = eta_ae.copy()
    finite = np.isfinite(r_e) & (r_e > 0.0)
    z_f, r_f = z[finite], r_e[finite]
    eta_ae[finite] = aperture_transmittance(r_f, beam_width(z_f, beam))
    eta_eb[finite] = aperture_transmittance(geom.r_b, focused_beam_width(
        z_f, r_f, replace(geom, total_range=length[finite]), beam.wavelength))
    return r_e, eta_ae, eta_eb


def eve_efficiency_profile(geom: LinkGeometry, cfg_sat: LidarConfig,
                           cfg_ground: LidarConfig, n_points: int,
                           comm_beam: "BeamParams | None" = None) -> EveProfile:
    """Bound the eavesdropper at ``n_points`` evenly spaced z under
    simultaneous dual monitoring (:func:`dual_lidar_size_bound`), with the
    efficiencies of :func:`eve_efficiencies` for the communication beam; with
    an array of link lengths in ``geom``, one row of z per link."""
    require("n_points", n_points, "[2, inf)")
    beam = comm_beam if comm_beam is not None else cfg_sat.beam
    z = np.linspace(0.0, geom.total_range, n_points, axis=-1)
    rows = replace(geom, total_range=np.expand_dims(geom.total_range, -1))
    r_e, eta_ae, eta_eb = eve_efficiencies(
        z, lambda zi, link: dual_lidar_size_bound(zi, link, cfg_sat, cfg_ground), rows, beam)
    return EveProfile(z=z, r_e=r_e, eta_ae=eta_ae, eta_eb=eta_eb)


def slant_range(zenith_angle, altitude: float, earth_radius: float = EARTH_RADIUS):
    """Line-of-sight distance to a satellite at ``altitude`` seen at
    ``zenith_angle`` from the ground: spherical-Earth geometry.

    d = sqrt((R + h)^2 - R^2 sin^2 theta) - R cos theta;  d(0) = h.
    """
    theta = require("zenith angle", np.asarray(zenith_angle, dtype=float),
                    f"[0, {math.pi / 2.0})")
    require("altitude", altitude, "(0, inf)")
    r = earth_radius
    s = np.sin(theta)
    return _float_or_array(np.sqrt((r + altitude) ** 2 - r * r * s * s) - r * np.cos(theta))


def atmospheric_extinction(zenith_angle, coefficient: float = 0.7):
    """One-way clear-air transmission exp(-beta sec(theta)) for a vertical
    optical depth beta, at a float or an array of zenith angles in [0, pi/2)."""
    theta = require("zenith angle", np.asarray(zenith_angle, dtype=float),
                    f"[0, {math.pi / 2.0})")
    return _float_or_array(np.exp(-coefficient / np.cos(theta)))


_BLOCK_LANES = 1 << 16  # (angle, z) lanes per elevation_sweep pass: a few MB


@dataclass(frozen=True)
class ElevationSweep:
    theta: np.ndarray               # rad, zenith angles
    max_eta_ae: np.ndarray
    max_eta_eb: np.ndarray
    eta_ab_diffraction: np.ndarray  # geometric collection only
    eta_ab_effective: np.ndarray    # with extinction, detection and optics losses


def elevation_sweep(altitude: float, cfg_sat: LidarConfig, cfg_ground: LidarConfig,
                    theta_grid, *, r_b: float = 0.5,
                    comm_beam: "BeamParams | None" = None, profile_points: int = 201,
                    extinction_coefficient: float = 0.7,
                    detection_efficiency: float = 0.5,
                    optics_transmittance: float = 0.8) -> ElevationSweep:
    """The dual-monitoring profile at every satellite position.

    For every zenith angle the slant range replaces the link length; reported
    per angle are the profile maxima of eta_ae / eta_eb and the legitimate
    link's transmittance, both diffraction-only and including atmospheric
    extinction plus fixed detection and receiver-optics losses.  The angles
    go through :func:`eve_efficiency_profile` one row each, in as few calls
    as keep each within ``_BLOCK_LANES`` (angle, z) lanes of memory.
    """
    theta = np.asarray(theta_grid, dtype=float)
    beam = comm_beam if comm_beam is not None else cfg_sat.beam
    d = slant_range(theta, altitude)
    blocks = np.array_split(d, max(1, -(-d.size * profile_points // _BLOCK_LANES)))
    profiles = [eve_efficiency_profile(LinkGeometry(total_range=block, r_b=r_b),
                                       cfg_sat, cfg_ground, profile_points, comm_beam=beam)
                for block in blocks]
    diff = aperture_transmittance(r_b, beam_width(d, beam))
    return ElevationSweep(
        theta=theta, eta_ab_diffraction=diff,
        max_eta_ae=np.concatenate([prof.eta_ae.max(axis=-1) for prof in profiles]),
        max_eta_eb=np.concatenate([prof.eta_eb.max(axis=-1) for prof in profiles]),
        eta_ab_effective=diff * atmospheric_extinction(theta, extinction_coefficient)
        * detection_efficiency * optics_transmittance)


# ---------------------------------------------------------------------------
# Named nominal configuration (every value overridable by callers).
# ---------------------------------------------------------------------------

def nominal_comm_beam() -> BeamParams:
    """800 nm transmitter, 15 cm waist, M^2 = 3."""
    return BeamParams(waist=0.15, wavelength=800e-9, quality=3.0)


def nominal_geometry(total_range: float = 500e3) -> LinkGeometry:
    return LinkGeometry(total_range=total_range, r_b=0.5)


def nominal_satellite_lidar(transmit_power: float = 1.0) -> LidarConfig:
    """Downward-looking monitor sharing the communication telescope."""
    return LidarConfig(transmit_power=transmit_power, loss_factor=0.25,
                       reflectivity=0.1, noise_floor=moonlight_background_power(0.15),
                       beam=nominal_comm_beam())


def nominal_ground_lidar(transmit_power: float = 1.0) -> LidarConfig:
    """Upward-looking monitor using the ground station's 0.5 m aperture."""
    return LidarConfig(transmit_power=transmit_power, loss_factor=0.25,
                       reflectivity=0.1, noise_floor=sky_background_power(0.5),
                       beam=BeamParams(waist=0.5, wavelength=800e-9, quality=3.0))


def nominal_radar() -> RadarParams:
    """100 kW ground radar: 2 m dish, 4 cm wavelength, 2.5 MHz bandwidth,
    8 dB noise figure, 7 dB system loss."""
    return RadarParams(transmit_power=1e5, antenna_radius=2.0, wavelength=0.04,
                       bandwidth=2.5e6, noise_figure=10.0 ** 0.8,
                       loss_factor=10.0 ** 0.7)

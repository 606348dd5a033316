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

The size bounds, beam widths and transmittances take a float (and give a
float) or a NumPy array of ranges (and give an array), so a profile along z
is one array evaluation through :func:`eve_efficiencies`.

Default constants not fixed by the optical model itself (albedos, sky
radiance, field of view, filter bandwidth, radar system temperature) are
sourced, overridable engineering values; see the named factories at the
bottom and the README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        if self.waist <= 0.0 or self.wavelength <= 0.0:
            raise ValueError("waist and wavelength must be positive")
        if self.quality < 1.0:
            raise ValueError(f"beam quality M^2 must be >= 1, got {self.quality}")

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
        if self.transmit_power <= 0.0 or self.noise_floor <= 0.0:
            raise ValueError("transmit_power and noise_floor must be positive")
        for name in ("loss_factor", "reflectivity"):
            val = getattr(self, name)
            if not 0.0 < val <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {val}")


@dataclass(frozen=True)
class LinkGeometry:
    """Alice-Bob line of sight and Bob's (ground) aperture radius."""

    total_range: float  # m, distance A -> B
    r_b: float          # m, ground aperture radius

    def __post_init__(self):
        if self.total_range <= 0.0:
            raise ValueError("total_range must be positive")
        if self.r_b <= 0.0:
            raise ValueError("aperture radius must be positive")


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
        for name in ("transmit_power", "antenna_radius", "wavelength", "bandwidth",
                     "antenna_temperature", "loss_factor"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.noise_figure >= 1.0:
            raise ValueError(f"noise_figure must be >= 1 (0 dB), got {self.noise_figure}")
        if not 0.0 < self.aperture_efficiency <= 1.0:
            raise ValueError(f"aperture_efficiency must lie in (0, 1], got "
                             f"{self.aperture_efficiency}")

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
    """Beam radius after propagating a distance z: W0 sqrt(1 + (z M^2 / z_R)^2)."""
    ratio = np.asarray(z, dtype=float) * beam.quality / beam.rayleigh_range
    return _float_or_array(beam.waist * np.sqrt(1.0 + ratio * ratio))


def aperture_transmittance(rho, width):
    """Power fraction of a Gaussian beam of radius ``width`` through a centred
    circular aperture of radius ``rho``: 1 - exp(-2 rho^2 / W^2)."""
    rho = np.asarray(rho, dtype=float)
    return _float_or_array(-np.expm1(-2.0 * rho * rho / np.asarray(width, dtype=float) ** 2))


def focused_beam_width(z, r_e, geom: LinkGeometry, wavelength: float):
    """Waist at B of a beam the eavesdropper (aperture radius r_e, at z)
    focuses on B: W_E = lambda (L - z) / (pi r_e).  z and r_e are floats or
    broadcastable arrays; every z must lie in [0, L) and every r_e be > 0."""
    z = np.asarray(z, dtype=float)
    r_e = np.asarray(r_e, dtype=float)
    if not np.all((0.0 <= z) & (z < geom.total_range)):
        raise ValueError(f"z must lie in [0, total_range), got {z}")
    if not np.all(r_e > 0.0):
        raise ValueError(f"r_e must be positive, got {r_e}")
    return _float_or_array(wavelength * (geom.total_range - z) / (math.pi * r_e))


def radar_cross_section_bound(distance, radar: RadarParams):
    """Largest radar cross-section sigma (m^2) that stays below the noise floor
    at the given range(s): sigma = P_min (4 pi)^3 kappa d^4 / (P_T G^2 lambda^2)."""
    distance = np.asarray(distance, dtype=float)
    if np.any(distance <= 0.0):
        raise ValueError("distance must be positive")
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
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ValueError("z must be >= 0")
    w0 = cfg.beam.waist
    u = 2.0 * cfg.noise_floor * cfg.loss_factor * z * z \
        / (cfg.reflectivity * cfg.transmit_power * w0 * w0)
    far_field = cfg.beam.wavelength * z * cfg.beam.quality / (math.pi * w0)
    below = u < 1.0
    r_e = np.sqrt(-np.log1p(-np.where(below, u, 0.0))) * far_field
    return _float_or_array(np.where(below, r_e, np.inf))


def reflectivity_threshold(z, cfg: LidarConfig):
    """Smallest target reflectivity alpha for which the size bound is finite
    at range z (a float or an array): alpha_min = 2 P_min kappa z^2 / (P_T W0^2)."""
    w0 = cfg.beam.waist
    return 2.0 * cfg.noise_floor * cfg.loss_factor * z * z / (cfg.transmit_power * w0 * w0)


def moonlight_background_power(r_a: float = 0.15, *, fov: float = FIELD_OF_VIEW,
                               bandwidth_nm: float = FILTER_BANDWIDTH_NM) -> float:
    """Noise floor of the satellite LIDAR: moonlight reflected by the Earth
    into the monitoring telescope.  P = a_E a_M R_M^2 r_A^2 (fov / d_EM^2) H B."""
    return (EARTH_ALBEDO * MOON_ALBEDO * MOON_RADIUS ** 2 * r_a ** 2
            * fov / EARTH_MOON_DISTANCE ** 2
            * SOLAR_SPECTRAL_IRRADIANCE * bandwidth_nm)


def sky_background_power(r_b: float = 0.5, *, fov: float = FIELD_OF_VIEW,
                         bandwidth_nm: float = FILTER_BANDWIDTH_NM) -> float:
    """Noise floor of the ground LIDAR: night-sky radiance over the aperture.
    P = H_sky fov pi r_B^2 B."""
    return SKY_SPECTRAL_RADIANCE * fov * math.pi * r_b ** 2 * bandwidth_nm


@dataclass(frozen=True)
class EveProfile:
    """Size and efficiency bounds along the line of sight."""

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
    ``size_bound`` maps an array of interior positions 0 < z < L to r_e.

    An object touching either terminal is always seen (r_e = 0, and both
    efficiencies are 0 wherever r_e = 0); an unbounded one (r_e = inf) has
    both efficiencies 1.  A finite r_e collects the communication beam
    through a disc of radius r_e at z and re-injects through the beam it
    focuses on B's aperture (:func:`focused_beam_width`).
    """
    z = np.asarray(z, dtype=float)
    r_e = np.zeros(z.shape)
    inner = (z > 0.0) & (z < geom.total_range)
    r_e[inner] = size_bound(z[inner])
    eta_ae = np.where(np.isinf(r_e), 1.0, 0.0)
    eta_eb = eta_ae.copy()
    finite = np.isfinite(r_e) & (r_e > 0.0)
    z_f, r_f = z[finite], r_e[finite]
    eta_ae[finite] = aperture_transmittance(r_f, beam_width(z_f, beam))
    eta_eb[finite] = aperture_transmittance(
        geom.r_b, focused_beam_width(z_f, r_f, geom, beam.wavelength))
    return r_e, eta_ae, eta_eb


def eve_efficiency_profile(geom: LinkGeometry, cfg_sat: LidarConfig,
                           cfg_ground: LidarConfig, n_points: int,
                           comm_beam: "BeamParams | None" = None) -> EveProfile:
    """Bound the eavesdropper at ``n_points`` evenly spaced z under
    simultaneous dual monitoring (:func:`dual_lidar_size_bound`), with the
    efficiencies of :func:`eve_efficiencies` for the communication beam."""
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    beam = comm_beam if comm_beam is not None else cfg_sat.beam
    z = np.linspace(0.0, geom.total_range, n_points)
    r_e, eta_ae, eta_eb = eve_efficiencies(
        z, lambda zi: dual_lidar_size_bound(zi, geom, cfg_sat, cfg_ground), geom, beam)
    return EveProfile(z=z, r_e=r_e, eta_ae=eta_ae, eta_eb=eta_eb)


def slant_range(zenith_angle: float, altitude: float,
                earth_radius: float = EARTH_RADIUS) -> float:
    """Line-of-sight distance to a satellite at ``altitude`` seen at
    ``zenith_angle`` from the ground: spherical-Earth geometry.

    d = sqrt((R + h)^2 - R^2 sin^2 theta) - R cos theta;  d(0) = h.
    """
    if not 0.0 <= zenith_angle < math.pi / 2.0:
        raise ValueError(f"zenith angle must lie in [0, pi/2), got {zenith_angle}")
    r = earth_radius
    s = math.sin(zenith_angle)
    return math.sqrt((r + altitude) ** 2 - r * r * s * s) - r * math.cos(zenith_angle)


def atmospheric_extinction(zenith_angle: float, coefficient: float = 0.7) -> float:
    """One-way clear-air transmission exp(-beta sec(theta)) for a vertical
    optical depth beta."""
    return math.exp(-coefficient / math.cos(zenith_angle))


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
    """Repeat the dual-monitoring profile for each satellite position.

    For every zenith angle the slant range replaces the link length; reported
    per angle are the profile maxima of eta_ae / eta_eb and the legitimate
    link's transmittance, both diffraction-only and including atmospheric
    extinction plus fixed detection and receiver-optics losses.
    """
    theta = np.asarray(theta_grid, dtype=float)
    beam = comm_beam if comm_beam is not None else cfg_sat.beam
    d = np.array([slant_range(th, altitude) for th in theta.tolist()])
    profiles = [eve_efficiency_profile(LinkGeometry(total_range=di, r_b=r_b),
                                       cfg_sat, cfg_ground, profile_points, comm_beam=beam)
                for di in d.tolist()]
    extinction = np.array([atmospheric_extinction(th, extinction_coefficient)
                           for th in theta.tolist()])
    diff = aperture_transmittance(r_b, beam_width(d, beam))
    return ElevationSweep(
        theta=theta, eta_ab_diffraction=diff,
        max_eta_ae=np.array([prof.max_eta_ae for prof in profiles]),
        max_eta_eb=np.array([prof.max_eta_eb for prof in profiles]),
        eta_ab_effective=diff * extinction * detection_efficiency * optics_transmittance)


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

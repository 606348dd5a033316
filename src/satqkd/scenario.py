"""Scenario files, sweep orchestration and result-table I/O.

A scenario file is INI-style text with three sections::

    [scenario]
    mode = cv-rr        # cv-rr | cv-dr-m1 | cv-dr-m2 | dv-sps | dv-wcp
                        #   | lidar-profile | lidar-elevation

    [sweep]
    variable = eta_ae   # the x axis; must be a parameter of the mode
    start = 1e-4
    stop = 1.0
    points = 61         # 2 .. MAX_SWEEP_POINTS
    scale = log         # linear (default) | log

    [params]            # everything the sweep holds fixed
    t_eq = 1e-3
    xi = 0.1

Recognised ``[params]`` keys, with defaults in brackets ("req" = must be
given here or swept):

``cv-rr`` / ``cv-dr-m1``
    eta_ae (req), t_eq (req), xi (req), eta_d [1], nu_el [0], v [engine
    default], beta [1], v_s [1].  Giving or sweeping ``eta_s`` / ``eta_t``
    evaluates that fixed bypass hypothesis instead of the worst case, in
    which case both must be resolvable; otherwise the rate is minimised
    over the bypass and ``grid_points`` [101] / ``refine`` [true] tune the
    search (grid_points <= MAX_GRID_POINTS).
``cv-dr-m2``
    eta_ae (req), t_eq (req), xi (req), eta_d [1], nu_el [0], v [engine
    default], beta [1].
``dv-sps`` / ``dv-wcp``
    eta_ch, eta_d, p_dc, e_d, f, q, eta_ae (all req); ``dv-wcp`` also takes
    mu, given or swept — when it is neither, the intensity is optimised per
    point and reported in a ``mu_opt`` column.
``lidar-profile``  (sweep variable: z, metres from the satellite)
    total_range [5e5], r_a [0.15], r_b [0.5], waist [0.15], wavelength
    [8e-7], quality [3], bound_source [dual-lidar].  With ``dual-lidar``:
    power_sat [1], power_ground [1], reflectivity [0.1], loss_factor
    [0.25], noise_floor_sat / noise_floor_ground [computed from the
    apertures].  With ``radar-ground``: radar_power [1e5],
    radar_antenna_radius [2], radar_wavelength [0.04], radar_bandwidth
    [2.5e6], radar_noise_figure_db [8], radar_loss_db [7],
    radar_aperture_efficiency [0.6], radar_antenna_temp [60].
``lidar-elevation``  (sweep variable: zenith_deg, in [0, 90))
    altitude [5e5] plus the dual-lidar keys above, and profile_points
    [201] (<= MAX_PROFILE_POINTS), extinction_coefficient [0.7],
    detection_efficiency [0.5], optics_transmittance [0.8].

``cv-X`` evaluates the engine mode ``"X"``, where v lies in (1, MAX_V]:
1e7 for ``cv-rr``, 1e77 for ``cv-dr-m1``, 1e308 for ``cv-dr-m2``
(``satqkd.cv.MAX_V``), and xi in [0, MAX_XI]: 10, 1e65 and 1e307
(``satqkd.cv.MAX_XI``), the largest decades at which the engine's rates
hold to 1e-8 bits.  ``satqkd.cv.checked_v`` checks both, at load as at
every CV entry point.

Each mode is declared once, in ``_MODE_TABLE``, as one kind
(:class:`_Kind`) per way its optional keys change what is evaluated: the
worst case or a fixed bypass, a given or an optimised mu, a LIDAR or a
radar bound.  A kind holds the key table, the checks no engine constructor
makes, the builder of the engine objects and the evaluator.  The loader
picks the kind once and builds the engine objects at both sweep ends, so
every range their constructors check fails at load, not mid-run; so do the
builders' checks that the link's derived optics (slant range, far-end beam
width, radar cross-section bound) are finite positive floats.

:func:`run_scenario` cuts the sweep into contiguous slices, one per worker;
the kind's evaluator maps a slice of sweep values to its rows, as arrays
for every mode but the CV worst case, which runs point by point.

Tables are emitted as CSV or TSV: a ``#``-prefixed metadata block (sorted
keys), a header row, then one row per sweep point with floats in
full-precision scientific notation.  Cells of infeasible points are left
empty and flagged by a ``feasible`` sentinel column.  Metadata that varies
run to run (wall time, thread count) is kept on the in-memory table but
never written, so identical scenario files emit byte-identical output at
any worker count.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from configparser import ConfigParser, Error as _ConfigParserError
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import __version__
from .checks import finite_positive
from .cv import (
    _DEFAULT_V,
    ChannelObservation,
    CvScenario,
    InfeasibleAttackError,
    checked_v,
    worst_case_rate,
)
from .cv import rate_arrays as cv_rate_arrays  # dv has a rate_arrays too
from .dv import DvParams, optimize_mu_arrays, rate_arrays
from .lidar import (
    BeamParams,
    LidarConfig,
    LinkGeometry,
    RadarParams,
    beam_width,
    dual_lidar_size_bound,
    elevation_sweep,
    eve_efficiencies,
    moonlight_background_power,
    radar_cross_section_bound,
    radar_size_bound,
    reflectivity_threshold,
    sky_background_power,
    slant_range,
)

#: metadata keys that legitimately differ between runs of the same file;
#: emit() skips them so output bytes depend on the scenario alone.
VOLATILE_METADATA = ("wall_time_s", "threads")

# Size caps, checked at load time: a stray digit is exit code 1, not a run
# that takes hours or exhausts memory.
#: One table row and one engine evaluation per point (a CV worst-case row
#: takes ~0.05 s); 20x the largest sweep in use (5000).
MAX_SWEEP_POINTS = 100_000
#: run_scenario starts one thread per slice, up to one per sweep point.  The
#: slices are GIL-bound Python and NumPy that gain little past a few cores,
#: and 100,000 points must not mean 100,000 OS threads.
MAX_THREADS = 64
#: lidar-elevation rows evaluate arrays this long; 500x the default 201.
MAX_PROFILE_POINTS = 100_000
#: The worst-case search holds a few dozen arrays of grid_points^2 bypass
#: hypotheses, ~2 MB each at 501; 5x the default 101.
MAX_GRID_POINTS = 501


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate.

    The message names the offending section or key, so the fix is one edit
    away.  The CLI maps this to exit code 1.
    """


# ---------------------------------------------------------------------------
# Parsed scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    points: int
    scale: str = "linear"

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.logspace(math.log10(self.start), math.log10(self.stop),
                               self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully validated scenario: mode, sweep and resolved parameters."""

    mode: str
    sweep: SweepSpec
    params: dict
    path: str = ""
    #: how the mode is evaluated, picked once by the loader (see _MODE_TABLE)
    kind: "_Kind | None" = field(default=None, repr=False, compare=False)


@dataclass
class ResultTable:
    columns: "tuple[str, ...]"
    rows: "list[tuple]"
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Low-level value parsing
# ---------------------------------------------------------------------------

def _float(raw: str, where: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ScenarioError(f"{where}: expected a number, got {raw!r}") from None
    if math.isnan(val):
        raise ScenarioError(f"{where}: NaN is not a valid parameter value")
    if math.isinf(val):
        raise ScenarioError(f"{where}: infinity is not a valid parameter value")
    return val


def _int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"{where}: expected an integer, got {raw!r}") from None


def _bool(raw: str, where: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ScenarioError(f"{where}: expected true/false, got {raw!r}")


def _str(raw: str, where: str) -> str:
    return raw.strip()


_REQUIRED = object()  # sentinel default: the key must be supplied or swept


def _resolve_keys(keyspec: dict, raw: dict, sweep_var: str, mode: str) -> dict:
    """Apply a ``{key: (parser, default)}`` table to the raw [params] strings;
    a callable default is computed from the mode and the resolved values."""
    unknown = sorted(set(raw) - set(keyspec))
    if unknown:
        raise ScenarioError(
            f"[params] keys not recognised for mode {mode}: {', '.join(unknown)}")
    if sweep_var in raw:
        raise ScenarioError(
            f"sweep variable {sweep_var!r} may not also be fixed in [params]")
    out = {}
    for key, (parse, default) in keyspec.items():
        if key == sweep_var:
            continue  # supplied per point by the sweep
        if key in raw:
            out[key] = parse(raw[key], f"[params] {key}")
        elif default is _REQUIRED:
            raise ScenarioError(
                f"mode {mode} requires [params] key {key!r} (or sweep it)")
        else:
            out[key] = default
    for key, value in out.items():
        if callable(value):
            out[key] = value(mode, out)
    return out


def _check_count(value: int, cap: int, where: str) -> None:
    if value < 2:
        raise ScenarioError(f"{where} must be >= 2, got {value}")
    if value > cap:
        raise ScenarioError(f"{where} must be <= {cap}, got {value}")


def _positive(p: dict, key: str) -> None:
    if not p[key] > 0.0:
        raise ScenarioError(f"[params] {key} must be > 0, got {p[key]}")


# ---------------------------------------------------------------------------
# Key tables, and the checks no engine constructor makes
# ---------------------------------------------------------------------------

_CV_KEYS = {
    "t_eq": (_float, _REQUIRED),
    "xi": (_float, _REQUIRED),
    "eta_d": (_float, 1.0),
    "nu_el": (_float, 0.0),
    "eta_ae": (_float, _REQUIRED),
    "v": (_float, lambda mode, p: _DEFAULT_V[mode[3:]]),  # "cv-rr" -> "rr"
    "beta": (_float, 1.0),
}

_DV_KEYS = {
    "eta_ch": (_float, _REQUIRED),
    "eta_d": (_float, _REQUIRED),
    "p_dc": (_float, _REQUIRED),
    "e_d": (_float, _REQUIRED),
    "f": (_float, _REQUIRED),
    "q": (_float, _REQUIRED),
    "eta_ae": (_float, _REQUIRED),
}

_BEAM_KEYS = {
    "waist": (_float, 0.15),
    "wavelength": (_float, 800e-9),
    "quality": (_float, 3.0),
}

_APERTURE_KEYS = {"r_a": (_float, 0.15), "r_b": (_float, 0.5)}


def _noise_floor(background: Callable, aperture: str) -> Callable:
    """The default noise floor: the background through ``aperture``."""
    def default(mode: str, p: dict) -> float:
        _positive(p, aperture)
        try:
            return finite_positive(f"[params] the default noise floor of {aperture} = "
                                   f"{p[aperture]}", lambda: background(p[aperture]))
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
    return default


_DUAL_LIDAR_KEYS = {
    "power_sat": (_float, 1.0),
    "power_ground": (_float, 1.0),
    "reflectivity": (_float, 0.1),
    "loss_factor": (_float, 0.25),
    "noise_floor_sat": (_float, _noise_floor(moonlight_background_power, "r_a")),
    "noise_floor_ground": (_float, _noise_floor(sky_background_power, "r_b")),
}

_RADAR_KEYS = {
    "radar_power": (_float, 1e5),
    "radar_antenna_radius": (_float, 2.0),
    "radar_wavelength": (_float, 0.04),
    "radar_bandwidth": (_float, 2.5e6),
    "radar_noise_figure_db": (_float, 8.0),
    "radar_loss_db": (_float, 7.0),
    "radar_aperture_efficiency": (_float, 0.6),
    "radar_antenna_temp": (_float, 60.0),
}


def _check_grid(sweep: SweepSpec, p: dict) -> None:
    _check_count(p["grid_points"], MAX_GRID_POINTS, "[params] grid_points")


def _check_profile(sweep: SweepSpec, p: dict) -> None:
    # r_a sets only the satellite LIDAR's default noise floor.
    _positive(p, "r_a")
    if not 0.0 <= min(sweep.start, sweep.stop) \
            or not max(sweep.start, sweep.stop) <= p["total_range"]:
        raise ScenarioError(
            "[sweep] z must stay within [0, total_range] "
            f"= [0, {p['total_range']}]")


def _check_elevation(sweep: SweepSpec, p: dict) -> None:
    # r_a sets only the satellite LIDAR's default noise floor; slant_range
    # checks the altitude.
    _positive(p, "r_a")
    for key in ("detection_efficiency", "optics_transmittance"):
        if not 0.0 < p[key] <= 1.0:
            raise ScenarioError(f"[params] {key} must lie in (0, 1], got {p[key]}")
    if p["extinction_coefficient"] < 0.0:
        raise ScenarioError("[params] extinction_coefficient must be >= 0, "
                            f"got {p['extinction_coefficient']}")
    if not (0.0 <= sweep.start < 90.0 and 0.0 <= sweep.stop < 90.0):
        raise ScenarioError("[sweep] zenith_deg must stay within [0, 90)")
    _check_count(p["profile_points"], MAX_PROFILE_POINTS, "[params] profile_points")


# ---------------------------------------------------------------------------
# Engine objects at one point: their constructors check every range they hold
# ---------------------------------------------------------------------------

def _cv_objects(mode: str, p: dict) -> "tuple[ChannelObservation, CvScenario]":
    """The observation and the hypothesis; the worst case's is the no-bypass one."""
    checked_v(mode, p["v"], p["xi"])
    return (ChannelObservation(t_eq=p["t_eq"], xi=p["xi"], eta_d=p["eta_d"],
                               nu_el=p["nu_el"]),
            CvScenario(eta_ae=p["eta_ae"], eta_s=p.get("eta_s", 0.0),
                       eta_t=p.get("eta_t", 1.0), v=p["v"], beta=p["beta"],
                       v_s=p.get("v_s", 1.0)))


def _dv_params(source: str, p: dict) -> DvParams:
    return DvParams(source=source, mu=p.get("mu", 1.0),
                    **{key: p[key] for key in _DV_KEYS})


def _beam(p: dict) -> BeamParams:
    return BeamParams(**{key: p[key] for key in _BEAM_KEYS})


def _dual_lidars(p: dict, beam: BeamParams) -> "tuple[LidarConfig, LidarConfig]":
    """The satellite LIDAR, which shares the communication beam, and the
    ground LIDAR, whose beam has the ground aperture as its waist."""
    shared = dict(loss_factor=p["loss_factor"], reflectivity=p["reflectivity"])
    return (LidarConfig(transmit_power=p["power_sat"], noise_floor=p["noise_floor_sat"],
                        beam=beam, **shared),
            LidarConfig(transmit_power=p["power_ground"],
                        noise_floor=p["noise_floor_ground"],
                        beam=replace(beam, waist=p["r_b"]), **shared))


def _linear(p: dict, key: str) -> float:
    """A [params] value in dB as a linear factor."""
    try:
        return 10.0 ** (p[key] / 10.0)
    except OverflowError:
        raise ScenarioError(f"[params] {key} = {p[key]} dB overflows a float") from None


def _radar(p: dict, beam: BeamParams) -> RadarParams:
    """The radar; its cross-section bound must stay a float over the link."""
    radar = RadarParams(
        transmit_power=p["radar_power"],
        antenna_radius=p["radar_antenna_radius"],
        wavelength=p["radar_wavelength"],
        bandwidth=p["radar_bandwidth"],
        noise_figure=_linear(p, "radar_noise_figure_db"),
        loss_factor=_linear(p, "radar_loss_db"),
        aperture_efficiency=p["radar_aperture_efficiency"],
        antenna_temperature=p["radar_antenna_temp"])
    finite_positive(f"[params] the radar cross-section bound at total_range = "
                    f"{p['total_range']} m", lambda: radar_cross_section_bound(
                        p["total_range"], radar))
    return radar


def _spot(beam: BeamParams, length: float, where: str) -> None:
    """The beam must stay a float's width over the link."""
    finite_positive(f"[params] the beam width of waist = {beam.waist}, wavelength = "
                    f"{beam.wavelength} and quality = {beam.quality} at {where}",
                    lambda: beam_width(length, beam))


def _profile_objects(monitor: Callable, p: dict) -> tuple:
    """The communication beam, the link, and its monitor (the LIDARs or the radar)."""
    beam = _beam(p)
    _spot(beam, p["total_range"], f"total_range = {p['total_range']} m")
    return beam, LinkGeometry(total_range=p["total_range"], r_b=p["r_b"]), monitor(p, beam)


def _elevation_objects(p: dict) -> tuple:
    """The beam and the two LIDARs; the link must be a positive float long."""
    where = f"altitude = {p['altitude']} m and zenith_deg = {p['zenith_deg']}"
    length = finite_positive(f"[params] the slant range at {where}", lambda: slant_range(
        math.radians(p["zenith_deg"]), p["altitude"]))
    beam = _beam(p)
    _spot(beam, length, where)
    return (beam, *_dual_lidars(p, beam))


# ---------------------------------------------------------------------------
# Evaluators: columns + slice functions, closed over the fixed parameters
# ---------------------------------------------------------------------------

def _clamp(rate: float) -> float:
    return rate if rate > 0.0 else 0.0


def _clamp_array(rate: np.ndarray) -> np.ndarray:
    return np.where(rate > 0.0, rate, 0.0)


def _evaluator_cv_worst(spec: ScenarioSpec):
    engine_mode = spec.mode[3:]
    columns = ("k_worst", "k_worst_pos", "argmin_eta_s", "argmin_eta_t",
               "k_nobypass", "k_nobypass_pos", "feasible", "feasible_nobypass")

    def row(p: dict) -> tuple:
        obs, hyp = spec.kind.build(p)
        try:
            res = worst_case_rate(hyp.eta_ae, obs, engine_mode,
                                  grid_points=p["grid_points"], v=hyp.v,
                                  beta=hyp.beta, v_s=hyp.v_s, refine=p["refine"])
        except InfeasibleAttackError:
            return (None, None, None, None, None, None, 0, 0)
        nb = res.rate_nobypass
        if nb is None:
            return (res.rate, _clamp(res.rate), res.eta_s, res.eta_t,
                    None, None, 1, 0)
        return (res.rate, _clamp(res.rate), res.eta_s, res.eta_t,
                nb, _clamp(nb), 1, 1)

    def rows(values: "list[float]") -> "list[tuple]":
        return [row({**spec.params, spec.sweep.variable: x}) for x in values]

    return columns, rows


def _evaluator_cv_arrays(spec: ScenarioSpec):
    # Fixed-hypothesis cv-rr / cv-dr-m1 and cv-dr-m2: one cv.rate_arrays call
    # per slice.  The cv-dr-m2 bound is feasible everywhere.
    engine_mode = spec.mode[3:]
    dr_m2 = engine_mode == "dr-m2"
    columns = ("eve_bound", "k", "k_pos") if dr_m2 else ("k", "k_pos", "chi_eve", "feasible")

    def rows(values: "list[float]") -> "list[tuple]":
        p = {**spec.params, spec.sweep.variable: np.array(values, dtype=float)}
        rate, chi, feasible = cv_rate_arrays(engine_mode, **p)
        bad = feasible & ~np.isfinite(rate)
        if bad.any():
            x = values[int(np.argmax(bad))]
            raise FloatingPointError(
                f"non-finite key rate at {spec.sweep.variable}={x!r}")
        if dr_m2:
            return [(c, k, _clamp(k)) for c, k in zip(chi.tolist(), rate.tolist())]
        return [(k, _clamp(k), c, 1) if ok else (None, None, None, 0)
                for k, c, ok in zip(rate.tolist(), chi.tolist(), feasible.tolist())]

    return columns, rows


def _evaluator_dv(spec: ScenarioSpec, *, optimise: bool = False):
    # dv-wcp evaluates mu as given or swept, or, in its kind without mu,
    # optimises it per point and reports the optimum.  Every DV table ends
    # with the single-photon rate.
    wcp = spec.mode == "dv-wcp"
    columns = (("rate_wcp", "rate_wcp_pos") if wcp else ()) \
        + (("mu_opt",) if optimise else ()) + ("rate_sps", "rate_sps_pos")

    def rows(values: "list[float]") -> "list[tuple]":
        p = {**spec.params, spec.sweep.variable: np.array(values, dtype=float)}
        link = {key: p[key] for key in _DV_KEYS}
        cells = []
        if optimise:
            mu, rate = optimize_mu_arrays(**link)
            cells += [rate, _clamp_array(rate), mu]
        elif wcp:
            rate = rate_arrays("wcp", mu=p["mu"], **link)
            cells += [rate, _clamp_array(rate)]
        sps = rate_arrays("sps", **link)
        cells += [sps, _clamp_array(sps)]
        return list(zip(*(np.broadcast_to(c, (len(values),)).tolist() for c in cells)))

    return columns, rows


def _evaluator_lidar_profile(spec: ScenarioSpec):
    beam, geom, monitor = spec.kind.build(spec.params)
    total = geom.total_range
    if isinstance(monitor, RadarParams):
        columns = ("r_e", "eta_ae", "eta_eb")

        def cells(z):
            return eve_efficiencies(
                z, lambda zi, link: radar_size_bound(link.total_range - zi, monitor), geom, beam)
    else:
        columns = ("r_e", "eta_ae", "eta_eb", "alpha_min_sat", "alpha_min_ground")
        cfg_sat, cfg_ground = monitor

        def cells(z):
            return eve_efficiencies(
                z, lambda zi, link: dual_lidar_size_bound(zi, link, cfg_sat, cfg_ground),
                geom, beam) + (reflectivity_threshold(z, cfg_sat),
                               reflectivity_threshold(total - z, cfg_ground))

    def rows(values: "list[float]") -> "list[tuple]":
        return list(zip(*(c.tolist() for c in cells(np.array(values, dtype=float)))))

    return columns, rows


def _evaluator_lidar_elevation(spec: ScenarioSpec):
    p = spec.params
    beam, cfg_sat, cfg_ground = spec.kind.build({**p, "zenith_deg": spec.sweep.start})
    columns = ("max_eta_ae", "max_eta_eb", "eta_ab_diffraction",
               "eta_ab_effective")

    def rows(values: "list[float]") -> "list[tuple]":
        out = elevation_sweep(
            p["altitude"], cfg_sat, cfg_ground, np.radians(values),
            r_b=p["r_b"], comm_beam=beam,
            profile_points=p["profile_points"],
            extinction_coefficient=p["extinction_coefficient"],
            detection_efficiency=p["detection_efficiency"],
            optics_transmittance=p["optics_transmittance"])
        return list(zip(*(getattr(out, name).tolist() for name in columns)))

    return columns, rows


# ---------------------------------------------------------------------------
# The mode table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Kind:
    """One way a scenario mode reads ``[params]`` and evaluates its sweep.

    ``keys`` maps each key to ``(parser, default)``; the sweepable keys are
    the numeric ones unless ``axis`` names them.  ``check(sweep, params)``
    makes the checks no engine constructor makes.  ``build(params at one
    point)`` returns the engine objects: the loader builds them at both
    sweep ends, and the evaluator (``spec -> (columns, rows of a slice)``)
    runs them.  ``when(raw params, sweep variable)`` says whether the mode
    takes this kind; None means otherwise.
    """

    keys: dict
    build: Callable
    evaluator: Callable
    check: "Callable | None" = None
    axis: "tuple[str, ...]" = ()
    when: "Callable | None" = None

    @property
    def sweepable(self) -> "tuple[str, ...]":
        return self.axis or tuple(key for key, (parse, _) in self.keys.items()
                                  if parse is _float)


def _given(*keys: str) -> Callable:
    """A ``when``: one of ``keys`` is given in [params] or swept."""
    return lambda raw, variable: any(key in raw or key == variable for key in keys)


def _radar_bound(raw: dict, variable: str) -> bool:
    source = raw.get("bound_source", "dual-lidar").strip()
    if source not in ("dual-lidar", "radar-ground"):
        raise ScenarioError("[params] bound_source must be 'dual-lidar' or "
                            f"'radar-ground', got {source!r}")
    return source == "radar-ground"


def _cv_bypass_kinds(mode: str) -> "tuple[_Kind, _Kind]":
    """cv-rr and cv-dr-m1: a fixed bypass hypothesis, or the worst case."""
    build = partial(_cv_objects, mode)
    return (_Kind({**_CV_KEYS, "v_s": (_float, 1.0), "eta_s": (_float, _REQUIRED),
                   "eta_t": (_float, _REQUIRED)},
                  build, _evaluator_cv_arrays, when=_given("eta_s", "eta_t")),
            _Kind({**_CV_KEYS, "v_s": (_float, 1.0), "grid_points": (_int, 101),
                   "refine": (_bool, True)},
                  build, _evaluator_cv_worst, _check_grid))


_PROFILE_KEYS = {"total_range": (_float, 500e3), **_APERTURE_KEYS, **_BEAM_KEYS}

#: Every scenario mode, as its kinds: the first whose ``when`` holds is taken.
_MODE_TABLE = {
    "cv-rr": _cv_bypass_kinds("rr"),
    "cv-dr-m1": _cv_bypass_kinds("dr-m1"),
    "cv-dr-m2": (_Kind(_CV_KEYS, partial(_cv_objects, "dr-m2"), _evaluator_cv_arrays),),
    "dv-sps": (_Kind(_DV_KEYS, partial(_dv_params, "sps"), _evaluator_dv),),
    "dv-wcp": (_Kind({**_DV_KEYS, "mu": (_float, _REQUIRED)}, partial(_dv_params, "wcp"),
                     _evaluator_dv, when=_given("mu")),
               _Kind(_DV_KEYS, partial(_dv_params, "wcp"),
                     partial(_evaluator_dv, optimise=True))),
    "lidar-profile": (
        _Kind({**_PROFILE_KEYS, "bound_source": (_str, "radar-ground"), **_RADAR_KEYS},
              partial(_profile_objects, _radar), _evaluator_lidar_profile, _check_profile,
              axis=("z",), when=_radar_bound),
        _Kind({**_PROFILE_KEYS, "bound_source": (_str, "dual-lidar"),
               **_DUAL_LIDAR_KEYS},
              partial(_profile_objects, _dual_lidars), _evaluator_lidar_profile, _check_profile,
              axis=("z",))),
    "lidar-elevation": (
        _Kind({"altitude": (_float, 500e3), **_APERTURE_KEYS, **_BEAM_KEYS,
               **_DUAL_LIDAR_KEYS, "profile_points": (_int, 201),
               "extinction_coefficient": (_float, 0.7),
               "detection_efficiency": (_float, 0.5),
               "optics_transmittance": (_float, 0.8)},
              _elevation_objects, _evaluator_lidar_elevation, _check_elevation,
              axis=("zenith_deg",)),),
}

MODES = tuple(_MODE_TABLE)


# ---------------------------------------------------------------------------
# File loading
# ---------------------------------------------------------------------------

def load_scenario(path: str) -> ScenarioSpec:
    """Parse and validate a scenario file.

    Raises :class:`ScenarioError` on syntax or validation problems (a file
    that is not UTF-8 among them) and lets :class:`OSError` escape for
    unreadable paths.  The engine objects the evaluator uses are built at
    both sweep endpoints, so every range their constructors check surfaces
    here rather than mid-run.
    """
    parser = ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    with open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh, source=path)
        except (_ConfigParserError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"cannot parse {path}: {exc}") from exc

    unknown = sorted(set(parser.sections()) - {"scenario", "sweep", "params"})
    if unknown:
        raise ScenarioError(f"unknown sections: {', '.join(unknown)} "
                            "(expected [scenario], [sweep], [params])")
    for section in ("scenario", "sweep"):
        if not parser.has_section(section):
            raise ScenarioError(f"missing required section [{section}]")

    scn = dict(parser.items("scenario"))
    mode = _str(scn.pop("mode", ""), "[scenario] mode")
    if scn:
        raise ScenarioError(
            f"unknown [scenario] keys: {', '.join(sorted(scn))} (only 'mode')")
    if mode not in MODES:
        raise ScenarioError(
            f"[scenario] mode must be one of {', '.join(MODES)}; got {mode!r}")

    sw = dict(parser.items("sweep"))
    extra = sorted(set(sw) - {"variable", "start", "stop", "points", "scale"})
    if extra:
        raise ScenarioError(f"unknown [sweep] keys: {', '.join(extra)}")
    for key in ("variable", "start", "stop", "points"):
        if key not in sw:
            raise ScenarioError(f"[sweep] is missing required key {key!r}")
    sweep = SweepSpec(variable=_str(sw["variable"], "[sweep] variable"),
                      start=_float(sw["start"], "[sweep] start"),
                      stop=_float(sw["stop"], "[sweep] stop"),
                      points=_int(sw["points"], "[sweep] points"),
                      scale=_str(sw.get("scale", "linear"), "[sweep] scale"))
    _check_count(sweep.points, MAX_SWEEP_POINTS, "[sweep] points")
    if sweep.scale not in ("linear", "log"):
        raise ScenarioError(f"[sweep] scale must be linear or log, got {sweep.scale!r}")
    if sweep.scale == "log" and (sweep.start <= 0.0 or sweep.stop <= 0.0):
        raise ScenarioError("[sweep] log scale needs positive start and stop")

    raw_params = dict(parser.items("params")) if parser.has_section("params") else {}
    kind = next(k for k in _MODE_TABLE[mode]
                if k.when is None or k.when(raw_params, sweep.variable))
    if sweep.variable not in kind.sweepable:
        raise ScenarioError(
            f"{sweep.variable!r} is not a sweepable parameter of mode {mode}; "
            f"choose one of: {', '.join(kind.sweepable)}")
    params = _resolve_keys(kind.keys, raw_params, sweep.variable, mode)
    if kind.check is not None:
        kind.check(sweep, params)

    for endpoint in (sweep.start, sweep.stop):
        try:
            kind.build({**params, sweep.variable: endpoint})
        except ValueError as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError(
                f"invalid parameters at {sweep.variable}={endpoint}: {exc}") from exc

    return ScenarioSpec(mode=mode, sweep=sweep, params=params, path=path, kind=kind)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def run_scenario(path: str, *, threads: int = 1) -> ResultTable:
    """Evaluate a scenario file into a :class:`ResultTable`.

    The sweep is cut into at most ``threads`` (1 to MAX_THREADS) contiguous
    slices, one per worker, and the rows are joined in sweep order, so the
    table (and, because :func:`emit` drops volatile metadata, the emitted
    bytes) does not depend on the worker count.  Raises :class:`InfeasibleAttackError`
    when a CV sweep is infeasible at every point — a sign the restriction
    hypothesis cannot reproduce the observed channel at all.
    """
    if not 1 <= threads <= MAX_THREADS:
        raise ScenarioError(f"threads must lie in [1, {MAX_THREADS}], got {threads}")
    spec = load_scenario(path)
    tail_columns, rows_fn = spec.kind.evaluator(spec)
    grid = spec.sweep.grid()
    slices = [part.tolist() for part in np.array_split(grid, min(threads, grid.size))]

    start = time.perf_counter()
    if len(slices) == 1:
        tails = rows_fn(slices[0])
    else:
        with ThreadPoolExecutor(max_workers=len(slices)) as pool:
            tails = [row for part in pool.map(rows_fn, slices) for row in part]
    wall = time.perf_counter() - start

    columns = (spec.sweep.variable,) + tuple(tail_columns)
    rows = [(x,) + tail for x, tail in zip(grid.tolist(), tails)]

    if "feasible" in columns:
        sentinel = columns.index("feasible")
        if all(r[sentinel] == 0 for r in rows):
            raise InfeasibleAttackError(
                f"every point of the sweep over {spec.sweep.variable!r} is "
                "infeasible: no attack reproduces the stated observations")

    metadata = {
        "mode": spec.mode,
        "engine_version": __version__,
        "scenario_file": os.path.basename(path),
        "sweep_variable": spec.sweep.variable,
        "sweep_start": spec.sweep.start,
        "sweep_stop": spec.sweep.stop,
        "sweep_points": spec.sweep.points,
        "sweep_scale": spec.sweep.scale,
        "wall_time_s": wall,
        "threads": threads,
    }
    for key, value in spec.params.items():
        metadata[f"param_{key}"] = value
    return ResultTable(columns=columns, rows=rows, metadata=metadata)


# ---------------------------------------------------------------------------
# Emission and re-parsing
# ---------------------------------------------------------------------------

_SEPARATORS = {"csv": ",", "tsv": "\t"}


def _format_cell(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, bool) or not isinstance(cell, (int, np.integer)):
        return f"{float(cell):.17e}"
    return str(int(cell))


def _format_meta(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(table: ResultTable, dest, *, fmt: str = "csv") -> None:
    """Write a table as delimited text to a path or open file object.

    Layout: '#'-prefixed metadata lines (keys sorted, volatile ones
    dropped), the header row, then the data rows.  Floats use 17-digit
    scientific notation so :func:`read_table` reproduces them exactly;
    empty cells mark values a sentinel column explains.
    """
    if fmt not in _SEPARATORS:
        raise ScenarioError(f"format must be csv or tsv, got {fmt!r}")
    sep = _SEPARATORS[fmt]
    lines = [f"# {key} = {_format_meta(table.metadata[key])}"
             for key in sorted(table.metadata) if key not in VOLATILE_METADATA]
    lines.append(sep.join(table.columns))
    for row in table.rows:
        if len(row) != len(table.columns):
            raise ValueError(
                f"ragged table: row of {len(row)} cells under "
                f"{len(table.columns)} columns")
        lines.append(sep.join([f"{cell:.17e}" if type(cell) is float
                               else _format_cell(cell) for cell in row]))
    text = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def read_table(source) -> ResultTable:
    """Parse a file produced by :func:`emit` back into a table.

    Metadata values come back as strings; cells come back as floats with
    ``None`` for the empty cells of infeasible points.  Numeric content
    round-trips exactly.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    metadata: dict = {}
    columns: "tuple[str, ...] | None" = None
    rows: "list[tuple]" = []
    sep = ","
    for line in lines:
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(" = ")
            metadata[key] = value
            continue
        if columns is None:
            sep = "\t" if "\t" in line else ","
            columns = tuple(line.split(sep))
            continue
        rows.append(tuple(None if cell == "" else float(cell)
                          for cell in line.split(sep)))
    if columns is None:
        raise ScenarioError("no header row found; is this an emitted table?")
    return ResultTable(columns=columns, rows=rows, metadata=metadata)

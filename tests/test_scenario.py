"""Scenario files, sweep runner, table I/O and the command-line front end."""

import dataclasses
import glob
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import satqkd
from satqkd import cli, dv, scenario
from satqkd.cv import ChannelObservation, CvScenario, InfeasibleAttackError
from satqkd.dv import DvParams
from satqkd.lidar import (
    BeamParams,
    LidarConfig,
    LinkGeometry,
    RadarParams,
    elevation_sweep,
    eve_efficiencies,
    eve_efficiency_profile,
    moonlight_background_power,
    nominal_comm_beam,
    nominal_geometry,
    nominal_ground_lidar,
    nominal_radar,
    nominal_satellite_lidar,
    radar_size_bound,
    sky_background_power,
)
from satqkd.scenario import (
    ResultTable,
    ScenarioError,
    emit,
    load_scenario,
    read_table,
    run_scenario,
)

HERE = os.path.dirname(__file__)
SHIPPED = os.path.normpath(os.path.join(HERE, os.pardir, "scenarios"))


def write(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


QUICK_DR_M2 = """\
    [scenario]
    mode = cv-dr-m2
    [sweep]
    variable = eta_ae
    start = 1e-6
    stop = 1e-2
    points = 5
    scale = log
    [params]
    t_eq = 1e-3
    xi = 1.0
"""

QUICK_WORST = """\
    [scenario]
    mode = cv-rr
    [sweep]
    variable = eta_ae
    start = 0.05
    stop = 0.5
    points = 4
    [params]
    t_eq = 1e-3
    xi = 0.1
    v = 300
    grid_points = 21
    refine = false
"""


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_load_resolves_defaults_and_requireds(tmp_path):
    spec = load_scenario(write(tmp_path, QUICK_WORST))
    assert spec.mode == "cv-rr"
    assert spec.sweep.variable == "eta_ae" and spec.sweep.points == 4
    assert spec.params["eta_d"] == 1.0 and spec.params["beta"] == 1.0
    assert spec.params["v"] == 300.0
    assert spec.params["refine"] is False


def test_engine_default_source_variance_is_mode_specific(tmp_path):
    text = QUICK_DR_M2.replace("cv-dr-m2", "{mode}")
    m2 = load_scenario(write(tmp_path, text.format(mode="cv-dr-m2"), "m2.ini"))
    assert m2.params["v"] == 1e7
    rr = load_scenario(write(tmp_path, """\
        [scenario]
        mode = cv-rr
        [sweep]
        variable = eta_ae
        start = 0.05
        stop = 0.5
        points = 3
        [params]
        t_eq = 1e-3
        xi = 0.1
    """, "rr.ini"))
    assert rr.params["v"] == 300.0


# Infinite values must fail at load time: otherwise the first dies in NumPy
# mid-run and the second emits -inf rate cells.
INF_XI = ("[scenario]\nmode = cv-rr\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
          "stop = 0.5\npoints = 3\n[params]\nt_eq = 1e-3\nxi = inf\n")
INF_F = ("[scenario]\nmode = dv-sps\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
         "stop = 0.5\npoints = 3\n[params]\neta_ch = 1e-3\neta_d = 0.9\n"
         "p_dc = 1e-7\ne_d = 0.01\nf = inf\nq = 1\n")
# Over the size caps.  These are only ever loaded: running them would take
# hours or exhaust memory.
HUGE_SWEEP = ("[scenario]\nmode = cv-dr-m2\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
              "stop = 0.5\npoints = 1000000000\n[params]\nt_eq = 1e-3\nxi = 0.1\n")
HUGE_PROFILE = ("[scenario]\nmode = lidar-elevation\n[sweep]\nvariable = zenith_deg\n"
                "start = 0\nstop = 60\npoints = 3\n[params]\n"
                "profile_points = 1000000000\n")
HUGE_GRID = ("[scenario]\nmode = cv-rr\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
             "stop = 0.5\npoints = 2\n[params]\nt_eq = 1e-3\nxi = 0.1\n"
             "grid_points = 1000000\n")


@pytest.mark.parametrize("text, match", [
    ("not an ini file at all\n", "cannot parse"),
    ("[scenario]\nmode = cv-rr\n", "missing required section"),
    ("[scenario]\nmode = cv-rr\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
     "stop = 0.5\npoints = 3\n[typo]\nx = 1\n", "unknown sections"),
    ("[scenario]\nmode = cv-rr\nextra = 1\n[sweep]\nvariable = eta_ae\n"
     "start = 0.1\nstop = 0.5\npoints = 3\n", r"unknown \[scenario\] keys"),
    ("[scenario]\nmode = cv-qq\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
     "stop = 0.5\npoints = 3\n", "mode must be one of"),
    ("[scenario]\nmode = cv-rr\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
     "stop = 0.5\npoints = 3\nstep = 0.1\n", r"unknown \[sweep\] keys"),
    ("[scenario]\nmode = cv-rr\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
     "points = 3\n", "missing required key"),
    ("[scenario]\nmode = cv-rr\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
     "stop = 0.5\npoints = 1\n[params]\nt_eq = 1e-3\nxi = 0.1\n",
     "points must be >= 2"),
    ("[scenario]\nmode = cv-rr\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
     "stop = 0.5\npoints = 2.5\n", "expected an integer"),
    ("[scenario]\nmode = cv-rr\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
     "stop = 0.5\npoints = 3\nscale = cubic\n", "scale must be linear or log"),
    ("[scenario]\nmode = cv-rr\n[sweep]\nvariable = eta_ae\nstart = 0\n"
     "stop = 0.5\npoints = 3\nscale = log\n", "log scale needs positive"),
    ("[scenario]\nmode = cv-rr\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
     "stop = 0.5\npoints = 3\n[params]\nt_eq = 1e-3\nxi = 0.1\nbogus = 1\n",
     "not recognised"),
    ("[scenario]\nmode = cv-rr\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
     "stop = 0.5\npoints = 3\n[params]\nt_eq = 1e-3\nxi = 0.1\neta_ae = 0.2\n",
     "may not also be fixed"),
    ("[scenario]\nmode = cv-rr\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
     "stop = 0.5\npoints = 3\n[params]\nxi = 0.1\n", "requires \\[params\\] key"),
    ("[scenario]\nmode = cv-rr\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
     "stop = 0.5\npoints = 3\n[params]\nt_eq = fast\nxi = 0.1\n",
     "expected a number"),
    ("[scenario]\nmode = cv-rr\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
     "stop = 0.5\npoints = 3\n[params]\nt_eq = nan\nxi = 0.1\n", "NaN"),
    (INF_XI, "infinity"),
    (INF_F, "infinity"),
    ("[scenario]\nmode = cv-rr\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
     "stop = -inf\npoints = 3\n[params]\nt_eq = 1e-3\nxi = 0.1\n", "infinity"),
    ("[scenario]\nmode = cv-rr\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
     "stop = 0.5\npoints = 3\n[params]\nt_eq = 1e-3\nxi = 0.1\nrefine = maybe\n",
     "true/false"),
    # grid search tuning keys make no sense once the bypass is pinned
    ("[scenario]\nmode = cv-rr\n[sweep]\nvariable = eta_ae\nstart = 0.1\n"
     "stop = 0.5\npoints = 3\n[params]\nt_eq = 1e-3\nxi = 0.1\neta_s = 0.1\n"
     "eta_t = 0.9\ngrid_points = 11\n", "not recognised"),
    ("[scenario]\nmode = cv-rr\n[sweep]\nvariable = xi\nstart = -0.1\n"
     "stop = 0.1\npoints = 3\n[params]\nt_eq = 1e-3\neta_ae = 0.1\n",
     "invalid parameters at xi=-0.1"),
    ("[scenario]\nmode = dv-sps\n[sweep]\nvariable = mu\nstart = 0.1\n"
     "stop = 1.0\npoints = 3\n[params]\neta_ch = 1e-3\neta_d = 0.9\n"
     "p_dc = 1e-7\ne_d = 0.01\nf = 1.16\nq = 1\neta_ae = 0.5\n",
     "not a sweepable parameter"),
    ("[scenario]\nmode = lidar-profile\n[sweep]\nvariable = z\nstart = 0\n"
     "stop = 6e5\npoints = 3\n", "must stay within"),
    ("[scenario]\nmode = lidar-profile\n[sweep]\nvariable = z\nstart = 0\n"
     "stop = 5e5\npoints = 3\n[params]\nbound_source = sonar\n",
     "bound_source must be"),
    ("[scenario]\nmode = lidar-elevation\n[sweep]\nvariable = zenith_deg\n"
     "start = 0\nstop = 90\npoints = 3\n", r"within \[0, 90\)"),
    ("[scenario]\nmode = lidar-elevation\n[sweep]\nvariable = zenith_deg\n"
     "start = 0\nstop = 60\npoints = 3\n[params]\nprofile_points = 1\n",
     "profile_points must be >= 2"),
    (HUGE_SWEEP, r"points must be <= 100000\b"),
    (HUGE_PROFILE, r"profile_points must be <= 100000\b"),
    (HUGE_GRID, r"grid_points must be <= 501\b"),
])
def test_bad_scenarios_are_rejected_with_a_pointer(tmp_path, text, match):
    with pytest.raises(ScenarioError, match=match):
        load_scenario(write(tmp_path, text))


# ---------------------------------------------------------------------------
# load-time validation: a file is rejected at load or runs clean
# ---------------------------------------------------------------------------

DV_KEYS = dict(eta_ch=1e-3, eta_d=0.9, p_dc=1e-7, e_d=0.01, f=1.16, q=1.0, eta_ae=1e-3)
APERTURE_BEAM_KEYS = dict(r_a=0.15, r_b=0.5, waist=0.15, wavelength=8e-7, quality=3.0)
DUAL_LIDAR_KEYS = dict(power_sat=1.0, power_ground=1.0, reflectivity=0.1, loss_factor=0.25,
                       noise_floor_sat=moonlight_background_power(0.15),
                       noise_floor_ground=sky_background_power(0.5))
RADAR_KEYS = dict(radar_power=1e5, radar_antenna_radius=2.0, radar_wavelength=0.04,
                  radar_bandwidth=2.5e6, radar_noise_figure_db=8.0, radar_loss_db=7.0,
                  radar_aperture_efficiency=0.6, radar_antenna_temp=60.0)

# name: (mode, fixed sweep or None to sweep a drawn key, {key: default}).
# Each key is drawn at its default or at 0, -default, default * 1e-3 or
# default * 1e3; bound_source is fixed by the entry.
LOADER_FUZZ_FILES = {
    "dv-sps": ("dv-sps", None, DV_KEYS),
    "dv-wcp-optimised-mu": ("dv-wcp", None, DV_KEYS),
    "dv-wcp-mu": ("dv-wcp", None, {**DV_KEYS, "mu": 0.5}),  # mu given or swept
    "lidar-profile": ("lidar-profile", ("z", 0.0, 5e5),
                      dict(total_range=5e5, **APERTURE_BEAM_KEYS, **DUAL_LIDAR_KEYS)),
    "radar": ("lidar-profile", ("z", 0.0, 5e5),
              dict(total_range=5e5, **APERTURE_BEAM_KEYS, **RADAR_KEYS)),
    "lidar-elevation": ("lidar-elevation", ("zenith_deg", 0.0, 60.0),
                        dict(altitude=5e5, **APERTURE_BEAM_KEYS, **DUAL_LIDAR_KEYS,
                             profile_points=201, extinction_coefficient=0.7,
                             detection_efficiency=0.5, optics_transmittance=0.8)),
}


def _magnitudes(default):
    return [0 * default, -default, default * 1e-3, default * 1e3]


@st.composite
def loader_fuzz_files(draw):
    # Up to two keys move off their defaults, and a swept key's ends are
    # often the default, so that many files pass the loader and run.
    name = draw(st.sampled_from(sorted(LOADER_FUZZ_FILES)))
    mode, axis, defaults = LOADER_FUZZ_FILES[name]
    if axis is None:
        variable = draw(st.sampled_from(sorted(defaults)))
        ends = st.one_of(st.just(defaults[variable]),
                         st.sampled_from(_magnitudes(defaults[variable])))
        start, stop = draw(ends), draw(ends)
    else:
        variable, start, stop = axis
    size = draw(st.integers(0, 2))
    moved = draw(st.sets(st.sampled_from(sorted(set(defaults) - {variable})),
                         min_size=size, max_size=size))
    params = {key: draw(st.sampled_from(_magnitudes(default))) if key in moved else default
              for key, default in defaults.items() if key != variable}
    if not mode.startswith("dv-"):  # left out, a key takes its default
        params = {key: params[key] for key in moved}
    if name == "radar":
        params["bound_source"] = "radar-ground"
    return mode, variable, start, stop, params


def loader_fuzz_text(mode, variable, start, stop, params):
    return "\n".join(["[scenario]", f"mode = {mode}", "[sweep]", f"variable = {variable}",
                      f"start = {start!r}", f"stop = {stop!r}", "points = 5", "[params]",
                      *(f"{key} = {val}" for key, val in params.items())]) + "\n"


# Regressions: ranges only an engine constructor checks (the LIDAR loss
# factor, the radar noise figure, the CV source variance and excess noise
# above their mode's bounds), dB values and noise-floor defaults past a
# float's range, an altitude whose slant range rounds to 0, a negative
# altitude (which slant_range checks), and a mu sweep that the loader must
# accept.
CV_WORST_KEYS = dict(t_eq=1e-3, xi=0.1, grid_points=21, refine="false")
LOADER_DEFECTS = {
    "cv-rr-worst-case-v-1e20": ("cv-rr", "eta_ae", 0.05, 0.5, dict(CV_WORST_KEYS, v=1e20)),
    "cv-rr-fixed-v-1e300": ("cv-rr", "eta_ae", 0.05, 0.5,
                            dict(t_eq=1e-3, xi=0.1, eta_s=0.05, eta_t=0.99, v=1e300)),
    # A default search (grid and polish) once crashed here mid-run.
    "cv-rr-worst-case-xi-1e20": ("cv-rr", "eta_ae", 0.05, 0.5, dict(t_eq=1e-3, xi=1e20)),
    "cv-rr-fixed-xi-1e200": ("cv-rr", "eta_ae", 0.05, 0.5,
                             dict(t_eq=1e-3, xi=1e200, eta_s=0.05, eta_t=0.99)),
    "lidar-elevation-altitude-1e-100": ("lidar-elevation", "zenith_deg", 0.0, 60.0,
                                        {"altitude": 1e-100}),
    "lidar-elevation-altitude-negative": ("lidar-elevation", "zenith_deg", 0.0, 60.0,
                                          {"altitude": -1e5}),
    "lidar-profile-r-a-1e200": ("lidar-profile", "z", 0.0, 5e5, {"r_a": 1e200}),
    "lidar-elevation-r-b-1e200": ("lidar-elevation", "zenith_deg", 0.0, 60.0, {"r_b": 1e200}),
    "dv-wcp-mu-sweep": ("dv-wcp", "mu", 0.1, 1.0,
                        dict(eta_ch=1e-3, eta_d=0.9, p_dc=1e-7, e_d=0.01, f=1.16, q=1.0,
                             eta_ae=1e-4)),
    "lidar-profile-loss-factor": ("lidar-profile", "z", 0.0, 5e5, {"loss_factor": 2.0}),
    "lidar-elevation-loss-factor": ("lidar-elevation", "zenith_deg", 0.0, 60.0,
                                    {"loss_factor": 250.0}),
    "radar-noise-figure-below-0-db": ("lidar-profile", "z", 0.0, 5e5,
                                      {"bound_source": "radar-ground",
                                       "radar_noise_figure_db": -8.0}),
    "radar-noise-figure-overflow": ("lidar-profile", "z", 0.0, 5e5,
                                    {"bound_source": "radar-ground",
                                     "radar_noise_figure_db": 8000.0}),
    "radar-loss-overflow": ("lidar-profile", "z", 0.0, 5e5,
                            {"bound_source": "radar-ground", "radar_loss_db": 7000.0}),
}


@settings(deadline=None, max_examples=500)
@given(loader_fuzz_files())
@example(LOADER_DEFECTS["dv-wcp-mu-sweep"])
@example(LOADER_DEFECTS["lidar-profile-loss-factor"])
@example(LOADER_DEFECTS["lidar-elevation-loss-factor"])
@example(LOADER_DEFECTS["radar-noise-figure-below-0-db"])
@example(LOADER_DEFECTS["radar-noise-figure-overflow"])
@example(LOADER_DEFECTS["radar-loss-overflow"])
@example(LOADER_DEFECTS["cv-rr-worst-case-v-1e20"])
@example(LOADER_DEFECTS["cv-rr-fixed-v-1e300"])
@example(LOADER_DEFECTS["cv-rr-worst-case-xi-1e20"])
@example(LOADER_DEFECTS["cv-rr-fixed-xi-1e200"])
@example(LOADER_DEFECTS["lidar-elevation-altitude-1e-100"])
@example(LOADER_DEFECTS["lidar-profile-r-a-1e200"])
@example(LOADER_DEFECTS["lidar-elevation-r-b-1e200"])
def test_a_file_is_rejected_at_load_or_runs_with_finite_cells(case):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(loader_fuzz_text(*case))
        try:
            load_scenario(path)
        except ScenarioError:
            return
        table = run_scenario(path)
    for row in table.rows:
        for column, cell in zip(table.columns, row):
            assert cell is None or math.isfinite(cell) or (column, cell) == ("r_e", math.inf), \
                (column, cell)


@pytest.mark.parametrize("name", sorted(LOADER_DEFECTS))
def test_cli_defect_files_are_exit_one_or_run_clean(tmp_path, capsys, name):
    path = write(tmp_path, loader_fuzz_text(*LOADER_DEFECTS[name]))
    if name == "dv-wcp-mu-sweep":
        assert cli.main(["validate", path]) == 0
        assert cli.main(["run", path]) == 0
        rows = capsys.readouterr().out.splitlines()[-5:]
        assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))
        return
    field = {"radar-noise-figure-below-0-db": "noise_figure",
             "radar-noise-figure-overflow": "radar_noise_figure_db",
             "radar-loss-overflow": "radar_loss_db",
             "cv-rr-worst-case-v-1e20": "v must be <= 1e+07",
             "cv-rr-fixed-v-1e300": "v must be <= 1e+07",
             "cv-rr-worst-case-xi-1e20": "xi must be <= 10",
             "cv-rr-fixed-xi-1e200": "xi must be <= 10",
             "lidar-elevation-altitude-1e-100": "altitude",
             "lidar-elevation-altitude-negative": "altitude",
             "lidar-profile-r-a-1e200": "r_a",
             "lidar-elevation-r-b-1e200": "r_b"}.get(name, "loss_factor")
    for command in ("validate", "run"):
        assert cli.main([command, path]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and field in err


# Every numeric key of each loader-fuzz file, and of a fixed-hypothesis
# cv-rr, a fixed-hypothesis cv-dr-m1 and a cv-dr-m2 file, set alone to an
# extreme magnitude.  The CV worst-case kinds are left to the pinned xi files
# above: their polish takes ~60 ms a point.
CV_FIXED_KEYS = dict(t_eq=1e-3, xi=0.1, eta_d=1.0, nu_el=0.0, eta_ae=0.1, beta=1.0)
EXTREME_FILES = {
    **LOADER_FUZZ_FILES,
    "cv-rr-fixed": ("cv-rr", None, dict(CV_FIXED_KEYS, v=300.0, v_s=1.0, eta_s=0.05,
                                        eta_t=0.99)),
    "cv-dr-m1-fixed": ("cv-dr-m1", None, dict(CV_FIXED_KEYS, v=1e7, v_s=1.0, eta_s=0.05,
                                              eta_t=0.99)),
    "cv-dr-m2": ("cv-dr-m2", None, dict(CV_FIXED_KEYS, v=1e7)),
}


def extreme_magnitude_files(name):
    """(key, magnitude, file text) for each key of ``EXTREME_FILES[name]``
    set alone to 1e-200, 1e-100, 1e100 and 1e200.  DV and CV files give
    every key and sweep eta_ae (eta_ch or xi when eta_ae is the one set);
    the others give that key alone, like the loader fuzz."""
    mode, axis, defaults = EXTREME_FILES[name]
    dv = mode.startswith("dv-")
    for key in sorted(defaults):
        for magnitude in (1e-200, 1e-100, 1e100, 1e200):
            params = {key: magnitude}
            if axis is None:
                variable = "eta_ae" if key != "eta_ae" else ("eta_ch" if dv else "xi")
                sweep = (variable, 1e-4, 1e-2) if dv else (variable, 0.05, 0.5)
                params = {k: v for k, v in {**defaults, **params}.items() if k != variable}
            else:
                sweep = axis
            if name == "radar":
                params["bound_source"] = "radar-ground"
            yield key, magnitude, loader_fuzz_text(mode, *sweep, params)


@pytest.mark.parametrize("name", sorted(EXTREME_FILES))
def test_extreme_magnitudes_are_rejected_at_load_or_run_clean(tmp_path, name):
    # Rejected with the key named (a radar key may drop its "radar_" prefix,
    # as the RadarParams field does), or run to finite cells (+inf only in
    # r_e), or infeasible at every point, the documented runtime failure.
    failures = []
    for key, magnitude, text in extreme_magnitude_files(name):
        path = write(tmp_path, text)
        case = f"{key}={magnitude:g}"
        try:
            load_scenario(path)
        except ScenarioError as exc:
            if key.removeprefix("radar_") not in str(exc):
                failures.append((case, str(exc)))
            continue
        try:
            table = run_scenario(path)
        except InfeasibleAttackError as exc:
            assert "every point" in str(exc) and "infeasible" in str(exc), (case, exc)
            continue
        except Exception as exc:  # noqa: BLE001 - every mid-run failure is one
            failures.append((case, repr(exc)))
            continue
        bad = [(column, cell) for row in table.rows for column, cell in zip(table.columns, row)
               if not (cell is None or math.isfinite(cell) or (column, cell) == ("r_e", math.inf))]
        if bad:
            failures.append((case, bad[:3]))
    assert not failures, failures


def test_every_mode_key_is_documented():
    # The mode table is the one declaration of the keys; the module docstring
    # and the README must not drift from it.
    doc = scenario.__doc__
    with open(os.path.join(HERE, os.pardir, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    for mode, kinds in scenario._MODE_TABLE.items():
        assert mode in readme, mode
        for kind in kinds:
            for key in kind.keys:
                assert re.search(rf"\b{key}\b", doc), (mode, key)


def test_shipped_scenarios_all_validate():
    paths = sorted(glob.glob(os.path.join(SHIPPED, "*.ini")))
    assert len(paths) >= 10
    for path in paths:
        spec = load_scenario(path)
        assert spec.mode


def test_shipped_files_but_the_worst_cases_run_clean(capsys):
    # The CV worst-case files take seconds each; the others run in well under
    # one.  Each emits the same bytes at 1 and 4 threads, with no nan or -inf
    # cell (+inf only as an unbounded r_e).
    paths = [path for path in sorted(glob.glob(os.path.join(SHIPPED, "*.ini")))
             if "grid_points" not in load_scenario(path).params]
    assert len(paths) == 9
    for path in paths:
        outputs = []
        for threads in ("1", "4"):
            assert cli.main(["run", path, "--threads", threads]) == 0, path
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], path
        table = read_table(io.StringIO(outputs[0]))
        assert table.rows, path
        for row in table.rows:
            for column, cell in zip(table.columns, row):
                assert cell is None or math.isfinite(cell) \
                    or (column, cell) == ("r_e", math.inf), (path, column, cell)


# ---------------------------------------------------------------------------
# every engine knob is reachable from a scenario file
# ---------------------------------------------------------------------------

CV_FIXED_BASE = """\
    [scenario]
    mode = cv-rr
    [sweep]
    variable = eta_ae
    start = 0.05
    stop = 0.5
    points = 2
    [params]
    t_eq = 1e-3
    xi = 0.1
    eta_s = 0.05
    eta_t = 0.99
"""

DV_BASE = """\
    [scenario]
    mode = dv-wcp
    [sweep]
    variable = eta_ae
    start = 1e-4
    stop = 8e-4
    points = 2
    scale = log
    [params]
    eta_ch = 1e-3
    eta_d = 0.9
    p_dc = 1e-7
    e_d = 0.01
    f = 1.16
    q = 1.0
"""

LIDAR_BASE = """\
    [scenario]
    mode = lidar-profile
    [sweep]
    variable = z
    start = 0
    stop = 5e5
    points = 2
    [params]
"""

RADAR_BASE = LIDAR_BASE + "    bound_source = radar-ground\n"

ELEV_BASE = """\
    [scenario]
    mode = lidar-elevation
    [sweep]
    variable = zenith_deg
    start = 0
    stop = 60
    points = 2
    [params]
    profile_points = 11
"""

# (dataclass field, base file, [params] line) — "mode"/"sweep" mark fields
# that are expressed structurally rather than as a key.
FIELD_ROUTES = [
    (CvScenario, "eta_ae", CV_FIXED_BASE, None),  # the swept variable
    (CvScenario, "eta_s", CV_FIXED_BASE, "eta_s = 0.05"),
    (CvScenario, "eta_t", CV_FIXED_BASE, "eta_t = 0.99"),
    (CvScenario, "v", CV_FIXED_BASE, "v = 250"),
    (CvScenario, "beta", CV_FIXED_BASE, "beta = 0.95"),
    (CvScenario, "v_s", CV_FIXED_BASE, "v_s = 1.5"),
    (ChannelObservation, "t_eq", CV_FIXED_BASE, "t_eq = 1e-3"),
    (ChannelObservation, "xi", CV_FIXED_BASE, "xi = 0.1"),
    (ChannelObservation, "eta_d", CV_FIXED_BASE, "eta_d = 0.9"),
    (ChannelObservation, "nu_el", CV_FIXED_BASE, "nu_el = 0.05"),
    (DvParams, "source", DV_BASE, None),  # picked by the mode name
    (DvParams, "eta_ch", DV_BASE, "eta_ch = 1e-3"),
    (DvParams, "eta_d", DV_BASE, "eta_d = 0.9"),
    (DvParams, "p_dc", DV_BASE, "p_dc = 1e-7"),
    (DvParams, "e_d", DV_BASE, "e_d = 0.01"),
    (DvParams, "f", DV_BASE, "f = 1.16"),
    (DvParams, "q", DV_BASE, "q = 1.0"),
    (DvParams, "eta_ae", DV_BASE, None),  # the swept variable
    (DvParams, "mu", DV_BASE, "mu = 0.5"),
    (BeamParams, "waist", LIDAR_BASE, "waist = 0.2"),
    (BeamParams, "wavelength", LIDAR_BASE, "wavelength = 1.55e-6"),
    (BeamParams, "quality", LIDAR_BASE, "quality = 2.0"),
    (LidarConfig, "transmit_power", LIDAR_BASE, "power_sat = 2.0"),
    (LidarConfig, "transmit_power", LIDAR_BASE, "power_ground = 2.0"),
    (LidarConfig, "loss_factor", LIDAR_BASE, "loss_factor = 0.3"),
    (LidarConfig, "reflectivity", LIDAR_BASE, "reflectivity = 0.2"),
    (LidarConfig, "noise_floor", LIDAR_BASE, "noise_floor_sat = 1e-15"),
    (LidarConfig, "noise_floor", LIDAR_BASE, "noise_floor_ground = 1e-13"),
    (LidarConfig, "beam", LIDAR_BASE, None),  # via the waist/wavelength/quality keys
    (LinkGeometry, "total_range", LIDAR_BASE, "total_range = 6e5"),
    (LidarConfig, "noise_floor", LIDAR_BASE, "r_a = 0.2"),  # the moonlight default
    (LinkGeometry, "r_b", LIDAR_BASE, "r_b = 0.6"),
    (RadarParams, "transmit_power", RADAR_BASE, "radar_power = 2e5"),
    (RadarParams, "antenna_radius", RADAR_BASE, "radar_antenna_radius = 3.0"),
    (RadarParams, "wavelength", RADAR_BASE, "radar_wavelength = 0.03"),
    (RadarParams, "bandwidth", RADAR_BASE, "radar_bandwidth = 1e6"),
    (RadarParams, "noise_figure", RADAR_BASE, "radar_noise_figure_db = 6"),
    (RadarParams, "loss_factor", RADAR_BASE, "radar_loss_db = 5"),
    (RadarParams, "aperture_efficiency", RADAR_BASE,
     "radar_aperture_efficiency = 0.7"),
    (RadarParams, "antenna_temperature", RADAR_BASE, "radar_antenna_temp = 80"),
]


def test_every_domain_field_has_a_route():
    covered = {(dc, fname) for dc, fname, _, _ in FIELD_ROUTES}
    for dc in (CvScenario, ChannelObservation, DvParams, BeamParams,
               LidarConfig, LinkGeometry, RadarParams):
        for f in dataclasses.fields(dc):
            assert (dc, f.name) in covered, f"{dc.__name__}.{f.name} unreachable"


@pytest.mark.parametrize("dc, fname, base, line",
                         [r for r in FIELD_ROUTES if r[3] is not None],
                         ids=lambda val: getattr(val, "__name__", repr(val))[:24])
def test_each_route_is_accepted(tmp_path, dc, fname, base, line):
    key, _, value = line.partition(" = ")
    text = textwrap.dedent(base)
    if f"\n{key} = " in text:  # override the base value rather than duplicate
        out_lines = [f"{key} = {value}" if ln.split(" = ")[0] == key else ln
                     for ln in text.splitlines()]
        text = "\n".join(out_lines) + "\n"
    else:
        text = text + line + "\n"
    spec = load_scenario(write(tmp_path, text))
    assert spec.params[key] == pytest.approx(float(value)) \
        if value.replace(".", "").replace("e", "").replace("-", "").isdigit() \
        else key in spec.params


# ---------------------------------------------------------------------------
# running sweeps
# ---------------------------------------------------------------------------

def test_run_dr_m2_columns_and_grid(tmp_path):
    table = run_scenario(write(tmp_path, QUICK_DR_M2))
    assert table.columns == ("eta_ae", "eve_bound", "k", "k_pos")
    assert len(table.rows) == 5
    xs = [r[0] for r in table.rows]
    np.testing.assert_allclose(xs, np.logspace(-6, -2, 5), rtol=1e-12)
    for row in table.rows:
        assert row[3] == max(row[2], 0.0)
    assert table.metadata["mode"] == "cv-dr-m2"
    assert table.metadata["param_v"] == 1e7
    assert "wall_time_s" in table.metadata and "threads" in table.metadata


def test_run_worst_case_reports_both_attacks(tmp_path):
    table = run_scenario(write(tmp_path, QUICK_WORST))
    assert table.columns[:5] == ("eta_ae", "k_worst", "k_worst_pos",
                                 "argmin_eta_s", "argmin_eta_t")
    for row in table.rows:
        feas, feas_nb = row[-2], row[-1]
        assert feas == 1 and feas_nb == 1
        k_worst, k_nb = row[1], row[5]
        assert k_worst <= k_nb + 1e-9


def test_partial_nobypass_infeasibility_leaves_cells_empty(tmp_path):
    # Below eta_ae = t_channel no attack reproduces the observation without
    # the bypass; those rows keep the worst-case answer but blank the
    # comparison columns and drop the sentinel.
    table = run_scenario(write(tmp_path, """\
        [scenario]
        mode = cv-rr
        [sweep]
        variable = eta_ae
        start = 0.3
        stop = 0.7
        points = 2
        [params]
        t_eq = 0.5
        xi = 0.1
        v = 20
        grid_points = 21
        refine = false
    """))
    low, high = table.rows
    cols = dict(zip(table.columns, low))
    assert cols["feasible"] == 1 and cols["feasible_nobypass"] == 0
    assert cols["k_nobypass"] is None and cols["k_nobypass_pos"] is None
    cols = dict(zip(table.columns, high))
    assert cols["feasible_nobypass"] == 1 and cols["k_nobypass"] is not None


def test_fixed_point_sweep_marks_infeasible_rows(tmp_path):
    # eta_s runs past its ceiling t_ch / ((1-eta_ae)(1-eta_t)) ~ 0.101.
    table = run_scenario(write(tmp_path, """\
        [scenario]
        mode = cv-rr
        [sweep]
        variable = eta_s
        start = 0.0
        stop = 0.2
        points = 5
        [params]
        t_eq = 1e-3
        xi = 0.1
        eta_ae = 0.01
        eta_t = 0.99
        v = 300
    """))
    assert table.columns == ("eta_s", "k", "k_pos", "chi_eve", "feasible")
    flags = [row[4] for row in table.rows]
    assert flags == [1, 1, 1, 0, 0]
    assert table.rows[3][1] is None
    assert table.rows[0][1] is not None


def test_sweep_infeasible_everywhere_raises(tmp_path):
    path = write(tmp_path, """\
        [scenario]
        mode = cv-rr
        [sweep]
        variable = eta_ae
        start = 1e-3
        stop = 1e-2
        points = 3
        scale = log
        [params]
        t_eq = 1.0
        xi = 0.0
        v = 300
        grid_points = 11
        refine = false
    """)
    with pytest.raises(InfeasibleAttackError):
        run_scenario(path)


def test_wcp_sweep_optimises_when_mu_is_open(tmp_path):
    table = run_scenario(write(tmp_path, DV_BASE))
    assert table.columns == ("eta_ae", "rate_wcp", "rate_wcp_pos", "mu_opt",
                             "rate_sps", "rate_sps_pos")
    for row in table.rows:
        assert row[1] > 0.0 and row[3] > 1.0
        assert row[4] == pytest.approx(7.4170272351627750e-04, rel=1e-9)


def test_wcp_sweep_with_pinned_mu_has_no_opt_column(tmp_path):
    table = run_scenario(write(tmp_path, DV_BASE + "    mu = 0.5\n"))
    assert "mu_opt" not in table.columns
    assert table.columns[:3] == ("eta_ae", "rate_wcp", "rate_wcp_pos")


def test_dv_sweep_without_dark_counts_or_misalignment_runs(tmp_path):
    # Rounding once left a QBER of -1e-16 at eta_ch = 0.1, and the run died.
    text = (DV_BASE.replace("mode = dv-wcp", "mode = dv-sps")
            .replace("variable = eta_ae", "variable = eta_ch")
            .replace("start = 1e-4", "start = 0.05").replace("stop = 8e-4", "stop = 0.2")
            .replace("points = 2", "points = 4").replace("scale = log", "scale = linear")
            .replace("eta_ch = 1e-3", "eta_ae = 0.5").replace("eta_d = 0.9", "eta_d = 1.0")
            .replace("p_dc = 1e-7", "p_dc = 0.0").replace("e_d = 0.01", "e_d = 0.0"))
    table = run_scenario(write(tmp_path, text))
    for eta_ch, rate, _ in table.rows:
        assert rate == pytest.approx(eta_ch, rel=1e-12)  # every click is key


def test_lidar_profile_matches_the_library_profile(tmp_path):
    table = run_scenario(write(tmp_path, """\
        [scenario]
        mode = lidar-profile
        [sweep]
        variable = z
        start = 0
        stop = 5e5
        points = 41
        [params]
    """))
    prof = eve_efficiency_profile(nominal_geometry(), nominal_satellite_lidar(1.0),
                                  nominal_ground_lidar(1.0), 41)
    got = np.array([row[:4] for row in table.rows], dtype=float)
    np.testing.assert_allclose(got[:, 0], prof.z, rtol=1e-12)
    np.testing.assert_allclose(got[:, 1], prof.r_e, rtol=1e-12)
    np.testing.assert_allclose(got[:, 2], prof.eta_ae, rtol=1e-12)
    np.testing.assert_allclose(got[:, 3], prof.eta_eb, rtol=1e-12)
    assert table.columns[-2:] == ("alpha_min_sat", "alpha_min_ground")


def test_radar_bound_columns_and_endpoint_convention(tmp_path):
    table = run_scenario(write(tmp_path, """\
        [scenario]
        mode = lidar-profile
        [sweep]
        variable = z
        start = 0
        stop = 5e5
        points = 5
        [params]
        bound_source = radar-ground
    """))
    assert table.columns == ("z", "r_e", "eta_ae", "eta_eb")
    assert table.rows[0][1] == 0.0 and table.rows[-1][1] == 0.0
    mid = table.rows[2]  # z = 250 km, radar looks up 250 km
    assert mid[1] == pytest.approx(1.1031896147, rel=1e-8)


def test_radar_table_equals_the_kernel_on_its_grid(tmp_path):
    table = run_scenario(write(tmp_path, RADAR_BASE.replace("points = 2", "points = 23")))
    z = np.array([row[0] for row in table.rows])
    geom, radar = nominal_geometry(), nominal_radar()
    want = eve_efficiencies(
        z, lambda zi, link: radar_size_bound(link.total_range - zi, radar), geom,
        nominal_comm_beam())
    got = np.array([row[1:] for row in table.rows], dtype=float)
    for k in range(3):
        np.testing.assert_array_equal(got[:, k], want[k])


def test_elevation_table_equals_the_sweep_on_the_same_angles(tmp_path):
    table = run_scenario(write(tmp_path, ELEV_BASE.replace("points = 2", "points = 5")
                               .replace("profile_points = 11", "profile_points = 201")))
    theta = np.radians([row[0] for row in table.rows])
    want = elevation_sweep(500e3, nominal_satellite_lidar(1.0), nominal_ground_lidar(1.0),
                           theta)
    got = np.array([row[1:] for row in table.rows], dtype=float)
    assert got.shape == (5, 4)
    for k, name in enumerate(("max_eta_ae", "max_eta_eb", "eta_ab_diffraction",
                              "eta_ab_effective")):
        np.testing.assert_allclose(got[:, k], getattr(want, name), rtol=1e-12)


def test_elevation_scenario_frozen_endpoint(tmp_path):
    table = run_scenario(write(tmp_path, """\
        [scenario]
        mode = lidar-elevation
        [sweep]
        variable = zenith_deg
        start = 0
        stop = 60
        points = 2
        [params]
    """))
    assert table.columns == ("zenith_deg", "max_eta_ae", "max_eta_eb",
                             "eta_ab_diffraction", "eta_ab_effective")
    zenith, sixty = table.rows
    assert zenith[1] == pytest.approx(0.0836176001, rel=1e-8)
    assert zenith[3] == pytest.approx(0.0739616842, rel=1e-8)
    assert sixty[1] == pytest.approx(0.3005502663, rel=1e-8)
    assert sixty[4] == pytest.approx(0.0022700868, rel=1e-8)


def test_thread_count_is_validated(tmp_path):
    path = write(tmp_path, QUICK_DR_M2)
    with pytest.raises(ScenarioError):
        run_scenario(path, threads=0)


def test_a_thread_count_above_the_cap_is_rejected_before_any_pool(tmp_path, monkeypatch,
                                                                  capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was built")

    monkeypatch.setattr(scenario, "ThreadPoolExecutor", no_pool)
    path = write(tmp_path, QUICK_DR_M2)
    too_many = scenario.MAX_THREADS + 1
    with pytest.raises(ScenarioError, match=re.escape(f"threads must lie in [1, {too_many - 1}]")):
        run_scenario(path, threads=too_many)
    assert cli.main(["run", path, "--threads", str(too_many)]) == 1
    assert "threads must lie in" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# emission, re-parsing, determinism
# ---------------------------------------------------------------------------

def test_emitted_tables_round_trip_exactly(tmp_path):
    table = run_scenario(write(tmp_path, QUICK_DR_M2))
    for fmt in ("csv", "tsv"):
        dest = tmp_path / f"out.{fmt}"
        emit(table, str(dest), fmt=fmt)
        back = read_table(str(dest))
        assert back.columns == table.columns
        for got, want in zip(back.rows, table.rows):
            assert got == tuple(float(c) for c in want)
        assert back.metadata["mode"] == "cv-dr-m2"
        assert back.metadata["param_v"] == repr(1e7)
        assert "wall_time_s" not in back.metadata


def test_empty_cells_round_trip_as_none(tmp_path):
    table = ResultTable(columns=("x", "k", "feasible"),
                        rows=[(1.0, None, 0), (2.0, 0.5, 1)],
                        metadata={"mode": "test"})
    buf = io.StringIO()
    emit(table, buf)
    back = read_table(io.StringIO(buf.getvalue()))
    assert back.rows[0] == (1.0, None, 0.0)
    assert back.rows[1] == (2.0, 0.5, 1.0)


def test_emit_writes_every_cell_type_as_before():
    # Plain floats take a fast path; the other types go through the general
    # formatter.  Both must give these bytes.
    cells = (0.1, -0.0, 1e-300, np.float64(0.1), np.float64(-2.5e17), 3, np.int64(-7),
             True, False, None)
    want = ("1.00000000000000006e-01,-0.00000000000000000e+00,"
            "1.00000000000000003e-300,1.00000000000000006e-01,"
            "-2.50000000000000000e+17,3,-7,1.00000000000000000e+00,"
            "0.00000000000000000e+00,")
    table = ResultTable(columns=tuple(f"c{i}" for i in range(len(cells))),
                        rows=[cells], metadata={})
    buf = io.StringIO()
    emit(table, buf)
    assert buf.getvalue().splitlines()[-1] == want


def test_emit_rejects_unknown_format_and_ragged_rows(tmp_path):
    table = ResultTable(columns=("a", "b"), rows=[(1.0,)], metadata={})
    with pytest.raises(ScenarioError):
        emit(table, io.StringIO(), fmt="psv")
    with pytest.raises(ValueError, match="ragged"):
        emit(table, io.StringIO())


def test_read_table_needs_a_header():
    with pytest.raises(ScenarioError, match="no header"):
        read_table(io.StringIO("# only = metadata\n"))


# A fixed-hypothesis sweep of t_eq, so the mutual information runs on arrays.
CV_FIXED_T_EQ = """\
    [scenario]
    mode = cv-rr
    [sweep]
    variable = t_eq
    start = 5e-4
    stop = 2e-3
    points = 10
    [params]
    eta_ae = 0.05
    xi = 0.1
    eta_s = 0.05
    eta_t = 0.99
"""

# A dv-wcp sweep of the pulse intensity itself.
DV_WCP_SWEPT_MU = (DV_BASE.replace("variable = eta_ae", "variable = mu")
                   .replace("start = 1e-4", "start = 0.05").replace("stop = 8e-4", "stop = 2.0")
                   .replace("points = 2", "points = 11") + "    eta_ae = 2e-4\n")

# One file per kind of evaluator; no sweep length divides evenly by 4.
WORKER_COUNT_CASES = {
    "cv-rr-worst": QUICK_WORST.replace("points = 4", "points = 5"),
    "cv-rr-fixed": CV_FIXED_BASE.replace("points = 2", "points = 6"),
    "cv-rr-fixed-t-eq": CV_FIXED_T_EQ,
    "cv-dr-m2": QUICK_DR_M2.replace("points = 5", "points = 7"),
    "dv-wcp": DV_BASE.replace("points = 2", "points = 7"),
    # mu optimised on both sides of the no-key threshold near 8.1e-4
    "dv-wcp-no-key": DV_BASE.replace("points = 2", "points = 11")
                            .replace("stop = 8e-4", "stop = 3e-3"),
    "dv-wcp-fixed-mu": DV_BASE.replace("points = 2", "points = 9") + "    mu = 0.5\n",
    "dv-wcp-swept-mu": DV_WCP_SWEPT_MU,
    "dv-sps": DV_BASE.replace("mode = dv-wcp", "mode = dv-sps")
                     .replace("points = 2", "points = 9"),
    "lidar-profile": LIDAR_BASE.replace("points = 2", "points = 41"),
    "radar": RADAR_BASE.replace("points = 2", "points = 13"),
    "lidar-elevation": ELEV_BASE.replace("points = 2", "points = 7"),
}


@pytest.mark.parametrize("case", sorted(WORKER_COUNT_CASES))
def test_output_bytes_do_not_depend_on_the_worker_count(tmp_path, case):
    path = write(tmp_path, WORKER_COUNT_CASES[case])
    blobs = []
    for threads in (1, 4):
        buf = io.StringIO()
        emit(run_scenario(path, threads=threads), buf)
        blobs.append(buf.getvalue())
    assert blobs[0] == blobs[1]
    assert len(blobs[0]) > 100


def test_wcp_sweep_over_mu_equals_the_array_kernel(tmp_path):
    table = run_scenario(write(tmp_path, DV_WCP_SWEPT_MU))
    assert table.columns == ("mu", "rate_wcp", "rate_wcp_pos", "rate_sps", "rate_sps_pos")
    mu = np.array([row[0] for row in table.rows])
    want = dv.rate_arrays("wcp", mu=mu, eta_ch=1e-3, eta_d=0.9, p_dc=1e-7, e_d=0.01,
                          f=1.16, q=1.0, eta_ae=2e-4)
    assert [row[1] for row in table.rows] == want.tolist()
    assert [row[2] for row in table.rows] == np.maximum(want, 0.0).tolist()


def test_import_and_non_cv_runs_load_no_scipy(tmp_path):
    # SciPy serves only the CV worst-case polish, so a fresh interpreter that
    # imports the package and runs a DV and a LIDAR file never loads it.
    files = [write(tmp_path, DV_BASE, "dv.ini"), write(tmp_path, LIDAR_BASE, "lidar.ini")]
    code = ("import sys, satqkd\n"
            "from satqkd.scenario import run_scenario\n"
            "for path in sys.argv[1:]:\n"
            "    run_scenario(path)\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(satqkd.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code, *files], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_golden_file_reproduces_byte_for_byte():
    ini = os.path.join(HERE, "data", "golden_dr_m2.ini")
    golden = os.path.join(HERE, "data", "golden_dr_m2.csv")
    buf = io.StringIO()
    emit(run_scenario(ini), buf)
    with open(golden, encoding="utf-8") as fh:
        assert buf.getvalue() == fh.read()


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def test_cli_run_to_stdout(tmp_path, capsys):
    path = write(tmp_path, QUICK_DR_M2)
    assert cli.main(["run", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# engine_version")
    assert "eta_ae,eve_bound,k,k_pos" in out


def test_cli_run_to_file_in_tsv(tmp_path, capsys):
    path = write(tmp_path, QUICK_DR_M2)
    dest = tmp_path / "table.tsv"
    assert cli.main(["run", path, "--out", str(dest), "--format", "tsv"]) == 0
    err = capsys.readouterr().err
    assert "wrote 5 rows" in err
    assert "\t" in dest.read_text()


def test_cli_validate_reports_the_resolved_sweep(tmp_path, capsys):
    path = write(tmp_path, QUICK_DR_M2)
    assert cli.main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "cv-dr-m2" in out and "eta_ae" in out


def test_cli_validation_failure_is_exit_one(tmp_path, capsys):
    path = write(tmp_path, QUICK_DR_M2.replace("points = 5", "points = 1"))
    assert cli.main(["validate", path]) == 1
    assert cli.main(["run", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_oversized_grid_is_exit_one(tmp_path, capsys):
    # Were the cap gone, run would fail at once allocating a 1e12-node grid
    # rather than start the search.
    path = write(tmp_path, HUGE_GRID)
    assert cli.main(["validate", path]) == 1
    assert cli.main(["run", path]) == 1
    assert "grid_points must be <= 501" in capsys.readouterr().err


@pytest.mark.parametrize("text", [INF_XI, INF_F], ids=["cv-rr-xi", "dv-sps-f"])
def test_cli_infinite_parameter_is_exit_one(tmp_path, capsys, text):
    path = write(tmp_path, text)
    assert cli.main(["validate", path]) == 1
    assert cli.main(["run", path]) == 1
    assert "infinity" in capsys.readouterr().err


def test_cli_runtime_failure_is_exit_two(tmp_path, capsys):
    path = write(tmp_path, """\
        [scenario]
        mode = cv-rr
        [sweep]
        variable = eta_ae
        start = 1e-3
        stop = 1e-2
        points = 3
        scale = log
        [params]
        t_eq = 1.0
        xi = 0.0
        v = 300
        grid_points = 11
        refine = false
    """)
    assert cli.main(["run", path]) == 2
    assert "runtime error:" in capsys.readouterr().err


def test_cli_non_finite_rate_is_exit_two_with_no_nan_cell(tmp_path, capsys):
    # The RR conditional invariants cancel here: the float kernel meets a
    # complex square root and the array kernel a NaN on a feasible lane.
    path = write(tmp_path, """\
        [scenario]
        mode = cv-rr
        [sweep]
        variable = eta_s
        start = 0.9132691945948185
        stop = 0.9132691945948185
        points = 3
        [params]
        eta_ae = 1e-3
        eta_t = 0.2
        t_eq = 0.7542489243990338
        xi = 0.39860267961198476
        v = 3.5
    """)
    assert cli.main(["run", path]) == 2
    out, err = capsys.readouterr()
    assert "nan" not in out.lower()
    assert "runtime error:" in err


def test_cli_missing_file_is_exit_three(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.ini")]) == 3
    assert "I/O error:" in capsys.readouterr().err


def test_cli_lists_scenarios_and_flags_invalid_ones(tmp_path, capsys):
    write(tmp_path, QUICK_DR_M2, "good.ini")
    write(tmp_path, "[scenario]\nmode = cv-qq\n", "broken.ini")
    assert cli.main(["list-scenarios", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "good.ini: cv-dr-m2, sweep eta_ae (5 points)" in out
    assert "broken.ini: INVALID" in out


def test_cli_non_utf8_file_is_exit_one_and_listed_invalid(tmp_path, capsys):
    (tmp_path / "a_bytes.ini").write_bytes(b"[scenario]\nmode = cv-rr\n\xff\xfe")
    write(tmp_path, QUICK_DR_M2, "b_good.ini")
    path = str(tmp_path / "a_bytes.ini")
    assert cli.main(["validate", path]) == 1
    assert cli.main(["run", path]) == 1
    assert f"cannot parse {path}: 'utf-8' codec" in capsys.readouterr().err
    assert cli.main(["list-scenarios", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "a_bytes.ini: INVALID (cannot parse" in out
    assert "b_good.ini: cv-dr-m2, sweep eta_ae (5 points)" in out


def test_cli_list_handles_an_empty_directory(tmp_path, capsys):
    assert cli.main(["list-scenarios", "--dir", str(tmp_path)]) == 0
    assert "no scenario files" in capsys.readouterr().err


def test_cli_lists_the_shipped_scenarios(capsys):
    assert cli.main(["list-scenarios", "--dir", SHIPPED]) == 0
    out = capsys.readouterr().out
    assert "INVALID" not in out
    assert out.count("\n") >= 10

"""Scenario files for each workload, generated from a seed.

A run is a sequence of rounds.  Round ``r`` of workload ``w`` under seed
``s`` always yields the same files; different rounds draw fresh parameters,
so no two files of a run share their inputs.  Every round of a workload has
the same make-up (the same modes, the same point counts), so the cost and
the failed share of a round do not depend on the seed.

Only keys and defaults that the shipped ``scenarios/*.ini`` use appear
here: no ``grid_points``, ``refine``, ``eta_d``, ``nu_el`` or ``v_s``.
Nothing in this module imports the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("cv-rr-worstcase", "cv-dr-worstcase", "desk-mix")

# Sweep points per file, per file kind.  The CV kinds set the cost of a
# worst-case round; the desk kinds are sized so that each mode takes about
# an eighth of a desk round (measured: no kind above ~20%).
POINTS = {
    "rr-low": 4, "rr-high": 4, "rr-imperfect": 8,
    "dr-m1": 6, "dr-m1-fault": 2,
    "wcp-opt": 40, "wcp-fixed": 3000, "sps": 5000, "lidar-dual": 3000,
    "radar": 3500, "elevation": 45, "rr-fixed": 480, "dr-m2": 200,
}

# DR-M1 rows are drawn at eta_ae >= t_eq + DR_SAFE_SHARE * (1 - t_eq).
# Below about 0.55 of that span the package's eigenvalue precision fault
# (see CHANGES.md) corrupts some rows and not others, depending on the draw;
# those rows are covered by the fixed, seed-independent "dr-m1-fault" file.
DR_SAFE_SHARE = 0.65
# The same fault also hits a row whose worst-case grid happens to hold a node
# within ~1e-7 of the cloner limit eta_e = 1 (v_e ~ 1e8 there); where that
# happens depends on the draw.  A DR-M1 file is drawn again while any node of
# any of its rows lies within CLONER_GAP of the limit; at that gap the
# package's rate error is ~1e-5 bits, while the sampled rates along the limit
# lie 2e-3 bits or more above the worst case.  GRID is the package's default
# grid_points.
GRID = 101
CLONER_GAP = 1e-5


@dataclass(frozen=True)
class ScenarioFile:
    """One generated scenario: what the package reads, and what the checks need."""

    name: str          # file kind, a key of POINTS
    mode: str
    variable: str
    start: float
    stop: float
    points: int
    scale: str
    params: dict = field(default_factory=dict)
    known_fault_rows: tuple = ()  # rows expected to fail their check

    def text(self) -> str:
        lines = ["[scenario]", f"mode = {self.mode}", "", "[sweep]",
                 f"variable = {self.variable}", f"start = {self.start!r}",
                 f"stop = {self.stop!r}", f"points = {self.points}",
                 f"scale = {self.scale}", "", "[params]"]
        lines += [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                  for k, v in self.params.items()]
        return "\n".join(lines) + "\n"

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.logspace(math.log10(self.start), math.log10(self.stop),
                               self.points)
        return np.linspace(self.start, self.stop, self.points)


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _rr_worst(rng, name):
    t_eq = 1e-3 * 10.0 ** _u(rng, -0.15, 0.15)
    if name == "rr-imperfect":
        # Around cv_rr_imperfect_reconciliation: v = 3.5, beta = 0.95.
        params = {"t_eq": t_eq, "xi": _u(rng, 0.08, 0.12), "v": 3.5,
                  "beta": 0.95}
        start, stop, scale = _u(rng, 0.08, 0.12), _u(rng, 0.85, 0.95), "linear"
    else:
        # Around cv_rr_worstcase_{low,high}_noise: v = 300, log sweep from 1e-4.
        xi = _u(rng, 0.08, 0.12) if name == "rr-low" else _u(rng, 0.8, 1.2)
        params = {"t_eq": t_eq, "xi": xi, "v": 300.0, "beta": 1.0}
        start, stop, scale = 10.0 ** _u(rng, -4.2, -3.8), _u(rng, 0.6, 1.0), "log"
    return ScenarioFile(name, "cv-rr", "eta_ae", start, stop, POINTS[name],
                        scale, params)


def _cloner_gap(eta_ae, t_eq):
    """Smallest |1 - eta_e| over the feasible nodes of the package's default
    GRID x GRID bypass grid (the unit square of (eta_s, eta_t))."""
    axis = np.linspace(0.0, 1.0, GRID)
    s, t = np.meshgrid(axis, axis, indexing="ij")
    direct = math.sqrt(t_eq) - np.sqrt((1.0 - eta_ae) * s * (1.0 - t))
    with np.errstate(divide="ignore", invalid="ignore"):
        eta_e = direct ** 2 / (eta_ae * t)
    feasible = (direct >= -1e-12) & (t > 0.0) & (eta_e <= 1.0 + 1e-9)
    return float(np.min(np.abs(1.0 - eta_e[feasible])))


def _dr_m1(rng):
    # Around cv_dr_worstcase_t05 / t08: near full collection, v = 1e7.
    while True:
        t_eq = _u(rng, 0.5, 0.8)
        start = t_eq + _u(rng, DR_SAFE_SHARE, 0.75) * (1.0 - t_eq)
        params = {"t_eq": t_eq, "xi": _u(rng, 0.9, 1.1), "v": 1e7, "beta": 1.0}
        spec = ScenarioFile("dr-m1", "cv-dr-m1", "eta_ae", start, 1.0,
                            POINTS["dr-m1"], "linear", params)
        if min(_cloner_gap(float(a), t_eq) for a in spec.grid()) >= CLONER_GAP:
            return spec


# Fixed inputs, so the failed share never depends on the seed: at t_eq = 0.5
# the precision fault misses eta_ae = 0.65 by 1.30 bits on every run (as in
# cv_dr_worstcase_t05), while eta_ae = 0.95 is clear of it.
DR_FAULT = ScenarioFile("dr-m1-fault", "cv-dr-m1", "eta_ae", 0.65, 0.95,
                        POINTS["dr-m1-fault"], "linear",
                        {"t_eq": 0.5, "xi": 1.0, "v": 1e7, "beta": 1.0},
                        known_fault_rows=(0,))


def _dv(rng, name):
    params = {"eta_ch": 1e-3 * 10.0 ** _u(rng, -0.2, 0.2), "eta_d": 0.9,
              "p_dc": 1e-7, "e_d": _u(rng, 0.008, 0.012), "f": 1.16, "q": 1.0}
    if name == "sps":
        return ScenarioFile(name, "dv-sps", "eta_ae", 10.0 ** _u(rng, -4.1, -3.9),
                            1.0, POINTS[name], "log", params)
    if name == "wcp-fixed":
        params["mu"] = _u(rng, 0.3, 0.7)
    return ScenarioFile(name, "dv-wcp", "eta_ae", 10.0 ** _u(rng, -4.1, -3.9),
                        10.0 ** _u(rng, -2.1, -1.9), POINTS[name], "log", params)


def _lidar(rng, name):
    if name == "elevation":
        params = {"altitude": 5e5 * _u(rng, 0.9, 1.1),
                  "power_sat": _u(rng, 1.0, 4.0), "power_ground": _u(rng, 1.0, 4.0)}
        return ScenarioFile(name, "lidar-elevation", "zenith_deg", 0.0,
                            _u(rng, 80.0, 85.0), POINTS[name], "linear", params)
    total = 5e5 * _u(rng, 0.9, 1.1)
    if name == "radar":
        params = {"bound_source": "radar-ground", "total_range": total}
    else:
        params = {"power_sat": _u(rng, 1.0, 4.0), "power_ground": _u(rng, 1.0, 4.0),
                  "total_range": total}
    return ScenarioFile(name, "lidar-profile", "z", 0.0, total, POINTS[name],
                        "linear", params)


def _rr_fixed(rng):
    # Around cv_bypass_rate_vs_eta_s; the sweep runs 5% past the bypass
    # ceiling, so the last rows exercise the infeasible-cell path.
    eta_ae, eta_t = 0.01 * _u(rng, 0.8, 1.2), _u(rng, 0.985, 0.995)
    t_eq = 1e-3 * 10.0 ** _u(rng, -0.1, 0.1)
    ceiling = t_eq / ((1.0 - eta_ae) * (1.0 - eta_t))
    params = {"eta_ae": eta_ae, "eta_t": eta_t, "t_eq": t_eq,
              "xi": _u(rng, 0.08, 0.12), "v": 300.0, "beta": 1.0}
    return ScenarioFile("rr-fixed", "cv-rr", "eta_s", 0.0, 1.05 * ceiling,
                        POINTS["rr-fixed"], "linear", params)


def _dr_m2(rng):
    # Around cv_dr_entropy_bound_deep_restriction.
    params = {"t_eq": 1e-3, "xi": _u(rng, 0.8, 1.2),
              "v": 10.0 ** _u(rng, 19.0, 20.0), "beta": 1.0}
    return ScenarioFile("dr-m2", "cv-dr-m2", "eta_ae", 10.0 ** _u(rng, -18.2, -17.8),
                        10.0 ** _u(rng, -2.2, -1.8), POINTS["dr-m2"], "log", params)


def round_files(workload: str, seed: int, r: int) -> "list[ScenarioFile]":
    """The scenario files of round ``r`` of ``workload`` under ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), r])
    if workload == "cv-rr-worstcase":
        return [_rr_worst(rng, n) for n in ("rr-low", "rr-high", "rr-imperfect")]
    if workload == "cv-dr-worstcase":
        return [_dr_m1(rng) for _ in range(4)] + [DR_FAULT]
    if workload == "desk-mix":
        return [_dv(rng, "wcp-opt"), _dv(rng, "wcp-fixed"), _dv(rng, "sps"),
                _lidar(rng, "lidar-dual"), _lidar(rng, "radar"),
                _lidar(rng, "elevation"), _rr_fixed(rng), _dr_m2(rng)]
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")

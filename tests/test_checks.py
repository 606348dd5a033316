"""The range policy: one NaN-safe interval test behind every engine parameter."""

import dataclasses
import math
import re

import numpy as np
import pytest

from satqkd.checks import finite_positive, require
from satqkd.cv import ChannelObservation, CvScenario
from satqkd.dv import DvObservables, DvParams
from satqkd.lidar import (
    BeamParams,
    LidarConfig,
    LinkGeometry,
    RadarParams,
    nominal_comm_beam,
    nominal_geometry,
    nominal_radar,
    nominal_satellite_lidar,
)

INTERVALS = ["[0, 1]", "(0, 1]", "[0, 1)", "(0, 1)", "[1, inf)", "(0, inf)"]


@pytest.mark.parametrize("value, interval", [
    (0.0, "[0, 1]"), (1.0, "[0, 1]"), (1.0, "(0, 1]"), (0.0, "[0, 1)"), (0.5, "(0, 1)"),
    (1.0, "[1, inf)"), (1e308, "(0, inf)"), (np.array([0.0, 0.5, 1.0]), "[0, 1]"),
])
def test_a_value_inside_is_returned_as_is(value, interval):
    assert require("x", value, interval) is value


@pytest.mark.parametrize("value, interval", [
    (-1e-300, "[0, 1]"), (0.0, "(0, 1]"), (1.0, "[0, 1)"), (1.0 + 1e-15, "(0, 1]"),
    (math.inf, "[1, inf)"), (math.inf, "(0, inf)"), (-math.inf, "[0, 1]"),
])
def test_a_value_outside_or_at_an_open_end_is_rejected(value, interval):
    with pytest.raises(ValueError, match=rf"^x must lie in {re.escape(interval)}, got"):
        require("x", value, interval)


@pytest.mark.parametrize("interval", INTERVALS)
def test_nan_lies_in_no_interval(interval):
    with pytest.raises(ValueError, match="got nan"):
        require("x", math.nan, interval)


@pytest.mark.parametrize("lanes, first_bad", [([[0.5, 1.0], [np.nan, -5.0]], "nan"),
                                               ([[0.5, 1.0], [0.25, -5.0]], "-5.0")])
def test_an_array_is_checked_in_every_lane_and_the_first_bad_lane_is_named(lanes, first_bad):
    with pytest.raises(ValueError, match=rf"^lanes must lie in \(0, 1\], got {first_bad}$"):
        require("lanes", np.array(lanes), "(0, 1]")


def test_a_derived_quantity_must_be_finite_and_positive():
    assert finite_positive("q", lambda: 2.0) == 2.0
    for compute in (lambda: 0.0, lambda: math.nan, lambda: 1e308 * 10.0,
                    lambda: 10.0 ** 400, lambda: 1.0 / 0.0):
        with pytest.raises(ValueError, match=r"^q must lie in \(0, inf\)"):
            finite_positive("q", compute)


# A valid instance of each engine dataclass; each float field set alone to
# NaN must be rejected.  CvScenario.v_s, ChannelObservation.xi and .nu_el,
# DvParams.mu and .f, BeamParams.quality, LidarConfig.transmit_power and
# .noise_floor and LinkGeometry.r_b once accepted it.
VALID = [
    CvScenario(0.5, 0.1, 0.9, 300.0),
    ChannelObservation(1e-3, 0.1),
    DvParams(source="wcp", eta_ch=1e-3, eta_d=0.9, p_dc=1e-7, e_d=0.01, f=1.16, q=1.0,
             eta_ae=0.3, mu=0.5),
    DvObservables(gain=1e-3, qber=0.02),
    nominal_comm_beam(),
    nominal_satellite_lidar(),
    nominal_geometry(),
    nominal_radar(),
]


def test_the_valid_instances_cover_every_engine_dataclass():
    assert {type(obj) for obj in VALID} == {
        CvScenario, ChannelObservation, DvParams, DvObservables, BeamParams, LidarConfig,
        LinkGeometry, RadarParams}


@pytest.mark.parametrize("obj, name", [
    (obj, f.name) for obj in VALID for f in dataclasses.fields(obj)
    if isinstance(getattr(obj, f.name), float)
], ids=lambda val: val if isinstance(val, str) else type(val).__name__)
def test_every_float_field_rejects_nan(obj, name):
    with pytest.raises(ValueError, match=rf"^{name} must lie in .*, got nan$"):
        dataclasses.replace(obj, **{name: math.nan})

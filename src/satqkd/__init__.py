"""Key-rate bounds for monitored free-space QKD against a restricted eavesdropper."""

__version__ = "0.1.0"

from .cv import (
    AttackSolution,
    ChannelObservation,
    CvScenario,
    InfeasibleAttackError,
    UnphysicalStateError,
    WorstCaseResult,
    build_cm,
    holevo_dr_m2_bound,
    key_rate_point,
    max_bypass_transmissivity,
    mutual_info,
    solve_attack,
    worst_case_rate,
)
from .dv import (
    DvObservables,
    DvParams,
    MuOptimum,
    binary_entropy,
    channel_observables,
    optimize_mu,
    photon_number_bounds,
    restricted_rate,
)
from .lidar import (
    BeamParams,
    ElevationSweep,
    EveProfile,
    LidarConfig,
    LinkGeometry,
    RadarParams,
    elevation_sweep,
    eve_efficiency_profile,
    lidar_size_bound,
    radar_size_bound,
)
from .scenario import (
    ResultTable,
    ScenarioError,
    ScenarioSpec,
    SweepSpec,
    emit,
    load_scenario,
    read_table,
    run_scenario,
)

__all__ = [
    "AttackSolution", "BeamParams", "ChannelObservation", "CvScenario",
    "DvObservables", "DvParams", "ElevationSweep", "EveProfile",
    "InfeasibleAttackError", "LidarConfig", "LinkGeometry", "MuOptimum",
    "RadarParams", "ResultTable", "ScenarioError", "ScenarioSpec", "SweepSpec",
    "UnphysicalStateError", "WorstCaseResult", "binary_entropy", "build_cm",
    "channel_observables", "elevation_sweep", "emit", "eve_efficiency_profile",
    "holevo_dr_m2_bound", "key_rate_point",
    "lidar_size_bound", "load_scenario", "max_bypass_transmissivity",
    "mutual_info", "optimize_mu", "photon_number_bounds", "radar_size_bound",
    "read_table", "restricted_rate", "run_scenario", "solve_attack",
    "worst_case_rate", "__version__",
]

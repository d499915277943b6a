"""Probabilistic constellation shaping for OFDM sensing-and-communication signals."""

__version__ = "0.1.0"

from .air import AirConfig, AirEstimate, air_mc, air_vs_c0, air_vs_snr
from .ambiguity import (
    AmbiguitySurface,
    DelayGeometry,
    af_closed_form,
    af_self_closed_form,
    mc_average_af,
    mean_af_components,
    variance_cross_closed,
    variance_self_closed,
)
from .constellation import Constellation, group_rings, make_psk, make_qam
from .detect import (
    CfarConfig,
    DetectionScenario,
    calibrate_alpha,
    pd_experiment,
    so_cfar,
)
from .ofdm import OfdmConfig
from .pcs import (
    InfeasibleSupportError,
    PcsProblem,
    PcsSolution,
    SolverNotConvergedError,
    fourth_moment_range,
    solve_pcs,
    sweep_c0,
)

__all__ = [
    "AirConfig",
    "AirEstimate",
    "AmbiguitySurface",
    "CfarConfig",
    "Constellation",
    "DelayGeometry",
    "DetectionScenario",
    "InfeasibleSupportError",
    "OfdmConfig",
    "PcsProblem",
    "PcsSolution",
    "SolverNotConvergedError",
    "af_closed_form",
    "af_self_closed_form",
    "air_mc",
    "air_vs_c0",
    "air_vs_snr",
    "calibrate_alpha",
    "fourth_moment_range",
    "group_rings",
    "make_psk",
    "make_qam",
    "mc_average_af",
    "mean_af_components",
    "pd_experiment",
    "so_cfar",
    "solve_pcs",
    "sweep_c0",
    "variance_cross_closed",
    "variance_self_closed",
]

"""Probabilistic constellation shaping for OFDM sensing-and-communication signals."""

__version__ = "0.1.0"

from .air import AirConfig, AirEstimate, air_mc, air_vs_c0, air_vs_snr
from .ambiguity import af_closed_form, af_statistics, mc_average_af
from .constellation import Constellation, make_psk, make_qam
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
)

__all__ = [
    "AirConfig",
    "AirEstimate",
    "CfarConfig",
    "Constellation",
    "DetectionScenario",
    "InfeasibleSupportError",
    "OfdmConfig",
    "PcsProblem",
    "PcsSolution",
    "SolverNotConvergedError",
    "af_closed_form",
    "af_statistics",
    "air_mc",
    "air_vs_c0",
    "air_vs_snr",
    "calibrate_alpha",
    "fourth_moment_range",
    "make_psk",
    "make_qam",
    "mc_average_af",
    "pd_experiment",
    "so_cfar",
    "solve_pcs",
]

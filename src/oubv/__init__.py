"""Bounded-variation Ornstein-Uhlenbeck process driven by a telegraph process.

Exact path simulation, closed-form falling-time transforms and moments,
process moments, joint densities, the telegraph distribution toolkit, and
a Monte Carlo cross-validation harness.
"""

from .model import ModelParams, Regime, band_coordinate, pattern, t_star
from .specfun import SeriesConvergenceError
from .analytic import HyperQuad, MixedDistribution
from .simulate import EstimateWithCI, MCConfig, Path
from .harness import CheckReport, CheckSpec, run_check, standard_suite

__all__ = [
    "CheckReport",
    "CheckSpec",
    "EstimateWithCI",
    "HyperQuad",
    "MCConfig",
    "MixedDistribution",
    "ModelParams",
    "Path",
    "Regime",
    "SeriesConvergenceError",
    "band_coordinate",
    "pattern",
    "run_check",
    "standard_suite",
    "t_star",
]

__version__ = "0.1.0"

"""Model parameters, flow patterns, band geometry and the time-domain check.

The process of interest alternates between two deterministic relaxation
patterns.  In regime ``i`` the state decays exponentially toward the fixed
point ``a_i / gamma_i`` at rate ``gamma_i``; regime switches occur at
exponential times with rates ``lambda_0``, ``lambda_1``.  The open interval
between the two fixed points (the *band*) is absorbing for the dynamics:
a trajectory started inside never leaves, a trajectory started above falls
in after a finite random time.

Everything in this module is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class Regime(IntEnum):
    """The two velocity regimes of the driving Markov chain."""

    R0 = 0
    R1 = 1

    @property
    def other(self) -> "Regime":
        return Regime(1 - self.value)


@dataclass(frozen=True)
class ModelParams:
    """The six rate/velocity constants of the model.

    Attributes
    ----------
    lambda0, lambda1 : float
        Switching rates out of regime 0 / regime 1, both >= 0.  A zero rate
        means the regime is never left (pure deterministic flow).
    a0, a1 : float
        Drift velocities of the two regimes.
    gamma0, gamma1 : float
        Relaxation rates, both > 0.

    The band ordering ``a1/gamma1 < a0/gamma0`` is required; it makes
    regime 0 the upper fixed point and regime 1 the lower one.
    """

    lambda0: float
    lambda1: float
    a0: float
    a1: float
    gamma0: float
    gamma1: float

    def __post_init__(self) -> None:
        values = (self.lambda0, self.lambda1, self.a0, self.a1,
                  self.gamma0, self.gamma1)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("all parameters must be finite")
        if not (self.gamma0 > 0 and self.gamma1 > 0):
            raise ValueError("gamma0 > 0 and gamma1 > 0 violated")
        if self.lambda0 < 0 or self.lambda1 < 0:
            raise ValueError("lambda0 >= 0 and lambda1 >= 0 violated")
        if not self.fixed_point(Regime.R1) < self.fixed_point(Regime.R0):
            raise ValueError("a1/gamma1 < a0/gamma0 violated (band empty)")

    def rate(self, regime: Regime) -> float:
        return self.lambda0 if regime == Regime.R0 else self.lambda1

    def velocity(self, regime: Regime) -> float:
        return self.a0 if regime == Regime.R0 else self.a1

    def relaxation(self, regime: Regime) -> float:
        return self.gamma0 if regime == Regime.R0 else self.gamma1

    def fixed_point(self, regime: Regime) -> float:
        """Attracting level a_i/gamma_i of regime i."""
        if regime == Regime.R0:
            return self.a0 / self.gamma0
        return self.a1 / self.gamma1

    @property
    def is_symmetric(self) -> bool:
        """True when rates match, relaxations match and velocities mirror."""
        return (self.lambda0 == self.lambda1
                and self.gamma0 == self.gamma1
                and self.a0 == -self.a1)


def require_time(t: float, name: str = "t") -> None:
    """Reject a negative, NaN or infinite time."""
    if not 0 <= t < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite")


def pattern(regime: Regime, x: float, t: float, params: ModelParams) -> float:
    """Deterministic flow of one regime: relaxation toward its fixed point.

    Returns ``a_i/gamma_i + (x - a_i/gamma_i) * exp(-gamma_i * t)`` for
    regime ``i``.  Satisfies the semigroup property in ``t``.
    """
    require_time(t, "flow duration")
    if t == 0:
        return x
    fp = params.fixed_point(regime)
    return fp + (x - fp) * math.exp(-params.relaxation(regime) * t)


def require_above_band(x: float, params: ModelParams) -> None:
    """Reject a start below the upper band edge a0/gamma0, NaN or infinite.

    The edge itself is accepted: from there regime 1 falls in at once.
    From x = +inf nothing ever falls in.
    """
    if not x >= params.fixed_point(Regime.R0):
        raise ValueError("x must exceed a0/gamma0")
    if x == math.inf:
        raise ValueError("x must be finite")


def crossing_time(x, params: ModelParams):
    """Time the regime-1 flow from x takes to reach the upper band edge.

    ``log((x - low) / (high - low)) / gamma1`` with the band edges low and
    high, for a scalar or an array x; x is not checked.
    """
    low = params.fixed_point(Regime.R1)
    high = params.fixed_point(Regime.R0)
    return np.log((x - low) / (high - low)) / params.gamma1


def t_star(x: float, params: ModelParams) -> float:
    """Shortest possible crossing time of the upper band edge from x.

    This is the time the regime-1 flow started at ``x >= a0/gamma0`` needs
    to reach ``a0/gamma0``; any switching can only delay the crossing.
    """
    require_above_band(x, params)
    return float(crossing_time(x, params))


def band_coordinate(x: float, params: ModelParams) -> float:
    """Position rescaled to the band: 0 at the upper edge, 1 at the lower.

    ``z(x) = (a0/gamma0 - x) / (a0/gamma0 - a1/gamma1)``; nonpositive for
    starting points at or above the upper edge.
    """
    low = params.fixed_point(Regime.R1)
    high = params.fixed_point(Regime.R0)
    return (high - x) / (high - low)

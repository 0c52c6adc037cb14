"""Closed-form quantities of the band-falling process and its driver.

Covers the Laplace transform and mean of the falling time into the
absorbing band, regime occupation probabilities, mean and variance of the
process, joint position/switch-count densities for up to two switches
(symmetric case), and the distribution, moments and covariance of the
driving telegraph process.

Every function here is validated against the exact Monte Carlo sampler in
:mod:`oubv.simulate`; the pairing lives in :mod:`oubv.harness`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterator

from scipy import integrate

from .model import ModelParams, Regime, band_coordinate, pattern, t_star
from .specfun import (
    DEFAULT_CONTROL,
    SeriesControl,
    SeriesConvergenceError,
    _sum_series,
    bessel_i,
    gauss_2f1,
    gh_coefficient,
    kummer_phi,
    psi_pair,
)

QUAD_ABS_TOL = 1e-10
QUAD_FAIL_TOL = 1e-6


class QuadratureError(RuntimeError):
    """Adaptive quadrature missed even the loose error ceiling."""


@dataclass(frozen=True)
class HyperQuad:
    """Laplace-domain parameter bundle of the falling-time transform.

    ``beta0``/``beta1`` are the rate ratios at transform variable q, and
    ``b0 <= b1`` the roots entering the hypergeometric representation.
    The roots satisfy ``b0 + b1 = beta0 + beta1`` and
    ``b0 * b1 = beta0 * beta1 - beta0(0) * beta1(0)``.
    """

    beta0: float
    beta1: float
    b0: float
    b1: float


@dataclass(frozen=True)
class MixedDistribution:
    """Probability law with point masses plus an absolutely continuous part.

    ``atoms`` is a tuple of (location, mass) pairs, ``density`` the
    continuous density (zero outside ``support``).
    """

    atoms: tuple[tuple[float, float], ...]
    density: Callable[[float], float]
    support: tuple[float, float]

    def __post_init__(self) -> None:
        if any(mass < 0 for _, mass in self.atoms):
            raise ValueError("atom masses must be nonnegative")
        if not self.support[0] <= self.support[1]:
            raise ValueError("support must be an ordered interval")

    @property
    def atom_mass(self) -> float:
        return sum(mass for _, mass in self.atoms)

    def continuous_mass(self) -> float:
        """Integral of the density over the support (adaptive quadrature)."""
        return quad_interval(self.density, self.support[0], self.support[1])

    def total_mass(self) -> float:
        return self.atom_mass + self.continuous_mass()


def quad_interval(f: Callable[[float], float], lo: float, hi: float,
                  _depth: int = 0) -> float:
    """Adaptive Gauss-Kronrod quadrature with interval-bisection fallback.

    Handles the integrable square-root endpoint singularities of the
    telegraph densities; bisects when the error estimate misses the
    absolute tolerance.
    """
    if hi <= lo:
        return 0.0
    out = integrate.quad(f, lo, hi, epsabs=QUAD_ABS_TOL, epsrel=QUAD_ABS_TOL,
                         limit=200, full_output=1)
    value, abserr = out[0], out[1]
    if abserr <= max(QUAD_ABS_TOL, 1e-10 * abs(value)):
        return value
    if _depth >= 12:
        if abserr > max(QUAD_FAIL_TOL, QUAD_FAIL_TOL * abs(value)):
            raise QuadratureError(
                f"quadrature error estimate {abserr:.2e} on [{lo}, {hi}]")
        return value
    mid = 0.5 * (lo + hi)
    return (quad_interval(f, lo, mid, _depth + 1)
            + quad_interval(f, mid, hi, _depth + 1))


# ---------------------------------------------------------------------------
# Falling time into the band
# ---------------------------------------------------------------------------

def _hyper_quad_any_q(q: float, params: ModelParams) -> HyperQuad:
    beta0 = (params.lambda0 + q) / params.gamma0
    beta1 = (params.lambda1 + q) / params.gamma1
    beta0_at0 = params.lambda0 / params.gamma0
    beta1_at0 = params.lambda1 / params.gamma1
    disc = math.sqrt((beta0 - beta1) ** 2 + 4.0 * beta0_at0 * beta1_at0)
    b0 = 0.5 * (beta0 + beta1 - disc)
    b1 = 0.5 * (beta0 + beta1 + disc)
    return HyperQuad(beta0=beta0, beta1=beta1, b0=b0, b1=b1)


def hyper_quad(q: float, params: ModelParams) -> HyperQuad:
    """Rate ratios and hypergeometric roots at transform variable q >= 0."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    return _hyper_quad_any_q(q, params)


def _require_above_band(x: float, params: ModelParams) -> None:
    if x < params.a0 / params.gamma0:
        raise ValueError("x must exceed a0/gamma0")


def _laplace_falling_any_q(q: float, x: float, start: Regime,
                           params: ModelParams, ctl: SeriesControl) -> float:
    z = band_coordinate(x, params)
    hq = _hyper_quad_any_q(q, params)
    if start == Regime.R1:
        return gauss_2f1(hq.b0, hq.b1, hq.beta0, z, ctl)
    if params.lambda0 == 0.0:
        return 0.0
    return (params.lambda0 / (params.lambda0 + q)
            * gauss_2f1(hq.b0, hq.b1, hq.beta0 + 1.0, z, ctl))


def laplace_falling(q: float, x: float, start: Regime, params: ModelParams,
                    ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Laplace transform of the falling time, E[exp(-q T(x)) | start].

    Equivalently the probability that the running maximum over an
    independent Exp(q) horizon exceeds x.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    _require_above_band(x, params)
    return _laplace_falling_any_q(q, x, start, params, ctl)


def laplace_falling_special(case: str, q: float, x: float, start: Regime,
                            params: ModelParams,
                            ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Degenerate-rate closed forms of the falling-time transform.

    ``case`` names which rate is zero.  With ``lambda0_zero`` the process
    never crosses from regime 0 (transform 0) and crosses from regime 1
    only if no switch happens before the minimal crossing time.  With
    ``lambda1_zero`` the regime-1 flow reaches the band edge at exactly
    t*(x), and from regime 0 a single switch decides the crossing.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    _require_above_band(x, params)
    if case == "lambda0_zero":
        if params.lambda0 != 0.0:
            raise ValueError("case lambda0_zero requires lambda0 == 0")
        if start == Regime.R0:
            return 0.0
        return math.exp(-(params.lambda1 + q) * t_star(x, params))
    if case == "lambda1_zero":
        if params.lambda1 != 0.0:
            raise ValueError("case lambda1_zero requires lambda1 == 0")
        if start == Regime.R1:
            return math.exp(-q * t_star(x, params))
        z = band_coordinate(x, params)
        beta0 = (params.lambda0 + q) / params.gamma0
        return (params.lambda0 / (params.lambda0 + q)
                * gauss_2f1(q / params.gamma1, beta0, beta0 + 1.0, z, ctl))
    raise ValueError(f"unknown case {case!r}")


def _mean_falling_series(x: float, start: Regime, params: ModelParams,
                         ctl: SeriesControl) -> tuple[float, int]:
    z = band_coordinate(x, params)
    num = params.lambda0 / params.gamma0 + params.lambda1 / params.gamma1
    den = params.lambda0 / params.gamma0
    if start == Regime.R0:
        den += 1.0
    slope0 = ((params.lambda0 + params.lambda1)
              / (params.lambda0 * params.gamma1 + params.lambda1 * params.gamma0))

    def terms() -> Iterator[float]:
        term = 1.0  # tracks (num)_n / (den)_n * z^n
        for n in count(1):
            term *= (num + n - 1.0) / (den + n - 1.0) * z
            yield term / n

    running, n = _sum_series(terms(), "mean falling-time", ctl, z=z,
                             detail=" (z={z})")
    value = -slope0 * running
    if start == Regime.R0:
        value += 1.0 / params.lambda0
    return value, n


def _mean_falling_fd(x: float, start: Regime, params: ModelParams,
                     ctl: SeriesControl) -> float:
    # -dQhat/dq at q = 0, central differences with one Richardson step.
    # The transform formula extends analytically to small |q|, so q < 0
    # evaluations are legitimate (step kept well below lambda0).
    h = 1e-3 * min(1.0, params.lambda0)

    def deriv(step: float) -> float:
        lo = _laplace_falling_any_q(-step, x, start, params, ctl)
        hi = _laplace_falling_any_q(step, x, start, params, ctl)
        return (lo - hi) / (2.0 * step)

    d_h = deriv(h)
    d_h2 = deriv(h / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0


def mean_falling_info(x: float, start: Regime, params: ModelParams,
                      ctl: SeriesControl = DEFAULT_CONTROL) -> tuple[float, str, int]:
    """Mean falling time with evaluation metadata (value, method, terms).

    Uses the explicit series where it converges; otherwise differentiates
    the (transform-domain) closed form at q = 0.
    """
    _require_above_band(x, params)
    if params.lambda0 <= 0:
        raise ValueError("mean falling time is infinite when lambda0 == 0")
    z = band_coordinate(x, params)
    if abs(z) < 1.0:
        try:
            value, terms = _mean_falling_series(x, start, params, ctl)
            return value, "series", terms
        except SeriesConvergenceError:
            pass
    return _mean_falling_fd(x, start, params, ctl), "fallback", 0


def mean_falling(x: float, start: Regime, params: ModelParams,
                 ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Mean time for the process started at x above the band to fall in."""
    return mean_falling_info(x, start, params, ctl)[0]


# ---------------------------------------------------------------------------
# Occupation probabilities and moments of the process
# ---------------------------------------------------------------------------

def occupation_probs(s: float, params: ModelParams,
                     ctl: SeriesControl = DEFAULT_CONTROL
                     ) -> tuple[float, float, float, float]:
    """Regime occupation probabilities (pi00, pi01, pi10, pi11) at time s.

    ``pi_ij`` is the probability that the chain started in regime i sits
    in regime j; rows sum to one.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    l0, l1 = params.lambda0, params.lambda1
    psi0_f, psi1_f = psi_pair(s, (l0 - l1) * s, params, ctl)
    psi0_b, psi1_b = psi_pair(s, (l1 - l0) * s, params, ctl)
    pi00 = math.exp(-l0 * s) * (1.0 + psi0_f)
    pi01 = l0 * math.exp(-l0 * s) * psi1_f
    pi11 = math.exp(-l1 * s) * (1.0 + psi0_b)
    pi10 = l1 * math.exp(-l1 * s) * psi1_b
    return (pi00, pi01, pi10, pi11)


def mgf_gamma(t: float, start: Regime, params: ModelParams,
              ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """E[exp(-integral of the active relaxation rate up to t) | start]."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    l0, l1 = params.lambda0, params.lambda1
    g0, g1 = params.gamma0, params.gamma1
    if start == Regime.R0:
        w = (l0 - l1 + g0 - g1) * t
        psi0, psi1 = psi_pair(t, w, params, ctl)
        return math.exp(-(l0 + g0) * t) * (1.0 + psi0 + l0 * psi1)
    w = (l1 - l0 + g1 - g0) * t
    psi0, psi1 = psi_pair(t, w, params, ctl)
    return math.exp(-(l1 + g1) * t) * (1.0 + psi0 + l1 * psi1)


def mean_X(t: float, x: float, start: Regime, params: ModelParams,
           ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Mean of the process at time t from (x, start), general parameters.

    Convolution of the occupation probabilities with the relaxation
    transform, integrated by adaptive quadrature.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return float(x)

    def to_regime0(s: float) -> float:
        probs = occupation_probs(s, params, ctl)
        pi = probs[0] if start == Regime.R0 else probs[2]
        return pi * mgf_gamma(t - s, Regime.R0, params, ctl)

    def to_regime1(s: float) -> float:
        probs = occupation_probs(s, params, ctl)
        pi = probs[1] if start == Regime.R0 else probs[3]
        return pi * mgf_gamma(t - s, Regime.R1, params, ctl)

    return (x * mgf_gamma(t, start, params, ctl)
            + params.a0 * quad_interval(to_regime0, 0.0, t)
            + params.a1 * quad_interval(to_regime1, 0.0, t))


def _require_symmetric(params: ModelParams) -> None:
    if not params.is_symmetric:
        raise ValueError("requires symmetric parameters "
                         "(lambda0 == lambda1, gamma0 == gamma1, a0 == -a1)")


def _exp_divided_difference(r1: float, r2: float, t: float) -> float:
    """(exp(-r1 t) - exp(-r2 t)) / (r2 - r1), with its limit t exp(-r t).

    Factored as exp(-min(r1, r2) t) (1 - exp(-|r2 - r1| t)) / |r2 - r1|:
    expm1 keeps every digit when the two rates meet, and neither factor
    can overflow.
    """
    gap = abs(r2 - r1)
    span = t if gap == 0.0 else -math.expm1(-gap * t) / gap
    return math.exp(-min(r1, r2) * t) * span


def mean_X_symmetric(t: float, x: float, start: Regime,
                     params: ModelParams) -> float:
    """Closed-form mean of the process under fully symmetric parameters."""
    _require_symmetric(params)
    if t < 0:
        raise ValueError("t must be nonnegative")
    lam, gamma, a = params.lambda0, params.gamma0, params.a0
    swing = _exp_divided_difference(2.0 * lam, gamma, t)
    sign = 1.0 if start == Regime.R0 else -1.0
    return x * math.exp(-gamma * t) + sign * a * swing


def var_X_symmetric(t: float, params: ModelParams) -> float:
    """Variance of the process under fully symmetric parameters.

    Independent of the starting regime (the two conditional means differ
    only in sign).  Tends to a^2 / (gamma (gamma + 2 lambda)).
    """
    _require_symmetric(params)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 0.0
    lam, gamma, a = params.lambda0, params.gamma0, params.a0
    # Var = a^2 (limit - [limit e^(-2 gamma t) + 2 tail / (gamma + 2 lambda)
    # + swing^2]), with swing and tail divided differences of exp(-r t)
    # between the rates 2 lambda, gamma and gamma + 2 lambda, 2 gamma.  No
    # term divides by (gamma - 2 lambda)^2, so no digits cancel at the
    # critical rate gamma = 2 lambda.
    limit = 1.0 / (gamma * (gamma + 2.0 * lam))
    swing = _exp_divided_difference(2.0 * lam, gamma, t)
    tail = _exp_divided_difference(gamma + 2.0 * lam, 2.0 * gamma, t)
    value = a * a * (limit - (limit * math.exp(-2.0 * gamma * t)
                              + 2.0 / (gamma + 2.0 * lam) * tail
                              + swing * swing))
    # the closed form can dip below zero by roundoff near t = 0
    return max(value, 0.0)


def kac_limit_reference(t: float, x: float, gamma: float,
                        sigma: float) -> tuple[float, float]:
    """Mean and variance of the classical OU diffusion limit."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    mean = x * math.exp(-gamma * t)
    var = sigma * sigma / (2.0 * gamma) * (1.0 - math.exp(-2.0 * gamma * t))
    return (mean, var)


# ---------------------------------------------------------------------------
# Joint law of position and switch count (symmetric case)
# ---------------------------------------------------------------------------

def reachable_interval(t: float, x: float,
                       params: ModelParams) -> tuple[float, float]:
    """Interval of positions reachable at time t from x (symmetric case)."""
    return (pattern(Regime.R1, x, t, params), pattern(Regime.R0, x, t, params))


def tau_cross(branch: str, y: float, t: float, x: float,
              params: ModelParams) -> float:
    """Switch time recovering position y at time t after one switch.

    ``tau0`` inverts the regime-0-then-regime-1 composition, ``tau1`` the
    mirror one.  Requires symmetric parameters and y in the reachable
    interval.
    """
    _require_symmetric(params)
    if branch not in ("tau0", "tau1"):
        raise ValueError("branch must be 'tau0' or 'tau1'")
    lo, hi = reachable_interval(t, x, params)
    if not lo <= y <= hi:
        raise ValueError("y outside the reachable interval")
    a, gamma = params.a0, params.gamma0
    emt = math.exp(-gamma * t)
    if branch == "tau0":
        arg = (a + gamma * y + (a - gamma * x) * emt) / (2.0 * a)
    else:
        arg = (a - gamma * y + (a + gamma * x) * emt) / (2.0 * a)
    return t + math.log(arg) / gamma


def joint_distribution(t: float, n: int, x: float, start: Regime,
                       params: ModelParams) -> MixedDistribution:
    """Joint law of (position at t, switch count = n), symmetric case.

    n = 0 is a pure atom on the no-switch flow; n = 1 and n = 2 are
    absolutely continuous on the reachable interval.  Closed forms beyond
    two switches are out of scope (use the Monte Carlo histograms).
    """
    _require_symmetric(params)
    if n not in (0, 1, 2):
        raise ValueError("closed forms available for n in {0, 1, 2} only")
    if t < 0:
        raise ValueError("t must be nonnegative")
    lam, gamma, a = params.lambda0, params.gamma0, params.a0
    lo, hi = reachable_interval(t, x, params)
    support = (lo, hi)

    if n == 0:
        atom = (pattern(start, x, t, params), math.exp(-lam * t))
        return MixedDistribution(atoms=(atom,), density=lambda y: 0.0,
                                 support=support)

    emt = math.exp(-gamma * t)
    if n == 1:
        front = lam * math.exp(-lam * t)
        if start == Regime.R0:
            def density(y: float) -> float:
                if not lo < y < hi:
                    return 0.0
                return front / (a + gamma * y + (a - gamma * x) * emt)
        else:
            def density(y: float) -> float:
                if not lo < y < hi:
                    return 0.0
                return front / (a - gamma * y + (a + gamma * x) * emt)
        return MixedDistribution(atoms=(), density=density, support=support)

    front = lam * lam * math.exp(-lam * t)
    if start == Regime.R0:
        def density(y: float) -> float:
            if not lo < y < hi:
                return 0.0
            extra = (tau_cross("tau0", y, t, x, params)
                     + tau_cross("tau1", y, t, x, params) - t)
            return front * extra / (a - gamma * y + (gamma * x - a) * emt)
    else:
        def density(y: float) -> float:
            if not lo < y < hi:
                return 0.0
            extra = (tau_cross("tau0", y, t, x, params)
                     + tau_cross("tau1", y, t, x, params) - t)
            return front * extra / (a + gamma * y - (gamma * x + a) * emt)
    return MixedDistribution(atoms=(), density=density, support=support)


def joint_density(y: float, t: float, n: int, x: float, start: Regime,
                  params: ModelParams) -> float:
    """Continuous part of the joint (position, switch count) law at y."""
    return joint_distribution(t, n, x, start, params).density(y)


# ---------------------------------------------------------------------------
# Telegraph process toolkit
# ---------------------------------------------------------------------------

def telegraph_density(i: Regime, j: Regime, t: float, params: ModelParams,
                      ctl: SeriesControl = DEFAULT_CONTROL) -> MixedDistribution:
    """Joint law of (telegraph position at t, regime at t = j | start = i).

    Diagonal entries carry the no-switch atom at a_i t; the continuous
    parts are Bessel-type densities on (a1 t, a0 t).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if not params.a0 > params.a1:
        raise ValueError("telegraph density requires a0 > a1")
    l0, l1 = params.lambda0, params.lambda1
    a0, a1 = params.a0, params.a1
    spread = a0 - a1
    lo, hi = a1 * t, a0 * t

    sqrt_ll = math.sqrt(l0 * l1)

    def xi_of(xv: float) -> float:
        return (xv - a1 * t) / spread

    def base(xi: float) -> float:
        return math.exp(-l0 * xi - l1 * (t - xi))

    if i == j:
        def density(xv: float) -> float:
            xi = xi_of(xv)
            if not 0.0 < xi < t:
                return 0.0
            if sqrt_ll == 0.0:
                return 0.0
            arg = 2.0 * math.sqrt(l0 * l1 * xi * (t - xi))
            if i == Regime.R0:
                shape = math.sqrt(xi / (t - xi))
            else:
                shape = math.sqrt((t - xi) / xi)
            return sqrt_ll / spread * shape * base(xi) * bessel_i(1, arg, ctl)

        if i == Regime.R0:
            atom = (a0 * t, math.exp(-l0 * t))
        else:
            atom = (a1 * t, math.exp(-l1 * t))
        return MixedDistribution(atoms=(atom,), density=density,
                                 support=(lo, hi))

    rate = l0 if i == Regime.R0 else l1

    def density(xv: float) -> float:
        xi = xi_of(xv)
        if not 0.0 < xi < t:
            return 0.0
        arg = 2.0 * math.sqrt(l0 * l1 * xi * (t - xi))
        return rate / spread * base(xi) * bessel_i(0, arg, ctl)

    return MixedDistribution(atoms=(), density=density, support=(lo, hi))


def _require_mirrored_velocities(params: ModelParams) -> None:
    if not (params.a0 > 0 and params.a0 == -params.a1):
        raise ValueError("requires mirrored velocities a0 == -a1 > 0")


def telegraph_moment(order: int, i: Regime, j: Regime, t: float,
                     params: ModelParams,
                     ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Restricted telegraph moment E[T(t)^order ; regime(t) = j | i].

    Series in the switch count with Kummer-combination coefficients;
    requires mirrored velocities.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    _require_mirrored_velocities(params)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 0.0
    l0, l1 = params.lambda0, params.lambda1
    rate = l0 if i == Regime.R0 else l1
    front = params.a0 ** order * math.exp(-rate * t)
    if order == 1 and i == Regime.R1:
        front = -front
    sign_t = t if i == Regime.R0 else -t
    if i == j:
        # prefactor (l0 l1)^n t^(2n + order) / (2n)!
        kind, lead, offset = f"G{order}", t ** order, 1.0
    else:
        # prefactor l_i^(n+1) l_(1-i)^n t^(2n + order + 1) / (2n + 1)!
        kind, lead, offset = f"H{order}", rate * t ** (order + 1), 2.0

    def terms() -> Iterator[float]:
        coeff = lead
        for n in count():
            yield coeff * gh_coefficient(kind, n, sign_t, params, ctl)
            coeff *= (l0 * l1 * t * t
                      / ((2.0 * n + offset) * (2.0 * n + offset + 1.0)))

    return front * _sum_series(terms(), "telegraph moment", ctl, detail="")[0]


def telegraph_moment_symmetric(order: int, i: Regime, j: Regime, t: float,
                               params: ModelParams) -> float:
    """Closed-form restricted moments when the switching rates agree."""
    _require_mirrored_velocities(params)
    if params.lambda0 != params.lambda1 or params.lambda0 <= 0:
        raise ValueError("requires lambda0 == lambda1 > 0")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    lam, a = params.lambda0, params.a0
    decay = math.exp(-2.0 * lam * t)
    if order == 1:
        if i != j:
            return 0.0
        value = a / (2.0 * lam) * (1.0 - decay)
        return value if i == Regime.R0 else -value
    if i == j:
        return a * a * t / (2.0 * lam) * (1.0 - decay)
    return (a * a * t / (2.0 * lam) * (1.0 + decay)
            - a * a / (2.0 * lam * lam) * (1.0 - decay))


def telegraph_cov(i: Regime, t: float, s: float, params: ModelParams,
                  ctl: SeriesControl = DEFAULT_CONTROL,
                  allow_fast_path: bool = True) -> float:
    """Product moment E[T(t) T(s) | start = i] for t > s > 0.

    Splits the product at s using the Markov property; the equal-rate case
    has a closed form used as a fast path.
    """
    _require_mirrored_velocities(params)
    if not t > s > 0:
        raise ValueError("requires t > s > 0")
    l0, l1 = params.lambda0, params.lambda1
    if allow_fast_path and l0 == l1 and l0 > 0:
        lam, a = l0, params.a0
        return (a * a / (4.0 * lam * lam)
                * (4.0 * lam * s
                   - (1.0 + math.exp(-2.0 * lam * (t - s)))
                   * (1.0 - math.exp(-2.0 * lam * s))))
    m = lambda o, ii, jj, u: telegraph_moment(o, ii, jj, u, params, ctl)
    mean0_rest = m(1, Regime.R0, Regime.R0, t - s) + m(1, Regime.R0, Regime.R1, t - s)
    mean1_rest = m(1, Regime.R1, Regime.R0, t - s) + m(1, Regime.R1, Regime.R1, t - s)
    second_s = m(2, i, Regime.R0, s) + m(2, i, Regime.R1, s)
    return (mean0_rest * m(1, i, Regime.R0, s)
            + mean1_rest * m(1, i, Regime.R1, s)
            + second_s)


def mgf_restricted(z: float, t: float, n: int, start: Regime,
                   params: ModelParams,
                   ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """E[exp(z T(t)) ; switch count = n | start], mirrored velocities.

    At z = 0 this is the probability of exactly n switches.
    """
    _require_mirrored_velocities(params)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if n < 0:
        raise ValueError("n must be nonnegative")
    l0, l1 = params.lambda0, params.lambda1
    a = params.a0
    two_beta = l0 - l1
    if start == Regime.R0:
        warg = (two_beta - 2.0 * a * z) * t
        expo = math.exp(-(l0 - a * z) * t)
    else:
        warg = (2.0 * a * z - two_beta) * t
        expo = math.exp(-(l1 + a * z) * t)
    if n % 2 == 0:
        m = n // 2
        coeff = 1.0
        for k in range(1, 2 * m + 1):
            coeff *= t / k
            if k <= m:
                coeff *= l0 * l1
        phi = kummer_phi(m, 2 * m + 1, warg, ctl)
    else:
        m = (n - 1) // 2
        lead = l0 if start == Regime.R0 else l1
        coeff = lead
        for k in range(1, 2 * m + 2):
            coeff *= t / k
            if k <= m:
                coeff *= l0 * l1
        phi = kummer_phi(m + 1, 2 * m + 2, warg, ctl)
    return coeff * phi * expo

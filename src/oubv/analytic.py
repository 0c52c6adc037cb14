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

import numpy as np
from scipy import integrate, linalg

from .model import (ModelParams, Regime, band_coordinate, pattern,
                    require_above_band, require_time)
from .specfun import (
    SeriesConvergenceError,
    _sum_series,
    bessel_i,
    gauss_2f1,
    kummer_phi,
    psi_pair,
)

QUAD_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Adaptive quadrature missed its error tolerance."""


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

    def mass(self, lo: float, hi: float) -> float:
        """Mass on [lo, hi]: the density's quadrature plus the atoms inside."""
        total = quad_interval(self.density, lo, hi)
        for loc, weight in self.atoms:
            if lo <= loc <= hi:
                total += weight
        return total


def quad_interval(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Adaptive Gauss-Kronrod quadrature of a density over [lo, hi].

    Serves the densities only, with the integrable square-root endpoint
    singularities of the telegraph densities.  Raises ``QuadratureError``
    when the error estimate exceeds ``QUAD_TOL``, absolute or relative.
    """
    if hi <= lo:
        return 0.0
    value, abserr = integrate.quad(f, lo, hi, epsabs=QUAD_TOL, epsrel=QUAD_TOL,
                                   limit=200, full_output=1)[:2]
    if abserr > max(QUAD_TOL, QUAD_TOL * abs(value)):
        raise QuadratureError(
            f"quadrature error estimate {abserr:.2e} on [{lo}, {hi}]")
    return value


def _require_finite(value: float, name: str) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")


# ---------------------------------------------------------------------------
# Falling time into the band
# ---------------------------------------------------------------------------

def _hyper_quad_any_q(q: float, params: ModelParams) -> HyperQuad:
    beta0 = (params.lambda0 + q) / params.gamma0
    beta1 = (params.lambda1 + q) / params.gamma1
    beta0_at0 = params.lambda0 / params.gamma0
    beta1_at0 = params.lambda1 / params.gamma1
    if beta0_at0 * beta1_at0 == 0.0:  # a zero rate: the roots are exact
        return HyperQuad(beta0=beta0, beta1=beta1, b0=min(beta0, beta1),
                         b1=max(beta0, beta1))
    disc = math.sqrt((beta0 - beta1) ** 2 + 4.0 * beta0_at0 * beta1_at0)
    b0 = 0.5 * (beta0 + beta1 - disc)
    b1 = 0.5 * (beta0 + beta1 + disc)
    return HyperQuad(beta0=beta0, beta1=beta1, b0=b0, b1=b1)


def hyper_quad(q: float, params: ModelParams) -> HyperQuad:
    """Rate ratios and hypergeometric roots at transform variable q >= 0."""
    if not 0 <= q < math.inf:
        raise ValueError("q must be nonnegative and finite")
    return _hyper_quad_any_q(q, params)


def _laplace_falling_any_q(q: float, x: float, start: Regime,
                           params: ModelParams) -> float:
    z = band_coordinate(x, params)
    hq = _hyper_quad_any_q(q, params)
    # gauss_2f1 Pfaff-transforms its first root: give it the root that is
    # not beta0.  At a zero rate the other root is beta0, so from regime 1
    # F(b, beta0; beta0; z) = (1 - z)^(-b) with no series left, and from
    # regime 0 the series is the single-switch one.
    pfaff, other = ((hq.b1, hq.b0) if hq.b0 == hq.beta0
                    else (hq.b0, hq.b1))
    if start == Regime.R1:
        return gauss_2f1(pfaff, other, hq.beta0, z)
    if params.lambda0 == 0.0:
        return 0.0
    return (params.lambda0 / (params.lambda0 + q)
            * gauss_2f1(pfaff, other, hq.beta0 + 1.0, z))


def laplace_falling(q: float, x: float, start: Regime,
                    params: ModelParams) -> float:
    """Laplace transform of the falling time, E[exp(-q T(x)) | start].

    Equivalently the probability of falling in before an independent
    Exp(q) time.  One hypergeometric route serves every rate, a zero one
    included: with lambda0 = 0 nothing falls in from regime 0 and regime 1
    falls in at t*(x) unless it switches first; with lambda1 = 0 regime 1
    falls in at exactly t*(x).
    """
    if not 0 < q < math.inf:
        raise ValueError("q must be positive and finite")
    require_above_band(x, params)
    return _laplace_falling_any_q(q, x, start, params)


def _mean_falling_series(x: float, start: Regime,
                         params: ModelParams) -> tuple[float, int]:
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

    running, n = _sum_series(terms(), "mean falling-time", z=z,
                             detail=" (z={z})")
    value = 0.0 - slope0 * running  # +0.0, not -0.0, at the band edge
    if start == Regime.R0:
        value += 1.0 / params.lambda0
    return value, n


def _mean_falling_fd(x: float, start: Regime, params: ModelParams) -> float:
    # -dQhat/dq at q = 0, central differences with one Richardson step.
    # The transform formula extends analytically to small |q|, so q < 0
    # evaluations are legitimate (step kept well below lambda0).
    h = 1e-3 * min(1.0, params.lambda0)

    def deriv(step: float) -> float:
        lo = _laplace_falling_any_q(-step, x, start, params)
        hi = _laplace_falling_any_q(step, x, start, params)
        return (lo - hi) / (2.0 * step)

    d_h = deriv(h)
    d_h2 = deriv(h / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0


def mean_falling_info(x: float, start: Regime,
                      params: ModelParams) -> tuple[float, str, int]:
    """Mean falling time with evaluation metadata (value, method, terms).

    Uses the explicit series where it converges without cancelling;
    otherwise differentiates the (transform-domain) closed form at q = 0.
    """
    require_above_band(x, params)
    if params.lambda0 <= 0:
        raise ValueError("mean falling time is infinite when lambda0 == 0")
    z = band_coordinate(x, params)
    if abs(z) < 1.0:
        try:
            value, terms = _mean_falling_series(x, start, params)
            return value, "series", terms
        except SeriesConvergenceError:
            pass
    return _mean_falling_fd(x, start, params), "fallback", 0


def mean_falling(x: float, start: Regime, params: ModelParams) -> float:
    """Mean time for the process started at x above the band to fall in."""
    return mean_falling_info(x, start, params)[0]


# ---------------------------------------------------------------------------
# Occupation probabilities and moments of the process
# ---------------------------------------------------------------------------

def two_state_route(t: float, start: Regime, params: ModelParams,
                    relaxed: bool = False) -> tuple[str, float, float]:
    """Route of ``occupation_probs`` (``relaxed`` False) or ``mgf_gamma``
    (``relaxed`` True) at horizon t, and the half-gap of its 2x2 block.

    Both are read from exp(B t), B = [[-d_i, l_i], [l_o, -d_o]], with i the
    start regime, o the other, and d = lambda, or d = lambda + gamma when
    relaxed.  B's eigenvalues are -(d_i + d_o) / 2 +- delta, with
    c = (d_i - d_o) / 2 and delta = hypot(c, sqrt(l_i l_o)).  The route is
    the paper's psi-series ("series") while the gap times t, 2 delta t, is
    at most 4: there |z| <= 4 and l_i l_o t^2 <= 4, so the series needs few
    terms.  Beyond, it is the eigen form ("eigen"), which thus never
    divides by a gap below 2 / t.  Returns (route, c, delta).
    """
    li, lo = params.rate(start), params.rate(start.other)
    gi, go = ((params.relaxation(start), params.relaxation(start.other))
              if relaxed else (0.0, 0.0))
    c = ((li + gi) - (lo + go)) / 2.0
    delta = math.hypot(c, math.sqrt(li * lo))
    return ("series" if 2.0 * delta * t <= 4.0 else "eigen"), c, delta


def _occupation_series(s: float, params: ModelParams
                       ) -> tuple[float, float, float, float]:
    """The paper's psi-series form of ``occupation_probs``."""
    l0, l1 = params.lambda0, params.lambda1
    psi0_f, psi1_f = psi_pair(s, (l0 - l1) * s, params)
    psi0_b, psi1_b = psi_pair(s, (l1 - l0) * s, params)
    pi00 = math.exp(-l0 * s) * (1.0 + psi0_f)
    pi01 = l0 * math.exp(-l0 * s) * psi1_f
    pi11 = math.exp(-l1 * s) * (1.0 + psi0_b)
    pi10 = l1 * math.exp(-l1 * s) * psi1_b
    return (pi00, pi01, pi10, pi11)


def occupation_probs(s: float,
                     params: ModelParams) -> tuple[float, float, float, float]:
    """Regime occupation probabilities (pi00, pi01, pi10, pi11) at time s.

    ``pi_ij`` is the probability that the chain started in regime i sits
    in regime j; rows sum to one.  The route is ``two_state_route``'s:
    the paper's psi-series while (lambda0 + lambda1) s <= 4, beyond it the
    eigen form pi01 = lambda0 (1 - e^(-L s)) / L,
    pi00 = (lambda1 + lambda0 e^(-L s)) / L with L = lambda0 + lambda1, and
    the same for the other row.
    """
    require_time(s, "s")
    if two_state_route(s, Regime.R0, params)[0] == "series":
        return _occupation_series(s, params)
    l0, l1 = params.lambda0, params.lambda1
    total = l0 + l1
    decay = math.exp(-total * s)
    flip = -math.expm1(-total * s) / total
    return ((l1 + l0 * decay) / total, l0 * flip, l1 * flip,
            (l0 + l1 * decay) / total)


def _mgf_gamma_series(t: float, start: Regime, params: ModelParams) -> float:
    """The paper's psi-series form of ``mgf_gamma``."""
    li, lo = params.rate(start), params.rate(start.other)
    gi, go = params.relaxation(start), params.relaxation(start.other)
    psi0, psi1 = psi_pair(t, (li - lo + gi - go) * t, params)
    return math.exp(-(li + gi) * t) * (1.0 + psi0 + li * psi1)


def mgf_gamma(t: float, start: Regime, params: ModelParams) -> float:
    """E[exp(-integral of the active relaxation rate up to t) | start].

    The route is ``two_state_route``'s with d = lambda + gamma: the paper's
    psi-series while 2 delta t <= 4, beyond it the eigen form
    u = e^(r t) [(l_i + (delta - c)) + e^(-2 delta t) ((delta + c) - l_i)]
    / (2 delta), with r = -det / ((d_i + d_o) / 2 + delta) the larger
    eigenvalue and det = l_i g_o + g_i l_o + g_i g_o.  Whichever of
    delta -+ c would cancel is taken as l_i l_o / (delta +- c).
    """
    require_time(t)
    route, c, delta = two_state_route(t, start, params, relaxed=True)
    if route == "series":
        return _mgf_gamma_series(t, start, params)
    li, lo = params.rate(start), params.rate(start.other)
    gi, go = params.relaxation(start), params.relaxation(start.other)
    if c > 0.0:
        minus, plus = li * lo / (delta + c), delta + c
    else:
        minus, plus = delta - c, li * lo / (delta - c)
    rate = -(li * go + gi * lo + gi * go) / ((li + gi + lo + go) / 2.0 + delta)
    return math.exp(rate * t) * (
        (li + minus) + math.exp(-2.0 * delta * t) * (plus - li)) / (2.0 * delta)


def _moment_exponential(order: int, t: float, params: ModelParams,
                        gamma: tuple[float, float]
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Van Loan exponential of the restricted moments of Y' = a_e - g_e Y.

    e = expm(M t) for M = [[Q, A, 0], [0, Q - G, 2 A], [0, 0, Q - 2 G]] cut
    after block ``order`` (1: 4x4, 2: 6x6), Q the switching generator,
    A = diag(a) / unit with unit = max|a_j|, G = diag(gamma).  moments[i, k]
    holds E[Y(t)^k ; regime j | Y(0) = 0, regime i] for j = 0, 1 and their
    sum over j.
    """
    unit = max(abs(params.a0), abs(params.a1))  # Y is linear in a
    l0, l1 = params.lambda0, params.lambda1
    q = np.array([[-l0, l0], [l1, -l1]])
    a = np.diag([params.a0, params.a1]) / unit
    m = np.zeros((2 * order + 2, 2 * order + 2))
    for k in range(order + 1):
        m[2 * k:2 * k + 2, 2 * k:2 * k + 2] = q - k * np.diag(gamma)
        if k:
            m[2 * k - 2:2 * k, 2 * k:2 * k + 2] = k * a
    e = linalg.expm(t * m)
    blocks = e[:2].reshape(2, order + 1, 2)
    moments = np.concatenate([blocks, blocks.sum(axis=2, keepdims=True)], 2)
    # P(regime j) sums to one; this undoes expm's zero-eigenvalue error
    moments = (unit ** np.arange(order + 1.0))[:, None] * (
        moments / moments[:, :1, 2:])
    return e, moments


def mean_X(t: float, x: float, start: Regime, params: ModelParams) -> float:
    """Mean of the process at time t from (x, start), general parameters.

    The moment exponential of order 1 with the model's gamma, plus x times
    row 2 + start of it (the decay of the start position).  Raises
    ValueError where the mean is below 1e-3 of
    |x| + max|a_j| (1 - e^(-g t)) / g, g = min gamma_j.
    """
    require_time(t)
    _require_finite(x, "x")
    g0, g1 = params.gamma0, params.gamma1
    e, moments = _moment_exponential(1, t, params, (g0, g1))
    mean = float(moments[start, 1, 2] + x * e[2 + start, 2:].sum())
    unit = max(abs(params.a0), abs(params.a1))
    g = min(g0, g1)  # the bound is at least |mu_0| + |mu_1|
    bound = abs(x) + unit * -math.expm1(-g * t) / g
    if abs(mean) < 1e-3 * bound:
        raise ValueError("regime parts of the mean cancel or have decayed: "
                         f"{mean:.3g} against a bound of {bound:.3g}")
    return mean


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
    require_time(t)
    _require_finite(x, "x")
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
    require_time(t)
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
    require_time(t)
    _require_finite(x, "x")
    _require_finite(gamma, "gamma")
    _require_finite(sigma, "sigma")
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
    require_time(t)
    _require_finite(x, "x")
    return (pattern(Regime.R1, x, t, params), pattern(Regime.R0, x, t, params))


def tau_cross(branch: str, y, t: float, x: float, params: ModelParams):
    """Switch time recovering position y at time t after one switch.

    ``tau0`` inverts the regime-0-then-regime-1 composition, ``tau1`` the
    mirror one (gamma -> -gamma in the y and x terms).  Requires symmetric
    parameters and every y in the reachable interval; an array y gives an
    array of the same values the scalar calls give.
    """
    _require_symmetric(params)
    if branch not in ("tau0", "tau1"):
        raise ValueError("branch must be 'tau0' or 'tau1'")
    lo, hi = reachable_interval(t, x, params)
    if not np.all((lo <= y) & (y <= hi)):
        raise ValueError("y outside the reachable interval")
    a, gamma = params.a0, params.gamma0
    sg = gamma if branch == "tau0" else -gamma
    arg = (a + sg * y + (a - sg * x) * math.exp(-gamma * t)) / (2.0 * a)
    tau = t + np.log(arg) / gamma
    return tau if np.ndim(y) else float(tau)


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
    lam, gamma, a = params.lambda0, params.gamma0, params.a0
    lo, hi = reachable_interval(t, x, params)
    support = (lo, hi)

    if n == 0:
        atom = (pattern(start, x, t, params), math.exp(-lam * t))
        return MixedDistribution(atoms=(atom,), density=lambda y: 0.0,
                                 support=support)

    emt = math.exp(-gamma * t)
    sg = gamma if start == Regime.R0 else -gamma  # the mirror flips gamma
    if n == 1:
        front = lam * math.exp(-lam * t)

        def density(y: float) -> float:
            if not lo < y < hi:
                return 0.0
            return front / (a + sg * y + (a - sg * x) * emt)
        return MixedDistribution(atoms=(), density=density, support=support)

    front = lam * lam * math.exp(-lam * t)

    def density(y: float) -> float:
        if not lo < y < hi:
            return 0.0
        extra = (tau_cross("tau0", y, t, x, params)
                 + tau_cross("tau1", y, t, x, params) - t)
        return front * extra / (a - sg * y + (sg * x - a) * emt)
    return MixedDistribution(atoms=(), density=density, support=support)


def joint_density(y: float, t: float, n: int, x: float, start: Regime,
                  params: ModelParams) -> float:
    """Continuous part of the joint (position, switch count) law at y."""
    return joint_distribution(t, n, x, start, params).density(y)


# ---------------------------------------------------------------------------
# Telegraph process toolkit
# ---------------------------------------------------------------------------

def telegraph_density(i: Regime, j: Regime, t: float,
                      params: ModelParams) -> MixedDistribution:
    """Joint law of (telegraph position at t, regime at t = j | start = i).

    Diagonal entries carry the no-switch atom at a_i t; the continuous
    parts are Bessel-type densities on (a1 t, a0 t).
    """
    require_time(t)
    if t == 0:
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
            return sqrt_ll / spread * shape * base(xi) * bessel_i(1, arg)

        atom = (params.velocity(i) * t, math.exp(-params.rate(i) * t))
        return MixedDistribution(atoms=(atom,), density=density,
                                 support=(lo, hi))

    rate = params.rate(i)

    def density(xv: float) -> float:
        xi = xi_of(xv)
        if not 0.0 < xi < t:
            return 0.0
        arg = 2.0 * math.sqrt(l0 * l1 * xi * (t - xi))
        return rate / spread * base(xi) * bessel_i(0, arg)

    return MixedDistribution(atoms=(), density=density, support=(lo, hi))


def _require_mirrored_velocities(params: ModelParams) -> None:
    if not (params.a0 > 0 and params.a0 == -params.a1):
        raise ValueError("requires mirrored velocities a0 == -a1 > 0")


def telegraph_moment(order: int, i: Regime, j: Regime, t: float,
                     params: ModelParams) -> float:
    """Restricted telegraph moment E[T(t)^order ; regime(t) = j | i].

    Block ``order`` of row i of the moment exponential with gamma = 0;
    requires mirrored velocities.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    _require_mirrored_velocities(params)
    require_time(t)
    moments = _moment_exponential(order, t, params, (0.0, 0.0))[1]
    return float(moments[i, order, j])


def telegraph_cov(i: Regime, t: float, s: float, params: ModelParams) -> float:
    """Product moment E[T(t) T(s) | start = i] for t > s > 0.

    Splits the product at s using the Markov property:
    E[T(s)^2 | i] + sum_j E[T(s) ; regime j | i] E[T(t - s) | j], from one
    moment exponential of order 2 at s and one of order 1 at t - s.
    """
    _require_mirrored_velocities(params)
    if not t > s > 0:
        raise ValueError("requires t > s > 0")
    require_time(t)
    at_s = _moment_exponential(2, s, params, (0.0, 0.0))[1][i]
    rest = _moment_exponential(1, t - s, params, (0.0, 0.0))[1]
    return float(at_s[2, 2] + at_s[1, :2] @ rest[:, 1, 2])


def mgf_restricted(z: float, t: float, n: int, start: Regime,
                   params: ModelParams) -> float:
    """E[exp(z T(t)) ; switch count = n | start], mirrored velocities.

    At z = 0 this is the probability of exactly n switches.
    """
    _require_mirrored_velocities(params)
    require_time(t)
    _require_finite(z, "z")
    if n < 0:
        raise ValueError("n must be nonnegative")
    lead = params.rate(start)
    # from regime 1 the law is regime 0's with the rates swapped and T -> -T
    az = params.a0 * z if start == Regime.R0 else -(params.a0 * z)
    warg = (lead - params.rate(start.other) - 2.0 * az) * t
    # t^n / n! (l0 l1)^(n//2), times the rate of the start for odd n
    coeff = lead if n % 2 else 1.0
    for k in range(1, n + 1):
        coeff *= t / k
        if k <= n // 2:
            coeff *= params.lambda0 * params.lambda1
    phi = kummer_phi((n + 1) // 2, n + 1, warg)
    return coeff * phi * math.exp(-(lead - az) * t)

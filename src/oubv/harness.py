"""Cross-validation harness: every closed form against its sampler.

A check pairs an analytic target with a Monte Carlo functional, runs the
estimate at a per-check seed and reports a z-score.  Statistical failure is
data, not an exception.  The diffusion-limit (Kac scaling) checks follow a
special rule: the limit is asymptotic, so they assert that the error
against the OU reference shrinks as the switching rate grows, plus an
absolute tolerance at the larger rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analytic, simulate
from .model import ModelParams, Regime, t_star
from .simulate import EstimateWithCI, Functional, MCConfig

DEFAULT_SEED = 42
DEFAULT_MAX_Z = 4.0


@dataclass(frozen=True)
class CheckSpec:
    """One validation check: its two sides as calls, parameters and config.

    ``target(params)`` evaluates the closed form and ``functional(params)``
    builds the Monte Carlo functional; ``run_check`` calls both.
    """

    name: str
    target: Callable[[ModelParams], float]
    functional: Callable[[ModelParams], Functional]
    params: ModelParams
    config: MCConfig
    reduction: str = "mean"  # "mean" or "variance"

    def __post_init__(self) -> None:
        if self.reduction not in ("mean", "variance"):
            raise ValueError("reduction must be 'mean' or 'variance'")


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check; carries the seed for exact reproduction."""

    name: str
    analytic_value: float
    mc_estimate: EstimateWithCI
    z_score: float
    passed: bool
    error: str | None = None


def run_check(spec: CheckSpec) -> CheckReport:
    """Evaluate both sides of a check and compare at the z level.

    An analytic evaluation error is reported as a hard failure; a
    statistical miss is an ordinary failed report.
    """
    try:
        target = spec.target(spec.params)
    except Exception as exc:  # hard failure: the closed form did not evaluate
        empty = EstimateWithCI(math.nan, math.nan, 0, spec.config.seed)
        return CheckReport(spec.name, math.nan, empty, math.nan, False,
                           error=f"analytic evaluation failed: {exc}")
    functional = spec.functional(spec.params)
    if spec.reduction == "variance":
        est = simulate.estimate_variance(functional, spec.params, spec.config)
    else:
        est = simulate.estimate(functional, spec.params, spec.config)
    if est.std_error > 0.0:
        z = (est.value - target) / est.std_error
        passed = abs(z) <= DEFAULT_MAX_Z
    else:
        z = math.nan
        passed = est.value == target
    return CheckReport(spec.name, target, est, z, passed)


# --- pieces shared by several checks -------------------------------------------

def _switch_recovered_before(c: float, t: float, x0: float,
                             start: Regime) -> Functional:
    """Indicator that exactly one switch happened by t, and before c.

    The switch epoch is reconstructed from the terminal position via the
    crossing-time inverse; the indicator law is known in closed form, so
    this validates ``tau_cross`` against genuinely simulated trajectories.
    """
    branch = "tau0" if start == Regime.R0 else "tau1"

    def reduce(st: simulate.ChainState, params: ModelParams) -> np.ndarray:
        out = np.zeros(st.x.size)
        mask = st.nswitch == 1
        if mask.any():
            taus = analytic.tau_cross(branch, st.x[mask], t, x0, params)
            out[mask] = (taus <= c).astype(float)
        return out

    return simulate.functional_of_state(t, x0, start, reduce)


def _telegraph_between(t: float, j: Regime, lo: float, hi: float) -> Functional:
    """Indicator of regime j at t, from regime 0, with T(t) in [lo, hi]."""

    def reduce(st: simulate.ChainState, params: ModelParams) -> np.ndarray:
        tv = simulate.regime_integral(st, t, params.a0, params.a1)
        return (st.regime == int(j)) & (tv >= lo) & (tv <= hi)

    return simulate.functional_of_state(t, 0.0, Regime.R0, reduce)


# --- the standard suite -------------------------------------------------------

_ASYM = ModelParams(lambda0=1.0, lambda1=2.0, a0=1.0, a1=-2.0,
                    gamma0=1.0, gamma1=3.0)
_SYM = ModelParams(lambda0=1.0, lambda1=1.0, a0=1.0, a1=-1.0,
                   gamma0=1.0, gamma1=1.0)
_MIRROR_ASYM = ModelParams(lambda0=1.0, lambda1=3.0, a0=1.0, a1=-1.0,
                           gamma0=1.0, gamma1=1.0)
_TELEGRAPH = ModelParams(lambda0=1.0, lambda1=2.0, a0=1.0, a1=-1.0,
                         gamma0=1.0, gamma1=1.0)
_LAMBDA0_ZERO = ModelParams(lambda0=0.0, lambda1=1.0, a0=1.0, a1=-1.0,
                            gamma0=1.0, gamma1=1.0)
_LAMBDA1_ZERO = ModelParams(lambda0=1.0, lambda1=0.0, a0=1.0, a1=-1.0,
                            gamma0=1.0, gamma1=1.0)

R0, R1 = Regime.R0, Regime.R1


def _check_seed(base_seed: int, index: int) -> int:
    return (base_seed * 1_000_003 + index) % (2 ** 63)


def suite_specs(tier: str, seed: int = DEFAULT_SEED) -> list[CheckSpec]:
    """The standard checks (Kac-scaling checks are appended at run time).

    Each entry is (name, target, functional, parameters, replicates,
    reduction); an entry's position fixes its seed.
    """
    if tier not in ("quick", "full"):
        raise ValueError("tier must be 'quick' or 'full'")
    n_small = 20_000 if tier == "quick" else 1_000_000
    n_big = 50_000 if tier == "quick" else 2_000_000

    def cfg(index: int, n: int) -> MCConfig:
        return MCConfig(replicates=n, seed=_check_seed(seed, index))

    # The lambdas look their functions up in ``analytic`` and ``simulate``
    # when called, so a wrapper installed on those modules sees the calls.
    entries = [
        ("laplace_r0",
         lambda p: analytic.laplace_falling(1.0, 1.6, R0, p),
         lambda p: simulate.functional_exp_q_falling(1.0, 1.6, R0),
         _ASYM, n_small, "mean"),
        ("laplace_r1",
         lambda p: analytic.laplace_falling(1.0, 1.6, R1, p),
         lambda p: simulate.functional_exp_q_falling(1.0, 1.6, R1),
         _ASYM, n_small, "mean"),
        ("laplace_special_lambda0_zero",
         lambda p: analytic.laplace_falling(0.7, 1.8, R1, p),
         lambda p: simulate.functional_exp_q_falling(0.7, 1.8, R1),
         _LAMBDA0_ZERO, n_small, "mean"),
        ("laplace_special_lambda1_zero",
         lambda p: analytic.laplace_falling(0.7, 1.8, R0, p),
         lambda p: simulate.functional_exp_q_falling(0.7, 1.8, R0),
         _LAMBDA1_ZERO, n_small, "mean"),
        ("falling_time_degenerate_exact",
         lambda p: t_star(2.0, p),
         lambda p: simulate.functional_falling_time(2.0, R1),
         _LAMBDA1_ZERO, 1_000, "mean"),
        ("mean_falling_r0",
         lambda p: analytic.mean_falling(1.5, R0, p),
         lambda p: simulate.functional_falling_time(1.5, R0),
         _SYM, n_small, "mean"),
        ("mean_falling_r1",
         lambda p: analytic.mean_falling(1.5, R1, p),
         lambda p: simulate.functional_falling_time(1.5, R1),
         _SYM, n_small, "mean"),
        ("mean_falling_fallback",
         lambda p: analytic.mean_falling(4.0, R1, p),
         lambda p: simulate.functional_falling_time(4.0, R1),
         _SYM, n_small, "mean"),
        ("occupation_pi01",
         lambda p: analytic.occupation_probs(0.7, p)[1],
         lambda p: simulate.functional_occupancy(0.7, R0, R1),
         _ASYM, n_small, "mean"),
        ("mgf_gamma_r0",
         lambda p: analytic.mgf_gamma(1.0, R0, p),
         lambda p: simulate.functional_exp_neg_gamma(1.0, R0),
         ModelParams(1.0, 0.5, 1.0, -1.0, 2.0, 1.0), n_small, "mean"),
        ("mean_x_general",
         lambda p: analytic.mean_X(1.5, 0.3, R0, p),
         lambda p: simulate.functional_x_at(1.5, 0.3, R0),
         _ASYM, n_small, "mean"),
        ("mean_x_symmetric",
         lambda p: analytic.mean_X_symmetric(1.0, 0.0, R0, p),
         lambda p: simulate.functional_x_at(1.0, 0.0, R0),
         _SYM, n_small, "mean"),
        ("var_x_symmetric",
         lambda p: analytic.var_X_symmetric(2.0, p),
         lambda p: simulate.functional_x_at(2.0, 0.0, R0),
         _SYM, n_small, "variance"),
        ("joint_atom_n0",
         lambda p: analytic.joint_distribution(1.0, 0, 0.0, R0, p).atoms[0][1],
         lambda p: simulate.functional_of_state(
             1.0, 0.0, R0, lambda st, q: st.nswitch == 0),
         _SYM, n_small, "mean"),
        ("joint_mass_n1",
         lambda p: (analytic.joint_distribution(1.0, 1, 0.0, R0, p)
                    .mass(-0.3, 0.4)),
         lambda p: simulate.functional_of_state(1.0, 0.0, R0, lambda st, q: (
             (st.nswitch == 1) & (st.x >= -0.3) & (st.x <= 0.4))),
         _SYM, n_small, "mean"),
        ("joint_mass_n2",
         lambda p: (analytic.joint_distribution(1.0, 2, 0.0, R0, p)
                    .mass(-0.2, 0.5)),
         lambda p: simulate.functional_of_state(1.0, 0.0, R0, lambda st, q: (
             (st.nswitch == 2) & (st.x >= -0.2) & (st.x <= 0.5))),
         _SYM, n_small, "mean"),
        ("telegraph_interval_offdiag",
         lambda p: (analytic.telegraph_density(R0, R1, 1.3, p)
                    .mass(-0.6, 0.5)),
         lambda p: _telegraph_between(1.3, R1, -0.6, 0.5),
         _TELEGRAPH, n_small, "mean"),
        ("telegraph_interval_diag",
         lambda p: (analytic.telegraph_density(R0, R0, 1.3, p)
                    .mass(-0.6, 0.5)),
         lambda p: _telegraph_between(1.3, R0, -0.6, 0.5),
         _TELEGRAPH, n_small, "mean"),
        ("telegraph_moment_first_00",
         lambda p: analytic.telegraph_moment(1, R0, R0, 0.8, p),
         lambda p: simulate.functional_telegraph(0.8, R0, R0, power=1),
         _MIRROR_ASYM, n_small, "mean"),
        ("telegraph_moment_second_01",
         lambda p: analytic.telegraph_moment(2, R0, R1, 0.8, p),
         lambda p: simulate.functional_telegraph(0.8, R0, R1, power=2),
         _MIRROR_ASYM, n_small, "mean"),
        ("telegraph_cov_asym",
         lambda p: analytic.telegraph_cov(R0, 1.0, 0.4, p),
         lambda p: simulate.functional_telegraph_product(1.0, 0.4, R0),
         _TELEGRAPH, n_small, "mean"),
        ("mgf_restricted_n3",
         lambda p: analytic.mgf_restricted(0.3, 1.0, 3, R0, p),
         lambda p: simulate.functional_exp_z_telegraph(0.3, 1.0, R0,
                                                       n_switches=3),
         _SYM, n_big, "mean"),
        # P{exactly one switch by t = 1 and it happens before c = 0.4}: the
        # switch time is uniform on [0, t] given one switch of a rate-lambda
        # chain.
        ("tau_cross_cdf",
         lambda p: p.lambda0 * 0.4 * math.exp(-p.lambda0 * 1.0),
         lambda p: _switch_recovered_before(0.4, 1.0, 0.2, R0),
         _SYM, n_small, "mean"),
        ("hyper_quad_minor_root_exact",
         lambda p: analytic.hyper_quad(1.0, p).b0,
         lambda p: simulate.functional_constant(1.0),
         _SYM, 100, "mean"),
    ]
    return [CheckSpec(name=name, target=target, functional=functional,
                      params=params, config=cfg(k, n), reduction=reduction)
            for k, (name, target, functional, params, n, reduction)
            in enumerate(entries)]


# Every report _kac_reports can make; "kac_var_error_decrease" only in the
# full tier.
_KAC_NAMES = ("kac_var_lambda_100", "kac_var_lambda_10000",
              "kac_mean_lambda_10000", "kac_var_error_decrease")


def _kac_reports(tier: str, seed: int) -> list[CheckReport]:
    """Diffusion-limit checks: error against the OU reference shrinks.

    Statistical design: the smaller rate uses enough replicates to resolve
    its O(1/lambda) systematic gap, the larger rate enough to sit clearly
    below it.  In the quick tier only the absolute tolerance at the large
    rate is asserted (the decrease needs full-size runs to be reliable).
    """
    t, x0, gamma, sigma = 1.0, 1.0, 1.0, 1.0
    lam_lo, lam_hi = 1e2, 1e4
    if tier == "quick":
        n_lo, n_hi = 50_000, 10_000
    else:
        n_lo, n_hi = 1_000_000, 200_000
    mean_ref, var_ref = analytic.kac_limit_reference(t, x0, gamma, sigma)

    reports = []
    errors = {}
    for tag, lam, n, idx in (("small", lam_lo, n_lo, 900),
                             ("large", lam_hi, n_hi, 901)):
        a = sigma * math.sqrt(lam)  # a^2 / lambda = sigma^2
        params = ModelParams(lambda0=lam, lambda1=lam, a0=a, a1=-a,
                             gamma0=gamma, gamma1=gamma)
        config = MCConfig(replicates=n, seed=_check_seed(seed, idx))
        functional = simulate.functional_x_at(t, x0, Regime.R0)
        mean_est, var_est = simulate.estimate_moments(functional, params, config)
        err = abs(var_est.value - var_ref)
        errors[tag] = err
        z = (var_est.value - var_ref) / var_est.std_error
        tolerance = 0.5 if tag == "small" else 0.05
        reports.append(CheckReport(
            name=f"kac_var_lambda_{int(lam)}", analytic_value=var_ref,
            mc_estimate=var_est, z_score=z, passed=err < tolerance))
        if tag == "large":
            mz = (mean_est.value - mean_ref) / mean_est.std_error
            reports.append(CheckReport(
                name=f"kac_mean_lambda_{int(lam)}", analytic_value=mean_ref,
                mc_estimate=mean_est, z_score=mz,
                passed=abs(mean_est.value - mean_ref) < 0.02))
    if tier == "full":
        delta = errors["large"] - errors["small"]
        synthetic = EstimateWithCI(delta, 0.0, 0, _check_seed(seed, 902))
        reports.append(CheckReport(
            name="kac_var_error_decrease", analytic_value=0.0,
            mc_estimate=synthetic, z_score=math.nan,
            passed=errors["large"] < errors["small"]))
    return reports


def standard_suite(tier: str, seed: int = DEFAULT_SEED,
                   only: str | None = None) -> list[CheckReport]:
    """Run the whole validation suite; reports sorted by check name.

    ``only`` filters checks whose name contains the substring.
    """
    specs = suite_specs(tier, seed)
    if only is not None:
        specs = [s for s in specs if only in s.name]
    reports = [run_check(spec) for spec in specs]
    if only is None or any(only in name for name in _KAC_NAMES):
        kac = _kac_reports(tier, seed)
        if only is not None:
            kac = [r for r in kac if only in r.name]
        reports.extend(kac)
    return sorted(reports, key=lambda r: r.name)

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

Point = dict


@dataclass(frozen=True)
class CheckSpec:
    """One validation check: target descriptor, functional descriptor, point."""

    name: str
    analytic_target: str
    mc_functional: str
    params: ModelParams
    point: Point
    config: MCConfig
    max_z: float = DEFAULT_MAX_Z
    reduction: str = "mean"  # "mean" or "variance"

    def __post_init__(self) -> None:
        if self.max_z <= 0:
            raise ValueError("max_z must be positive")
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


def _regime(value) -> Regime:
    return Regime(int(value))


# --- analytic target registry ------------------------------------------------

def _target_laplace(params, pt):
    return analytic.laplace_falling(pt["q"], pt["x"], _regime(pt["start"]), params)


def _target_laplace_special(params, pt):
    return analytic.laplace_falling_special(pt["case"], pt["q"], pt["x"],
                                            _regime(pt["start"]), params)


def _target_mean_falling(params, pt):
    return analytic.mean_falling(pt["x"], _regime(pt["start"]), params)


def _target_t_star(params, pt):
    return t_star(pt["x"], params)


def _target_occupation(params, pt):
    probs = analytic.occupation_probs(pt["s"], params)
    key = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    return probs[key[(int(pt["i"]), int(pt["j"]))]]


def _target_mgf_gamma(params, pt):
    return analytic.mgf_gamma(pt["t"], _regime(pt["start"]), params)


def _target_mean_x(params, pt):
    return analytic.mean_X(pt["t"], pt["x"], _regime(pt["start"]), params)


def _target_mean_x_symmetric(params, pt):
    return analytic.mean_X_symmetric(pt["t"], pt["x"], _regime(pt["start"]), params)


def _target_var_x_symmetric(params, pt):
    return analytic.var_X_symmetric(pt["t"], params)


def _target_joint_atom(params, pt):
    dist = analytic.joint_distribution(pt["t"], 0, pt["x"], _regime(pt["start"]),
                                       params)
    return dist.atoms[0][1]


def _target_joint_interval(params, pt):
    dist = analytic.joint_distribution(pt["t"], int(pt["n"]), pt["x"],
                                       _regime(pt["start"]), params)
    return analytic.quad_interval(dist.density, pt["lo"], pt["hi"])


def _target_telegraph_interval(params, pt):
    dist = analytic.telegraph_density(_regime(pt["i"]), _regime(pt["j"]),
                                      pt["t"], params)
    mass = analytic.quad_interval(dist.density, pt["lo"], pt["hi"])
    for loc, weight in dist.atoms:
        if pt["lo"] <= loc <= pt["hi"]:
            mass += weight
    return mass


def _target_telegraph_moment(params, pt):
    return analytic.telegraph_moment(int(pt["order"]), _regime(pt["i"]),
                                     _regime(pt["j"]), pt["t"], params)


def _target_telegraph_cov(params, pt):
    return analytic.telegraph_cov(_regime(pt["i"]), pt["t"], pt["s"], params)


def _target_mgf_restricted(params, pt):
    return analytic.mgf_restricted(pt["z"], pt["t"], int(pt["n"]),
                                   _regime(pt["start"]), params)


def _target_switch_time_cdf(params, pt):
    # P{exactly one switch by t and it happens before c}: the switch time
    # is uniform on [0, t] given one switch of a rate-lambda chain.
    lam = params.lambda0
    return lam * pt["c"] * math.exp(-lam * pt["t"])


def _target_hyper_quad_minor_root(params, pt):
    return analytic.hyper_quad(pt["q"], params).b0


def _target_kac_mean(params, pt):
    return analytic.kac_limit_reference(pt["t"], pt["x"], pt["gamma"],
                                        pt["sigma"])[0]


def _target_kac_var(params, pt):
    return analytic.kac_limit_reference(pt["t"], pt["x"], pt["gamma"],
                                        pt["sigma"])[1]


ANALYTIC_TARGETS: dict[str, Callable[[ModelParams, Point], float]] = {
    "laplace_falling": _target_laplace,
    "laplace_falling_special": _target_laplace_special,
    "mean_falling": _target_mean_falling,
    "t_star": _target_t_star,
    "occupation_prob": _target_occupation,
    "mgf_gamma": _target_mgf_gamma,
    "mean_x": _target_mean_x,
    "mean_x_symmetric": _target_mean_x_symmetric,
    "var_x_symmetric": _target_var_x_symmetric,
    "joint_atom_mass": _target_joint_atom,
    "joint_interval_mass": _target_joint_interval,
    "telegraph_interval_mass": _target_telegraph_interval,
    "telegraph_moment": _target_telegraph_moment,
    "telegraph_cov": _target_telegraph_cov,
    "mgf_restricted": _target_mgf_restricted,
    "switch_time_cdf": _target_switch_time_cdf,
    "hyper_quad_minor_root": _target_hyper_quad_minor_root,
    "kac_reference_mean": _target_kac_mean,
    "kac_reference_var": _target_kac_var,
}


# --- Monte Carlo functional registry ----------------------------------------

def _mc_exp_q_falling(params, pt) -> Functional:
    return simulate.functional_exp_q_falling(pt["q"], pt["x"], _regime(pt["start"]))


def _mc_falling_time(params, pt) -> Functional:
    return simulate.functional_falling_time(pt["x"], _regime(pt["start"]))


def _mc_occupancy(params, pt) -> Functional:
    return simulate.functional_occupancy(pt["s"], _regime(pt["i"]),
                                         _regime(pt["j"]))


def _mc_exp_neg_gamma(params, pt) -> Functional:
    return simulate.functional_exp_neg_gamma(pt["t"], _regime(pt["start"]))


def _mc_x_at(params, pt) -> Functional:
    return simulate.functional_x_at(pt["t"], pt["x"], _regime(pt["start"]))


def _mc_switch_count_is(params, pt) -> Functional:
    n = int(pt["n"])
    return simulate.functional_of_state(
        pt["t"], pt["x"], _regime(pt["start"]),
        lambda st: (st.nswitch == n).astype(float))


def _mc_x_interval_given_switches(params, pt) -> Functional:
    n, lo, hi = int(pt["n"]), pt["lo"], pt["hi"]
    return simulate.functional_of_state(
        pt["t"], pt["x"], _regime(pt["start"]),
        lambda st: ((st.nswitch == n) & (st.x >= lo) & (st.x <= hi)).astype(float))


def _mc_telegraph_interval(params, pt) -> Functional:
    j, lo, hi = _regime(pt["j"]), pt["lo"], pt["hi"]
    return simulate.functional_of_state(
        pt["t"], 0.0, _regime(pt["i"]),
        lambda st: ((st.regime == int(j)) & (st.tvalue >= lo)
                    & (st.tvalue <= hi)).astype(float))


def _mc_telegraph_moment(params, pt) -> Functional:
    return simulate.functional_telegraph(pt["t"], _regime(pt["i"]),
                                         _regime(pt["j"]),
                                         power=int(pt["order"]))


def _mc_telegraph_product(params, pt) -> Functional:
    return simulate.functional_telegraph_product(pt["t"], pt["s"],
                                                 _regime(pt["i"]))


def _mc_exp_z_telegraph(params, pt) -> Functional:
    return simulate.functional_exp_z_telegraph(pt["z"], pt["t"],
                                               _regime(pt["start"]),
                                               n_switches=int(pt["n"]))


def _mc_switch_time_recovered(params, pt) -> Functional:
    # Reconstruct the single switch epoch from the terminal position via
    # the crossing-time inverse and test it against the threshold c; the
    # indicator law is known in closed form, so this validates tau_cross
    # against genuinely simulated trajectories.
    t, x0, c = pt["t"], pt["x"], pt["c"]
    start = _regime(pt["start"])
    branch = "tau0" if start == Regime.R0 else "tau1"

    def reduce(st: simulate.ChainState) -> np.ndarray:
        out = np.zeros(st.x.size)
        mask = st.nswitch == 1
        if mask.any():
            taus = np.array([
                analytic.tau_cross(branch, float(y), t, x0, params)
                for y in st.x[mask]
            ])
            out[mask] = (taus <= c).astype(float)
        return out

    return simulate.functional_of_state(t, x0, start, reduce)


def _mc_constant(params, pt) -> Functional:
    return simulate.functional_constant(pt["value"])


MC_FUNCTIONALS: dict[str, Callable[[ModelParams, Point], Functional]] = {
    "exp_q_falling_time": _mc_exp_q_falling,
    "falling_time": _mc_falling_time,
    "occupancy_indicator": _mc_occupancy,
    "exp_neg_gamma": _mc_exp_neg_gamma,
    "x_at": _mc_x_at,
    "switch_count_indicator": _mc_switch_count_is,
    "x_interval_given_switches": _mc_x_interval_given_switches,
    "telegraph_interval_indicator": _mc_telegraph_interval,
    "telegraph_moment": _mc_telegraph_moment,
    "telegraph_product": _mc_telegraph_product,
    "exp_z_telegraph_restricted": _mc_exp_z_telegraph,
    "switch_time_recovered_via_tau_cross": _mc_switch_time_recovered,
    "constant": _mc_constant,
}


def run_check(spec: CheckSpec) -> CheckReport:
    """Evaluate both sides of a check and compare at the z level.

    Unknown descriptors raise; an analytic evaluation error is reported as
    a hard failure; a statistical miss is an ordinary failed report.
    """
    if spec.analytic_target not in ANALYTIC_TARGETS:
        raise KeyError(f"unknown analytic target {spec.analytic_target!r}")
    if spec.mc_functional not in MC_FUNCTIONALS:
        raise KeyError(f"unknown MC functional {spec.mc_functional!r}")
    try:
        target = ANALYTIC_TARGETS[spec.analytic_target](spec.params, spec.point)
    except Exception as exc:  # hard failure: the closed form did not evaluate
        empty = EstimateWithCI(math.nan, math.nan, 0, spec.config.seed)
        return CheckReport(spec.name, math.nan, empty, math.nan, False,
                           error=f"analytic evaluation failed: {exc}")
    functional = MC_FUNCTIONALS[spec.mc_functional](spec.params, spec.point)
    if spec.reduction == "variance":
        est = simulate.estimate_variance(functional, spec.params, spec.config)
    else:
        est = simulate.estimate(functional, spec.params, spec.config)
    if est.std_error > 0.0:
        z = (est.value - target) / est.std_error
        passed = abs(z) <= spec.max_z
    else:
        z = math.nan
        passed = est.value == target
    return CheckReport(spec.name, target, est, z, passed)


# --- the standard suite -------------------------------------------------------

_ASYM = ModelParams(lambda0=1.0, lambda1=2.0, a0=1.0, a1=-2.0,
                    gamma0=1.0, gamma1=3.0)
_SYM = ModelParams(lambda0=1.0, lambda1=1.0, a0=1.0, a1=-1.0,
                   gamma0=1.0, gamma1=1.0)
_MIRROR_ASYM = ModelParams(lambda0=1.0, lambda1=3.0, a0=1.0, a1=-1.0,
                           gamma0=1.0, gamma1=1.0)
_LAMBDA0_ZERO = ModelParams(lambda0=0.0, lambda1=1.0, a0=1.0, a1=-1.0,
                            gamma0=1.0, gamma1=1.0)
_LAMBDA1_ZERO = ModelParams(lambda0=1.0, lambda1=0.0, a0=1.0, a1=-1.0,
                            gamma0=1.0, gamma1=1.0)


def _scaled_kac_params(lam: float) -> ModelParams:
    a = math.sqrt(lam)
    return ModelParams(lambda0=lam, lambda1=lam, a0=a, a1=-a,
                       gamma0=1.0, gamma1=1.0)


def _check_seed(base_seed: int, index: int) -> int:
    return (base_seed * 1_000_003 + index) % (2 ** 63)


def suite_specs(tier: str, seed: int = DEFAULT_SEED) -> list[CheckSpec]:
    """The standard checks (Kac-scaling checks are appended at run time)."""
    if tier not in ("quick", "full"):
        raise ValueError("tier must be 'quick' or 'full'")
    n_small = 20_000 if tier == "quick" else 1_000_000
    n_big = 50_000 if tier == "quick" else 2_000_000

    def cfg(index: int, n: int) -> MCConfig:
        return MCConfig(replicates=n, seed=_check_seed(seed, index))

    entries = [
        ("laplace_r0", "laplace_falling", "exp_q_falling_time", _ASYM,
         {"q": 1.0, "x": 1.6, "start": 0}, n_small, "mean"),
        ("laplace_r1", "laplace_falling", "exp_q_falling_time", _ASYM,
         {"q": 1.0, "x": 1.6, "start": 1}, n_small, "mean"),
        ("laplace_special_lambda0_zero", "laplace_falling_special",
         "exp_q_falling_time", _LAMBDA0_ZERO,
         {"case": "lambda0_zero", "q": 0.7, "x": 1.8, "start": 1},
         n_small, "mean"),
        ("laplace_special_lambda1_zero", "laplace_falling_special",
         "exp_q_falling_time", _LAMBDA1_ZERO,
         {"case": "lambda1_zero", "q": 0.7, "x": 1.8, "start": 0},
         n_small, "mean"),
        ("falling_time_degenerate_exact", "t_star", "falling_time",
         _LAMBDA1_ZERO, {"x": 2.0, "start": 1}, 1_000, "mean"),
        ("mean_falling_r0", "mean_falling", "falling_time", _SYM,
         {"x": 1.5, "start": 0}, n_small, "mean"),
        ("mean_falling_r1", "mean_falling", "falling_time", _SYM,
         {"x": 1.5, "start": 1}, n_small, "mean"),
        ("mean_falling_fallback", "mean_falling", "falling_time", _SYM,
         {"x": 4.0, "start": 1}, n_small, "mean"),
        ("occupation_pi01", "occupation_prob", "occupancy_indicator", _ASYM,
         {"s": 0.7, "i": 0, "j": 1}, n_small, "mean"),
        ("mgf_gamma_r0", "mgf_gamma", "exp_neg_gamma",
         ModelParams(1.0, 0.5, 1.0, -1.0, 2.0, 1.0),
         {"t": 1.0, "start": 0}, n_small, "mean"),
        ("mean_x_general", "mean_x", "x_at", _ASYM,
         {"t": 1.5, "x": 0.3, "start": 0}, n_small, "mean"),
        ("mean_x_symmetric", "mean_x_symmetric", "x_at", _SYM,
         {"t": 1.0, "x": 0.0, "start": 0}, n_small, "mean"),
        ("var_x_symmetric", "var_x_symmetric", "x_at", _SYM,
         {"t": 2.0, "x": 0.0, "start": 0}, n_small, "variance"),
        ("joint_atom_n0", "joint_atom_mass", "switch_count_indicator", _SYM,
         {"t": 1.0, "x": 0.0, "start": 0, "n": 0}, n_small, "mean"),
        ("joint_mass_n1", "joint_interval_mass", "x_interval_given_switches",
         _SYM, {"t": 1.0, "x": 0.0, "start": 0, "n": 1,
                "lo": -0.3, "hi": 0.4}, n_small, "mean"),
        ("joint_mass_n2", "joint_interval_mass", "x_interval_given_switches",
         _SYM, {"t": 1.0, "x": 0.0, "start": 0, "n": 2,
                "lo": -0.2, "hi": 0.5}, n_small, "mean"),
        ("telegraph_interval_offdiag", "telegraph_interval_mass",
         "telegraph_interval_indicator",
         ModelParams(1.0, 2.0, 1.0, -1.0, 1.0, 1.0),
         {"t": 1.3, "i": 0, "j": 1, "lo": -0.6, "hi": 0.5}, n_small, "mean"),
        ("telegraph_interval_diag", "telegraph_interval_mass",
         "telegraph_interval_indicator",
         ModelParams(1.0, 2.0, 1.0, -1.0, 1.0, 1.0),
         {"t": 1.3, "i": 0, "j": 0, "lo": -0.6, "hi": 0.5}, n_small, "mean"),
        ("telegraph_moment_first_00", "telegraph_moment", "telegraph_moment",
         _MIRROR_ASYM, {"order": 1, "i": 0, "j": 0, "t": 0.8}, n_small, "mean"),
        ("telegraph_moment_second_01", "telegraph_moment", "telegraph_moment",
         _MIRROR_ASYM, {"order": 2, "i": 0, "j": 1, "t": 0.8}, n_small, "mean"),
        ("telegraph_cov_asym", "telegraph_cov", "telegraph_product",
         ModelParams(1.0, 2.0, 1.0, -1.0, 1.0, 1.0),
         {"i": 0, "t": 1.0, "s": 0.4}, n_small, "mean"),
        ("mgf_restricted_n3", "mgf_restricted", "exp_z_telegraph_restricted",
         _SYM, {"z": 0.3, "t": 1.0, "n": 3, "start": 0}, n_big, "mean"),
        ("tau_cross_cdf", "switch_time_cdf", "switch_time_recovered_via_tau_cross",
         _SYM, {"t": 1.0, "x": 0.2, "c": 0.4, "start": 0}, n_small, "mean"),
        ("hyper_quad_minor_root_exact", "hyper_quad_minor_root", "constant",
         ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0),
         {"q": 1.0, "value": 1.0}, 100, "mean"),
    ]
    specs = []
    for k, (name, target, functional, params, point, n, reduction) in enumerate(entries):
        specs.append(CheckSpec(name=name, analytic_target=target,
                               mc_functional=functional, params=params,
                               point=point, config=cfg(k, n),
                               reduction=reduction))
    return specs


def _kac_reports(tier: str, seed: int) -> list[CheckReport]:
    """Diffusion-limit checks: error against the OU reference shrinks.

    Statistical design: the smaller rate uses enough replicates to resolve
    its O(1/lambda) systematic gap, the larger rate enough to sit clearly
    below it.  In the quick tier only the absolute tolerance at the large
    rate is asserted (the decrease needs full-size runs to be reliable).
    """
    t, x0, gamma, sigma = 1.0, 1.0, 1.0, 1.0
    if tier == "quick":
        lam_lo, lam_hi = 1e2, 1e4
        n_lo, n_hi = 50_000, 10_000
    else:
        lam_lo, lam_hi = 1e2, 1e4
        n_lo, n_hi = 1_000_000, 200_000
    point = {"t": t, "x": x0, "gamma": gamma, "sigma": sigma}
    mean_ref = _target_kac_mean(None, point)
    var_ref = _target_kac_var(None, point)

    reports = []
    errors = {}
    for tag, lam, n, idx in (("small", lam_lo, n_lo, 900),
                             ("large", lam_hi, n_hi, 901)):
        params = _scaled_kac_params(lam)
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
    if only is None or "kac" in only:
        kac = _kac_reports(tier, seed)
        if only is not None:
            kac = [r for r in kac if only in r.name]
        reports.extend(kac)
    return sorted(reports, key=lambda r: r.name)


# Which suite checks exercise each closed-form operation (the registry
# completeness test keys off this table).
OP_COVERAGE: dict[str, tuple[str, ...]] = {
    "hyper_quad": ("hyper_quad_minor_root_exact",),
    "laplace_falling": ("laplace_r0", "laplace_r1"),
    "laplace_falling_special": ("laplace_special_lambda0_zero",
                                "laplace_special_lambda1_zero"),
    "mean_falling": ("mean_falling_r0", "mean_falling_r1",
                     "mean_falling_fallback"),
    "occupation_probs": ("occupation_pi01",),
    "mgf_gamma": ("mgf_gamma_r0",),
    "mean_X": ("mean_x_general",),
    "mean_X_symmetric": ("mean_x_symmetric",),
    "var_X_symmetric": ("var_x_symmetric",),
    "kac_limit_reference": ("kac_var_lambda_100", "kac_var_lambda_10000",
                            "kac_mean_lambda_10000"),
    "tau_cross": ("tau_cross_cdf",),
    "joint_density": ("joint_atom_n0", "joint_mass_n1", "joint_mass_n2"),
    "telegraph_density": ("telegraph_interval_offdiag",
                          "telegraph_interval_diag"),
    "telegraph_moment": ("telegraph_moment_first_00",
                         "telegraph_moment_second_01"),
    "telegraph_cov": ("telegraph_cov_asym",),
    "mgf_restricted": ("mgf_restricted_n3",),
}

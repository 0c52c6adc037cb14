"""Acceptance suite: one test per criterion, one printed line per criterion.

Monte Carlo sizes follow the stated budgets; every run is seeded, so a
passing suite is exactly reproducible.  Run with ``pytest -s`` to see the
per-criterion lines while the suite runs.
"""

import math

import numpy as np

from oubv import analytic, cli, simulate
from oubv.analytic import (
    joint_density,
    joint_distribution,
    laplace_falling,
    mean_falling_info,
    quad_interval,
    reachable_interval,
    telegraph_cov,
    telegraph_density,
    telegraph_moment,
    var_X_symmetric,
)
from oubv.model import ModelParams, Regime, t_star
from oubv.simulate import MCConfig, chunk_rng
from test_analytic_falling import single_switch_transform
from test_analytic_telegraph import telegraph_moment_symmetric

SYM = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)

PARAM_SETS = (
    SYM,
    ModelParams(1.0, 2.0, 1.0, -2.0, 1.0, 3.0),
    ModelParams(0.5, 1.5, 2.0, -0.5, 4.0, 1.0),
)


def _report(criterion: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion:2d} {status}: {description}{suffix}")
    assert passed, f"criterion {criterion}: {description}{suffix}"


def test_criterion_01_boundary_law():
    worst = 0.0
    for params in PARAM_SETS:
        high = params.a0 / params.gamma0
        low = params.a1 / params.gamma1
        x = high + 1e-12 * (high - low)
        for q in (0.1, 1.0, 10.0):
            q1 = laplace_falling(q, x, Regime.R1, params)
            q0 = laplace_falling(q, x, Regime.R0, params)
            worst = max(worst, abs(q1 - 1.0),
                        abs(q0 - params.lambda0 / (params.lambda0 + q)))
    _report(1, "falling-time transform boundary values", worst < 1e-8,
            f"worst |error| = {worst:.2e}")


def test_criterion_02_almost_sure_finiteness():
    worst = 0.0
    for params in (PARAM_SETS[0], PARAM_SETS[1]):
        high = params.a0 / params.gamma0
        low = params.a1 / params.gamma1
        for x in np.linspace(high + 0.05 * (high - low),
                             high + 2.0 * (high - low), 5):
            for start in (Regime.R0, Regime.R1):
                value = laplace_falling(1e-8, float(x), start, params)
                worst = max(worst, abs(value - 1.0))
    _report(2, "transform at q -> 0+ equals 1 (a.s. finite falling time)",
            worst < 1e-6, f"worst |1 - value| = {worst:.2e}")


def test_criterion_03_special_case_equivalence():
    params = ModelParams(1.0, 0.0, 1.0, -1.0, 1.0, 1.0)
    worst = 0.0
    for q in np.linspace(0.1, 5.0, 10):
        for x in np.linspace(1.05, 2.8, 10):
            general = laplace_falling(float(q), float(x), Regime.R0, params)
            closed = single_switch_transform(float(q), float(x), params)
            worst = max(worst, abs(general - closed) / abs(closed))
    _report(3, "single-switch closed form equals hypergeometric route",
            worst < 1e-10, f"worst relative gap = {worst:.2e}")


def test_criterion_04_mean_falling_vs_monte_carlo():
    n = 1_000_000
    checks = []
    seed = 404
    for k, x in enumerate((1.2, 1.5, 2.0)):
        for start in (Regime.R0, Regime.R1):
            value, method, _ = mean_falling_info(x, start, SYM)
            assert method == "series"
            est = simulate.estimate(
                simulate.functional_falling_time(x, start), SYM,
                MCConfig(replicates=n, seed=seed + k * 2 + int(start)))
            checks.append((f"x={x} start={int(start)}",
                           abs(est.value - value) / est.std_error))
    # the derivative fallback, evaluated against its own Monte Carlo run
    fallback_value = analytic._mean_falling_fd(2.5, Regime.R1, SYM)
    est = simulate.estimate(simulate.functional_falling_time(2.5, Regime.R1),
                            SYM, MCConfig(replicates=n, seed=seed + 10))
    checks.append(("x=2.5 fallback", abs(est.value - fallback_value) / est.std_error))
    worst = max(z for _, z in checks)
    _report(4, "mean falling time (series and fallback) vs 1e6-replicate MC",
            worst <= 3.0, f"worst |z| = {worst:.2f}")


def test_criterion_05_band_confinement():
    p = PARAM_SETS[1]
    low, high = p.fixed_point(Regime.R1), p.fixed_point(Regime.R0)
    ok = True
    # inside: 1e4 exact paths never leave the band
    for k in range(10_000):
        path = simulate.sample_path(p, 0.1, Regime.R0 if k % 2 else Regime.R1,
                                    4.0, chunk_rng(505, k))
        for _, _, x in path.switches:
            ok = ok and (low <= x <= high)
    for k in range(0, 10_000, 100):
        path = simulate.sample_path(p, 0.1, Regime.R0, 4.0, chunk_rng(505, k))
        for t in np.linspace(0.0, 4.0, 9):
            x, _, _ = simulate.eval_path(path, float(t))
            ok = ok and (low <= x <= high)
    # outside: 1e4 falling times all finite and no smaller than t*(x)
    x0 = 2.0
    times = simulate.falling_times(p, x0, Regime.R0, chunk_rng(506, 0), 10_000)
    floor = t_star(x0, p) - 1e-12
    ok = ok and bool(np.isfinite(times).all()) and bool((times >= floor).all())
    _report(5, "band absorbs from inside; finite falling time from outside", ok)


def test_criterion_06_symmetric_variance():
    limit_gap = abs(var_X_symmetric(40.0, SYM) - 1.0 / 3.0)
    target = var_X_symmetric(2.0, SYM)
    est = simulate.estimate_variance(
        simulate.functional_x_at(2.0, 0.0, Regime.R0), SYM,
        MCConfig(replicates=1_000_000, seed=606))
    z = abs(est.value - target) / est.std_error
    _report(6, "symmetric variance: long-run limit and MC agreement",
            limit_gap < 1e-10 and z <= 3.0,
            f"limit gap = {limit_gap:.2e}, |z| = {z:.2f}")


def test_criterion_07_kac_scaling():
    t, x0 = 1.0, 1.0
    mean_ref, var_ref = analytic.kac_limit_reference(t, x0, 1.0, 1.0)
    errors = {}
    mean_err = None
    for lam, n in ((1e2, 1_000_000), (1e4, 200_000)):
        a = math.sqrt(lam)
        params = ModelParams(lam, lam, a, -a, 1.0, 1.0)
        functional = simulate.functional_x_at(t, x0, Regime.R0)
        config = MCConfig(replicates=n, seed=707 + int(lam))
        mean_est, var_est = simulate.estimate_moments(functional, params,
                                                      config)
        errors[lam] = abs(var_est.value - var_ref)
        if lam == 1e4:
            mean_err = abs(mean_est.value - mean_ref)
    ok = (errors[1e4] < errors[1e2] and errors[1e4] < 0.05
          and mean_err < 0.02)
    _report(7, "diffusion limit: variance error shrinks with the rate",
            ok, f"var errors {errors[1e2]:.2e} -> {errors[1e4]:.2e}, "
                f"mean error {mean_err:.2e}")


def test_criterion_08_telegraph_distribution():
    # normalization for two asymmetric parameter sets
    worst_mass = 0.0
    for params in (ModelParams(1.0, 2.0, 1.0, -1.0, 1.0, 1.0),
                   ModelParams(0.5, 1.7, 2.0, -0.3, 1.0, 1.0)):
        for start in (Regime.R0, Regime.R1):
            total = 0.0
            for j in (Regime.R0, Regime.R1):
                dist = telegraph_density(start, j, 1.3, params)
                total += dist.mass(*dist.support)
            worst_mass = max(worst_mass, abs(total - 1.0))

    # histogram of 1e6 telegraph positions vs the Bessel-form density
    params = ModelParams(1.0, 2.0, 1.0, -1.0, 1.0, 1.0)
    t = 1.3
    n = 1_000_000
    d00 = telegraph_density(Regime.R0, Regime.R0, t, params)
    d01 = telegraph_density(Regime.R0, Regime.R1, t, params)
    atom_loc, atom_mass = d00.atoms[0]
    hist = simulate.histogram(
        simulate.functional_telegraph(t, Regime.R0), params,
        MCConfig(replicates=n, seed=808), bins=50,
        range_=(params.a1 * t, params.a0 * t), atoms=(atom_loc,))
    worst_z = 0.0
    for k in range(50):
        lo, hi = float(hist.edges[k]), float(hist.edges[k + 1])
        expected = quad_interval(lambda v: d00.density(v) + d01.density(v),
                                 lo, hi)
        se = math.sqrt(expected * (1.0 - expected) / n)
        worst_z = max(worst_z, abs(hist.masses[k] - expected) / se)
    _, mass_hat, atom_se = hist.atoms[0]
    worst_z = max(worst_z, abs(mass_hat - atom_mass) / atom_se)
    _report(8, "telegraph law: normalization and 50-bin histogram agreement",
            worst_mass < 1e-8 and worst_z <= 4.0,
            f"normalization gap {worst_mass:.2e}, worst bin |z| = {worst_z:.2f}")


def test_criterion_09_telegraph_moments_and_covariance():
    # symmetric closed forms reproduced by the generator exponential
    worst_rel = 0.0
    t, s = 0.8, 0.3
    for order in (1, 2):
        for i in (Regime.R0, Regime.R1):
            for j in (Regime.R0, Regime.R1):
                series = telegraph_moment(order, i, j, t, SYM)
                closed = telegraph_moment_symmetric(order, i, j, t, SYM)
                if closed == 0.0:
                    worst_rel = max(worst_rel, abs(series))
                else:
                    worst_rel = max(worst_rel, abs(series - closed) / abs(closed))
    # equal rates lam: E[T(t) T(s)] = a^2 / (4 lam^2) (4 lam s
    # - (1 + e^(-2 lam (t - s))) (1 - e^(-2 lam s)))
    lam, a = SYM.lambda0, SYM.a0
    cov_closed = (a * a / (4.0 * lam * lam)
                  * (4.0 * lam * s - (1.0 + math.exp(-2.0 * lam * (t - s)))
                     * (1.0 - math.exp(-2.0 * lam * s))))
    cov = telegraph_cov(Regime.R0, t, s, SYM)
    worst_rel = max(worst_rel, abs(cov - cov_closed) / abs(cov_closed))

    # asymmetric rates against 1e6-replicate Monte Carlo
    params = ModelParams(1.0, 3.0, 1.0, -1.0, 1.0, 1.0)
    n = 1_000_000
    worst_z = 0.0
    for k, (order, i, j) in enumerate(
            ((1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
             (2, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 1))):
        value = telegraph_moment(order, Regime(i), Regime(j), t, params)
        est = simulate.estimate(
            simulate.functional_telegraph(t, Regime(i), Regime(j), power=order),
            params, MCConfig(replicates=n, seed=909 + k))
        worst_z = max(worst_z, abs(est.value - value) / est.std_error)
    _report(9, "telegraph moments/covariance: closed forms and MC agreement",
            worst_rel < 1e-9 and worst_z <= 3.0,
            f"worst relative gap {worst_rel:.2e}, worst |z| = {worst_z:.2f}")


def test_criterion_10_joint_densities():
    lam, t, x = 1.0, 1.0, 0.0
    # component masses
    worst_mass = 0.0
    for n_sw in (0, 1, 2):
        target = math.exp(-lam * t) * (lam * t) ** n_sw / math.factorial(n_sw)
        dist = joint_distribution(t, n_sw, x, Regime.R0, SYM)
        worst_mass = max(worst_mass,
                         abs(dist.mass(*dist.support) - target))
    # mirror symmetry pointwise
    worst_mirror = 0.0
    lo, hi = reachable_interval(t, 0.2, SYM)
    for n_sw in (1, 2):
        for y in np.linspace(lo + 1e-9, hi - 1e-9, 21):
            f0 = joint_density(float(y), t, n_sw, 0.2, Regime.R0, SYM)
            f1 = joint_density(float(-y), t, n_sw, -0.2, Regime.R1, SYM)
            worst_mirror = max(worst_mirror, abs(f0 - f1))
    # two-switch density vs conditional histogram at 1e7 replicates
    n = 10_000_000
    lo, hi = reachable_interval(t, x, SYM)
    dist2 = joint_distribution(t, 2, x, Regime.R0, SYM)

    def conditional_position(st, params):
        return np.where(st.nswitch == 2, st.x, np.nan)

    hist = simulate.histogram(
        simulate.functional_of_state(t, x, Regime.R0, conditional_position),
        SYM, MCConfig(replicates=n, seed=1010), bins=40, range_=(lo, hi))
    worst_z = 0.0
    for k in range(40):
        expected = quad_interval(dist2.density, float(hist.edges[k]),
                                 float(hist.edges[k + 1]))
        se = math.sqrt(expected * (1.0 - expected) / n)
        worst_z = max(worst_z, abs(hist.masses[k] - expected) / se)
    _report(10, "joint (position, switch count) law: masses, mirror, histogram",
            worst_mass < 1e-7 and worst_mirror < 1e-12 and worst_z <= 4.0,
            f"mass gap {worst_mass:.2e}, mirror gap {worst_mirror:.2e}, "
            f"worst bin |z| = {worst_z:.2f}")


def test_criterion_11_ode_residual():
    q, h = 0.8, 1e-5
    worst = 0.0
    for params in (SYM, PARAM_SETS[1]):
        high = params.a0 / params.gamma0
        low = params.a1 / params.gamma1
        beta0 = (params.lambda0 + q) / params.gamma0
        beta1 = (params.lambda1 + q) / params.gamma1
        for x in np.linspace(high + 0.05 * (high - low),
                             high + 0.95 * (high - low), 7):
            x = float(x)
            q0 = lambda xx: laplace_falling(q, xx, Regime.R0, params)
            q1 = lambda xx: laplace_falling(q, xx, Regime.R1, params)
            d0 = (q0(x + h) - q0(x - h)) / (2 * h)
            d1 = (q1(x + h) - q1(x - h)) / (2 * h)
            r0 = ((x - high) * d0 + beta0 * q0(x)
                  - (params.lambda0 / params.gamma0) * q1(x))
            r1 = ((x - low) * d1 - (params.lambda1 / params.gamma1) * q0(x)
                  + beta1 * q1(x))
            worst = max(worst, abs(r0), abs(r1))
    _report(11, "transform satisfies the two-regime ODE system", worst < 1e-6,
            f"worst residual = {worst:.2e}")


def test_criterion_12_validate_determinism(tmp_path):
    outputs = []
    for name in ("first.csv", "second.csv"):
        target = tmp_path / name
        code = cli.main(["--out", str(target), "validate", "--tier", "quick",
                         "--seed", "42"])
        outputs.append((code, target.read_bytes()))
    codes_ok = outputs[0][0] == 0 and outputs[1][0] == 0
    identical = outputs[0][1] == outputs[1][1]
    _report(12, "quick validation tier is byte-identical per seed",
            codes_ok and identical,
            f"exit codes {outputs[0][0]}/{outputs[1][0]}, "
            f"identical = {identical}")

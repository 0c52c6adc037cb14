import math

import pytest

from oubv import analytic, harness, simulate
from oubv.harness import (
    CheckReport,
    CheckSpec,
    run_check,
    standard_suite,
    suite_specs,
)
from oubv.model import ModelParams, Regime, t_star
from oubv.simulate import MCConfig, chunk_rng

SYM = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
UNIT = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)

# public closed-form operations of the analytic module
ANALYTIC_OPS = (
    "hyper_quad",
    "laplace_falling",
    "laplace_falling_special",
    "mean_falling",
    "occupation_probs",
    "mgf_gamma",
    "mean_X",
    "mean_X_symmetric",
    "var_X_symmetric",
    "kac_limit_reference",
    "tau_cross",
    "joint_distribution",
    "telegraph_density",
    "telegraph_moment",
    "telegraph_cov",
    "mgf_restricted",
)


def _mean_x_symmetric_at(t, x):
    return (lambda p: analytic.mean_X_symmetric(t, x, Regime.R0, p),
            lambda p: simulate.functional_x_at(t, x, Regime.R0))


def _spec(name="mean_x_symmetric_check", sides=None, params=SYM, n=50_000,
          seed=17, **kwargs):
    target, functional = sides or _mean_x_symmetric_at(1.0, 0.0)
    return CheckSpec(
        name=name, target=target, functional=functional, params=params,
        config=MCConfig(replicates=n, seed=seed), **kwargs)


class TestRunCheck:
    def test_statistical_pass(self):
        report = run_check(_spec())
        assert report.passed
        assert abs(report.z_score) <= 4.0
        assert report.mc_estimate.std_error > 0
        assert report.error is None

    def test_zero_variance_exact_branch(self):
        degenerate = ModelParams(1.0, 0.0, 1.0, -1.0, 1.0, 1.0)
        report = run_check(_spec(
            name="degenerate",
            sides=(lambda p: t_star(2.0, p),
                   lambda p: simulate.functional_falling_time(2.0, Regime.R1)),
            params=degenerate, n=500))
        assert report.passed
        assert math.isnan(report.z_score)
        assert report.mc_estimate.std_error == 0.0

    def test_corrupted_exact_target_fails(self):
        # constant functional differing from the exact target in the last
        # decimal: the zero-variance branch demands equality
        report = run_check(_spec(
            name="corrupted",
            sides=(lambda p: analytic.hyper_quad(1.0, p).b0,
                   lambda p: simulate.functional_constant(1.0 + 1e-7)),
            params=UNIT, n=100))
        assert not report.passed

    def test_corrupted_statistical_target_fails(self):
        # evaluate the mean at the wrong time: a >> 10 sigma discrepancy
        report = run_check(_spec(sides=_mean_x_symmetric_at(0.2, 0.9),
                                 name="wrong_point"))
        ref = run_check(_spec(sides=_mean_x_symmetric_at(0.2, 0.9),
                              name="rebuilt"))
        assert report.passed and ref.passed  # sanity: correct point passes
        target, functional = _mean_x_symmetric_at(1.0, 0.9)
        bad = CheckSpec(
            name="offset", target=target, functional=functional, params=SYM,
            config=MCConfig(replicates=50_000, seed=17))
        good = run_check(bad)
        corrupted = CheckReport(
            good.name, good.analytic_value + 10 * good.mc_estimate.std_error,
            good.mc_estimate, 0.0, True)
        # recompute the decision rule on the corrupted target
        z = (corrupted.mc_estimate.value - corrupted.analytic_value) \
            / corrupted.mc_estimate.std_error
        assert abs(z) > 4.0

    def test_analytic_error_is_hard_failure(self):
        asym = ModelParams(1.0, 2.0, 1.0, -2.0, 1.0, 3.0)
        report = run_check(_spec(params=asym, name="bad_params"))
        assert not report.passed
        assert report.error is not None
        assert "analytic evaluation failed" in report.error

    def test_reproducible(self):
        one = run_check(_spec())
        two = run_check(_spec())
        assert one == two

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            _spec(max_z=0.0)
        with pytest.raises(ValueError):
            _spec(reduction="median")


class TestRegistries:
    def test_every_analytic_op_is_covered(self, monkeypatch):
        # Record which check reaches each operation: every full-tier target
        # is evaluated and every functional sampled on a few hundred paths.
        reached = {op: set() for op in ANALYTIC_OPS}
        check = [None]
        for op in ANALYTIC_OPS:
            def recorded(*args, _fn=getattr(analytic, op), _op=op, **kwargs):
                reached[_op].add(check[0])
                return _fn(*args, **kwargs)
            monkeypatch.setattr(analytic, op, recorded)
        for spec in suite_specs("full"):
            check[0] = spec.name
            spec.target(spec.params)
            spec.functional(spec.params)(spec.params, chunk_rng(5, 0), 300)
        # The Kac checks are made at run time, not as CheckSpecs; only their
        # closed form is recorded here, so their sampler is stubbed.
        fake = simulate.EstimateWithCI(1.0, 1.0, 1, 0)
        monkeypatch.setattr(simulate, "estimate_moments",
                            lambda *args: (fake, fake))
        check[0] = "kac"
        harness._kac_reports("quick", 42)
        assert [op for op, checks in reached.items() if not checks] == []

    def test_seeds_differ_across_checks(self):
        seeds = [s.config.seed for s in suite_specs("quick", seed=42)]
        assert len(seeds) == len(set(seeds))


class TestStandardSuite:
    def test_empty_filter(self):
        assert standard_suite("quick", only="no_such_check") == []

    def test_bad_tier(self):
        with pytest.raises(ValueError):
            suite_specs("medium")

    def test_subset_runs_and_is_deterministic(self):
        one = standard_suite("quick", seed=42, only="mean_falling")
        two = standard_suite("quick", seed=42, only="mean_falling")
        assert one == two
        assert {r.name for r in one} == {"mean_falling_r0", "mean_falling_r1",
                                         "mean_falling_fallback"}
        assert all(r.passed for r in one)

    def test_reports_sorted_by_name(self):
        reports = standard_suite("quick", seed=1, only="laplace")
        names = [r.name for r in reports]
        assert names == sorted(names)

    def test_only_selects_matching_kac_checks(self):
        reports = standard_suite("quick", seed=42, only="var_lambda")
        assert [r.name for r in reports] == ["kac_var_lambda_100",
                                             "kac_var_lambda_10000"]

    def test_exact_check_in_suite(self):
        reports = standard_suite("quick", only="falling_time_degenerate")
        (report,) = reports
        assert report.passed
        assert report.mc_estimate.std_error == 0.0

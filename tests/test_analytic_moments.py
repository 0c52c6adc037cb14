import math

import mpmath
import numpy as np
import pytest

from oubv.analytic import (
    kac_limit_reference,
    mean_X,
    mean_X_symmetric,
    mgf_gamma,
    occupation_probs,
    var_X_symmetric,
)
from oubv.model import ModelParams, Regime

SYM = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
ASYM = ModelParams(1.0, 2.0, 1.0, -2.0, 1.0, 3.0)


class TestOccupationProbs:
    def test_at_zero(self):
        assert occupation_probs(0.0, ASYM) == (1.0, 0.0, 0.0, 1.0)

    def test_symmetric_rates(self):
        lam = 0.8
        p = ModelParams(lam, lam, 1.0, -1.0, 1.0, 1.0)
        for s in (0.2, 1.0, 3.0):
            pi00, pi01, pi10, pi11 = occupation_probs(s, p)
            flip = (1.0 - math.exp(-2.0 * lam * s)) / 2.0
            assert pi01 == pytest.approx(flip, rel=1e-12)
            assert pi10 == pytest.approx(flip, rel=1e-12)
            assert pi00 == pytest.approx(1.0 - flip, rel=1e-12)
            assert pi11 == pytest.approx(1.0 - flip, rel=1e-12)

    def test_rows_sum_to_one(self):
        for p in (SYM, ASYM, ModelParams(0.0, 2.0, 1.0, -1.0, 1.0, 1.0)):
            for s in (0.1, 0.9, 2.5):
                pi00, pi01, pi10, pi11 = occupation_probs(s, p)
                assert pi00 + pi01 == pytest.approx(1.0, abs=1e-12)
                assert pi10 + pi11 == pytest.approx(1.0, abs=1e-12)
                assert all(0.0 <= v <= 1.0 for v in (pi00, pi01, pi10, pi11))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            occupation_probs(-0.1, SYM)


class TestMgfGamma:
    def test_at_zero(self):
        assert mgf_gamma(0.0, Regime.R0, ASYM) == 1.0
        assert mgf_gamma(0.0, Regime.R1, ASYM) == 1.0

    def test_equal_relaxations(self):
        # gamma0 == gamma1 makes the exponent deterministic
        p = ModelParams(1.0, 2.5, 1.0, -1.0, 1.3, 1.3)
        for t in (0.4, 1.0, 2.0):
            for start in (Regime.R0, Regime.R1):
                assert mgf_gamma(t, start, p) == pytest.approx(
                    math.exp(-1.3 * t), rel=1e-12)

    def test_single_switch_oracle(self):
        # lambda1 = 0: one switch at an exponential time, then regime 1
        # forever; the expectation integrates in closed form.
        lam, g0, g1, t = 1.3, 2.0, 0.7, 1.7
        p = ModelParams(lam, 0.0, 1.0, -1.0, g0, g1)
        oracle = (math.exp(-(lam + g0) * t)
                  + lam * (math.exp(-g1 * t) - math.exp(-(lam + g0) * t))
                  / (lam + g0 - g1))
        assert mgf_gamma(t, Regime.R0, p) == pytest.approx(oracle, rel=1e-12)

    def test_in_unit_interval(self):
        for t in (0.1, 1.0, 5.0):
            for start in (Regime.R0, Regime.R1):
                assert 0.0 < mgf_gamma(t, start, ASYM) <= 1.0


class TestMeanX:
    def test_at_zero(self):
        assert mean_X(0.0, 0.37, Regime.R0, ASYM) == 0.37

    def test_matches_symmetric_closed_form(self):
        for t in (0.3, 1.0, 2.5):
            for x in (-0.4, 0.0, 0.8):
                for start in (Regime.R0, Regime.R1):
                    general = mean_X(t, x, start, SYM)
                    closed = mean_X_symmetric(t, x, start, SYM)
                    assert general == pytest.approx(closed, abs=1e-8)

    def test_decays_from_inside_band(self):
        assert abs(mean_X(6.0, 0.5, Regime.R0, SYM)) < abs(
            mean_X(0.5, 0.5, Regime.R0, SYM))


class TestMeanXSymmetric:
    def test_at_zero(self):
        assert mean_X_symmetric(0.0, 0.25, Regime.R0, SYM) == 0.25

    def test_critical_rate_branch(self):
        # gamma == 2 lambda: the swing term becomes t e^(-gamma t)
        p = ModelParams(0.5, 0.5, 1.0, -1.0, 1.0, 1.0)
        for t in (0.3, 1.0, 4.0):
            expected0 = 0.2 * math.exp(-t) + t * math.exp(-t)
            expected1 = 0.2 * math.exp(-t) - t * math.exp(-t)
            assert mean_X_symmetric(t, 0.2, Regime.R0, p) == pytest.approx(
                expected0, rel=1e-14)
            assert mean_X_symmetric(t, 0.2, Regime.R1, p) == pytest.approx(
                expected1, rel=1e-14)

    def test_long_run_limit(self):
        for start in (Regime.R0, Regime.R1):
            assert abs(mean_X_symmetric(40.0, 0.7, start, SYM)) < 1e-12

    def test_nonsymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            mean_X_symmetric(1.0, 0.0, Regime.R0, ASYM)


class TestVarXSymmetric:
    def test_at_zero(self):
        assert var_X_symmetric(0.0, SYM) == 0.0

    def test_long_run_limit(self):
        # a^2 / (gamma (gamma + 2 lambda)) = 1/3 at unit parameters
        assert var_X_symmetric(40.0, SYM) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_critical_rate_value(self):
        # gamma = 2 lambda = 1, t = 1: (1/2) (1 - 5 e^-2)
        p = ModelParams(0.5, 0.5, 1.0, -1.0, 1.0, 1.0)
        expected = 0.5 * (1.0 - 5.0 * math.exp(-2.0))
        assert var_X_symmetric(1.0, p) == pytest.approx(expected, rel=1e-14)

    def test_nonnegative(self):
        for lam in (0.2, 0.5, 1.0, 4.0):
            p = ModelParams(lam, lam, 1.0, -1.0, 1.0, 1.0)
            for t in np.linspace(0.0, 6.0, 25):
                assert var_X_symmetric(float(t), p) >= 0.0

    def test_continuous_at_critical_rate(self):
        lam = 0.5
        at = var_X_symmetric(1.0, ModelParams(lam, lam, 1.0, -1.0, 1.0, 1.0))
        for eps in (1e-6, -1e-6):
            near = var_X_symmetric(
                1.0, ModelParams(lam, lam, 1.0, -1.0, 1.0 + eps, 1.0 + eps))
            assert near == pytest.approx(at, abs=1e-4)

    def test_large_gamma_no_overflow(self):
        p = ModelParams(0.1, 0.1, 100.0, -100.0, 50.0, 50.0)
        value = var_X_symmetric(3.0, p)
        assert math.isfinite(value)
        assert value >= 0.0


# gamma - 2 lambda at and around the critical rate, where the paper's
# closed forms divide a cancelling difference by (gamma - 2 lambda)^k
CRITICAL_GAPS = [0.0] + [s * g for g in (2e-9, 1e-7, 1e-5, 1e-3, 0.1)
                         for s in (1.0, -1.0)]


def _paper_moments(t, x, lam, gamma, a):
    """Mean from regime 0 and variance by the paper's forms at 40 digits."""
    with mpmath.workdps(40):
        t, x, lam, gamma, a = (mpmath.mpf(v) for v in (t, x, lam, gamma, a))
        d = gamma - 2 * lam
        if d == 0:
            gt = gamma * t
            swing = t * mpmath.exp(-gamma * t)
            var = (a * a / (2 * gamma * gamma)
                   * (1 - mpmath.exp(-2 * gt) * (1 + 2 * gt + 2 * gt * gt)))
        else:
            swing = (mpmath.exp(-2 * lam * t) - mpmath.exp(-gamma * t)) / d
            bracket = (mpmath.exp(-4 * lam * t)
                       - 8 * lam / (gamma + 2 * lam)
                       * mpmath.exp(-(gamma + 2 * lam) * t)
                       + 2 * lam / gamma * mpmath.exp(-2 * gamma * t))
            var = a * a * (1 / (gamma * (gamma + 2 * lam)) - bracket / d ** 2)
        return x * mpmath.exp(-gamma * t) + a * swing, var


def _relative_error(value, reference):
    with mpmath.workdps(40):
        return float(abs((mpmath.mpf(value) - reference) / reference))


class TestCriticalRate:
    @pytest.mark.parametrize("t", [0.5, 2.0, 40.0])
    @pytest.mark.parametrize("gap", CRITICAL_GAPS)
    @pytest.mark.parametrize("lam, a", [(1.0, 1.0), (0.3, 2.5)])
    def test_against_forty_digits(self, lam, a, gap, t):
        gamma = 2.0 * lam + gap
        p = ModelParams(lam, lam, a, -a, gamma, gamma)
        mean_ref, var_ref = _paper_moments(t, 0.4, lam, gamma, a)
        assert _relative_error(var_X_symmetric(t, p), var_ref) <= 1e-12
        mean = mean_X_symmetric(t, 0.4, Regime.R0, p)
        assert _relative_error(mean, mean_ref) <= 1e-12


class TestKacLimitReference:
    def test_at_zero(self):
        assert kac_limit_reference(0.0, 0.8, 1.0, 1.0) == (0.8, 0.0)

    def test_long_run(self):
        mean, var = kac_limit_reference(60.0, 0.8, 1.0, 1.0)
        assert abs(mean) < 1e-12
        assert var == pytest.approx(0.5, abs=1e-12)

    def test_unit_time(self):
        mean, var = kac_limit_reference(1.0, 0.8, 1.0, 1.0)
        assert mean == pytest.approx(0.8 * math.exp(-1.0), rel=1e-14)
        assert var == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-14)

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            kac_limit_reference(1.0, 0.0, 0.0, 1.0)

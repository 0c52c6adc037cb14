import math

import numpy as np
import pytest

from oubv.analytic import (
    QuadratureError,
    joint_density,
    joint_distribution,
    quad_interval,
    reachable_interval,
    tau_cross,
)
from oubv.model import ModelParams, Regime, pattern

SYM = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
ASYM = ModelParams(1.0, 2.0, 1.0, -2.0, 1.0, 3.0)


class TestTauCross:
    def test_zero_at_lower_endpoint(self):
        lo, _ = reachable_interval(1.0, 0.3, SYM)
        assert tau_cross("tau0", lo, 1.0, 0.3, SYM) == pytest.approx(0.0, abs=1e-12)

    def test_zero_at_upper_endpoint(self):
        _, hi = reachable_interval(1.0, 0.3, SYM)
        assert tau_cross("tau1", hi, 1.0, 0.3, SYM) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_round_trip(self, frac):
        t, x = 1.4, 0.2
        tau = frac * t
        y = pattern(Regime.R1, pattern(Regime.R0, x, tau, SYM), t - tau, SYM)
        assert tau_cross("tau0", y, t, x, SYM) == pytest.approx(tau, rel=1e-11,
                                                                abs=1e-12)

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_round_trip_mirror(self, frac):
        t, x = 1.4, 0.2
        tau = frac * t
        y = pattern(Regime.R0, pattern(Regime.R1, x, tau, SYM), t - tau, SYM)
        assert tau_cross("tau1", y, t, x, SYM) == pytest.approx(tau, rel=1e-11,
                                                                abs=1e-12)

    def test_crossing_time_identity(self):
        # e^(-g(t - tau0)) + e^(-g(t - tau1)) = 1 + e^(-g t) on the interval
        t, x = 1.0, 0.4
        lo, hi = reachable_interval(t, x, SYM)
        for y in np.linspace(lo + 1e-9, hi - 1e-9, 9):
            tau0 = tau_cross("tau0", float(y), t, x, SYM)
            tau1 = tau_cross("tau1", float(y), t, x, SYM)
            lhs = math.exp(-(t - tau0)) + math.exp(-(t - tau1))
            assert lhs == pytest.approx(1.0 + math.exp(-t), rel=1e-12)

    @pytest.mark.parametrize("branch", ["tau0", "tau1"])
    def test_array_equals_scalar_calls(self, branch):
        t, x = 1.3, -0.35
        lo, hi = reachable_interval(t, x, SYM)
        ys = np.concatenate([[lo, hi],
                             np.random.default_rng(5).uniform(lo, hi, 2000)])
        got = tau_cross(branch, ys, t, x, SYM)
        want = [tau_cross(branch, float(y), t, x, SYM) for y in ys]
        assert got.shape == ys.shape
        assert np.array_equal(got, want)

    def test_outside_interval_rejected(self):
        with pytest.raises(ValueError, match="reachable"):
            tau_cross("tau0", 5.0, 1.0, 0.3, SYM)
        lo, hi = reachable_interval(1.0, 0.3, SYM)
        for bad in (hi + 1e-9, math.nan):
            with pytest.raises(ValueError, match="reachable"):
                tau_cross("tau1", np.array([lo, 0.5 * (lo + hi), bad]), 1.0,
                          0.3, SYM)

    def test_nonsymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            tau_cross("tau0", 0.0, 1.0, 0.3, ASYM)

    def test_bad_branch(self):
        with pytest.raises(ValueError, match="branch"):
            tau_cross("tau2", 0.0, 1.0, 0.3, SYM)


class TestJointDistribution:
    def test_no_switch_atom(self):
        for start in (Regime.R0, Regime.R1):
            dist = joint_distribution(1.0, 0, 0.3, start, SYM)
            (loc, mass), = dist.atoms
            assert loc == pattern(start, 0.3, 1.0, SYM)
            assert mass == pytest.approx(math.exp(-1.0), rel=1e-14)
            assert dist.density(loc) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_poisson_masses(self, n):
        # total mass of the n-switch component is e^(-lt) (lt)^n / n!
        lam, t = 1.0, 1.0
        target = math.exp(-lam * t) * (lam * t) ** n / math.factorial(n)
        for start in (Regime.R0, Regime.R1):
            dist = joint_distribution(t, n, 0.0, start, SYM)
            assert dist.mass(*dist.support) == pytest.approx(target,
                                                             abs=1e-7)

    def test_poisson_masses_off_center(self):
        lam, t, x = 0.7, 1.3, 0.45
        p = ModelParams(lam, lam, 1.0, -1.0, 1.0, 1.0)
        for n in (1, 2):
            target = math.exp(-lam * t) * (lam * t) ** n / math.factorial(n)
            dist = joint_distribution(t, n, x, Regime.R1, p)
            assert dist.mass(*dist.support) == pytest.approx(target,
                                                             abs=1e-7)

    @pytest.mark.parametrize("n", [1, 2])
    def test_mirror_symmetry(self, n):
        t, x = 1.0, 0.2
        lo, hi = reachable_interval(t, x, SYM)
        for y in np.linspace(lo + 1e-6, hi - 1e-6, 11):
            f0 = joint_density(float(y), t, n, x, Regime.R0, SYM)
            f1 = joint_density(float(-y), t, n, -x, Regime.R1, SYM)
            assert abs(f0 - f1) < 1e-12

    def test_density_nonnegative_and_supported(self):
        t, x = 1.0, 0.0
        lo, hi = reachable_interval(t, x, SYM)
        for n in (1, 2):
            dist = joint_distribution(t, n, x, Regime.R0, SYM)
            assert dist.support == (lo, hi)
            for y in np.linspace(lo - 0.5, hi + 0.5, 21):
                value = dist.density(float(y))
                assert value >= 0.0
                if y < lo or y > hi:
                    assert value == 0.0

    def test_single_switch_density_formula(self):
        # after one switch from regime 0 the density is the exponential
        # sojourn mapped through the flow; check against the direct change
        # of variables at one interior point
        t, x = 1.0, 0.0
        y = 0.1
        tau0 = tau_cross("tau0", y, t, x, SYM)
        jac = 2.0 * 1.0 * math.exp(-(t - tau0))  # |dy/dtau| = 2a e^(-g(t-tau))
        expected = 1.0 * math.exp(-1.0 * t) / jac
        assert joint_density(y, t, 1, x, Regime.R0, SYM) == pytest.approx(
            expected, rel=1e-12)

    def test_three_switches_rejected(self):
        with pytest.raises(ValueError):
            joint_distribution(1.0, 3, 0.0, Regime.R0, SYM)

    def test_nonsymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            joint_distribution(1.0, 1, 0.0, Regime.R0, ASYM)


class TestQuadInterval:
    def test_polynomial(self):
        assert quad_interval(lambda y: y * y, 0.0, 1.0) == pytest.approx(
            1.0 / 3.0, abs=1e-12)

    def test_empty_interval(self):
        assert quad_interval(lambda y: 1.0, 1.0, 1.0) == 0.0

    def test_endpoint_singularity(self):
        # integrable inverse square root at the right endpoint
        value = quad_interval(lambda y: 1.0 / math.sqrt(1.0 - y), 0.0, 1.0)
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_missed_tolerance_raises(self):
        # 1e5 / (2 pi) periods are too many for 200 Gauss-Kronrod intervals
        with pytest.raises(QuadratureError, match="error estimate"):
            quad_interval(lambda y: math.cos(1e5 * y), 0.0, 1.0)

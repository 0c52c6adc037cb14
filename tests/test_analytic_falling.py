import math

import mpmath
import numpy as np
import pytest

from oubv.analytic import (
    hyper_quad,
    laplace_falling,
    mean_falling,
    mean_falling_info,
)
from oubv.model import ModelParams, Regime, band_coordinate, t_star
from oubv.specfun import SeriesConvergenceError, gauss_2f1

SYM = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
ASYM = ModelParams(1.0, 2.0, 1.0, -2.0, 1.0, 3.0)
L0_ZERO = ModelParams(0.0, 1.0, 1.0, -1.0, 1.0, 1.0)
L1_ZERO = ModelParams(1.0, 0.0, 1.0, -1.0, 1.0, 1.0)


def _zero_rate_params(gamma1):
    """A zero lambda0 and a zero lambda1, each with gamma0 != gamma1."""
    return (ModelParams(0.0, 1.0, 1.0, -1.0, 1.0, gamma1),
            ModelParams(1.0, 0.0, 1.0, -1.0, 3.0, gamma1))


def _transform_mp(q, x, start, p):
    """E[exp(-q T(x)) | start] from mpmath's hyp2f1 at 40 digits."""
    with mpmath.workdps(40):
        l0, l1, a0, a1, g0, g1 = (mpmath.mpf(v) for v in (
            p.lambda0, p.lambda1, p.a0, p.a1, p.gamma0, p.gamma1))
        q = mpmath.mpf(q)
        high, low = a0 / g0, a1 / g1
        z = (high - mpmath.mpf(x)) / (high - low)
        beta0, beta1 = (l0 + q) / g0, (l1 + q) / g1
        disc = mpmath.sqrt((beta0 - beta1) ** 2 + 4 * (l0 / g0) * (l1 / g1))
        b0, b1 = (beta0 + beta1 - disc) / 2, (beta0 + beta1 + disc) / 2
        if start == Regime.R1:
            return mpmath.hyp2f1(b0, b1, beta0, z)
        return l0 / (l0 + q) * mpmath.hyp2f1(b0, b1, beta0 + 1, z)


def single_switch_transform(q, x, p):
    """Regime-0 transform at lambda1 = 0, where one switch decides the
    crossing: lambda0 / (lambda0 + q) F(q / gamma1, beta0; beta0 + 1; z),
    from mpmath at 40 digits."""
    with mpmath.workdps(40):
        q = mpmath.mpf(q)
        beta0 = (p.lambda0 + q) / p.gamma0
        return float(p.lambda0 / (p.lambda0 + q)
                     * mpmath.hyp2f1(q / p.gamma1, beta0, beta0 + 1,
                                     band_coordinate(x, p)))


class TestHyperQuad:
    def test_minor_root_vanishes_at_zero(self):
        for p in (SYM, ASYM):
            hq = hyper_quad(0.0, p)
            assert abs(hq.b0) < 1e-14
            expected = p.lambda0 / p.gamma0 + p.lambda1 / p.gamma1
            assert hq.b1 == pytest.approx(expected, rel=1e-14)

    def test_unit_point(self):
        hq = hyper_quad(1.0, SYM)
        assert (hq.beta0, hq.beta1, hq.b0, hq.b1) == (2.0, 2.0, 1.0, 3.0)

    def test_lambda0_zero_roots_collapse(self):
        q = 0.7
        hq = hyper_quad(q, L0_ZERO)
        roots = sorted([hq.beta0, hq.beta1])
        assert hq.b0 == pytest.approx(roots[0], rel=1e-14)
        assert hq.b1 == pytest.approx(roots[1], rel=1e-14)

    @pytest.mark.parametrize("gamma1", [0.3, 1.0, 3.0])
    def test_zero_rate_roots_exact(self, gamma1):
        for p in _zero_rate_params(gamma1) + (L0_ZERO, L1_ZERO):
            for q in (0.0, 0.01, 0.7, 5.0):
                hq = hyper_quad(q, p)
                assert (hq.b0, hq.b1) == (min(hq.beta0, hq.beta1),
                                          max(hq.beta0, hq.beta1))

    def test_root_identities(self):
        for p in (SYM, ASYM, L1_ZERO):
            b00 = p.lambda0 / p.gamma0
            b10 = p.lambda1 / p.gamma1
            for q in np.logspace(-3, 2, 11):
                hq = hyper_quad(float(q), p)
                assert hq.b0 + hq.b1 == pytest.approx(hq.beta0 + hq.beta1,
                                                      rel=1e-12)
                assert hq.b0 * hq.b1 == pytest.approx(
                    hq.beta0 * hq.beta1 - b00 * b10, rel=1e-12, abs=1e-12)

    def test_ordering(self):
        for q in (0.0, 0.3, 5.0):
            hq = hyper_quad(q, ASYM)
            assert hq.b0 <= hq.b1

    def test_negative_q_rejected(self):
        with pytest.raises(ValueError):
            hyper_quad(-0.1, SYM)


class TestLaplaceFalling:
    def test_boundary_values(self):
        for q in (0.1, 1.0, 10.0):
            for p in (SYM, ASYM):
                high = p.a0 / p.gamma0
                assert laplace_falling(q, high, Regime.R1, p) == 1.0
                assert laplace_falling(q, high, Regime.R0, p) == pytest.approx(
                    p.lambda0 / (p.lambda0 + q), rel=1e-14)

    def test_monotone_in_q(self):
        for start in (Regime.R0, Regime.R1):
            values = [laplace_falling(q, 1.7, start, ASYM)
                      for q in np.linspace(0.1, 10.0, 25)]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(b <= a + 1e-13 for a, b in zip(values, values[1:]))

    def test_almost_sure_finiteness(self):
        # transform at q -> 0+ approaches 1 whenever lambda0 > 0
        for p in (SYM, ASYM, L1_ZERO):
            for x in np.linspace(p.a0 / p.gamma0 + 0.01, 4.0, 5):
                for start in (Regime.R0, Regime.R1):
                    value = laplace_falling(1e-8, float(x), start, p)
                    assert abs(value - 1.0) < 1e-6

    def test_lambda1_zero_power_law(self):
        # from regime 1 the crossing is deterministic at t*(x)
        for q in (0.3, 1.0, 4.0):
            for x in (1.2, 2.0, 5.0):
                expected = ((x + 1.0) / 2.0) ** (-q / 1.0)
                assert laplace_falling(q, x, Regime.R1, L1_ZERO) == pytest.approx(
                    expected, rel=1e-12)

    def test_ode_residual(self):
        # transform satisfies the first-order system linking both regimes
        q, h = 0.8, 1e-5
        for p in (SYM, ASYM):
            high = p.a0 / p.gamma0
            low = p.a1 / p.gamma1
            beta0 = (p.lambda0 + q) / p.gamma0
            beta1 = (p.lambda1 + q) / p.gamma1
            for x in np.linspace(high + 0.1 * (high - low),
                                 high + 0.9 * (high - low), 5):
                x = float(x)
                q0 = lambda xx: laplace_falling(q, xx, Regime.R0, p)
                q1 = lambda xx: laplace_falling(q, xx, Regime.R1, p)
                d0 = (q0(x + h) - q0(x - h)) / (2 * h)
                d1 = (q1(x + h) - q1(x - h)) / (2 * h)
                r0 = ((x - high) * d0 + beta0 * q0(x)
                      - (p.lambda0 / p.gamma0) * q1(x))
                r1 = ((x - low) * d1 - (p.lambda1 / p.gamma1) * q0(x)
                      + beta1 * q1(x))
                assert abs(r0) < 1e-6
                assert abs(r1) < 1e-6

    def test_preconditions(self):
        with pytest.raises(ValueError):
            laplace_falling(0.0, 1.5, Regime.R0, SYM)
        with pytest.raises(ValueError, match="x must exceed"):
            laplace_falling(1.0, 0.5, Regime.R0, SYM)


class TestLaplaceSpecial:
    def test_lambda0_zero_regime0_never_crosses(self):
        for q in (0.2, 1.0, 9.0):
            for x in (1.1, 2.0, 6.0):
                assert laplace_falling(q, x, Regime.R0, L0_ZERO) == 0.0

    def test_lambda0_zero_boundary(self):
        assert laplace_falling(1.0, 1.0, Regime.R1, L0_ZERO) == 1.0

    def test_lambda0_zero_survival_form(self):
        q, x = 0.7, 1.8
        expected = math.exp(-(1.0 + q) * t_star(x, L0_ZERO))
        assert laplace_falling(q, x, Regime.R1, L0_ZERO) == pytest.approx(
            expected, rel=1e-14)

    def test_lambda1_zero_matches_general(self):
        for q in np.linspace(0.1, 5.0, 10):
            for x in np.linspace(1.05, 2.8, 10):
                closed = single_switch_transform(float(q), float(x), L1_ZERO)
                general = laplace_falling(float(q), float(x), Regime.R0,
                                          L1_ZERO)
                assert general == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("gamma1", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("q", [0.01, 0.7, 5.0])
    def test_zero_rate_regime1_elementary(self, q, gamma1):
        # regime 1 falls in at t*(x) unless it switches first (lambda0 = 0)
        # or at exactly t*(x) (lambda1 = 0): exp(-(lambda1 + q) t*(x))
        for p in _zero_rate_params(gamma1):
            high, low = p.a0 / p.gamma0, p.a1 / p.gamma1
            for x in (high, high + 1e-9, 1.2, 2.0, 10.0, 1e2, 1e3, 1e4):
                with mpmath.workdps(40):
                    t_mp = mpmath.log((x - mpmath.mpf(low)) / (high - low))
                    expected = mpmath.exp(-(p.lambda1 + q) * t_mp / gamma1)
                value = laplace_falling(q, x, Regime.R1, p)
                assert abs(value - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("gamma1", [0.3, 1.0, 3.0])
    def test_lambda1_zero_regime0_single_switch_series(self, gamma1):
        # from regime 0 the route runs the single-switch series
        # lambda0 / (lambda0 + q) F(q / gamma1, beta0; beta0 + 1; z); far
        # above the band it loses digits as w = z / (z - 1) nears 1
        p = _zero_rate_params(gamma1)[1]
        for q in (0.01, 0.7, 5.0):
            beta0 = (p.lambda0 + q) / p.gamma0
            for x in (p.a0 / p.gamma0, 0.5, 2.0, 10.0, 100.0):
                single = (p.lambda0 / (p.lambda0 + q)
                          * gauss_2f1(q / gamma1, beta0, beta0 + 1.0,
                                      band_coordinate(x, p)))
                value = laplace_falling(q, x, Regime.R0, p)
                assert value == single
                expected = _transform_mp(q, x, Regime.R0, p)
                assert value == pytest.approx(float(expected), rel=1e-9)


class TestCancellation:
    # a small gamma1 makes the Pfaff series cancel (true values 1.667e-9
    # and 1.377e-12): the value is refused or right, never wrong digits
    P = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 0.1)

    @pytest.mark.parametrize("x, start", [(12.0, Regime.R1),
                                          (50.0, Regime.R0)])
    def test_refused_or_accurate(self, x, start):
        expected = float(_transform_mp(5.0, x, start, self.P))
        try:
            value = laplace_falling(5.0, x, start, self.P)
        except SeriesConvergenceError as exc:
            assert "cancelled" in str(exc)
        else:
            assert abs(value - expected) <= 1e-10 * expected


class TestMeanFalling:
    def test_boundary_values(self):
        # at the band edge: 1/lambda0 from regime 0, zero from regime 1
        for p in (SYM, ASYM):
            high = p.a0 / p.gamma0
            assert mean_falling(high, Regime.R0, p) == pytest.approx(
                1.0 / p.lambda0, rel=1e-14)
            from_r1 = mean_falling(high, Regime.R1, p)
            assert from_r1 == 0.0 and math.copysign(1.0, from_r1) == 1.0

    def test_lambda1_zero_is_t_star(self):
        for x in (1.3, 2.0, 2.9):
            assert mean_falling(x, Regime.R1, L1_ZERO) == pytest.approx(
                t_star(x, L1_ZERO), rel=1e-12)

    def test_series_region_flag(self):
        value, method, terms = mean_falling_info(1.5, Regime.R1, SYM)
        assert method == "series"
        assert terms > 0
        assert value > 0

    def test_fallback_region_flag(self):
        # |z| >= 1 leaves the series' disc; the derivative fallback engages
        value, method, _ = mean_falling_info(4.0, Regime.R1, SYM)
        assert method == "fallback"
        assert value > t_star(4.0, SYM)

    def test_series_matches_fallback_in_overlap(self):
        from oubv.analytic import _mean_falling_fd, _mean_falling_series
        for p in (SYM, ASYM):
            for x in (1.2, 1.8, 2.3):
                for start in (Regime.R0, Regime.R1):
                    if abs(band_coordinate(x, p)) >= 1.0:
                        continue
                    series, _ = _mean_falling_series(x, start, p)
                    fd = _mean_falling_fd(x, start, p)
                    assert fd == pytest.approx(series, rel=1e-5)

    def test_monotone_in_x(self):
        values = [mean_falling(x, Regime.R1, SYM)
                  for x in np.linspace(1.0, 2.8, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_exceeds_minimal_crossing_time(self):
        for x in (1.2, 2.0, 3.5):
            assert mean_falling(x, Regime.R1, SYM) > t_star(x, SYM)

    def test_lambda0_zero_rejected(self):
        with pytest.raises(ValueError, match="lambda0"):
            mean_falling(1.5, Regime.R0, L0_ZERO)


def test_nan_start_rejected_everywhere():
    # NaN fails the band-edge check, not a series later on
    calls = [
        lambda: mean_falling(math.nan, Regime.R1, SYM),
        lambda: mean_falling_info(math.nan, Regime.R0, ASYM),
        lambda: laplace_falling(1.0, math.nan, Regime.R0, SYM),
        lambda: laplace_falling(1.0, math.nan, Regime.R1, L1_ZERO),
        lambda: laplace_falling(1.0, math.nan, Regime.R1, L0_ZERO),
        lambda: t_star(math.nan, SYM),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="x must exceed a0/gamma0"):
            call()


def test_infinite_start_rejected_everywhere():
    # nothing falls in from +inf: refused, not a series overflow
    calls = [
        lambda: mean_falling(math.inf, Regime.R1, SYM),
        lambda: mean_falling_info(math.inf, Regime.R0, ASYM),
        lambda: laplace_falling(1.0, math.inf, Regime.R0, SYM),
        lambda: laplace_falling(1.0, math.inf, Regime.R1, ASYM),
        lambda: laplace_falling(1.0, math.inf, Regime.R1, L1_ZERO),
        lambda: t_star(math.inf, SYM),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="x must be finite"):
            call()

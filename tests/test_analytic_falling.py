import math

import numpy as np
import pytest

from oubv.analytic import (
    hyper_quad,
    laplace_falling,
    laplace_falling_special,
    mean_falling,
    mean_falling_info,
)
from oubv.model import ModelParams, Regime, band_coordinate, t_star

SYM = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
ASYM = ModelParams(1.0, 2.0, 1.0, -2.0, 1.0, 3.0)
L0_ZERO = ModelParams(0.0, 1.0, 1.0, -1.0, 1.0, 1.0)
L1_ZERO = ModelParams(1.0, 0.0, 1.0, -1.0, 1.0, 1.0)


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
                assert laplace_falling_special("lambda0_zero", q, x,
                                               Regime.R0, L0_ZERO) == 0.0

    def test_lambda0_zero_boundary(self):
        assert laplace_falling_special("lambda0_zero", 1.0, 1.0,
                                       Regime.R1, L0_ZERO) == 1.0

    def test_lambda0_zero_survival_form(self):
        q, x = 0.7, 1.8
        expected = math.exp(-(1.0 + q) * t_star(x, L0_ZERO))
        assert laplace_falling_special("lambda0_zero", q, x, Regime.R1,
                                       L0_ZERO) == pytest.approx(expected,
                                                                 rel=1e-14)

    def test_lambda1_zero_matches_general(self):
        # closed single-switch form vs the hypergeometric route
        for q in np.linspace(0.1, 5.0, 10):
            for x in np.linspace(1.05, 2.8, 10):
                special_v = laplace_falling_special("lambda1_zero", float(q),
                                                    float(x), Regime.R0, L1_ZERO)
                general_v = laplace_falling(float(q), float(x), Regime.R0,
                                            L1_ZERO)
                assert special_v == pytest.approx(general_v, rel=1e-10)

    def test_wrong_case_flag(self):
        with pytest.raises(ValueError):
            laplace_falling_special("lambda0_zero", 1.0, 1.5, Regime.R0, SYM)
        with pytest.raises(ValueError):
            laplace_falling_special("bogus", 1.0, 1.5, Regime.R0, L0_ZERO)


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
        lambda: laplace_falling_special("lambda1_zero", 1.0, math.nan,
                                        Regime.R1, L1_ZERO),
        lambda: laplace_falling_special("lambda0_zero", 1.0, math.nan,
                                        Regime.R1, L0_ZERO),
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
        lambda: laplace_falling_special("lambda1_zero", 1.0, math.inf,
                                        Regime.R1, L1_ZERO),
        lambda: t_star(math.inf, SYM),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="x must be finite"):
            call()

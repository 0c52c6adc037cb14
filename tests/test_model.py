import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oubv.model import (
    Band,
    ModelParams,
    Regime,
    band,
    band_coordinate,
    pattern,
    t_star,
)

SYM = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)


class TestModelParams:
    def test_accessors(self):
        p = ModelParams(0.5, 2.0, 1.0, -3.0, 2.0, 3.0)
        assert p.rate(Regime.R0) == 0.5
        assert p.rate(Regime.R1) == 2.0
        assert p.velocity(Regime.R1) == -3.0
        assert p.relaxation(Regime.R0) == 2.0
        assert p.fixed_point(Regime.R0) == 0.5
        assert p.fixed_point(Regime.R1) == -1.0

    def test_zero_rates_allowed(self):
        ModelParams(0.0, 0.0, 1.0, -1.0, 1.0, 1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="lambda"):
            ModelParams(-0.1, 1.0, 1.0, -1.0, 1.0, 1.0)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            ModelParams(1.0, 1.0, 1.0, -1.0, 0.0, 1.0)

    def test_empty_band_rejected(self):
        with pytest.raises(ValueError, match="a1/gamma1 < a0/gamma0"):
            ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(math.nan, 1.0, 1.0, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            ModelParams(1.0, 1.0, math.inf, -1.0, 1.0, 1.0)

    def test_is_symmetric(self):
        assert SYM.is_symmetric
        assert not ModelParams(1.0, 2.0, 1.0, -1.0, 1.0, 1.0).is_symmetric
        assert not ModelParams(1.0, 1.0, 2.0, -1.0, 1.0, 1.0).is_symmetric


class TestBand:
    def test_unit_band(self):
        assert band(SYM) == Band(-1.0, 1.0)

    def test_ratio_band(self):
        p = ModelParams(1.0, 1.0, 2.0, -3.0, 4.0, 3.0)
        b = band(p)
        assert b.low == -1.0
        assert b.high == 0.5

    def test_contains(self):
        b = band(SYM)
        assert b.contains(0.0)
        assert not b.contains(1.0)
        assert not b.contains(-1.5)


class TestPattern:
    def test_fixed_point(self):
        for t in (0.0, 0.3, 5.0):
            assert pattern(Regime.R0, 1.0, t, SYM) == 1.0

    def test_identity_at_zero(self):
        for x in (-2.0, 0.1, 7.0):
            assert pattern(Regime.R1, x, 0.0, SYM) == x

    def test_direct_substitution(self):
        # a0 = gamma0 = 1, x = 3, t = ln 2: 1 + 2 * (1/2) = 2
        assert pattern(Regime.R0, 3.0, math.log(2.0), SYM) == pytest.approx(2.0, rel=1e-14)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            pattern(Regime.R0, 0.0, -0.1, SYM)

    @given(
        x=st.floats(-50, 50),
        s=st.floats(0, 20),
        t=st.floats(0, 20),
        regime=st.sampled_from([Regime.R0, Regime.R1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_semigroup(self, x, s, t, regime):
        p = ModelParams(1.0, 1.0, 2.0, -3.0, 4.0, 3.0)
        one_step = pattern(regime, x, s + t, p)
        two_step = pattern(regime, pattern(regime, x, s, p), t, p)
        assert two_step == pytest.approx(one_step, rel=1e-12, abs=1e-12)

    def test_band_confinement(self):
        # Strict containment for moderate horizons; at large t the flow
        # saturates to the fixed point within one ulp, so only closed
        # containment can hold in floating point.
        p = ModelParams(1.0, 1.0, 2.0, -3.0, 4.0, 3.0)
        b = band(p)
        for x in np.linspace(b.low + 1e-9, b.high - 1e-9, 9):
            for regime in (Regime.R0, Regime.R1):
                for t in (0.01, 0.5, 3.0):
                    assert b.contains(pattern(regime, x, t, p))
                assert b.low <= pattern(regime, x, 50.0, p) <= b.high

    def test_monotone_approach(self):
        p = ModelParams(1.0, 1.0, 2.0, -3.0, 4.0, 3.0)
        for regime in (Regime.R0, Regime.R1):
            fp = p.fixed_point(regime)
            for x in (-5.0, 0.2, 4.0):
                dists = [abs(pattern(regime, x, t, p) - fp)
                         for t in np.linspace(0.0, 5.0, 40)]
                assert all(d2 <= d1 + 1e-15 for d1, d2 in zip(dists, dists[1:]))


class TestTStar:
    def test_zero_at_edge(self):
        assert t_star(1.0, SYM) == 0.0

    def test_direct_substitution(self):
        assert t_star(3.0, SYM) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_mirror_point(self):
        # x = 2 a0/g0 - a1/g1 gives log 2 / gamma1
        p = ModelParams(1.0, 1.0, 2.0, -3.0, 4.0, 3.0)
        x = 2 * 0.5 - (-1.0)
        assert t_star(x, p) == pytest.approx(math.log(2.0) / 3.0, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="x must exceed a0/gamma0"):
            t_star(0.5, SYM)

    @given(x=st.floats(1.0, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_inverts_regime1_flow(self, x):
        p = ModelParams(1.0, 1.0, 2.0, -3.0, 4.0, 3.0)
        high = p.a0 / p.gamma0
        x = high + (x - 1.0)  # shift into the valid domain of this model
        assert pattern(Regime.R1, x, t_star(x, p), p) == pytest.approx(
            high, rel=1e-12, abs=1e-12)


class TestBandCoordinate:
    def test_zero_at_upper_edge(self):
        assert band_coordinate(1.0, SYM) == 0.0

    def test_one_at_lower_edge(self):
        assert band_coordinate(-1.0, SYM) == 1.0

    def test_direct_substitution(self):
        assert band_coordinate(2.0, SYM) == -0.5

    def test_minus_one_at_mirror_point(self):
        p = ModelParams(1.0, 1.0, 2.0, -3.0, 4.0, 3.0)
        x = 2 * 0.5 - (-1.0)
        assert band_coordinate(x, p) == pytest.approx(-1.0, rel=1e-14)


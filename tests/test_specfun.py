import math

import numpy as np
import pytest
from scipy import special

from oubv import specfun
from oubv.model import ModelParams
from oubv.specfun import (
    SeriesConvergenceError,
    bessel_i,
    gauss_2f1,
    kummer_phi,
    psi_pair,
)


class TestSeriesControl:
    def test_defaults(self):
        assert specfun.REL_TOL == 1e-12
        assert specfun.MAX_TERMS == 10000


class TestGauss2F1:
    def test_unit_at_zero(self):
        assert gauss_2f1(0.7, 2.3, 1.9, 0.0) == 1.0

    def test_binomial_special_case(self):
        # F(b, beta; beta; z) = (1 - z)^(-b)
        assert gauss_2f1(0.5, 2.0, 2.0, -3.0) == pytest.approx(0.5, rel=1e-12)

    def test_log_identity(self):
        # F(1, 1; 2; z) = -log(1 - z) / z at z = -1
        assert gauss_2f1(1.0, 1.0, 2.0, -1.0) == pytest.approx(
            math.log(2.0), rel=1e-10)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 1.0, -2.0, 0.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 1.0, 2.0, 1.0)

    def test_against_scipy(self):
        for b0 in (0.3, 1.0, 2.5):
            for b1 in (0.5, 1.7):
                for beta in (0.9, 2.2):
                    for z in (-8.0, -1.0, -0.2, 0.0, 0.4, 0.9):
                        assert gauss_2f1(b0, b1, beta, z) == pytest.approx(
                            float(special.hyp2f1(b0, b1, beta, z)), rel=1e-9)

    def test_continuation_consistency(self):
        # Direct series on [0, 0.5] vs the Pfaff route through z/(z-1).
        for z in np.linspace(0.0, 0.5, 6):
            direct = gauss_2f1(0.8, 1.4, 2.1, float(z))
            w = z / (z - 1.0) if z > 0 else 0.0
            routed = (1.0 - z) ** (-0.8) * gauss_2f1(0.8, 2.1 - 1.4, 2.1, float(w))
            assert routed == pytest.approx(direct, rel=1e-10)

    def test_nonconvergence_reported(self, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_TERMS", 50)
        with pytest.raises(SeriesConvergenceError):
            gauss_2f1(1.0, 1.0, 2.0, 0.999999)


class TestKummerPhi:
    def test_unit_at_zero(self):
        assert kummer_phi(1.3, 2.7, 0.0) == 1.0

    def test_exponential(self):
        assert kummer_phi(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-12)

    def test_expm1_identity(self):
        # Phi(1, 2; z) = (e^z - 1) / z
        assert kummer_phi(1.0, 2.0, 2.0) == pytest.approx(
            (math.e ** 2 - 1.0) / 2.0, rel=1e-12)

    def test_zero_alpha_exact(self):
        for beta in (0.5, 1.0, 7.3):
            for z in (-11.0, -0.5, 0.0, 2.0, 40.0):
                assert kummer_phi(0.0, beta, z) == 1.0

    def test_reflection_identity(self):
        for alpha in (0.5, 1.0, 3.0):
            for beta in (1.5, 2.0, 6.0):
                for z in (-4.0, -1.0, 0.3, 2.0):
                    lhs = kummer_phi(alpha, beta, z)
                    rhs = math.exp(z) * kummer_phi(beta - alpha, beta, -z)
                    assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_against_scipy(self):
        for alpha in (0.5, 2.0, 4.0):
            for beta in (1.1, 3.0, 8.0):
                for z in (-6.0, -0.7, 0.0, 1.3, 9.0):
                    assert kummer_phi(alpha, beta, z) == pytest.approx(
                        float(special.hyp1f1(alpha, beta, z)), rel=1e-9)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            kummer_phi(1.0, -1.0, 0.5)


def _bessel_i0_oracle(z: float, terms: int = 30) -> float:
    return sum((z / 2.0) ** (2 * n) / math.factorial(n) ** 2
               for n in range(terms))


class TestBesselI:
    def test_values_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(1, 0.0) == 0.0

    def test_i0_oracle(self):
        assert bessel_i(0, 2.0) == pytest.approx(_bessel_i0_oracle(2.0), rel=1e-12)
        assert bessel_i(0, 2.0) == pytest.approx(2.2795853023360673, rel=1e-12)

    def test_against_scipy(self):
        for z in (0.0, 0.1, 1.0, 4.5, 20.0):
            assert bessel_i(0, z) == pytest.approx(float(special.iv(0, z)), rel=1e-10)
            assert bessel_i(1, z) == pytest.approx(float(special.iv(1, z)), rel=1e-10)

    def test_derivative_identity(self):
        # d/dz I0 = I1, central differences on [0, 10]
        h = 1e-5
        for z in np.linspace(0.1, 10.0, 23):
            approx = (bessel_i(0, z + h) - bessel_i(0, z - h)) / (2 * h)
            assert abs(approx - bessel_i(1, z)) < 1e-6

    def test_bad_order(self):
        with pytest.raises(ValueError):
            bessel_i(2, 1.0)

    def test_negative_argument(self):
        with pytest.raises(ValueError):
            bessel_i(0, -0.5)


class TestPsiPair:
    def test_zero_time(self):
        p = ModelParams(1.0, 2.0, 1.0, -1.0, 1.0, 1.0)
        assert psi_pair(0.0, 3.0, p) == (0.0, 0.0)

    def test_degenerate_rate(self):
        # lambda0 * lambda1 = 0 leaves only the first odd-count term
        p = ModelParams(0.0, 2.0, 1.0, -1.0, 1.0, 1.0)
        for z in (-1.5, 0.0, 2.0):
            psi0, psi1 = psi_pair(0.7, z, p)
            assert psi0 == 0.0
            assert psi1 == pytest.approx(0.7 * kummer_phi(1.0, 2.0, z), rel=1e-12)

    def test_sinh_collapse(self):
        p = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        _, psi1 = psi_pair(1.0, 0.0, p)
        assert psi1 == pytest.approx(math.sinh(1.0), rel=1e-12)

    def test_cosh_collapse(self):
        p = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        psi0, _ = psi_pair(1.0, 0.0, p)
        assert psi0 == pytest.approx(math.cosh(1.0) - 1.0, rel=1e-12)

    def test_overflow_reported(self):
        p = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        with pytest.raises(SeriesConvergenceError):
            psi_pair(10000.0, 0.0, p)

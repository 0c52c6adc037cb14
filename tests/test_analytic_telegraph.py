import functools
import math

import mpmath as mp
import numpy as np
import pytest

from oubv.analytic import (
    mgf_restricted,
    occupation_probs,
    telegraph_cov,
    telegraph_density,
    telegraph_moment,
)
from oubv.model import ModelParams, Regime
from oubv.specfun import bessel_i

MIRROR = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
MIRROR_ASYM = ModelParams(1.0, 3.0, 1.0, -1.0, 1.0, 1.0)
GENERAL = ModelParams(1.0, 2.0, 1.0, -1.0, 1.0, 1.0)
SKEWED = ModelParams(0.5, 1.7, 2.0, -0.3, 1.0, 1.0)
SKEWED_RATES = ModelParams(2.5, 0.4, 1.5, -1.5, 1.0, 1.0)

REGIMES = (Regime.R0, Regime.R1)
DPS = 40

# grid A: unit rates and velocities; grid B: fast, unequal switching over
# long horizons, where |M t| reaches 4e4
GRID_A = {"MIRROR": MIRROR, "MIRROR_ASYM": MIRROR_ASYM, "GENERAL": GENERAL}
GRID_A_TIMES = (1e-2, 0.3, 0.8, 2.0, 10.0, 30.0, 100.0)
GRID_B = {"61-89": ModelParams(61.0, 89.0, 1.0, -1.0, 1.0, 1.0),
          "3-50": ModelParams(3.0, 50.0, 1.0, -1.0, 1.0, 1.0),
          "100-100": ModelParams(100.0, 100.0, 2.0, -2.0, 1.0, 1.0)}
GRID_B_TIMES = (0.1, 1.0, 10.0, 74.0, 200.0)


def telegraph_moment_symmetric(order, i, j, t, params):
    """Closed-form restricted moment E[T(t)^order ; regime(t) = j | i] for
    equal switching rates and mirrored velocities, order 1 or 2."""
    lam, a = params.lambda0, params.a0
    assert params.lambda1 == lam > 0 and params.a1 == -a
    decay = math.exp(-2.0 * lam * t)
    if order == 1:
        if i != j:
            return 0.0
        value = a / (2.0 * lam) * (1.0 - decay)
        return value if i == Regime.R0 else -value
    if i == j:
        return a * a * t / (2.0 * lam) * (1.0 - decay)
    return (a * a * t / (2.0 * lam) * (1.0 + decay)
            - a * a / (2.0 * lam * lam) * (1.0 - decay))


def mp_generator_moments(t, params):
    """E[T(t)^k ; regime j | regime i] as ``moments[i][k][j]``, k <= 2.

    Row i of expm(M t) at 40 digits for the row-vector generator
    M = [[Q, A, 0], [0, Q, 2 A], [0, 0, Q]], A = diag(a0, a1), of the
    regime law and the restricted first and second telegraph moments.
    """
    with mp.workdps(DPS):
        l0, l1, a0, a1 = (mp.mpf(v) for v in (params.lambda0, params.lambda1,
                                              params.a0, params.a1))
        q = ((-l0, l0), (l1, -l1))
        m = mp.zeros(6, 6)
        for k in range(3):
            for r in range(2):
                for c in range(2):
                    m[2 * k + r, 2 * k + c] = q[r][c]
                if k:
                    m[2 * k - 2 + r, 2 * k + r] = k * (a0, a1)[r]
        e = mp.expm(m * mp.mpf(t))
        return [[[e[i, 2 * k + j] for j in range(2)] for k in range(3)]
                for i in range(2)]


def mp_cov(i, t, s, params):
    """E[T(t) T(s) | i] = E[T(s)^2 | i] + sum_j E[T(s); j | i] E_j[T(t-s)]."""
    with mp.workdps(DPS):
        at_s = mp_generator_moments(s, params)[i]
        rest = mp_generator_moments(t - s, params)
        return sum(at_s[2]) + sum(at_s[1][j] * sum(rest[j][1])
                                  for j in range(2))


def mp_paper_series(t, params):
    """The paper's restricted moments ``moments[i][k][j]``, k = 1, 2.

    Sums over the switch count with the Kummer-function combinations
    G1, H1 (first moment) and G2, H2 (second moment) of argument
    (lambda0 - lambda1) t from regime 0 and its negative from regime 1;
    the diagonal terms carry (l0 l1)^n t^(2n + k) / (2n)!, the
    off-diagonal ones l_i (l0 l1)^n t^(2n + k + 1) / (2n + 1)!.
    """
    moments = [[None, [0, 0], [0, 0]] for _ in range(2)]
    with mp.workdps(DPS):
        l0, l1, a, t = (mp.mpf(v) for v in (params.lambda0, params.lambda1,
                                            params.a0, t))
        tol = mp.mpf(10) ** -DPS
        for i in range(2):
            rate = (l0, l1)[i]
            arg = (l0 - l1) * (t if i == 0 else -t)
            phi = functools.lru_cache(None)(lambda p, b: mp.hyp1f1(p, b, arg))
            for k in (1, 2):
                for j in range(2):
                    if i == j:
                        lead, offset = t ** k, 1
                    else:
                        lead, offset = rate * t ** (k + 1), 2
                    total, coeff, n = mp.mpf(0), lead, 0
                    while n < 3 or coeff > tol * lead:
                        f = mp.mpf(2 * n) / (2 * n + 1)
                        if (k, i == j) == (1, True):
                            g = phi(n, 2 * n + 1) - f * phi(n + 1, 2 * n + 2)
                        elif k == 1:
                            g = phi(n + 1, 2 * n + 2) - phi(n + 2, 2 * n + 3)
                        elif i == j:
                            g = (f * phi(n + 2, 2 * n + 3)
                                 - 2 * f * phi(n + 1, 2 * n + 2)
                                 + phi(n, 2 * n + 1))
                        else:
                            g = (mp.mpf(2 * n + 4) / (2 * n + 3)
                                 * phi(n + 3, 2 * n + 4)
                                 - 2 * phi(n + 2, 2 * n + 3)
                                 + phi(n + 1, 2 * n + 2))
                        total += coeff * g
                        coeff *= (l0 * l1 * t * t
                                  / ((2 * n + offset) * (2 * n + offset + 1)))
                        n += 1
                    sign = -1 if (k, i) == (1, 1) else 1
                    front = sign * a ** k * mp.exp(-rate * t)
                    moments[i][k][j] = front * total
    return moments


def _exact_zero(order, i, j, params):
    # equal rates: the off-diagonal first moment vanishes by symmetry
    return order == 1 and i != j and params.lambda0 == params.lambda1


def _check_moments(t, params, rel):
    """Every restricted moment within ``rel`` of the 40-digit generator; an
    exact zero within rel (|a| t)^order absolute."""
    want = mp_generator_moments(t, params)
    for order in (1, 2):
        for i in REGIMES:
            for j in REGIMES:
                got = telegraph_moment(order, i, j, t, params)
                exact = float(want[i][order][j])
                if _exact_zero(order, i, j, params):
                    bound = rel * (abs(params.a0) * t) ** order
                    assert abs(got) <= bound, (order, i, j, got)
                else:
                    assert abs(got - exact) <= rel * abs(exact), \
                        (order, i, j, got, exact)


class TestTelegraphDensity:
    def test_diagonal_atom_mass(self):
        t = 1.3
        d00 = telegraph_density(Regime.R0, Regime.R0, t, GENERAL)
        assert d00.atoms == ((1.0 * t, math.exp(-1.0 * t)),)
        d11 = telegraph_density(Regime.R1, Regime.R1, t, GENERAL)
        assert d11.atoms == ((-1.0 * t, math.exp(-2.0 * t)),)

    def test_off_diagonal_has_no_atom(self):
        d01 = telegraph_density(Regime.R0, Regime.R1, 1.3, GENERAL)
        assert d01.atoms == ()

    @pytest.mark.parametrize("params", [GENERAL, SKEWED])
    @pytest.mark.parametrize("start", [Regime.R0, Regime.R1])
    def test_normalization(self, params, start):
        t = 1.3
        total = 0.0
        for j in (Regime.R0, Regime.R1):
            dist = telegraph_density(start, j, t, params)
            total += dist.mass(*dist.support)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_support(self):
        t = 0.9
        dist = telegraph_density(Regime.R0, Regime.R1, t, SKEWED)
        assert dist.support == (-0.3 * t, 2.0 * t)
        assert dist.density(2.0 * t + 0.1) == 0.0
        assert dist.density(-0.3 * t - 0.1) == 0.0

    def test_symmetric_rate_bessel_form(self):
        # equal rates: cross density (l / 2a) e^(-lt) I0(l sqrt(t^2 - x^2/a^2))
        lam, a, t = 1.0, 1.0, 1.2
        dist = telegraph_density(Regime.R0, Regime.R1, t, MIRROR)
        for x in np.linspace(-a * t + 1e-6, a * t - 1e-6, 9):
            expected = (lam / (2 * a) * math.exp(-lam * t)
                        * bessel_i(0, lam * math.sqrt(t * t - x * x / (a * a))))
            assert dist.density(float(x)) == pytest.approx(expected, rel=1e-12)

    def test_one_switch_exhausts_cross_density(self):
        # lambda1 = 0: exactly one switch, exponential in the regime-0 time
        lam = 1.4
        p = ModelParams(lam, 0.0, 1.0, -1.0, 1.0, 1.0)
        t = 1.1
        dist = telegraph_density(Regime.R0, Regime.R1, t, p)
        for x in np.linspace(-t + 1e-6, t - 1e-6, 7):
            xi = (x + t) / 2.0
            expected = lam * math.exp(-lam * xi) / 2.0
            assert dist.density(float(x)) == pytest.approx(expected, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            telegraph_density(Regime.R0, Regime.R0, 0.0, GENERAL)
        velocity_flipped = ModelParams(1.0, 1.0, 1.0, 2.0, 1.0, 10.0)
        with pytest.raises(ValueError, match="a0 > a1"):
            telegraph_density(Regime.R0, Regime.R0, 1.0, velocity_flipped)


class TestTelegraphMoment:
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("i", [Regime.R0, Regime.R1])
    @pytest.mark.parametrize("j", [Regime.R0, Regime.R1])
    def test_series_matches_symmetric_closed_form(self, order, i, j):
        t = 0.8
        series = telegraph_moment(order, i, j, t, MIRROR)
        closed = telegraph_moment_symmetric(order, i, j, t, MIRROR)
        if closed == 0.0:
            assert abs(series) < 1e-12
        else:
            assert series == pytest.approx(closed, rel=1e-9)

    def test_symmetric_first_moment(self):
        t = 0.8
        expected = 0.5 * (1.0 - math.exp(-2.0 * t))
        assert telegraph_moment(1, Regime.R0, Regime.R0, t, MIRROR) == \
            pytest.approx(expected, rel=1e-12)
        assert telegraph_moment(1, Regime.R0, Regime.R1, t, MIRROR) == \
            pytest.approx(0.0, abs=1e-14)

    def test_symmetric_second_moment_total(self):
        lam, a, t = 1.0, 1.0, 0.8
        total = (telegraph_moment(2, Regime.R0, Regime.R0, t, MIRROR)
                 + telegraph_moment(2, Regime.R0, Regime.R1, t, MIRROR))
        expected = a * a / (2 * lam * lam) * (math.exp(-2 * lam * t) - 1
                                              + 2 * lam * t)
        assert total == pytest.approx(expected, rel=1e-12)

    def test_no_switching_limits(self):
        # lambda1 = 0, start in regime 0: mass splits between the no-switch
        # event (regime 0, position a t) and one switch (regime 1)
        lam = 1.3
        p = ModelParams(lam, 0.0, 1.0, -1.0, 1.0, 1.0)
        t = 0.9
        assert telegraph_moment(1, Regime.R0, Regime.R0, t, p) == \
            pytest.approx(t * math.exp(-lam * t), rel=1e-12)

    def test_at_zero(self):
        assert telegraph_moment(1, Regime.R0, Regime.R0, 0.0, MIRROR_ASYM) == 0.0

    def test_velocity_precondition(self):
        with pytest.raises(ValueError, match="mirrored"):
            telegraph_moment(1, Regime.R0, Regime.R0, 1.0,
                             ModelParams(1.0, 1.0, 1.0, -2.0, 1.0, 1.0))

    def test_bad_order(self):
        with pytest.raises(ValueError):
            telegraph_moment(3, Regime.R0, Regime.R0, 1.0, MIRROR)


class TestTelegraphCov:
    def test_symmetric_closed_form(self):
        lam, a, t, s = 1.0, 1.0, 1.0, 0.4
        expected = (a * a / (4 * lam * lam)
                    * (4 * lam * s - (1 + math.exp(-2 * lam * (t - s)))
                       * (1 - math.exp(-2 * lam * s))))
        assert telegraph_cov(Regime.R0, t, s, MIRROR) == pytest.approx(
            expected, rel=1e-13)

    def test_degenerates_to_second_moment(self):
        # s -> t: the product moment approaches E[T(t)^2]
        t = 1.0
        second = (telegraph_moment(2, Regime.R0, Regime.R0, t, GENERAL)
                  + telegraph_moment(2, Regime.R0, Regime.R1, t, GENERAL))
        close = telegraph_cov(Regime.R0, t, t - 1e-7, GENERAL)
        assert close == pytest.approx(second, rel=1e-5)

    def test_ordering_required(self):
        with pytest.raises(ValueError):
            telegraph_cov(Regime.R0, 0.4, 1.0, MIRROR)

    def test_time_domain(self):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            telegraph_cov(Regime.R0, math.inf, 0.4, MIRROR)
        with pytest.raises(ValueError, match="t > s > 0"):
            telegraph_cov(Regime.R0, math.nan, 0.4, MIRROR)


class TestGeneratorRoute:
    """Moments and covariance against a 40-digit generator exponential."""

    @pytest.mark.parametrize("t", GRID_A_TIMES)
    @pytest.mark.parametrize("name", GRID_A)
    def test_grid_a_moments(self, name, t):
        _check_moments(t, GRID_A[name], 1e-12)

    @pytest.mark.parametrize("t", GRID_A_TIMES)
    @pytest.mark.parametrize("name", GRID_A)
    def test_grid_a_cov(self, name, t):
        params = GRID_A[name]
        for i in REGIMES:
            want = float(mp_cov(i, t, 0.4 * t, params))
            got = telegraph_cov(i, t, 0.4 * t, params)
            assert abs(got - want) <= 1e-12 * abs(want), (i, got, want)

    @pytest.mark.parametrize("t", GRID_B_TIMES)
    @pytest.mark.parametrize("name", GRID_B)
    def test_grid_b_moments(self, name, t):
        _check_moments(t, GRID_B[name], 2e-12)

    @pytest.mark.parametrize("t", GRID_B_TIMES)
    @pytest.mark.parametrize("name", GRID_B)
    def test_grid_b_cov(self, name, t):
        params = GRID_B[name]
        for i in REGIMES:
            want = float(mp_cov(i, t, 0.4 * t, params))
            got = telegraph_cov(i, t, 0.4 * t, params)
            assert abs(got - want) <= 2e-12 * abs(want), (i, got, want)

    @pytest.mark.parametrize("t", GRID_A_TIMES)
    @pytest.mark.parametrize("name", GRID_A)
    def test_paper_series_matches_generator(self, name, t):
        # the paper's G/H Kummer-combination series, both at 40 digits
        params = GRID_A[name]
        series = mp_paper_series(t, params)
        exact = mp_generator_moments(t, params)
        for order in (1, 2):
            for i in range(2):
                for j in range(2):
                    got, want = series[i][order][j], exact[i][order][j]
                    if _exact_zero(order, i, j, params):
                        assert abs(got) <= 1e-30 * (params.a0 * t) ** order
                    else:
                        assert abs(got - want) <= 1e-30 * abs(want), \
                            (order, i, j)


class TestMgfRestricted:
    def test_no_switch_term(self):
        # n = 0 collapses to the pure exponential of the sojourn
        z, t = 0.4, 0.9
        p = MIRROR_ASYM
        expected = math.exp(-(p.lambda0 - p.a0 * z) * t)
        assert mgf_restricted(z, t, 0, Regime.R0, p) == pytest.approx(
            expected, rel=1e-14)

    def test_even_terms_sum_to_occupation(self):
        p = GENERAL
        t = 0.9
        total = sum(mgf_restricted(0.0, t, n, Regime.R0, p)
                    for n in range(0, 60, 2))
        assert total == pytest.approx(occupation_probs(t, p)[0], abs=1e-10)

    def test_odd_terms_sum_to_occupation(self):
        p = GENERAL
        t = 0.9
        total = sum(mgf_restricted(0.0, t, n, Regime.R1, p)
                    for n in range(1, 61, 2))
        assert total == pytest.approx(occupation_probs(t, p)[2], abs=1e-10)

    def test_all_terms_sum_to_one_at_zero(self):
        total = sum(mgf_restricted(0.0, 1.0, n, Regime.R0, GENERAL)
                    for n in range(0, 41))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("params", [MIRROR_ASYM, SKEWED_RATES])
    @pytest.mark.parametrize("z", [-0.5, 0.3])
    @pytest.mark.parametrize("n", range(6))
    def test_against_kummer_form(self, n, z, params):
        # Regime 1 is regime 0 of the mirrored process: rates swapped, T -> -T
        def from_r0(z, lead, other, t):
            with mp.workdps(DPS):
                z, lead, other, t = (mp.mpf(v) for v in (z, lead, other, t))
                a = mp.mpf(params.a0)
                coeff = ((lead * other) ** (n // 2) * t ** n / mp.factorial(n)
                         * (lead if n % 2 else 1))
                return (coeff * mp.hyp1f1((n + 1) // 2, n + 1,
                                          (lead - other - 2 * a * z) * t)
                        * mp.exp(-(lead - a * z) * t))

        l0, l1 = params.lambda0, params.lambda1
        for t in (0.4, 1.7):
            for start, want in ((Regime.R0, from_r0(z, l0, l1, t)),
                                (Regime.R1, from_r0(-z, l1, l0, t))):
                got = mgf_restricted(z, t, n, start, params)
                assert abs(got - want) <= 1e-13 * abs(want), (start, t)

    def test_at_zero_time(self):
        assert mgf_restricted(0.3, 0.0, 0, Regime.R0, MIRROR) == 1.0
        assert mgf_restricted(0.3, 0.0, 2, Regime.R0, MIRROR) == 0.0

    def test_velocity_precondition(self):
        with pytest.raises(ValueError, match="mirrored"):
            mgf_restricted(0.1, 1.0, 0, Regime.R0,
                           ModelParams(1.0, 1.0, 2.0, -1.0, 1.0, 1.0))

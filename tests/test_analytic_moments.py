import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oubv.analytic import (
    _mgf_gamma_series,
    _occupation_series,
    hyper_quad,
    joint_distribution,
    kac_limit_reference,
    laplace_falling,
    mean_X,
    mean_X_symmetric,
    mgf_gamma,
    mgf_restricted,
    occupation_probs,
    reachable_interval,
    tau_cross,
    telegraph_density,
    telegraph_moment,
    two_state_route,
    var_X_symmetric,
)
from oubv.model import ModelParams, Regime, pattern
from oubv.simulate import chunk_rng, sample_path

SYM = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
ASYM = ModelParams(1.0, 2.0, 1.0, -2.0, 1.0, 3.0)
MGF = ModelParams(1.0, 0.5, 1.0, -1.0, 2.0, 1.0)
L0Z = ModelParams(0.0, 1.0, 1.0, -1.0, 1.0, 1.0)
L1Z = ModelParams(1.0, 0.0, 1.0, -1.0, 1.0, 1.0)
MIRROR_ASYM = ModelParams(1.0, 3.0, 1.0, -1.0, 1.0, 1.0)

# each function of a time, as a function of that time alone
TIME_DOMAIN = {
    "mean_X": lambda t: mean_X(t, 0.3, Regime.R0, ASYM),
    "mean_X_symmetric": lambda t: mean_X_symmetric(t, 0.3, Regime.R0, SYM),
    "var_X_symmetric": lambda t: var_X_symmetric(t, SYM),
    "occupation_probs": lambda s: occupation_probs(s, ASYM),
    "mgf_gamma": lambda t: mgf_gamma(t, Regime.R0, MGF),
    "joint_distribution": lambda t: joint_distribution(t, 1, 0.0, Regime.R0,
                                                       SYM),
    "telegraph_moment": lambda t: telegraph_moment(2, Regime.R0, Regime.R1,
                                                   t, MIRROR_ASYM),
    "tau_cross": lambda t: tau_cross("tau0", 0.1, t, 0.2, SYM),
    "mgf_restricted": lambda t: mgf_restricted(0.2, t, 1, Regime.R0,
                                               MIRROR_ASYM),
    "kac_limit_reference": lambda t: kac_limit_reference(t, 1.0, 1.0, 1.0),
    "reachable_interval": lambda t: reachable_interval(t, 0.2, SYM),
    "telegraph_density": lambda t: telegraph_density(Regime.R0, Regime.R1, t,
                                                     SYM),
    "pattern": lambda t: pattern(Regime.R0, 0.3, t, SYM),
    # a zero rate ends the switch loop at once, whatever the horizon
    "sample_path": lambda t: sample_path(L0Z, 0.3, Regime.R0, t,
                                         chunk_rng(1, 0)),
}

# each transform or closed form as a function of one other argument alone
FINITE_DOMAIN = {
    "hyper_quad": lambda q: hyper_quad(q, ASYM),
    "laplace_falling": lambda q: laplace_falling(q, 1.6, Regime.R0, ASYM),
    "laplace_falling_zero_rate": lambda q: laplace_falling(q, 1.8, Regime.R0,
                                                           L1Z),
    "mgf_restricted": lambda z: mgf_restricted(z, 1.0, 3, Regime.R0, SYM),
    "mean_X_symmetric": lambda x: mean_X_symmetric(1.0, x, Regime.R0, SYM),
    "kac_limit_reference": lambda x: kac_limit_reference(1.0, x, 1.0, 1.0),
    "kac_limit_reference_gamma": lambda g: kac_limit_reference(1.0, 0.5, g,
                                                               1.0),
    "kac_limit_reference_sigma": lambda s: kac_limit_reference(1.0, 0.5, 1.0,
                                                               s),
    "joint_distribution": lambda x: joint_distribution(1.0, 1, x, Regime.R0,
                                                       SYM),
    "tau_cross": lambda x: tau_cross("tau0", 0.1, 1.0, x, SYM),
}


@pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
@pytest.mark.parametrize("name", TIME_DOMAIN)
def test_time_domain(name, value):
    with pytest.raises(ValueError, match="must be nonnegative and finite"):
        TIME_DOMAIN[name](value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FINITE_DOMAIN)
def test_non_finite_argument(name, value):
    with pytest.raises(ValueError, match="finite"):
        FINITE_DOMAIN[name](value)


def _generator(p):
    """M = [[Q, diag(a)], [0, Q - diag(gamma)]], the forward generator of
    (regime law, restricted means E[X_t; regime j]), as an mpmath matrix.
    The entries are summed at the working precision: in floats, -l0 - g0
    is rounded, and at (61, 64, -1, -1, 0.10000000000000002, 0.1) that
    put the parts' size 1e-15 above the bound _check_mean_x asserts."""
    l0, l1, a0, a1, g0, g1 = map(mpmath.mpf, (p.lambda0, p.lambda1, p.a0,
                                              p.a1, p.gamma0, p.gamma1))
    return mpmath.matrix([[-l0, l0, a0, 0], [l1, -l1, 0, a1],
                          [0, 0, -l0 - g0, l0], [0, 0, l1, -l1 - g1]])


def _generator_mean(t, x, start, p):
    """Mean from [e_start, x e_start] expm(M t) at 40 digits, and the size
    of the four parts it sums (regime drifts and carried start point)."""
    with mpmath.workdps(40):
        e = mpmath.expm(_generator(p) * mpmath.mpf(t))
        x = mpmath.mpf(x)
        parts = [e[start, 2], e[start, 3],
                 x * e[2 + start, 2], x * e[2 + start, 3]]
        return mpmath.fsum(parts), mpmath.fsum(abs(v) for v in parts)


def _check_mean_x(t, x, start, p):
    """mean_X is within 1e-12 relative of the 40-digit generator
    exponential, or raises where the mean is below 1e-3 of the bound
    |x| + max|a_j| (1 - exp(-g t)) / g on its parts (g = min gamma_j)."""
    mean, size = _generator_mean(t, x, start, p)
    with mpmath.workdps(40):
        g = mpmath.mpf(min(p.gamma0, p.gamma1))
        bound = (abs(mpmath.mpf(x)) + max(abs(p.a0), abs(p.a1))
                 * -mpmath.expm1(-g * t) / g)
        assert size <= bound * (1 + mpmath.mpf("1e-15"))
    try:
        value = mean_X(t, x, start, p)
    except ValueError as exc:
        assert "cancel" in str(exc)
        assert abs(mean) < 1.01e-3 * bound, "raised above the bound"
        return
    # 5e-324 is the spacing of the floats below the normal range
    error = abs(mpmath.mpf(value) - mean)
    assert error <= 1e-12 * abs(mean) + 5e-324, (t, x, start, p)


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
                    assert general == pytest.approx(closed, rel=1e-12)

    def test_decays_from_inside_band(self):
        assert abs(mean_X(6.0, 0.5, Regime.R0, SYM)) < abs(
            mean_X(0.5, 0.5, Regime.R0, SYM))

    @pytest.mark.parametrize("start", [Regime.R0, Regime.R1])
    @pytest.mark.parametrize("p", [ASYM, SYM, MGF, L0Z, L1Z],
                             ids=["ASYM", "SYM", "MGF", "L0Z", "L1Z"])
    def test_against_forty_digit_generator(self, p, start):
        for x in (-0.5, 0.0, 0.3, 2.0):
            for t in (1e-4, 0.5, 2.0, 10.0, 40.0):
                _check_mean_x(t, x, start, p)

    @pytest.mark.parametrize("t", [20.0, 40.0])
    def test_cancelling_mean_raises(self, t):
        # symmetric parameters from x = 0: the regime parts are about 0.17
        # each and their sum is 4e-9 at t = 20, 8e-18 at t = 40
        with pytest.raises(ValueError, match="cancel"):
            mean_X(t, 0.0, Regime.R0, SYM)

    @given(l0=st.floats(0.0, 100.0), l1=st.floats(0.0, 100.0),
           a0=st.floats(-5.0, 5.0), a1=st.floats(-5.0, 5.0),
           g0=st.floats(0.1, 10.0), g1=st.floats(0.1, 10.0),
           t=st.floats(1e-4, 50.0), x=st.floats(-5.0, 5.0),
           start=st.sampled_from([Regime.R0, Regime.R1]))
    @settings(max_examples=200, deadline=None)
    # the oracle once rounded its generator's diagonal to floats, which put
    # the parts' size here 1e-15 above the bound
    @example(l0=61.0, l1=64.0, a0=-1.0, a1=-1.0, g0=0.10000000000000002,
             g1=0.1, t=1.0, x=0.0, start=Regime.R0)
    def test_domain_sweep(self, l0, l1, a0, a1, g0, g1, t, x, start):
        assume(a1 / g1 < a0 / g0)
        _check_mean_x(t, x, start, ModelParams(l0, l1, a0, a1, g0, g1))

    def test_negative_or_nan_time_rejected(self):
        for t in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                mean_X(t, 0.3, Regime.R0, ASYM)
        for x in (math.nan, math.inf):
            with pytest.raises(ValueError, match="x must be finite"):
                mean_X(1.0, x, Regime.R0, ASYM)


class TestPsiSeriesAgainstGenerator:
    """The paper's psi-series forms are blocks of the generator exponential
    that ``mean_X`` uses: the upper-left block is the occupation law and the
    lower-right block's row sums are E[exp(-int gamma)].  The series forms
    are called directly: past 2 delta t = 4 the public functions take the
    eigen route."""

    @pytest.mark.parametrize("p, grid", [(ASYM, (0.7, 5.0, 20.0, 50.0)),
                                         (MGF, (0.5, 1.0, 5.0, 10.0))],
                             ids=["ASYM", "MGF"])
    def test_blocks(self, p, grid):
        for t in grid:
            e = expm(np.array(_generator(p).tolist(), dtype=float) * t)
            assert _occupation_series(t, p) == pytest.approx(
                tuple(e[:2, :2].ravel()), rel=1e-13)
            for start in (Regime.R0, Regime.R1):
                assert _mgf_gamma_series(t, start, p) == pytest.approx(
                    e[2 + start, 2:].sum(), rel=1e-13)


def _two_state_reference(t, p):
    """The occupation law and E[exp(-int gamma)] from both starts, from
    40-digit exponentials of Q and Q - diag(gamma)."""
    with mpmath.workdps(40):
        l0, l1, g0, g1 = map(mpmath.mpf, (p.lambda0, p.lambda1,
                                          p.gamma0, p.gamma1))
        t = mpmath.mpf(t)
        q = mpmath.expm(mpmath.matrix([[-l0, l0], [l1, -l1]]) * t)
        k = mpmath.expm(mpmath.matrix([[-l0 - g0, l0], [l1, -l1 - g1]]) * t)
        return ([q[0, 0], q[0, 1], q[1, 0], q[1, 1]],
                [k[0, 0] + k[0, 1], k[1, 0] + k[1, 1]])


_SWEEP_RATES = (0.0, 1e-12, 0.3, 5.0, 40.0)
_SWEEP_GAMMAS = ((1.0, 1.0), (1e-12, 2.0), (3.0, 0.5), (0.5, 40.0),
                 (2.0, 2.000000001))


class TestTwoStateRoutes:
    """``occupation_probs`` and ``mgf_gamma`` on both routes of
    ``two_state_route``: the psi-series while 2 delta t <= 4, the eigen
    form beyond."""

    @pytest.mark.parametrize("l1", _SWEEP_RATES)
    @pytest.mark.parametrize("l0", _SWEEP_RATES)
    def test_against_forty_digit_expm(self, l0, l1):
        # zero and 1e-12 rates, lambda_i = 5 against lambda_o = 1e-12, and
        # horizons out to 1e4, where the series used to overflow; values
        # below 1e-290 are left out
        for g0, g1 in _SWEEP_GAMMAS:
            p = ModelParams(l0, l1, 1.0, -1.0, g0, g1)
            for t in (0.05, 0.3, 0.7, 2.0, 5.0, 20.0, 50.0, 200.0, 800.0,
                      1e4):
                occupation, mgf = _two_state_reference(t, p)
                got = (occupation_probs(t, p),
                       [mgf_gamma(t, start, p)
                        for start in (Regime.R0, Regime.R1)])
                for values, wants in zip(got, (occupation, mgf)):
                    for value, want in zip(values, wants):
                        if abs(want) < 1e-290:
                            continue
                        error = abs(mpmath.mpf(value) - want)
                        assert error <= 1e-12 * abs(want), (p, t, value)

    @pytest.mark.parametrize("p", [ASYM, MGF, SYM, L0Z,
                                   ModelParams(5.0, 1e-12, 1.0, -1.0,
                                               0.5, 40.0)],
                             ids=["ASYM", "MGF", "SYM", "L0Z", "fast-slow"])
    def test_routes_agree_at_the_switch(self, p):
        for start in (Regime.R0, Regime.R1):
            for relaxed in (False, True):
                _, _, delta = two_state_route(1.0, start, p, relaxed)
                edge = 2.0 / delta
                below, above = edge * (1 - 1e-15), edge * (1 + 1e-15)
                routes = [two_state_route(t, start, p, relaxed)[0]
                          for t in (below, above)]
                assert routes == ["series", "eigen"]
                if relaxed:
                    pair = [mgf_gamma(t, start, p) for t in (below, above)]
                    series = _mgf_gamma_series(above, start, p)
                    assert pair[0] == pytest.approx(pair[1], rel=1e-13)
                    assert series == pytest.approx(pair[1], rel=1e-13)
                else:
                    pair = [occupation_probs(t, p) for t in (below, above)]
                    series = _occupation_series(above, p)
                    assert pair[0] == pytest.approx(pair[1], rel=1e-13)
                    assert series == pytest.approx(pair[1], rel=1e-13)

    def test_harness_points_take_the_series(self):
        # gap times horizon: 2.1 for occupation_pi01, 2.06 for mgf_gamma_r0
        assert two_state_route(0.7, Regime.R0, ASYM)[0] == "series"
        assert two_state_route(1.0, Regime.R0, MGF, relaxed=True)[0] == "series"


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

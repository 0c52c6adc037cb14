import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from oubv import cli, simulate
from oubv.analytic import mean_X_symmetric
from oubv.model import ModelParams, Regime, pattern, t_star
from oubv.simulate import (
    ChainState,
    MCConfig,
    advance,
    chunk_rng,
    estimate,
    estimate_moments,
    estimate_variance,
    eval_path,
    falling_times,
    functional_constant,
    functional_exp_q_falling,
    functional_x_at,
    histogram,
    init_state,
    regime_integral,
    sample_functional,
    sample_path,
    worker_count,
)

SYM = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
ASYM = ModelParams(1.0, 2.0, 1.0, -2.0, 1.0, 3.0)


class TestSamplePath:
    def test_deterministic_per_seed(self):
        a = sample_path(SYM, 0.2, Regime.R0, 5.0, chunk_rng(99, 0))
        b = sample_path(SYM, 0.2, Regime.R0, 5.0, chunk_rng(99, 0))
        assert a == b

    def test_no_switches_when_rate_zero(self):
        p = ModelParams(0.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        path = sample_path(p, 0.3, Regime.R0, 4.0, chunk_rng(1, 0))
        assert path.switches == ()
        for t in (0.0, 1.0, 4.0):
            x, regime, n = eval_path(path, t)
            assert regime == Regime.R0
            assert n == 0
            assert x == pattern(Regime.R0, 0.3, t, p)

    def test_structure(self):
        path = sample_path(ASYM, 0.1, Regime.R1, 8.0, chunk_rng(5, 0))
        assert len(path.switches) > 0
        epochs = [s[0] for s in path.switches]
        assert all(e2 > e1 for e1, e2 in zip(epochs, epochs[1:]))
        assert all(e <= path.horizon for e in epochs)
        regimes = [path.start_regime] + [s[1] for s in path.switches]
        assert all(r2 == r1.other for r1, r2 in zip(regimes, regimes[1:]))

    def test_switch_values_chain_by_pattern(self):
        path = sample_path(ASYM, 0.1, Regime.R1, 8.0, chunk_rng(5, 0))
        prev_t, prev_regime, prev_x = 0.0, path.start_regime, path.x0
        for epoch, regime, x in path.switches:
            flowed = pattern(prev_regime, prev_x, epoch - prev_t, ASYM)
            assert x == pytest.approx(flowed, rel=1e-12, abs=1e-12)
            prev_t, prev_regime, prev_x = epoch, regime, x

    def test_band_absorption(self):
        # paths started inside the band never leave it
        low = ASYM.fixed_point(Regime.R1)
        high = ASYM.fixed_point(Regime.R0)
        for k in range(200):
            path = sample_path(ASYM, 0.2, Regime.R0, 6.0, chunk_rng(3, k))
            for _, _, x in path.switches:
                assert low <= x <= high
            for t in np.linspace(0.0, 6.0, 25):
                x, _, _ = eval_path(path, float(t))
                assert low <= x <= high


class TestEvalPath:
    def test_at_zero(self):
        path = sample_path(SYM, 0.7, Regime.R1, 3.0, chunk_rng(11, 0))
        assert eval_path(path, 0.0) == (0.7, Regime.R1, 0)

    def test_at_switch_epoch(self):
        path = sample_path(SYM, 0.7, Regime.R1, 10.0, chunk_rng(11, 0))
        assert path.switches
        epoch, regime, x_switch = path.switches[0]
        x, r, n = eval_path(path, epoch)
        assert x == pytest.approx(x_switch, rel=1e-12)
        assert (r, n) == (regime, 1)

    def test_piecing_equals_direct(self):
        path = sample_path(SYM, 0.7, Regime.R1, 10.0, chunk_rng(11, 0))
        t, s = 7.5, 7.1
        x_s, r_s, _ = eval_path(path, s)
        # no switch between s and t for this seed segment: verify via count
        _, _, n_s = eval_path(path, s)
        _, _, n_t = eval_path(path, t)
        if n_s == n_t:
            pieced = pattern(r_s, x_s, t - s, SYM)
            direct, _, _ = eval_path(path, t)
            assert pieced == pytest.approx(direct, rel=1e-12)

    def test_out_of_range(self):
        path = sample_path(SYM, 0.7, Regime.R1, 3.0, chunk_rng(11, 0))
        with pytest.raises(ValueError):
            eval_path(path, 3.5)
        with pytest.raises(ValueError):
            eval_path(path, -0.1)


class TestTelegraphValues:
    def test_at_zero(self):
        state = init_state(10, 0.3, Regime.R0)
        advance(state, 0.0, ASYM, chunk_rng(21, 0))
        assert np.all(state.occupation1 == 0.0)
        assert np.all(regime_integral(state, 0.0, ASYM.a0, ASYM.a1) == 0.0)

    def test_before_first_switch(self):
        # a row that never switched reads exactly a_i t and gamma_i t,
        # from either start
        t = 0.4
        for start in Regime:
            state = init_state(2_000, 0.0, start)
            advance(state, t, ASYM, chunk_rng(21, 0))
            unswitched = state.nswitch == 0
            assert unswitched.any() and not unswitched.all()
            tv = regime_integral(state, t, ASYM.a0, ASYM.a1)
            gv = regime_integral(state, t, ASYM.gamma0, ASYM.gamma1)
            assert np.all(tv[unswitched] == ASYM.velocity(start) * t)
            assert np.all(gv[unswitched] == ASYM.relaxation(start) * t)

    @pytest.mark.parametrize("start", [Regime.R0, Regime.R1])
    def test_matches_path_segment_sums(self, start):
        # one row drawn from a stream makes the same draws as sample_path
        # from that stream, so the two walk the same path; T(t) and the
        # relaxation integral must equal that path's segment sums
        t, switched = 3.0, 0
        for k in range(300):
            path = sample_path(ASYM, 0.4, start, t, chunk_rng(78, k))
            state = init_state(1, 0.4, start)
            advance(state, t, ASYM, chunk_rng(78, k))
            assert state.nswitch[0] == len(path.switches)
            switched += bool(path.switches)
            bounds = [0.0] + [s[0] for s in path.switches] + [t]
            regimes = [start] + [s[1] for s in path.switches]
            for v in ((ASYM.a0, ASYM.a1), (ASYM.gamma0, ASYM.gamma1)):
                parts = [v[r] * (hi - lo)
                         for r, lo, hi in zip(regimes, bounds, bounds[1:])]
                got = float(regime_integral(state, t, *v)[0])
                scale = math.fsum(abs(p) for p in parts)
                assert abs(got - math.fsum(parts)) <= 1e-13 * scale
        assert switched > 200

    def test_solution_formula_reconstruction(self):
        # x0 e^(-G(t)) + sum of segment-exact forced terms equals the path,
        # G(t) being the relaxation rate integrated along the path
        for k in range(20):
            path = sample_path(ASYM, 0.4, Regime.R1, 3.0, chunk_rng(77, k))
            t = 2.7
            forced = 0.0
            prev, regime, g_acc = 0.0, path.start_regime, 0.0
            events = [s for s in path.switches if s[0] < t]
            for epoch, new_regime, _ in events + [(t, None, None)]:
                dt = epoch - prev
                g_r = ASYM.relaxation(regime)
                a_r = ASYM.velocity(regime)
                forced += a_r * math.exp(g_acc) * (math.exp(g_r * dt) - 1) / g_r
                g_acc += g_r * dt
                prev, regime = epoch, new_regime
            reconstructed = math.exp(-g_acc) * (0.4 + forced)
            direct, _, _ = eval_path(path, t)
            assert reconstructed == pytest.approx(direct, rel=1e-10, abs=1e-10)


class TestFallingTime:
    @given(lambda0=st.floats(0.0, 10.0), gamma0=st.floats(0.1, 10.0),
           gamma1=st.floats(0.1, 10.0), low=st.floats(-5.0, 5.0),
           width=st.floats(1e-3, 5.0), above=st.floats(0.0, 50.0),
           n=st.integers(1, 300), seed=st.integers(0, 2 ** 32))
    @example(lambda0=1.0, gamma0=1.0, gamma1=1.0, low=-1.0, width=2.0,
             above=1.0, n=1000, seed=9)
    @settings(max_examples=100, deadline=None)
    def test_deterministic_crossing_when_no_switching(
            self, lambda0, gamma0, gamma1, low, width, above, n, seed):
        # lambda1 = 0: every replicate from regime 1 falls in at exactly t*(x)
        p = ModelParams(lambda0, 0.0, (low + width) * gamma0, low * gamma1,
                        gamma0, gamma1)
        x = p.fixed_point(Regime.R0) + above
        values = falling_times(p, x, Regime.R1, chunk_rng(seed, 0), n)
        assert values.tobytes() == np.full(n, t_star(x, p)).tobytes()

    def test_lower_bound(self):
        values = falling_times(SYM, 2.0, Regime.R1, chunk_rng(4, 0), 100_000)
        assert values.min() >= t_star(2.0, SYM) - 1e-12

    def test_near_edge_is_fast(self):
        values = falling_times(SYM, 1.0 + 1e-12, Regime.R1, chunk_rng(4, 1),
                               1000)
        assert values.max() < 0.1

    def test_infinite_when_stuck_in_regime0(self):
        p = ModelParams(0.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        values = falling_times(p, 2.0, Regime.R1, chunk_rng(4, 2), 1000)
        assert np.isinf(values).any()
        assert np.isfinite(values).any()

    def test_start_regime0_with_zero_rate_rejected(self):
        p = ModelParams(0.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            falling_times(p, 2.0, Regime.R0, chunk_rng(4, 3), 10)

    def test_max_switches_surfaced(self, monkeypatch):
        monkeypatch.setattr(simulate, "DEFAULT_MAX_SWITCHES", 2)
        with pytest.raises(RuntimeError, match="max_switches"):
            falling_times(SYM, 3.0, Regime.R0, chunk_rng(4, 4), 1000)

    def test_below_edge_rejected(self):
        with pytest.raises(ValueError, match="x must exceed"):
            falling_times(SYM, 0.5, Regime.R0, chunk_rng(4, 5), 10)

    def test_band_edge_start(self):
        # from regime 1 the edge is crossed at once; from regime 0 at the
        # first switch, whose time is the first holding time drawn
        p = ModelParams(2.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        edge = p.a0 / p.gamma0
        from_r1 = falling_times(p, edge, Regime.R1, chunk_rng(4, 7), 50)
        assert np.all(from_r1 == 0.0)
        from_r0 = falling_times(p, edge, Regime.R0, chunk_rng(4, 8), 50)
        first = chunk_rng(4, 8).standard_exponential(50) / p.lambda0
        assert np.array_equal(from_r0, first)

    def test_nan_start_rejected(self):
        # no replicate could ever cross: rejected before any draw
        with pytest.raises(ValueError, match="x must exceed"):
            falling_times(SYM, math.nan, Regime.R0, chunk_rng(4, 6), 5)

    def test_infinite_start_rejected(self, monkeypatch):
        # nothing falls in from +inf: rejected before any draw, not after
        # the switch budget runs out
        monkeypatch.setattr(simulate, "DEFAULT_MAX_SWITCHES", 50)
        with pytest.raises(ValueError, match="x must be finite"):
            falling_times(SYM, math.inf, Regime.R1, chunk_rng(4, 6), 5)


class TestAdvance:
    def test_zero_rate_pure_flow(self):
        p = ModelParams(0.0, 0.0, 1.0, -1.0, 1.0, 1.0)
        state = init_state(100, 0.25, Regime.R0)
        advance(state, 1.5, p, chunk_rng(8, 0))
        assert np.all(state.nswitch == 0)
        assert np.all(state.x == pattern(Regime.R0, 0.25, 1.5, p))
        assert np.all(regime_integral(state, 1.5, p.a0, p.a1) == p.a0 * 1.5)
        assert np.all(regime_integral(state, 1.5, p.gamma0, p.gamma1)
                      == p.gamma0 * 1.5)

    def test_two_windows_equal_one(self):
        # advancing in two windows is the same process (memorylessness);
        # moments must agree across the two schemes
        cfg_n = 40_000
        one = init_state(cfg_n, 0.0, Regime.R0)
        advance(one, 2.0, SYM, chunk_rng(12, 0))
        two = init_state(cfg_n, 0.0, Regime.R0)
        rng = chunk_rng(12, 1)
        advance(two, 0.8, SYM, rng)
        advance(two, 1.2, SYM, rng)
        se = np.std(one.x) / math.sqrt(cfg_n) * math.sqrt(2.0)
        assert abs(one.x.mean() - two.x.mean()) < 4 * se

    @pytest.mark.parametrize("dt", [math.nan, [0.5, math.nan, 1.0], -1.0,
                                    math.inf, [0.5, math.inf, 1.0]])
    def test_bad_duration_rejected(self, dt):
        state = init_state(3, 0.2, Regime.R0)
        with pytest.raises(ValueError, match="must be nonnegative and finite"):
            advance(state, np.asarray(dt), SYM, chunk_rng(8, 2))
        assert np.all(state.x == 0.2)

    def test_max_switches_surfaced(self, monkeypatch):
        monkeypatch.setattr(simulate, "DEFAULT_MAX_SWITCHES", 2)
        state = init_state(100, 0.0, Regime.R0)
        with pytest.raises(RuntimeError, match="max_switches exceeded"):
            advance(state, 1.0, _kac_params(1e4), chunk_rng(8, 3))

    def test_per_replicate_durations(self):
        p = ModelParams(0.0, 0.0, 1.0, -1.0, 1.0, 1.0)
        state = init_state(3, 0.0, Regime.R0)
        advance(state, np.array([0.5, 1.0, 2.0]), p, chunk_rng(8, 1))
        for k, t in enumerate((0.5, 1.0, 2.0)):
            assert state.x[k] == pattern(Regime.R0, 0.0, t, p)

    def test_first_switch_epoch_recorded(self):
        # The scalar path records switch epochs; advance does not, but its
        # share of rows switched by t = 1 must follow the same law.
        rng = chunk_rng(13, 0)
        paths = [sample_path(SYM, 0.0, Regime.R0, 2.0, rng)
                 for _ in range(20_000)]
        epochs = np.array([p.switches[0][0] for p in paths if p.switches])
        assert np.all(epochs > 0)
        assert np.all(epochs <= 2.0)
        # first switch of a rate-1 chain: Exp(1) truncated to the window
        expected = 1.0 - math.exp(-1.0 * 1.0)
        observed = float((epochs <= 1.0).sum()) / len(paths)
        assert observed == pytest.approx(expected, abs=0.015)
        state = init_state(50_000, 0.0, Regime.R0)
        advance(state, 1.0, SYM, chunk_rng(13, 1))
        assert float((state.nswitch > 0).mean()) == pytest.approx(expected,
                                                                abs=0.01)


def reference_advance(state, dt, params, rng):
    """The per-switch loop ``advance`` replaced: every pass re-selects the
    active rows and gathers and scatters them in ``state``."""
    n = state.x.size
    remaining = np.broadcast_to(np.asarray(dt, dtype=float), (n,)).copy()
    if np.any(remaining < 0):
        raise ValueError("advance duration must be nonnegative")
    lam = np.array([params.lambda0, params.lambda1])
    gam = np.array([params.gamma0, params.gamma1])
    vel = np.array([params.a0, params.a1])
    fp = vel / gam
    while True:
        idx = np.nonzero(remaining > 0.0)[0]
        if idx.size == 0:
            break
        r = state.regime[idx]
        lam_r = lam[r]
        draws = rng.standard_exponential(idx.size)
        with np.errstate(divide="ignore"):
            tau = np.where(lam_r > 0.0, draws / np.where(lam_r > 0.0, lam_r, 1.0),
                           np.inf)
        rem = remaining[idx]
        step = np.minimum(tau, rem)
        fp_r = fp[r]
        g_r = gam[r]
        state.x[idx] = fp_r + (state.x[idx] - fp_r) * np.exp(-g_r * step)
        in1 = r == 1
        state.occupation1[idx[in1]] += step[in1]
        switched = tau < rem
        swi = idx[switched]
        if swi.size:
            state.regime[swi] = 1 - state.regime[swi]
            state.nswitch[swi] += 1
        remaining[idx] = np.where(switched, rem - step, 0.0)


def _kac_params(lam):
    a = math.sqrt(lam)
    return ModelParams(lam, lam, a, -a, 1.0, 1.0)


# (params, replicates, successive windows): dense and sparse switching,
# unequal rates, zero rates, per-replicate windows (some empty), two windows
BIT_IDENTITY_CASES = {
    "dense_1e4": (_kac_params(1e4), 300, [0.3]),
    "dense_1e2": (_kac_params(1e2), 5_000, [1.0]),
    "sparse": (SYM, 20_000, [2.0]),
    "asymmetric": (ASYM, 20_000, [1.5]),
    "zero_rates": (ModelParams(0.0, 0.0, 1.0, -1.0, 1.0, 1.0), 100, [1.5]),
    "zero_rate0": (ModelParams(0.0, 2.0, 1.0, -1.0, 1.0, 2.0), 5_000, [1.5]),
    "zero_rate1": (ModelParams(2.0, 0.0, 1.0, -1.0, 1.0, 2.0), 5_000, [1.5]),
    "per_replicate": (ASYM, 5_000, [np.linspace(0.0, 3.0, 5_000)]),
    "two_windows": (ASYM, 10_000, [0.37, np.linspace(0.1, 2.0, 10_000)]),
    "two_windows_dense": (_kac_params(1e2), 2_000, [0.3, 0.4]),
    # the second window starts with mixed regimes and ~30 switches a row
    "two_windows_dense_1e4": (_kac_params(1e4), 300, [0.003, 0.01]),
    # from regime 0 the first window leaves rows in both regimes; regime 1
    # is never left, so its rows finish on the first pass of the second
    # window and the rest share regime 0 from there on
    "mixed_then_shared": (ModelParams(2.0, 0.0, 1.0, -1.0, 1.0, 2.0), 5_000,
                          [0.5, 1.0]),
}


def assert_matches_reference(params, n, start, windows, seed=61):
    states, rngs = [], []
    for step_fn in (advance, reference_advance):
        state = init_state(n, 0.3, start)
        rng = chunk_rng(seed, 0)
        for window in windows:
            step_fn(state, window, params, rng)
        states.append(state)
        rngs.append(rng)
    new, ref = states
    for field in dataclasses.fields(ChainState):
        a, b = getattr(new, field.name), getattr(ref, field.name)
        assert a.dtype == b.dtype, field.name
        assert np.array_equal(a, b, equal_nan=True), field.name
    # the same number of draws: both streams stand at the same point
    assert np.array_equal(rngs[0].random(4), rngs[1].random(4))


_RATES = st.one_of(st.just(0.0), st.floats(0.05, 30.0))


@st.composite
def advance_cases(draw):
    """(params, n, start, windows, seed): random rates, zero included;
    half the time a0 == a1 with gamma0 != gamma1; one or two windows,
    each one duration for all rows or one per row."""
    lam0, lam1 = draw(_RATES), draw(_RATES)
    if draw(st.booleans()):
        a = draw(st.floats(0.1, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
        g = sorted(draw(st.lists(st.floats(0.1, 5.0), min_size=2,
                                 max_size=2, unique=True)))
        # the band a/gamma1 < a/gamma0 needs gamma1 > gamma0 when a > 0
        g0, g1 = g if a > 0 else g[::-1]
        params = ModelParams(lam0, lam1, a, a, g0, g1)
    else:
        g0, g1 = draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 5.0))
        low, width = draw(st.floats(-3.0, 3.0)), draw(st.floats(1e-3, 3.0))
        params = ModelParams(lam0, lam1, (low + width) * g0, low * g1, g0, g1)
    n = draw(st.integers(1, 60))
    window = st.one_of(st.floats(0.0, 2.0),
                       st.lists(st.floats(0.0, 2.0), min_size=n,
                                max_size=n).map(np.array))
    windows = draw(st.lists(window, min_size=1, max_size=2))
    return (params, n, draw(st.sampled_from(list(Regime))), windows,
            draw(st.integers(0, 2 ** 32)))


class TestAdvanceBitIdentity:
    @pytest.mark.parametrize("start", [Regime.R0, Regime.R1])
    @pytest.mark.parametrize("case", sorted(BIT_IDENTITY_CASES))
    def test_matches_reference_loop(self, case, start):
        params, n, windows = BIT_IDENTITY_CASES[case]
        assert_matches_reference(params, n, start, windows)

    @given(case=advance_cases())
    # equal velocities, unequal relaxations; the second window starts mixed
    @example(case=(ModelParams(3.0, 5.0, 1.0, 1.0, 1.0, 2.0), 40, Regime.R0,
                   [0.4, np.linspace(0.0, 1.0, 40)], 5))
    @example(case=(ModelParams(0.0, 4.0, -1.0, -1.0, 2.0, 1.0), 30, Regime.R1,
                   [0.3, 0.7], 6))
    @settings(max_examples=150, deadline=None)
    def test_sweep_matches_reference_loop(self, case):
        assert_matches_reference(*case)


def reference_falling_times(params, x, start, rng, n):
    """The falling-time loop the compact one replaced: every pass rescans
    all rows for the ones not yet fallen and treats each regime apart."""
    high = params.a0 / params.gamma0
    low = params.a1 / params.gamma1
    v = np.full(n, float(x))
    regime = np.full(n, int(start), dtype=np.int8)
    elapsed = np.zeros(n)
    out = np.empty(n)
    done = np.zeros(n, dtype=bool)
    lam = np.array([params.lambda0, params.lambda1])
    for _ in range(simulate.DEFAULT_MAX_SWITCHES + 1):
        idx = np.nonzero(~done)[0]
        if idx.size == 0:
            return out
        r = regime[idx]
        lam_r = lam[r]
        draws = rng.standard_exponential(idx.size)
        with np.errstate(divide="ignore"):
            tau = np.where(lam_r > 0.0, draws / np.where(lam_r > 0.0, lam_r, 1.0),
                           np.inf)
        in_r1 = r == 1
        i1 = idx[in_r1]
        if i1.size:
            cross = np.log((v[i1] - low) / (high - low)) / params.gamma1
            tau1 = tau[in_r1]
            crossing = cross <= tau1
            hit = i1[crossing]
            out[hit] = elapsed[hit] + cross[crossing]
            done[hit] = True
            stay = i1[~crossing]
            dt1 = tau1[~crossing]
            fp1 = params.a1 / params.gamma1
            v[stay] = fp1 + (v[stay] - fp1) * np.exp(-params.gamma1 * dt1)
            elapsed[stay] += dt1
            regime[stay] = 0
        i0 = idx[~in_r1]
        if i0.size:
            if params.lambda0 == 0.0:
                out[i0] = np.inf
                done[i0] = True
            else:
                dt0 = tau[~in_r1]
                fp0 = params.a0 / params.gamma0
                v[i0] = fp0 + (v[i0] - fp0) * np.exp(-params.gamma0 * dt0)
                elapsed[i0] += dt0
                regime[i0] = 1
    raise RuntimeError("max_switches exceeded while sampling falling times")


# (params, starts): a zero lambda0 makes the fall from regime 0 infinite,
# which falling_times rejects, so L0Z starts in regime 1 only
FALLING_CASES = {
    "SYM": (SYM, (Regime.R0, Regime.R1)),
    "ASYM": (ASYM, (Regime.R0, Regime.R1)),
    "L0Z": (ModelParams(0.0, 1.0, 1.0, -1.0, 1.0, 1.0), (Regime.R1,)),
    "L1Z": (ModelParams(1.0, 0.0, 1.0, -1.0, 1.0, 1.0), (Regime.R0, Regime.R1)),
    "dense": (ModelParams(50.0, 30.0, 2.0, -1.0, 0.5, 3.0),
              (Regime.R0, Regime.R1)),
}


class TestFallingBitIdentity:
    @pytest.mark.parametrize("n", [1, 1_000, 20_000])
    @pytest.mark.parametrize("scale", [1.0 + 1e-12, 1.5, 4.0, 30.0])
    @pytest.mark.parametrize("case, start", [
        (case, start) for case, (_, starts) in sorted(FALLING_CASES.items())
        for start in starts])
    def test_matches_reference_loop(self, case, start, scale, n):
        params = FALLING_CASES[case][0]
        x = scale * params.a0 / params.gamma0
        rngs = [chunk_rng(62, 0), chunk_rng(62, 0)]
        new = falling_times(params, x, start, rngs[0], n)
        ref = reference_falling_times(params, x, start, rngs[1], n)
        assert np.array_equal(new, ref)
        # the same number of draws: both streams stand at the same point
        assert np.array_equal(rngs[0].random(4), rngs[1].random(4))


class TestValidateBitIdentity:
    def test_validate_equals_reference_loops(self, monkeypatch, capsys):
        # the whole quick tier, Kac checks included, gives the same bytes
        # when both samplers are the reference loops
        monkeypatch.setenv("OUBV_THREADS", "1")
        args = ["validate", "--tier", "quick", "--seed", "42"]
        assert cli.main(args) == 0
        expected = capsys.readouterr().out
        calls = {"advance": 0, "falling_times": 0}

        def counted(name, reference):
            def call(*args):
                calls[name] += 1
                return reference(*args)
            return call

        monkeypatch.setattr(simulate, "advance",
                            counted("advance", reference_advance))
        monkeypatch.setattr(simulate, "falling_times",
                            counted("falling_times", reference_falling_times))
        assert cli.main(args) == 0
        assert capsys.readouterr().out == expected
        assert calls["advance"] > 0 and calls["falling_times"] > 0


class TestEstimateMoments:
    @pytest.mark.parametrize("functional, config", [
        (functional_x_at(1.0, 0.2, Regime.R0), MCConfig(20_000, 5, 7_000)),
        (functional_constant(0.75), MCConfig(1_000, 5)),
        (functional_x_at(1.0, 0.2, Regime.R1), MCConfig(1, 5)),
    ], ids=["random", "constant", "one_replicate"])
    def test_equals_separate_reductions(self, functional, config):
        mean, var = estimate_moments(functional, SYM, config)
        assert mean == estimate(functional, SYM, config)
        assert var == estimate_variance(functional, SYM, config)


class TestEstimate:
    def test_constant_functional(self):
        est = estimate(functional_constant(1.0), SYM,
                       MCConfig(replicates=1000, seed=1))
        assert (est.value, est.std_error) == (1.0, 0.0)
        assert est.replicates == 1000

    def test_x_at_zero(self):
        est = estimate(functional_x_at(0.0, 0.42, Regime.R0), SYM,
                       MCConfig(replicates=500, seed=1))
        assert (est.value, est.std_error) == (0.42, 0.0)

    def test_symmetric_mean_statistical(self):
        cfg = MCConfig(replicates=100_000, seed=2024)
        est = estimate(functional_x_at(1.0, 0.0, Regime.R0), SYM, cfg)
        target = mean_X_symmetric(1.0, 0.0, Regime.R0, SYM)
        assert abs(est.value - target) <= 3.5 * est.std_error

    def test_determinism(self):
        cfg = MCConfig(replicates=30_000, seed=7, chunk=7_000)
        one = estimate(functional_x_at(1.0, 0.0, Regime.R0), SYM, cfg)
        two = estimate(functional_x_at(1.0, 0.0, Regime.R0), SYM, cfg)
        assert one == two

    @pytest.mark.parametrize("value", ["abc", "2.5"])
    def test_bad_thread_count_named(self, monkeypatch, value):
        monkeypatch.setenv("OUBV_THREADS", value)
        with pytest.raises(ValueError, match=re.escape(
                f"OUBV_THREADS must be an integer, got '{value}'")):
            worker_count()

    @pytest.mark.parametrize("value, expected", [("0", 1), ("-3", 1),
                                                 ("2", 2)])
    def test_thread_count_clamped_to_one(self, monkeypatch, value, expected):
        monkeypatch.setenv("OUBV_THREADS", value)
        assert worker_count() == expected

    def test_worker_count_invariance(self, monkeypatch):
        cfg = MCConfig(replicates=30_000, seed=7, chunk=5_000)
        monkeypatch.setenv("OUBV_THREADS", "1")
        serial = estimate(functional_x_at(1.0, 0.0, Regime.R0), SYM, cfg)
        monkeypatch.setenv("OUBV_THREADS", "3")
        threaded = estimate(functional_x_at(1.0, 0.0, Regime.R0), SYM, cfg)
        assert serial == threaded

    def test_exp_q_falling_handles_infinite_times(self):
        p = ModelParams(0.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        cfg = MCConfig(replicates=20_000, seed=3)
        est = estimate(functional_exp_q_falling(0.7, 1.8, Regime.R1), p, cfg)
        expected = math.exp(-(1.0 + 0.7) * t_star(1.8, p))
        assert abs(est.value - expected) <= 4 * est.std_error

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MCConfig(replicates=0, seed=1)
        with pytest.raises(ValueError):
            MCConfig(replicates=10, seed=1, chunk=0)


class TestHistogram:
    def test_deterministic_functional_single_bin(self):
        cfg = MCConfig(replicates=1000, seed=5)
        result = histogram(functional_constant(0.5), SYM, cfg, bins=1,
                           range_=(0.0, 1.0))
        assert result.masses.tolist() == [1.0]

    def test_atom_detection(self):
        cfg = MCConfig(replicates=20_000, seed=6)
        atom_loc = pattern(Regime.R0, 0.0, 1.0, SYM)
        result = histogram(functional_x_at(1.0, 0.0, Regime.R0), SYM, cfg,
                           bins=20, range_=(-1.0, 1.0), atoms=(atom_loc,))
        (loc, mass, se), = result.atoms
        assert loc == atom_loc
        assert abs(mass - math.exp(-1.0)) <= 3.5 * se
        # continuous bins plus atom account for all replicates
        assert result.masses.sum() + mass == pytest.approx(1.0, abs=1e-12)

    def test_empty_range_rejected(self):
        cfg = MCConfig(replicates=10, seed=5)
        with pytest.raises(ValueError, match="range"):
            histogram(functional_constant(0.5), SYM, cfg, bins=2,
                      range_=(1.0, 1.0))


class TestConditionalLawIdentity:
    def test_restart_after_first_switch(self):
        # law of X(t) from (x, regime 0) equals: draw the first switch time,
        # flow to it along the regime-0 pattern, then restart from regime 1
        n = 100_000
        t, x = 1.0, 0.3
        direct = sample_functional(functional_x_at(t, x, Regime.R0), SYM,
                                   MCConfig(replicates=n, seed=31))

        rng = chunk_rng(32, 0)
        taus = rng.standard_exponential(n) / SYM.lambda0
        values = np.empty(n)
        late = taus >= t
        values[late] = pattern(Regime.R0, x, t, SYM)
        idx = np.nonzero(~late)[0]
        starts = np.array([pattern(Regime.R0, x, float(taus[i]), SYM)
                           for i in idx])
        state = init_state(idx.size, 0.0, Regime.R1)
        state.x[:] = starts
        advance(state, t - taus[idx], SYM, rng)
        values[idx] = state.x

        statistic = stats.ks_2samp(direct, values).statistic
        critical = 1.628 * math.sqrt(2.0 / n)  # 1% level, equal sizes
        assert statistic < critical

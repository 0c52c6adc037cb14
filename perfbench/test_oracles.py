"""Tests of the benchmark's references and checks.

    python3 -m pytest -q perfbench

Each reference is compared with a textbook form at a few points, and the
checks are shown to reject outputs off by 1e-6 relative (closed forms) or
by 5 standard errors (Monte Carlo).
"""

from __future__ import annotations

import csv
import io
import math
import sys
from pathlib import Path

import mpmath as mp
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402

SYM = workloads.SYM
ASYM = workloads.ASYM
L1Z = workloads.L1Z


def close(a, b, rtol=1e-13):
    return abs(a - b) <= rtol * max(abs(b), 1e-300)


# --- generator exponentials ---------------------------------------------------

@pytest.mark.parametrize("s", [0.3, 2.0, 50.0])
def test_occupation_matches_two_state_formula(s):
    l0, l1 = ASYM[0], ASYM[1]
    total = l0 + l1
    decay = math.exp(-total * s)
    textbook = (l1 / total + l0 / total * decay, l0 / total * (1 - decay),
                l1 / total * (1 - decay), l0 / total + l1 / total * decay)
    for got, want in zip(oracles.occupation(s, ASYM), textbook):
        assert close(got, want, 1e-14)


def test_mgf_gamma_with_equal_relaxations_is_exponential():
    p = (1.0, 3.0, 1.0, -1.0, 2.5, 2.5)
    for t in (0.5, 4.0):
        for start in (0, 1):
            assert close(oracles.mgf_gamma(t, start, p), math.exp(-2.5 * t), 1e-14)


@pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
def test_symmetric_mean_and_variance(t):
    lam, a, g = 1.0, 1.0, 3.0
    p = (lam, lam, a, -a, g, g)
    x = 0.4
    for start, sign in ((0, 1.0), (1, -1.0)):
        mean, _ = oracles.mean_var(t, x, start, p)
        swing = (math.exp(-2 * lam * t) - math.exp(-g * t)) / (g - 2 * lam)
        assert close(mean, x * math.exp(-g * t) + sign * a * swing, 1e-13)
    # Stationary variance a^2 / (gamma (gamma + 2 lambda)).
    _, var = oracles.mean_var(60.0, 0.0, 0, p)
    assert close(var, a * a / (g * (g + 2 * lam)), 1e-13)


def test_variance_stays_exact_at_the_critical_rate():
    # gamma = 2 lambda, where the package's closed form needs its own branch:
    # Var = a^2/(2 g^2) (1 - exp(-2gt)(1 + 2gt + 2 g^2 t^2)).
    lam, a, t = 1.0, 1.0, 2.0
    g = 2 * lam
    _, var = oracles.mean_var(t, 0.0, 0, (lam, lam, a, -a, g, g))
    gt = g * t
    want = a * a / (2 * g * g) * (1 - math.exp(-2 * gt) * (1 + 2 * gt + 2 * gt * gt))
    assert close(var, want, 1e-13)


def test_kac_exact_tends_to_ou_reference():
    ou_mean, ou_var = oracles.ou_reference(1.0, 1.0, 1.0, 1.0)
    assert close(ou_mean, math.exp(-1.0), 1e-15)
    assert close(ou_var, (1 - math.exp(-2.0)) / 2, 1e-15)
    gaps = []
    for lam in (1e2, 1e4):
        a = math.sqrt(lam)
        mean, var = oracles.mean_var(1.0, 1.0, 0, (lam, lam, a, -a, 1.0, 1.0))
        gaps.append(abs(var - ou_var))
        # start in regime 0 adds a drift transient of order a / (2 lambda)
        assert abs(mean - ou_mean) < 2.0 / math.sqrt(lam)
    assert gaps[1] < gaps[0] / 50


@pytest.mark.parametrize("t", [0.3, 1.7])
def test_symmetric_telegraph_moments(t):
    lam, a = 1.5, 2.0
    p = (lam, lam, a, -a, 1.0, 1.0)
    first = sum(oracles.telegraph_moment(1, 0, j, t, p) for j in (0, 1))
    second = sum(oracles.telegraph_moment(2, 0, j, t, p) for j in (0, 1))
    decay = math.exp(-2 * lam * t)
    assert close(first, a / (2 * lam) * (1 - decay), 1e-13)
    assert close(second, a * a / lam * (t - (1 - decay) / (2 * lam)), 1e-13)


def test_telegraph_covariance_is_the_velocity_double_integral():
    lam, a, t, s = 1.0, 1.0, 1.5, 0.6
    p = (lam, lam, a, -a, 1.0, 1.0)
    # E[T(t) T(s)] = int_0^t int_0^s E[V(u) V(v)] with E[V(u)V(v)] = a^2 e^{-2 lam |u-v|}.
    with mp.workdps(30):
        inner = lambda u: mp.quad(lambda v: a * a * mp.exp(-2 * lam * abs(u - v)),
                                  [0, min(u, s), s])
        want = mp.quad(inner, [0, s, t])
    assert close(oracles.telegraph_cov(0, t, s, p), float(want), 1e-12)


# --- switch counts, transform, crossing times ----------------------------------

@pytest.mark.parametrize("n", [0, 1, 2, 5])
@pytest.mark.parametrize("z", [0.0, 0.4, -0.7])
def test_switch_count_mgf_routes_agree(n, z):
    p = workloads.MIRROR
    for start in (0, 1):
        aug = oracles.switch_count_mgf(z, 1.2, n, start, p)
        kummer = oracles.switch_count_mgf_kummer(z, 1.2, n, start, p)
        assert close(kummer, aug, 1e-13)


def test_switch_count_law_is_poisson_for_equal_rates():
    lam, t = 1.3, 0.9
    p = (lam, lam, 1.0, -1.0, 1.0, 1.0)
    for n in range(6):
        pmf = math.exp(-lam * t) * (lam * t) ** n / math.factorial(n)
        assert close(oracles.switch_count_mgf_kummer(0.0, t, n, 0, p), pmf, 1e-14)


def test_hyper_roots_identities():
    beta0, beta1, b0, b1 = oracles.hyper_roots(0.8, ASYM)
    assert b0 <= b1
    assert close(b0 + b1, beta0 + beta1, 1e-15)
    assert close(b0 * b1, beta0 * beta1 - (ASYM[0] / ASYM[4]) * (ASYM[1] / ASYM[5]),
                 1e-14)
    assert oracles.hyper_roots(0.0, ASYM)[2] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("x", [1.2, 3.0])
def test_transform_matches_direct_construction_when_lambda1_is_zero(x):
    for q in (0.3, 2.0):
        assert close(oracles.laplace_falling(q, x, 0, L1Z),
                     oracles.laplace_falling_special(q, x, 0, L1Z), 1e-13)
        assert close(oracles.laplace_falling(q, x, 1, L1Z),
                     math.exp(-q * oracles.t_star(x, L1Z)), 1e-13)


def test_transform_is_one_at_the_band_edge_and_as_q_vanishes():
    assert oracles.laplace_falling(1.0, 1.0, 1, ASYM) == 1.0
    assert close(oracles.laplace_falling(1e-12, 2.0, 0, ASYM), 1.0, 1e-10)


def test_mean_falling_matches_direct_construction_when_lambda1_is_zero():
    # From regime 0: Exp(lambda0) wait, then the deterministic fall t*.
    l0, g0 = L1Z[0], L1Z[4]
    x = 2.0
    with mp.workdps(30):
        fall = lambda tau: mp.mpf(oracles.t_star(1 + (x - 1) * mp.exp(-g0 * tau), L1Z))
        want = 1 / l0 + mp.quad(lambda tau: l0 * mp.exp(-l0 * tau) * fall(tau),
                                [0, 1, 10, mp.inf])
    assert close(oracles.mean_falling(x, 0, L1Z), float(want), 1e-12)


def test_t_star_is_the_regime1_flow_time():
    x = 2.5
    _, _, a0, a1, g0, g1 = ASYM
    high, low = a0 / g0, a1 / g1
    assert close(oracles.t_star(x, ASYM), math.log((x - low) / (high - low)) / g1)


@pytest.mark.parametrize("branch", ["tau0", "tau1"])
def test_tau_cross_matches_inverted_flow(branch):
    a, g, t, x = 1.0, 1.0, 1.0, 0.2
    emt = math.exp(-g * t)
    for y in (-0.4, 0.3):
        if branch == "tau0":
            arg = (a + g * y + (a - g * x) * emt) / (2 * a)
        else:
            arg = (a - g * y + (a + g * x) * emt) / (2 * a)
        assert close(oracles.tau_cross(branch, y, t, x, SYM), t + math.log(arg) / g,
                     1e-13)


# --- densities -----------------------------------------------------------------

@pytest.mark.parametrize("i", [0, 1])
def test_telegraph_density_mass_and_mean(i):
    p = workloads.TEL
    t = 1.3
    lo, hi = p[3] * t, p[2] * t
    occ = oracles.occupation(t, p)
    for j in (0, 1):
        with mp.workdps(20):
            mass = mp.quad(lambda v: oracles.telegraph_density(i, j, t, float(v), p),
                           [lo, hi])
            mean = mp.quad(lambda v: v * oracles.telegraph_density(i, j, t, float(v), p),
                           [lo, hi])
        atom = math.exp(-p[i] * t) if i == j else 0.0
        edge = (p[2] if i == 0 else p[3]) * t
        assert close(float(mass) + atom, occ[2 * i + j], 1e-10)
        assert close(float(mean) + atom * edge,
                     oracles.telegraph_moment(1, i, j, t, p), 1e-10)


@pytest.mark.parametrize("start", [0, 1])
def test_joint_density_one_switch_integrates_to_poisson_mass(start):
    lam, t, x = SYM[0], 1.0, 0.0
    lo = -1 + (x + 1) * math.exp(-t)
    hi = 1 + (x - 1) * math.exp(-t)
    with mp.workdps(20):
        mass = mp.quad(lambda y: oracles.joint_density(float(y), t, 1, x, start, SYM),
                       [lo, hi])
    assert close(float(mass), lam * t * math.exp(-lam * t), 1e-9)


def test_joint_density_two_switches_matches_textbook_form():
    # Symmetric case: with u = exp(gamma tau) the two-switch image is affine
    # in (u1, u2), which gives the density in closed form.
    a, g, lam, t, x = 1.0, 1.0, 1.0, 1.0, 0.0
    c, w = a / g, math.exp(-g * t)
    for y in (-0.3, 0.1, 0.4):
        # start 0: y = c - 2 c w u2 + 2 c w u1 + (x - c) w; integrate over tau1
        # the Jacobian 1 / (2 c w g u2) where tau1 < tau2 < t.
        def integrand(tau1):
            u1 = math.exp(g * tau1)
            u2 = (c + (x - c) * w + 2 * c * w * u1 - y) / (2 * c * w)
            if not u1 < u2 < 1 / w:
                return 0.0
            return 1.0 / (2 * c * w * g * u2)
        edge = math.log((c - (x - c) * w + y) / (2 * c * w)) / g
        with mp.workdps(20):
            inner = mp.quad(lambda v: integrand(float(v)), [0, min(edge, t)])
        want = lam * lam * math.exp(-lam * t) * float(inner)
        assert close(oracles.joint_density(y, t, 2, x, 0, SYM), want, 1e-9)


# --- the checks reject wrong outputs ------------------------------------------

@pytest.fixture(scope="module")
def closed_forms():
    import oubv.cli
    work = workloads.build("closed_forms", 0)
    workloads.references(work)
    outputs = workloads.run_pass(work, oubv.cli.main)
    return work, outputs


def _perturb_first_nonzero(text: str, factor: float) -> str | None:
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("value")
    for row in rows[1:]:
        if row[col] and float(row[col]) != 0.0:
            row[col] = "%.17g" % (float(row[col]) * factor)
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerows(rows)
            return out.getvalue()
    return None


def test_closed_forms_pass_unchanged(closed_forms):
    work, outputs = closed_forms
    verdict = workloads.check(work, outputs)
    assert verdict.correct, verdict.problems[:5]
    assert verdict.failed == 0
    assert verdict.attempted == sum(len(c.grid) for c in work.inputs)


def test_closed_form_off_by_1e6_relative_is_rejected(closed_forms):
    work, outputs = closed_forms
    seen = set()
    for k, (code, text, err) in enumerate(outputs):
        quantity = work.inputs[k].quantity
        if quantity in seen:
            continue
        bad = _perturb_first_nonzero(text, 1.0 + 1e-6)
        if bad is None:
            continue
        seen.add(quantity)
        broken = list(outputs)
        broken[k] = (code, bad, err)
        verdict = workloads.check(work, broken)
        assert not verdict.correct, quantity
    # every quantity of the CLI registry has a nonzero row on the grid
    assert len(seen) == 25


def test_error_column_counts_as_failed_not_wrong(closed_forms):
    work, outputs = closed_forms
    code, text, err = outputs[0]
    rows = list(csv.reader(io.StringIO(text)))
    rows[1][rows[0].index("error")] = "Gauss series overflowed"
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    broken = [(4, out.getvalue(), err)] + list(outputs[1:])
    verdict = workloads.check(work, broken)
    assert verdict.failed == 1 and verdict.correct


def _kac_output(work, shift_se=0.0, analytic_factor=1.0, passed="true"):
    ou, exact = work.refs
    lines = ["name,analytic,mc,stderr,z,passed,seed"]
    se = 0.006
    for name, lam in sorted(workloads.KAC_LAMBDAS.items()):
        which = 0 if "_mean_" in name else 1
        mc = exact[lam][which] + shift_se * se
        lines.append(f"{name},{ou[which] * analytic_factor!r},{mc!r},{se!r},"
                     f"0.0,{passed},1")
    return [(0, "\n".join(lines) + "\n", "")]


@pytest.fixture(scope="module")
def kac_work():
    work = workloads.build("kac_dense", 0)
    workloads.references(work)
    return work


def test_kac_check_accepts_exact_values(kac_work):
    assert workloads.check(kac_work, _kac_output(kac_work)).correct


def test_kac_mc_shifted_by_5_se_is_rejected(kac_work):
    assert workloads.check(kac_work, _kac_output(kac_work, shift_se=3.9)).correct
    assert not workloads.check(kac_work, _kac_output(kac_work, shift_se=5.0)).correct
    assert not workloads.check(kac_work, _kac_output(kac_work, shift_se=-5.0)).correct


def test_kac_analytic_off_by_1e6_relative_is_rejected(kac_work):
    verdict = workloads.check(kac_work, _kac_output(kac_work, analytic_factor=1 + 1e-6))
    assert not verdict.correct


def test_kac_failed_rows_are_counted(kac_work):
    out = _kac_output(kac_work, passed="false")
    verdict = workloads.check(kac_work, [(5,) + out[0][1:]])
    assert verdict.failed == 3 and verdict.correct
    assert not workloads.check(kac_work, out).correct  # exit 0 with failed rows


def test_mc_suite_check_counts_failed_and_rejects_short_reports():
    from oubv import harness
    from oubv.simulate import EstimateWithCI
    work = workloads.build("mc_suite", 0)
    assert len(work.inputs) == 24
    spec = work.inputs[0]
    n = spec.config.replicates
    good = harness.CheckReport(spec.name, 0.5, EstimateWithCI(0.5, 0.01, n, 1), 0.0, True)
    shifted = harness.CheckReport(spec.name, 0.5, EstimateWithCI(0.55, 0.01, n, 1),
                                  5.0, False)
    short = harness.CheckReport(spec.name, 0.5, EstimateWithCI(0.5, 0.01, n - 1, 1),
                                0.0, True)
    work.inputs = [spec]
    work.ops_per_pass = 1
    assert workloads.check(work, [good]).correct
    verdict = workloads.check(work, [shifted])
    assert verdict.failed == 1 and verdict.correct
    assert not workloads.check(work, [short]).correct


# --- the span recorder and the metric names -------------------------------------

def test_metric_names_match_benchmark_json():
    import json
    import spans
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = spans.layer_metrics({}, 0.0, 0.0, 0.0, 0.0)
    assert {k: u for k, (_, u) in got.items()} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s",
                                                       "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_tracer_records_nested_spans_and_restores_functions(monkeypatch):
    # The recorder keeps one span stack; run.py pins one worker thread too.
    monkeypatch.setenv("OUBV_THREADS", "1")
    import spans
    from oubv import ModelParams, Regime, analytic, simulate, specfun
    from oubv.simulate import MCConfig
    original = analytic.occupation_probs, specfun.kummer_phi, simulate.advance
    tracer = spans.Tracer()
    tracer.install((specfun, analytic, simulate))
    try:
        p = ModelParams(*ASYM)
        analytic.occupation_probs(0.7, p)
        functional = simulate.functional_x_at(0.5, 0.0, Regime.R0)
        simulate.estimate(functional, p, MCConfig(replicates=500, seed=3, chunk=200))
    finally:
        tracer.uninstall()
    assert (analytic.occupation_probs, specfun.kummer_phi, simulate.advance) == original
    summary = tracer.summary()
    assert summary["analytic.occupation_probs"]["calls"] == 1
    assert summary["specfun.psi_pair"]["calls"] == 2
    assert summary["specfun.kummer_phi"]["calls"] >= summary["specfun.kummer_phi"]["outer_calls"] > 0
    assert all(entry["self_s"] >= 0.0 for entry in summary.values())
    # three chunks of one estimate, each advanced once
    assert summary["simulate.advance"]["calls"] == 3
    assert summary["simulate.functional"]["max_bytes"] == 200 * 8
    assert summary["simulate.sample_functional"]["max_bytes"] == 500 * 8
    # the switch count recorded at the boundary equals a rerun's nswitch total
    state = simulate.init_state(200, 0.0, Regime.R0)
    simulate.advance(state, 0.5, p, simulate.chunk_rng(3, 0))
    cols = tracer.table()
    first = (cols["name"] == tracer.names.index("simulate.advance")).nonzero()[0][0]
    assert cols["switches"][first] == int(state.nswitch.sum())

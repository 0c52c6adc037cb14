"""The three workloads: their inputs, one timed pass, and output checks.

A workload is built in two steps so the costs land in the right metric:
``build(name, seed)`` makes the inputs (counted in set-up time) and
``references(work)`` computes the independent reference values (counted
in neither set-up nor pass time).  ``run_pass`` is the timed part;
``check`` compares one pass's outputs with the references.

An operation is one CSV row of an ``oubv`` CLI call, or one CheckReport.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field

NAMES = ("kac_dense", "closed_forms", "mc_suite")

# Parameter tuples (lambda0, lambda1, a0, a1, gamma0, gamma1).
ASYM = (1.0, 2.0, 1.0, -2.0, 1.0, 3.0)
SYM = (1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
SYM_FAST = (2.0, 2.0, 1.5, -1.5, 1.0, 1.0)
MIRROR = (1.0, 3.0, 1.0, -1.0, 1.0, 1.0)
TEL = (1.0, 2.0, 1.0, -1.0, 1.0, 1.0)
MGF = (1.0, 0.5, 1.0, -1.0, 2.0, 1.0)
L0Z = (0.0, 1.0, 1.0, -1.0, 1.0, 1.0)
L1Z = (1.0, 0.0, 1.0, -1.0, 1.0, 1.0)
KAC = (100.0, 100.0, 10.0, -10.0, 1.0, 1.0)

# Highest switch count summed for the property sum_n mgf-restricted(z=0) = 1;
# at rates <= 3 and t <= 2 the omitted tail is below 1e-20.
MGF_RESTRICTED_NMAX = 40

# Relative tolerance of each closed form against its reference.  Each is
# at least 30 times the largest error seen on the grid below, and all are
# far below the 1e-6 relative error the checks must reject.  The
# mean-falling fallback differentiates the transform by finite differences;
# with gamma0 != gamma1 it is off by up to 2.6e-9 on this grid.
TOLERANCE = {
    "laplace-falling": 1e-10,
    "mean-falling/fallback": 1e-7,
    "mean-falling": 3e-11,
    "occupation": 1e-11,
    "mgf-gamma": 3e-12,
    "mean-x": 1e-12,
    "telegraph-moment": 3e-12,
    "mgf-restricted": 1e-12,
}
DEFAULT_TOLERANCE = 1e-13
# Values this small are compared absolutely (zero-valued densities, the
# far tail of the switch-count law).
ABS_FLOOR = 1e-300


def tolerance(quantity: str, method: str) -> float:
    for prefix, tol in TOLERANCE.items():
        if f"{quantity}/{method}".startswith(prefix):
            return tol
    return DEFAULT_TOLERANCE


@dataclass
class Call:
    """One ``oubv analytic`` call: a quantity swept over a grid."""

    quantity: str
    params: tuple
    ev: dict
    grid: list

    def argv(self) -> list[str]:
        keys = ("lambda0", "lambda1", "a0", "a1", "gamma0", "gamma1")
        # Every evaluation key is passed, so the references never rely on
        # the CLI's defaults.  "--key value" goes as two tokens: the CLI
        # reads "--key=1.5" as a dotted configuration key.
        args = ["analytic", "--quantity", self.quantity]
        for k, v in list(zip(keys, self.params)) + list(self._base().items()):
            args += [f"--{k}", repr(v)]
        # The grid goes in as the dotted key: "--grid -0.4,0.3" would be
        # taken for an option by argparse.
        return args + ["--eval.grid", ",".join(repr(float(g)) for g in self.grid)]

    def principal(self) -> str:
        q = self.quantity
        if q.startswith(("laplace-falling", "mean-falling")):
            return "x"
        if q.startswith("occupation"):
            return "s"
        if q.startswith(("tau-cross", "joint-density", "telegraph-density")):
            return "z"
        if q.startswith("hyper-quad"):
            return "q"
        return "t"

    def _base(self) -> dict:
        return {"t": 1.0, "s": 0.5, "x": 1.5, "q": 1.0, "z": 0.0, "n": 0,
                "start": 0, **self.ev}

    def points(self) -> list[dict]:
        return [dict(self._base(), **{self.principal(): g}) for g in self.grid]


def _calls() -> list[Call]:
    c = []
    for start in (0, 1):
        c.append(Call("laplace-falling", ASYM, {"q": 1.0, "start": start},
                      [1.0, 1.2, 1.6, 3.0, 10.0]))
    c.append(Call("laplace-falling", SYM, {"q": 0.3, "start": 1}, [1.0, 2.0, 5.0]))
    c.append(Call("laplace-falling-special", L0Z, {"q": 0.7, "start": 1},
                  [1.2, 1.8, 3.0]))
    for start in (0, 1):
        c.append(Call("laplace-falling-special", L1Z, {"q": 0.7, "start": start},
                      [1.2, 1.8, 3.0]))
    for start in (0, 1):
        c.append(Call("mean-falling", SYM, {"start": start},
                      [1.2, 1.5, 2.5, 4.0, 10.0]))
        c.append(Call("mean-falling", ASYM, {"start": start}, [1.3, 2.0, 5.0]))
    for k in ("00", "01", "10", "11"):
        c.append(Call(f"occupation-pi{k}", ASYM, {}, [0.7, 5.0, 20.0, 50.0]))
    for start in (0, 1):
        c.append(Call("mgf-gamma", MGF, {"start": start}, [0.5, 1.0, 5.0, 10.0]))
    c.append(Call("mgf-gamma", ASYM, {"start": 0}, [1.0, 20.0]))
    c.append(Call("mean-x", ASYM, {"x": 0.3, "start": 0}, [0.5, 1.5, 4.0, 10.0]))
    c.append(Call("mean-x", ASYM, {"x": -0.5, "start": 1}, [0.7, 2.0]))
    for start in (0, 1):
        c.append(Call("mean-x-symmetric", SYM, {"x": 0.4, "start": start},
                      [0.5, 1.0, 2.0, 10.0]))
    c.append(Call("var-x-symmetric", SYM, {}, [0.5, 2.0, 10.0, 40.0]))
    c.append(Call("var-x-symmetric", SYM_FAST, {}, [0.5, 2.0, 10.0]))
    for which in ("mean", "var"):
        c.append(Call(f"kac-reference-{which}", KAC, {"x": 1.0}, [0.5, 1.0, 2.0]))
    for branch in ("tau0", "tau1"):
        c.append(Call(f"tau-cross-{branch}", SYM, {"t": 1.0, "x": 0.2},
                      [-0.4, 0.0, 0.3, 0.6]))
    for start in (0, 1):
        for n in (0, 1, 2):
            c.append(Call("joint-density", SYM,
                          {"t": 1.0, "x": 0.0, "n": n, "start": start},
                          [-0.3, 0.1, 0.4]))
    for i in (0, 1):
        for j in (0, 1):
            c.append(Call("telegraph-density", TEL, {"t": 1.3, "n": j, "start": i},
                          [-0.6, 0.0, 0.5, 1.0]))
    for j in (0, 1):
        for order in (1, 2):
            for start in (0, 1):
                c.append(Call(f"telegraph-moment-j{j}", MIRROR,
                              {"n": order, "start": start}, [0.3, 0.8, 2.0]))
    for start in (0, 1):
        c.append(Call("telegraph-cov", TEL, {"s": 0.4, "start": start},
                      [0.6, 1.0, 2.0]))
    c.append(Call("telegraph-cov", SYM, {"s": 0.4, "start": 0}, [1.0, 2.0]))
    for n in (1, 3):
        c.append(Call("mgf-restricted", MIRROR, {"z": 0.3, "n": n, "start": 0},
                      [0.5, 1.0, 2.0]))
    c.append(Call("mgf-restricted", MIRROR, {"z": -0.5, "n": 2, "start": 1}, [1.0]))
    for n in range(MGF_RESTRICTED_NMAX + 1):
        c.append(Call("mgf-restricted", MIRROR, {"z": 0.0, "n": n, "start": 0},
                      [0.5, 1.0, 2.0]))
    for attr in ("b0", "b1", "beta0", "beta1"):
        c.append(Call(f"hyper-quad-{attr}", ASYM, {}, [0.1, 1.0, 10.0]))
    c.append(Call("hyper-quad-b0", L0Z, {}, [0.5, 2.0]))
    return c


def reference(quantity: str, p: tuple, pt: dict) -> float:
    """Independent value of one analytic CLI row."""
    import oracles  # mpmath stays out of the set-up time
    t, s, x, q, z = pt["t"], pt["s"], pt["x"], pt["q"], pt["z"]
    n, start = int(pt["n"]), int(pt["start"])
    if quantity == "laplace-falling":
        return oracles.laplace_falling(q, x, start, p)
    if quantity == "laplace-falling-special":
        return oracles.laplace_falling_special(q, x, start, p)
    if quantity == "mean-falling":
        return oracles.mean_falling(x, start, p)
    if quantity.startswith("occupation-pi"):
        i, j = int(quantity[-2]), int(quantity[-1])
        return oracles.occupation(s, p)[2 * i + j]
    if quantity == "mgf-gamma":
        return oracles.mgf_gamma(t, start, p)
    if quantity in ("mean-x", "mean-x-symmetric"):
        return oracles.mean_var(t, x, start, p)[0]
    if quantity == "var-x-symmetric":
        return oracles.mean_var(t, 0.0, 0, p)[1]
    if quantity.startswith("kac-reference"):
        mean, var = oracles.ou_reference(t, x, p[4], p[2] / math.sqrt(p[0]))
        return mean if quantity.endswith("mean") else var
    if quantity.startswith("tau-cross"):
        return oracles.tau_cross(quantity[-4:], z, t, x, p)
    if quantity == "joint-density":
        return oracles.joint_density(z, t, n, x, start, p)
    if quantity == "telegraph-density":
        return oracles.telegraph_density(start, n, t, z, p)
    if quantity.startswith("telegraph-moment"):
        return oracles.telegraph_moment(n, start, int(quantity[-1]), t, p)
    if quantity == "telegraph-cov":
        return oracles.telegraph_cov(start, t, s, p)
    if quantity == "mgf-restricted":
        return oracles.switch_count_mgf_kummer(z, t, n, start, p)
    if quantity.startswith("hyper-quad"):
        names = ("beta0", "beta1", "b0", "b1")
        return oracles.hyper_roots(q, p)[names.index(quantity.split("-")[-1])]
    raise KeyError(quantity)


@dataclass
class Work:
    name: str
    inputs: list
    refs: list = field(default_factory=list)
    ops_per_pass: int = 0


def build(name: str, seed: int) -> Work:
    """The workload's inputs; everything here counts as set-up."""
    if name == "kac_dense":
        argv = ["validate", "--tier", "quick", "--only", "kac", "--seed", str(seed)]
        return Work(name, [argv], ops_per_pass=3)
    if name == "closed_forms":
        calls = _calls()
        return Work(name, calls, ops_per_pass=sum(len(c.grid) for c in calls))
    if name == "mc_suite":
        from oubv import harness
        specs = [s for s in harness.suite_specs("full", seed)
                 if "kac" not in s.name]
        return Work(name, specs, ops_per_pass=len(specs))
    raise ValueError(f"unknown workload {name!r}")


KAC_LAMBDAS = {"kac_var_lambda_100": 1e2, "kac_var_lambda_10000": 1e4,
               "kac_mean_lambda_10000": 1e4}


def references(work: Work) -> None:
    """Fill ``work.refs``; computed outside set-up and pass timing."""
    import oracles
    if work.name == "kac_dense":
        # The quick tier's Kac point: t = 1, x = 1, gamma = sigma = 1, start 0,
        # a = sqrt(lambda) so that a^2 / lambda = sigma^2.
        ou = oracles.ou_reference(1.0, 1.0, 1.0, 1.0)
        exact = {}
        for lam in (1e2, 1e4):
            a = math.sqrt(lam)
            exact[lam] = oracles.mean_var(1.0, 1.0, 0, (lam, lam, a, -a, 1.0, 1.0))
        work.refs = [ou, exact]
    elif work.name == "closed_forms":
        work.refs = [[reference(c.quantity, c.params, pt) for pt in c.points()]
                     for c in work.inputs]


def run_pass(work: Work, cli_main):
    """One timed pass; returns the raw outputs for ``check``."""
    if work.name == "mc_suite":
        from oubv import harness
        return [harness.run_check(spec) for spec in work.inputs]
    outputs = []
    for item in work.inputs:
        argv = item if work.name == "kac_dense" else item.argv()
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        outputs.append((code, buf.getvalue(), err.getvalue()))
    return outputs


@dataclass
class Verdict:
    """Outcome of one pass.

    ``failures`` are operations the program itself reports as failed (an
    ``error`` column, a report error, a check that did not pass); they are
    counted, not judged.  ``problems`` are outputs of the other operations
    that disagree with the references or properties.
    """

    attempted: int
    failures: list
    problems: list

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.problems


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * max(abs(ref), ABS_FLOOR)


def check(work: Work, outputs) -> Verdict:
    """Compare one pass's outputs with the references and properties."""
    if work.name == "kac_dense":
        return _check_kac(work, outputs)
    if work.name == "closed_forms":
        return _check_closed_forms(work, outputs)
    return _check_mc_suite(work, outputs)


def _check_kac(work: Work, outputs) -> Verdict:
    (code, text, _), = outputs
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    if sorted(r["name"] for r in rows) != sorted(KAC_LAMBDAS):
        problems.append(f"unexpected rows {[r['name'] for r in rows]}")
    ou, exact = work.refs
    failures = [f"{r['name']} did not pass" for r in rows if r["passed"] != "true"]
    if code != (0 if not failures else 5):
        problems.append(f"validate exit code {code}")
    for r in rows:
        lam = KAC_LAMBDAS.get(r["name"])
        if lam is None:
            continue
        which = 0 if "_mean_" in r["name"] else 1
        if not _close(float(r["analytic"]), ou[which], 1e-12):
            problems.append(f"{r['name']} analytic {r['analytic']} != OU {ou[which]}")
        z = (float(r["mc"]) - exact[lam][which]) / float(r["stderr"])
        if not abs(z) <= 4.0:
            problems.append(f"{r['name']} mc {r['mc']} is {z:.2f} SE from the "
                            f"exact finite-lambda value {exact[lam][which]}")
    return Verdict(work.ops_per_pass, failures, problems)


def _check_closed_forms(work: Work, outputs) -> Verdict:
    problems, failures = [], []
    by_point: dict[tuple, float] = {}
    methods: dict[str, set] = {}
    for call, refs, (code, text, _) in zip(work.inputs, work.refs, outputs):
        rows = list(csv.DictReader(io.StringIO(text)))
        label = f"{call.quantity} {call.params} {call.ev}"
        if len(rows) != len(call.grid):
            problems.append(f"{label}: {len(rows)} rows for {len(call.grid)} points")
            continue
        errors = [f"{label} at {g}: error {row['error']!r}"
                  for g, row in zip(call.grid, rows) if row["error"]]
        failures += errors
        if code != 0 and not errors:
            problems.append(f"{label}: exit code {code}")
        for g, pt, ref, row in zip(call.grid, call.points(), refs, rows):
            if row["error"]:
                continue
            value = float(row["value"])
            tol = tolerance(call.quantity, row["method"])
            if not _close(value, ref, tol):
                problems.append(f"{label} at {g}: {value!r} vs reference {ref!r} "
                                f"(rtol {tol:g})")
            methods.setdefault(call.quantity, set()).add(row["method"])
            by_point[(call.quantity, call.params, tuple(sorted(pt.items())))] = value
    if not failures:
        problems += _properties(work, by_point, methods)
    return Verdict(work.ops_per_pass, failures, problems)


def _properties(work: Work, by_point: dict, methods: dict) -> list:
    problems = []
    # Rows of the occupation matrix sum to one.
    for call in work.inputs:
        if call.quantity != "occupation-pi00":
            continue
        for pt in call.points():
            key = tuple(sorted(pt.items()))
            row0 = [by_point.get((f"occupation-pi0{j}", call.params, key)) for j in (0, 1)]
            row1 = [by_point.get((f"occupation-pi1{j}", call.params, key)) for j in (0, 1)]
            for label, row in (("0", row0), ("1", row1)):
                if None in row or abs(sum(row) - 1.0) > 1e-12:
                    problems.append(f"occupation row {label} at s={pt['s']} sums "
                                    f"to {row}")
    # sum_n E[exp(0 * T); N = n] = 1: the switch-count law is a distribution.
    totals: dict[tuple, float] = {}
    for (quantity, params, key), value in by_point.items():
        pt = dict(key)
        if quantity == "mgf-restricted" and pt["z"] == 0.0:
            k = (params, pt["start"], pt["t"])
            totals[k] = totals.get(k, 0.0) + value
    if not totals:
        problems.append("no switch-count law rows")
    for k, total in totals.items():
        if abs(total - 1.0) > 1e-12:
            problems.append(f"switch-count law at {k} sums to {total!r}")
    # Both mean-falling routes must be exercised.
    if methods.get("mean-falling") != {"series", "fallback"}:
        problems.append(f"mean-falling routes {methods.get('mean-falling')}")
    return problems


def _check_mc_suite(work: Work, reports) -> Verdict:
    problems, failures = [], []
    for spec, rep in zip(work.inputs, reports):
        if rep.error or not rep.passed:
            failures.append(f"{spec.name}: z = {rep.z_score} {rep.error or ''}")
            continue
        if rep.mc_estimate.replicates != spec.config.replicates:
            problems.append(f"{spec.name}: {rep.mc_estimate.replicates} replicates, "
                            f"specified {spec.config.replicates}")
    if len(reports) != len(work.inputs):
        problems.append(f"{len(reports)} reports for {len(work.inputs)} specs")
    return Verdict(work.ops_per_pass, failures, problems)

"""Command-line front end: simulate, evaluate closed forms, validate.

Configuration comes from an optional JSON file (``--config``) with keys
``model.*``, ``mc.*``, ``eval.*``; any flag ``--key value`` with a dotted
key overrides the corresponding path, and the plain flags below are
shorthands for the common ones.  Output is CSV (stdout or ``--out``) with
17-significant-digit numbers so that repeated seeded runs are
byte-identical.

Exit codes: 0 ok, 2 config error, 3 runtime error, 4 series
non-convergence, 5 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Callable, Sequence

import numpy as np

from . import analytic, harness, simulate
from .model import ModelParams, Regime, pattern
from .specfun import SeriesConvergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CONVERGENCE = 4
EXIT_VALIDATION = 5

_DEFAULTS: dict[str, dict] = {
    "model": {"lambda0": 1.0, "lambda1": 1.0, "a0": 1.0, "a1": -1.0,
              "gamma0": 1.0, "gamma1": 1.0},
    "mc": {"replicates": 10_000, "seed": 42, "chunk": 100_000},
    "eval": {"t": 1.0, "s": 0.5, "x": 1.5, "q": 1.0, "z": 0.0, "n": 0,
             "start": 0, "x0": 0.0, "horizon": 1.0, "grid": None},
    "sim": {"target": "paths", "bins": 50, "lo": None, "hi": None},
    "validate": {"tier": "quick", "only": None},
}

_INT_KEYS = {"mc.replicates", "mc.seed", "mc.chunk", "eval.n", "eval.start",
             "sim.bins"}


class ConfigError(ValueError):
    pass


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _coerce(key: str, raw) -> object:
    if raw is None:
        return None
    if key == "eval.grid":
        if isinstance(raw, str):
            return [float(v) for v in raw.split(",") if v.strip()]
        return [float(v) for v in raw]
    if key in _INT_KEYS:
        return int(raw)
    if key in ("sim.target", "validate.tier", "validate.only"):
        return str(raw)
    return float(raw)


def _deep_get(config: dict, dotted: str):
    section, _, leaf = dotted.partition(".")
    return config[section][leaf]


def _deep_set(config: dict, dotted: str, value) -> None:
    section, _, leaf = dotted.partition(".")
    if section not in config or leaf not in config[section]:
        raise ConfigError(f"unknown configuration key {dotted!r}")
    config[section][leaf] = _coerce(dotted, value)


def _extract_dotted_overrides(argv: list[str]) -> tuple[list[str], dict]:
    """Pull ``--sec.key value`` pairs out of argv before argparse runs.

    Only the key decides: ``--x=1.5`` is a plain flag whose value holds a
    dot, ``--eval.x=1.5`` a dotted key.
    """
    rest: list[str] = []
    overrides: dict[str, str] = {}
    i = 0
    while i < len(argv):
        token = argv[i]
        key, has_value, value = token[2:].partition("=")
        if token.startswith("--") and "." in key:
            if not has_value:
                if i + 1 >= len(argv):
                    raise ConfigError(f"flag {token} expects a value")
                i += 1
                value = argv[i]
            overrides[key] = value
        else:
            rest.append(token)
        i += 1
    return rest, overrides


_FLAG_MAP = {
    "lambda0": "model.lambda0", "lambda1": "model.lambda1",
    "a0": "model.a0", "a1": "model.a1",
    "gamma0": "model.gamma0", "gamma1": "model.gamma1",
    "replicates": "mc.replicates", "seed": "mc.seed", "chunk": "mc.chunk",
    "t": "eval.t", "s": "eval.s", "x": "eval.x", "q": "eval.q",
    "z": "eval.z", "n": "eval.n", "start": "eval.start", "x0": "eval.x0",
    "horizon": "eval.horizon", "grid": "eval.grid",
    "target": "sim.target", "bins": "sim.bins", "lo": "sim.lo", "hi": "sim.hi",
    "tier": "validate.tier", "only": "validate.only",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oubv",
        description="bounded-variation OU process: simulate, evaluate, validate")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    common = ("lambda0", "lambda1", "a0", "a1", "gamma0", "gamma1",
              "replicates", "seed", "chunk")

    p_sim = sub.add_parser("simulate", help="draw exact paths or samples")
    p_ana = sub.add_parser("analytic", help="evaluate a closed-form quantity")
    p_val = sub.add_parser("validate", help="run the validation suite")
    for p in (p_sim, p_ana, p_val):
        # also accepted after the subcommand; SUPPRESS keeps a pre-subcommand
        # value from being clobbered by the subparser default
        p.add_argument("--config", default=argparse.SUPPRESS)
        p.add_argument("--out", default=argparse.SUPPRESS)
        for name in common:
            p.add_argument(f"--{name}")
    for name in ("t", "s", "x", "q", "z", "n", "start", "x0", "horizon", "grid"):
        p_sim.add_argument(f"--{name}")
        p_ana.add_argument(f"--{name}")
    p_sim.add_argument("--target", choices=["paths", "falling-time", "histogram"])
    p_sim.add_argument("--bins")
    p_sim.add_argument("--lo")
    p_sim.add_argument("--hi")
    p_ana.add_argument("--quantity", required=True)
    p_val.add_argument("--tier", choices=["quick", "full"])
    p_val.add_argument("--only")
    return parser


def _load_config(args: argparse.Namespace, overrides: dict) -> dict:
    config = {section: dict(values) for section, values in _DEFAULTS.items()}
    if args.config:
        with open(args.config) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON config: {exc}") from exc
        for section, values in data.items():
            if section not in config:
                raise ConfigError(f"unknown configuration section {section!r}")
            if not isinstance(values, dict):
                raise ConfigError(f"section {section!r} must be an object")
            for leaf, value in values.items():
                _deep_set(config, f"{section}.{leaf}", value)
    for dotted, value in overrides.items():
        _deep_set(config, dotted, value)
    for flag, dotted in _FLAG_MAP.items():
        value = getattr(args, flag, None)
        if value is not None:
            _deep_set(config, dotted, value)
    return config


def _model_params(config: dict) -> ModelParams:
    try:
        return ModelParams(**config["model"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _mc_config(config: dict) -> simulate.MCConfig:
    try:
        return simulate.MCConfig(**config["mc"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _start(config: dict) -> Regime:
    value = int(config["eval"]["start"])
    if value not in (0, 1):
        raise ConfigError("start must be 0 or 1")
    return Regime(value)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(config: dict, writer) -> int:
    params = _model_params(config)
    mc = _mc_config(config)
    ev = config["eval"]
    start = _start(config)
    target = config["sim"]["target"]

    if target == "paths":
        writer.writerow(["replicate", "epoch", "regime", "x"])
        horizon = float(ev["horizon"])
        x0 = float(ev["x0"])
        for i in range(mc.replicates):
            rng = simulate.chunk_rng(mc.seed, i)
            path = simulate.sample_path(params, x0, start, horizon, rng)
            writer.writerow([str(i), _fmt(0.0), str(int(start)), _fmt(x0)])
            for epoch, regime, x_switch in path.switches:
                writer.writerow([str(i), _fmt(epoch), str(int(regime)),
                                 _fmt(x_switch)])
            x_end, regime_end, _ = simulate.eval_path(path, horizon)
            writer.writerow([str(i), _fmt(horizon), str(int(regime_end)),
                             _fmt(x_end)])
        return EXIT_OK

    if target == "falling-time":
        x = float(ev["x"])
        if x <= params.a0 / params.gamma0:
            raise ConfigError("x must exceed a0/gamma0")
        values = simulate.sample_functional(
            simulate.functional_falling_time(x, start), params, mc)
        writer.writerow(["replicate", "T"])
        for i, value in enumerate(values):
            writer.writerow([str(i), _fmt(float(value))])
        return EXIT_OK

    if target == "histogram":
        horizon = float(ev["horizon"])
        x0 = float(ev["x0"])
        functional = simulate.functional_x_at(horizon, x0, start)
        lo, hi = config["sim"]["lo"], config["sim"]["hi"]
        if lo is None or hi is None:
            values = simulate.sample_functional(functional, params, mc)
            finite = values[np.isfinite(values)]
            lo = float(finite.min()) if lo is None else float(lo)
            hi = float(finite.max()) if hi is None else float(hi)
            if lo == hi:
                hi = lo + 1.0
        atom_location = pattern(start, x0, horizon, params)
        result = simulate.histogram(functional, params, mc,
                                    bins=int(config["sim"]["bins"]),
                                    range_=(float(lo), float(hi)),
                                    atoms=(atom_location,))
        writer.writerow(["kind", "lo", "hi", "mass", "stderr"])
        for loc, mass, se in result.atoms:
            writer.writerow(["atom", _fmt(loc), _fmt(loc), _fmt(mass), _fmt(se)])
        for k in range(result.masses.size):
            writer.writerow(["bin", _fmt(float(result.edges[k])),
                             _fmt(float(result.edges[k + 1])),
                             _fmt(float(result.masses[k])),
                             _fmt(float(result.std_errors[k]))])
        return EXIT_OK

    raise ConfigError(f"unknown simulate target {target!r}")


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------

def _sigma_from_params(params: ModelParams) -> float:
    if params.lambda0 <= 0:
        raise ConfigError("kac reference requires lambda0 > 0")
    return params.a0 / math.sqrt(params.lambda0)


def _quantity_registry() -> dict[str, tuple[str, Callable]]:
    """quantity name -> (principal eval variable, evaluator).

    Evaluators return (value, method, terms).  Column reuse for quantities
    whose natural arguments exceed the CSV schema: ``z`` doubles as the
    position argument of densities and crossing times, ``n`` as the
    terminal regime of telegraph-density and the order of
    telegraph-moment.
    """

    def laplace(params, ev):
        value = analytic.laplace_falling(ev["q"], ev["x"],
                                         Regime(int(ev["start"])), params)
        return value, "hypergeometric", None

    def laplace_special(params, ev):
        if params.lambda0 == 0.0:
            case = "lambda0_zero"
        elif params.lambda1 == 0.0:
            case = "lambda1_zero"
        else:
            raise ConfigError(
                "laplace-falling-special requires lambda0 == 0 or lambda1 == 0")
        value = analytic.laplace_falling_special(case, ev["q"], ev["x"],
                                                 Regime(int(ev["start"])), params)
        return value, case, None

    def mean_falling(params, ev):
        value, method, terms = analytic.mean_falling_info(
            ev["x"], Regime(int(ev["start"])), params)
        return value, method, terms

    def occupation(index):
        def evaluate(params, ev):
            probs = analytic.occupation_probs(ev["s"], params)
            return probs[index], "series", None
        return evaluate

    def mgf_gamma(params, ev):
        value = analytic.mgf_gamma(ev["t"], Regime(int(ev["start"])), params)
        return value, "series", None

    def mean_x(params, ev):
        value = analytic.mean_X(ev["t"], ev["x"], Regime(int(ev["start"])), params)
        return value, "quadrature", None

    def mean_x_symmetric(params, ev):
        value = analytic.mean_X_symmetric(ev["t"], ev["x"],
                                          Regime(int(ev["start"])), params)
        return value, "closed-form", None

    def var_x_symmetric(params, ev):
        return analytic.var_X_symmetric(ev["t"], params), "closed-form", None

    def kac(index):
        def evaluate(params, ev):
            value = analytic.kac_limit_reference(
                ev["t"], ev["x"], params.gamma0, _sigma_from_params(params))[index]
            return value, "closed-form", None
        return evaluate

    def tau(branch):
        def evaluate(params, ev):
            value = analytic.tau_cross(branch, ev["z"], ev["t"], ev["x"], params)
            return value, "closed-form", None
        return evaluate

    def joint_density(params, ev):
        value = analytic.joint_density(ev["z"], ev["t"], int(ev["n"]), ev["x"],
                                       Regime(int(ev["start"])), params)
        return value, "closed-form", None

    def telegraph_density(params, ev):
        dist = analytic.telegraph_density(Regime(int(ev["start"])),
                                          Regime(int(ev["n"])), ev["t"], params)
        return dist.density(ev["z"]), "bessel-series", None

    def telegraph_moment(j):
        def evaluate(params, ev):
            value = analytic.telegraph_moment(int(ev["n"]),
                                              Regime(int(ev["start"])),
                                              Regime(j), ev["t"], params)
            return value, "series", None
        return evaluate

    def telegraph_cov(params, ev):
        value = analytic.telegraph_cov(Regime(int(ev["start"])), ev["t"],
                                       ev["s"], params)
        return value, "series", None

    def mgf_restricted(params, ev):
        value = analytic.mgf_restricted(ev["z"], ev["t"], int(ev["n"]),
                                        Regime(int(ev["start"])), params)
        return value, "series", None

    def hyper_quad(attr):
        def evaluate(params, ev):
            return getattr(analytic.hyper_quad(ev["q"], params), attr), \
                "closed-form", None
        return evaluate

    return {
        "laplace-falling": ("x", laplace),
        "laplace-falling-special": ("x", laplace_special),
        "mean-falling": ("x", mean_falling),
        "occupation-pi00": ("s", occupation(0)),
        "occupation-pi01": ("s", occupation(1)),
        "occupation-pi10": ("s", occupation(2)),
        "occupation-pi11": ("s", occupation(3)),
        "mgf-gamma": ("t", mgf_gamma),
        "mean-x": ("t", mean_x),
        "mean-x-symmetric": ("t", mean_x_symmetric),
        "var-x-symmetric": ("t", var_x_symmetric),
        "kac-reference-mean": ("t", kac(0)),
        "kac-reference-var": ("t", kac(1)),
        "tau-cross-tau0": ("z", tau("tau0")),
        "tau-cross-tau1": ("z", tau("tau1")),
        "joint-density": ("z", joint_density),
        "telegraph-density": ("z", telegraph_density),
        "telegraph-moment-j0": ("t", telegraph_moment(0)),
        "telegraph-moment-j1": ("t", telegraph_moment(1)),
        "telegraph-cov": ("t", telegraph_cov),
        "mgf-restricted": ("t", mgf_restricted),
        "hyper-quad-b0": ("q", hyper_quad("b0")),
        "hyper-quad-b1": ("q", hyper_quad("b1")),
        "hyper-quad-beta0": ("q", hyper_quad("beta0")),
        "hyper-quad-beta1": ("q", hyper_quad("beta1")),
    }


def _cmd_analytic(config: dict, quantity: str, writer) -> int:
    registry = _quantity_registry()
    if quantity not in registry:
        raise ConfigError(f"unknown quantity {quantity!r}")
    principal, evaluate = registry[quantity]
    params = _model_params(config)
    ev = dict(config["eval"])
    grid = ev.get("grid")
    if grid is None:
        grid = [float(ev[principal])]
    if not grid:
        raise ConfigError("evaluation grid is empty")

    writer.writerow(["quantity", "start", "t", "s", "x", "q", "z", "n",
                     "value", "method", "terms", "error"])
    worst = EXIT_OK
    for point in grid:
        ev[principal] = point
        value, method, terms, error = None, None, None, None
        try:
            value, method, terms = evaluate(params, ev)
        except SeriesConvergenceError as exc:
            error = str(exc)
            worst = max(worst, EXIT_CONVERGENCE)
        except (ConfigError, ValueError) as exc:
            error = str(exc)
            worst = max(worst, EXIT_CONFIG)
        writer.writerow([
            quantity, str(int(ev["start"])), _fmt(float(ev["t"])),
            _fmt(float(ev["s"])), _fmt(float(ev["x"])), _fmt(float(ev["q"])),
            _fmt(float(ev["z"])), str(int(ev["n"])),
            _fmt(value if value is None else float(value)),
            method or "", "" if terms is None else str(terms), error or "",
        ])
    return worst


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _cmd_validate(config: dict, writer) -> int:
    tier = config["validate"]["tier"]
    if tier not in ("quick", "full"):
        raise ConfigError("tier must be 'quick' or 'full'")
    only = config["validate"]["only"]
    seed = int(config["mc"]["seed"])
    reports = harness.standard_suite(tier, seed=seed, only=only)
    writer.writerow(["name", "analytic", "mc", "stderr", "z", "passed", "seed"])
    for rep in reports:
        writer.writerow([
            rep.name, _fmt(rep.analytic_value), _fmt(rep.mc_estimate.value),
            _fmt(rep.mc_estimate.std_error), _fmt(rep.z_score),
            _fmt(rep.passed), str(rep.mc_estimate.seed),
        ])
    n_passed = sum(1 for rep in reports if rep.passed)
    print(f"{n_passed}/{len(reports)} checks passed", file=sys.stderr)
    return EXIT_OK if n_passed == len(reports) else EXIT_VALIDATION


# ---------------------------------------------------------------------------

def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, overrides = _extract_dotted_overrides(argv)
        parser = _build_parser()
        args = parser.parse_args(argv)
        config = _load_config(args, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_path = args.out
    handle = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        writer = csv.writer(handle, lineterminator="\n")
        if args.command == "simulate":
            return _cmd_simulate(config, writer)
        if args.command == "analytic":
            return _cmd_analytic(config, args.quantity, writer)
        return _cmd_validate(config, writer)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SeriesConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        if out_path:
            handle.close()


if __name__ == "__main__":
    sys.exit(main())

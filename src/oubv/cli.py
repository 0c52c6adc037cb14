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
import functools
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

# subcommand -> (help, the configuration sections or dotted keys it takes as
# flags); each key is a flag named by its leaf, a section gives all its keys
_COMMANDS = {
    "simulate": ("draw exact paths or samples",
                 ("model", "mc", "eval", "sim")),
    "analytic": ("evaluate a closed-form quantity", ("model", "eval")),
    "validate": ("run the validation suite", ("mc.seed", "validate")),
}
_CHOICES = {"target": ("paths", "falling-time", "histogram"),
            "tier": ("quick", "full")}
_TEXT_KEYS = ("sim.target", "validate.tier", "validate.only")


class ConfigError(ValueError):
    pass


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _coerce(key: str, raw) -> object:
    """A configuration value in the type of its key's default.

    Numbers must parse and be finite; ``None`` leaves a key without a
    default unset.
    """
    if key in _TEXT_KEYS:
        return None if raw is None else str(raw)
    section, _, leaf = key.partition(".")
    default = _DEFAULTS[section][leaf]
    if raw is None and default is None:
        return None
    integer = isinstance(default, int)
    try:
        if key == "eval.grid":
            items = ([v for v in raw.split(",") if v.strip()]
                     if isinstance(raw, str) else raw)
            value = [float(v) for v in items]
        else:
            value = int(raw) if integer else float(raw)
        finite = all(map(math.isfinite, value if key == "eval.grid"
                         else [value]))
    except (TypeError, ValueError, OverflowError):
        finite = False
    if not finite:
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{key} must be {kind}, got {raw!r}")
    return value


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: it keeps no state
    between calls, and help text is formatted when printed."""
    parser = argparse.ArgumentParser(
        prog="oubv",
        description="bounded-variation OU process: simulate, evaluate, validate")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, sections) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        # also accepted after the subcommand; SUPPRESS keeps a pre-subcommand
        # value from being clobbered by the subparser default
        p.add_argument("--config", default=argparse.SUPPRESS)
        p.add_argument("--out", default=argparse.SUPPRESS)
        for entry in sections:
            section, _, key = entry.partition(".")
            for leaf in [key] if key else _DEFAULTS[section]:
                p.add_argument(f"--{leaf}", choices=_CHOICES.get(leaf))
    sub.choices["analytic"].add_argument("--quantity", required=True)
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
    for section, values in _DEFAULTS.items():
        for leaf in values:
            value = getattr(args, leaf, None)
            if value is not None:
                _deep_set(config, f"{section}.{leaf}", value)
    return config


def _regime(value: int, name: str = "start") -> Regime:
    if value not in (0, 1):
        raise ConfigError(f"{name} must be 0 or 1")
    return Regime(value)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(config: dict, writer) -> int:
    params = ModelParams(**config["model"])
    mc = simulate.MCConfig(**config["mc"])
    ev = config["eval"]
    start = _regime(ev["start"])
    target = config["sim"]["target"]
    horizon, x0 = float(ev["horizon"]), float(ev["x0"])

    if target == "paths":
        writer.writerow(["replicate", "epoch", "regime", "x"])
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
        values = simulate.sample_functional(
            simulate.functional_falling_time(x, start), params, mc)
        writer.writerow(["replicate", "T"])
        for i, value in enumerate(values):
            writer.writerow([str(i), _fmt(float(value))])
        return EXIT_OK

    if target == "histogram":
        functional = simulate.functional_x_at(horizon, x0, start)
        lo, hi = config["sim"]["lo"], config["sim"]["hi"]
        # the sample that gives the range is the one binned
        values = simulate.sample_functional(functional, params, mc)
        if lo is None or hi is None:
            finite = values[np.isfinite(values)]
            lo = float(finite.min()) if lo is None else float(lo)
            hi = float(finite.max()) if hi is None else float(hi)
            if lo == hi:
                hi = lo + 1.0
        bins, range_ = int(config["sim"]["bins"]), (float(lo), float(hi))
        atoms = (pattern(start, x0, horizon, params),)
        result = simulate.histogram_of(values, mc.seed, bins, range_, atoms)
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

def _arguments(ev: dict, names: str) -> list:
    """The values of the space-separated evaluation variables ``names``,
    with ``start`` as a Regime and ``n`` as an int."""
    convert = {"start": _regime, "n": int}
    return [convert.get(name, lambda v: v)(ev[name]) for name in names.split()]


def _analytic(name: str, method: str, *lead) -> Callable:
    """Evaluator calling ``analytic.<name>(*lead, *arguments, params)``.

    The function is looked up when called, so a wrapper installed on the
    module sees the call.
    """
    def evaluate(params, *args):
        return getattr(analytic, name)(*lead, *args, params), method, None
    return evaluate


def _quantity_registry() -> dict[str, tuple[str, str, Callable]]:
    """quantity name -> (principal eval variable, argument names, evaluator).

    Evaluators take the model parameters and the named arguments and
    return (value, method, terms).  Column reuse for quantities whose
    natural arguments exceed the CSV schema: ``z`` doubles as the position
    argument of densities and crossing times, ``n`` as the terminal regime
    of telegraph-density and the order of telegraph-moment.
    """

    laplace = _analytic("laplace_falling", "hypergeometric")

    def laplace_special(params, *args):
        if params.lambda0 != 0.0 and params.lambda1 != 0.0:
            raise ConfigError(
                "laplace-falling-special requires lambda0 == 0 or lambda1 == 0")
        return laplace(params, *args)

    def mean_falling(params, x, start):
        return analytic.mean_falling_info(x, start, params)

    def occupation(index):
        def evaluate(params, s):
            value = analytic.occupation_probs(s, params)[index]
            route = analytic.two_state_route(s, Regime.R0, params)[0]
            return value, route, None
        return evaluate

    def mgf_gamma(params, t, start):
        value = analytic.mgf_gamma(t, start, params)
        route = analytic.two_state_route(t, start, params, relaxed=True)[0]
        return value, route, None

    def kac(index):
        def evaluate(params, t, x):
            if params.lambda0 <= 0:
                raise ConfigError("kac reference requires lambda0 > 0")
            sigma = params.a0 / math.sqrt(params.lambda0)
            value = analytic.kac_limit_reference(t, x, params.gamma0, sigma)
            return value[index], "closed-form", None
        return evaluate

    def telegraph_density(params, start, n, t, z):
        dist = analytic.telegraph_density(start, _regime(n, "n"), t, params)
        return dist.density(z), "bessel-series", None

    def telegraph_moment(j):
        def evaluate(params, n, start, t):
            value = analytic.telegraph_moment(n, start, Regime(j), t, params)
            return value, "generator-exponential", None
        return evaluate

    def hyper_quad(attr):
        def evaluate(params, q):
            value = getattr(analytic.hyper_quad(q, params), attr)
            return value, "closed-form", None
        return evaluate

    return {
        "laplace-falling": ("x", "q x start", laplace),
        "laplace-falling-special": ("x", "q x start", laplace_special),
        "mean-falling": ("x", "x start", mean_falling),
        "occupation-pi00": ("s", "s", occupation(0)),
        "occupation-pi01": ("s", "s", occupation(1)),
        "occupation-pi10": ("s", "s", occupation(2)),
        "occupation-pi11": ("s", "s", occupation(3)),
        "mgf-gamma": ("t", "t start", mgf_gamma),
        "mean-x": ("t", "t x start",
                   _analytic("mean_X", "generator-exponential")),
        "mean-x-symmetric": ("t", "t x start",
                             _analytic("mean_X_symmetric", "closed-form")),
        "var-x-symmetric": ("t", "t",
                            _analytic("var_X_symmetric", "closed-form")),
        "kac-reference-mean": ("t", "t x", kac(0)),
        "kac-reference-var": ("t", "t x", kac(1)),
        "tau-cross-tau0": ("z", "z t x",
                           _analytic("tau_cross", "closed-form", "tau0")),
        "tau-cross-tau1": ("z", "z t x",
                           _analytic("tau_cross", "closed-form", "tau1")),
        "joint-density": ("z", "z t n x start",
                          _analytic("joint_density", "closed-form")),
        "telegraph-density": ("z", "start n t z", telegraph_density),
        "telegraph-moment-j0": ("t", "n start t", telegraph_moment(0)),
        "telegraph-moment-j1": ("t", "n start t", telegraph_moment(1)),
        "telegraph-cov": ("t", "start t s",
                          _analytic("telegraph_cov", "generator-exponential")),
        "mgf-restricted": ("t", "z t n start",
                           _analytic("mgf_restricted", "series")),
        "hyper-quad-b0": ("q", "q", hyper_quad("b0")),
        "hyper-quad-b1": ("q", "q", hyper_quad("b1")),
        "hyper-quad-beta0": ("q", "q", hyper_quad("beta0")),
        "hyper-quad-beta1": ("q", "q", hyper_quad("beta1")),
    }


def _cmd_analytic(config: dict, quantity: str, writer) -> int:
    registry = _quantity_registry()
    if quantity not in registry:
        raise ConfigError(f"unknown quantity {quantity!r}")
    principal, names, evaluate = registry[quantity]
    params = ModelParams(**config["model"])
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
            value, method, terms = evaluate(params, *_arguments(ev, names))
        except SeriesConvergenceError as exc:
            error = str(exc)
            worst = max(worst, EXIT_CONVERGENCE)
        except ValueError as exc:
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
    only = config["validate"]["only"]
    seed = int(config["mc"]["seed"])
    reports = harness.standard_suite(config["validate"]["tier"], seed=seed,
                                     only=only)
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
        handle = open(args.out, "w", newline="") if args.out else sys.stdout
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        writer = csv.writer(handle, lineterminator="\n")
        if args.command == "simulate":
            return _cmd_simulate(config, writer)
        if args.command == "analytic":
            return _cmd_analytic(config, args.quantity, writer)
        return _cmd_validate(config, writer)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ValueError):
            return EXIT_CONFIG
        return (EXIT_CONVERGENCE if isinstance(exc, SeriesConvergenceError)
                else EXIT_RUNTIME)
    finally:
        if args.out:
            handle.close()


if __name__ == "__main__":
    sys.exit(main())

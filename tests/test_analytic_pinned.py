"""Pinned output of every ``oubv analytic`` quantity on a fixed grid.

``data/analytic_pinned.csv`` holds the ``value``, ``method``, ``terms`` and
``error`` strings the CLI printed for each grid point below; refactors of
the closed forms and series kernels must reproduce them byte for byte.
After a deliberate change of output, rewrite the file with
``PYTHONPATH=src python tests/test_analytic_pinned.py``.
"""

from __future__ import annotations

import contextlib
import csv
import io
from pathlib import Path

import pytest

from oubv import cli

PINNED = Path(__file__).resolve().parent / "data" / "analytic_pinned.csv"
COLUMNS = ("quantity", "value", "method", "terms", "error")

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


def _calls() -> list[tuple[str, tuple, dict, list]]:
    """(quantity, parameters, evaluation point, grid) of each CLI call.

    Both mean-falling routes, long horizons, zero rates, every start and
    terminal regime, and the switch-count law up to 40 switches.
    """
    c = []
    for start in (0, 1):
        c.append(("laplace-falling", ASYM, {"q": 1.0, "start": start},
                  [1.0, 1.2, 1.6, 3.0, 10.0]))
    c.append(("laplace-falling", SYM, {"q": 0.3, "start": 1}, [1.0, 2.0, 5.0]))
    c.append(("laplace-falling-special", L0Z, {"q": 0.7, "start": 1},
              [1.2, 1.8, 3.0]))
    for start in (0, 1):
        c.append(("laplace-falling-special", L1Z, {"q": 0.7, "start": start},
                  [1.2, 1.8, 3.0]))
        c.append(("mean-falling", SYM, {"start": start},
                  [1.2, 1.5, 2.5, 4.0, 10.0]))
        c.append(("mean-falling", ASYM, {"start": start}, [1.3, 2.0, 5.0]))
    for k in ("00", "01", "10", "11"):
        c.append((f"occupation-pi{k}", ASYM, {}, [0.7, 5.0, 20.0, 50.0]))
    for start in (0, 1):
        c.append(("mgf-gamma", MGF, {"start": start}, [0.5, 1.0, 5.0, 10.0]))
    c.append(("mgf-gamma", ASYM, {"start": 0}, [1.0, 20.0]))
    c.append(("mean-x", ASYM, {"x": 0.3, "start": 0}, [0.5, 1.5, 4.0, 10.0]))
    c.append(("mean-x", ASYM, {"x": -0.5, "start": 1}, [0.7, 2.0]))
    for start in (0, 1):
        c.append(("mean-x-symmetric", SYM, {"x": 0.4, "start": start},
                  [0.5, 1.0, 2.0, 10.0]))
    c.append(("var-x-symmetric", SYM, {}, [0.5, 2.0, 10.0, 40.0]))
    c.append(("var-x-symmetric", SYM_FAST, {}, [0.5, 2.0, 10.0]))
    for which in ("mean", "var"):
        c.append((f"kac-reference-{which}", KAC, {"x": 1.0}, [0.5, 1.0, 2.0]))
    for branch in ("tau0", "tau1"):
        c.append((f"tau-cross-{branch}", SYM, {"t": 1.0, "x": 0.2},
                  [-0.4, 0.0, 0.3, 0.6]))
    for start in (0, 1):
        for n in (0, 1, 2):
            c.append(("joint-density", SYM,
                      {"t": 1.0, "x": 0.0, "n": n, "start": start},
                      [-0.3, 0.1, 0.4]))
    for i in (0, 1):
        for j in (0, 1):
            c.append(("telegraph-density", TEL, {"t": 1.3, "n": j, "start": i},
                      [-0.6, 0.0, 0.5, 1.0]))
    for j in (0, 1):
        for order in (1, 2):
            for start in (0, 1):
                c.append((f"telegraph-moment-j{j}", MIRROR,
                          {"n": order, "start": start}, [0.3, 0.8, 2.0]))
    for start in (0, 1):
        c.append(("telegraph-cov", TEL, {"s": 0.4, "start": start},
                  [0.6, 1.0, 2.0]))
    c.append(("telegraph-cov", SYM, {"s": 0.4, "start": 0}, [1.0, 2.0]))
    for n in (1, 3):
        c.append(("mgf-restricted", MIRROR, {"z": 0.3, "n": n, "start": 0},
                  [0.5, 1.0, 2.0]))
    c.append(("mgf-restricted", MIRROR, {"z": -0.5, "n": 2, "start": 1}, [1.0]))
    for n in range(41):
        c.append(("mgf-restricted", MIRROR, {"z": 0.0, "n": n, "start": 0},
                  [0.5, 1.0, 2.0]))
    for attr in ("b0", "b1", "beta0", "beta1"):
        c.append((f"hyper-quad-{attr}", ASYM, {}, [0.1, 1.0, 10.0]))
    c.append(("hyper-quad-b0", L0Z, {}, [0.5, 2.0]))
    return c


CALLS = _calls()


def _run(quantity: str, params: tuple, ev: dict, grid: list) -> list[dict]:
    """CSV rows of one ``oubv analytic`` call, keyed by column name."""
    keys = ("lambda0", "lambda1", "a0", "a1", "gamma0", "gamma1")
    base = {"t": 1.0, "s": 0.5, "x": 1.5, "q": 1.0, "z": 0.0, "n": 0,
            "start": 0, **ev}
    argv = ["analytic", "--quantity", quantity]
    for k, v in list(zip(keys, params)) + list(base.items()):
        argv += [f"--{k}", repr(v)]
    argv += ["--eval.grid", ",".join(repr(float(g)) for g in grid)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return list(csv.DictReader(io.StringIO(out.getvalue())))


@pytest.fixture(scope="module")
def pinned() -> dict[int, list[dict]]:
    by_call: dict[int, list[dict]] = {}
    with open(PINNED, newline="") as handle:
        for row in csv.DictReader(handle):
            by_call.setdefault(int(row["call"]), []).append(row)
    return by_call


def test_every_quantity_is_pinned(pinned):
    assert {q for q, *_ in CALLS} == set(cli._quantity_registry())
    assert sorted(pinned) == list(range(len(CALLS)))


@pytest.mark.parametrize("index", range(len(CALLS)))
def test_output_matches_pinned(pinned, index):
    rows = _run(*CALLS[index])
    assert len(rows) == len(pinned[index])
    for row, want in zip(rows, pinned[index]):
        for column in COLUMNS:
            assert row[column] == want[column], (CALLS[index], column)


if __name__ == "__main__":
    with open(PINNED, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("call", "row") + COLUMNS)
        for index, call in enumerate(CALLS):
            for k, row in enumerate(_run(*call)):
                writer.writerow([index, k] + [row[c] for c in COLUMNS])

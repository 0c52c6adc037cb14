"""The host kernel: fixed work that times the speed of the machine.

    python3 perfbench/hostkernel.py

reads one line per request from standard input and answers each with the
wall time, in seconds, of one kernel measurement; it exits at the end of
its input.  ``run.py`` keeps one such process for a run and asks it for a
measurement between its timed steps, so the kernel's arrays stay out of the
measuring process's peak memory and the kernel never runs beside a step.

The kernel is work of the kind the samplers do: random draws and selects
over 20,000 values (a small Kac population) and over 1,000,000 values (a
Monte Carlo sample).  Nothing of ``oubv`` runs here, so no change to the
program moves it.  A measurement is the median of REPEATS runs, which drops
the short stalls a single run catches on a shared host.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

REPEATS = 3


def _draws_and_selects(size: int, rounds: int) -> float:
    rng = np.random.default_rng(1)
    x = np.linspace(0.0, 1.0, size)
    for _ in range(rounds):
        u = rng.random(size)
        x = np.where(u < 0.3, x * 0.5, np.exp(-x) + u)
    return float(x.sum())


def measure() -> float:
    """Median wall time of REPEATS kernel runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        total = _draws_and_selects(20_000, 100) + _draws_and_selects(1_000_000, 2)
        times.append(time.perf_counter() - t0)
        if not np.isfinite(total):
            raise SystemExit("error: host kernel produced a non-finite value")
    return statistics.median(times)


def main() -> int:
    for _ in sys.stdin:
        print(repr(measure()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Exact, discretization-free simulation and seeded Monte Carlo reduction.

Paths are piecewise deterministic: holding times are exponential in the
active regime and the state flows along the closed-form relaxation pattern
between switches, so no operation carries a time-step error.

Reproducibility contract: replicates are split into chunks and each chunk
draws from its own counter-based stream derived from ``(seed, chunk
index)``.  Chunks may run on a thread pool (capped by ``OUBV_THREADS``)
but are always reduced in chunk order, so results are independent of the
worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import (ModelParams, Regime, crossing_time, pattern,
                    require_above_band, require_time)

DEFAULT_MAX_SWITCHES = 10_000_000

# Samples closer than this to a predicted atom location are counted as the
# atom, not as continuous mass.
ATOM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Path:
    """One exact trajectory: start state, switch records and horizon.

    ``switches`` holds ``(epoch, new_regime, x_at_switch)`` triples with
    strictly increasing epochs; between epochs the state follows the
    active regime's relaxation pattern.
    """

    params: ModelParams
    start_regime: Regime
    x0: float
    switches: tuple[tuple[float, Regime, float], ...]
    horizon: float


@dataclass(frozen=True)
class MCConfig:
    """Replicate count, stream seed and chunking of a Monte Carlo run."""

    replicates: int
    seed: int
    chunk: int = 100_000

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.chunk < 1:
            raise ValueError("chunk must be at least 1")


@dataclass(frozen=True)
class EstimateWithCI:
    """Monte Carlo estimate with its standard error and provenance."""

    value: float
    std_error: float
    replicates: int
    seed: int


@dataclass(frozen=True)
class HistogramResult:
    """Normalized histogram with binomial errors and separated atoms."""

    edges: np.ndarray
    masses: np.ndarray
    std_errors: np.ndarray
    atoms: tuple[tuple[float, float, float], ...]
    replicates: int
    seed: int


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one replicate chunk of a seeded run."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


def worker_count() -> int:
    env = os.environ.get("OUBV_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(
            f"OUBV_THREADS must be an integer, got {env!r}") from None


# ---------------------------------------------------------------------------
# Scalar path API
# ---------------------------------------------------------------------------

def sample_path(params: ModelParams, x0: float, start: Regime,
                horizon: float, rng: np.random.Generator) -> Path:
    """Draw one exact trajectory on [0, horizon]."""
    require_time(horizon, "horizon")
    switches: list[tuple[float, Regime, float]] = []
    t, regime, x = 0.0, start, x0
    while True:
        lam = params.rate(regime)
        if lam == 0.0:
            break
        tau = rng.standard_exponential() / lam
        if t + tau > horizon:
            break
        x = pattern(regime, x, tau, params)
        t = t + tau
        regime = regime.other
        switches.append((t, regime, x))
    return Path(params=params, start_regime=start, x0=x0,
                switches=tuple(switches), horizon=horizon)


def eval_path(path: Path, t: float) -> tuple[float, Regime, int]:
    """State at time t: (position, active regime, switches so far)."""
    if not 0.0 <= t <= path.horizon:
        raise ValueError("t must lie in [0, horizon]")
    seg_start, regime, x = 0.0, path.start_regime, path.x0
    count = 0
    for epoch, new_regime, x_switch in path.switches:
        if epoch > t:
            break
        seg_start, regime, x = epoch, new_regime, x_switch
        count += 1
    return (pattern(regime, x, t - seg_start, path.params), regime, count)


# ---------------------------------------------------------------------------
# Vectorized chain state
# ---------------------------------------------------------------------------

@dataclass
class ChainState:
    """Per-replicate chain state advanced exactly, segment by segment: one
    1-D array each for the position, the regime (int8), the switches made
    and the time spent in regime 1 since ``init_state``."""

    x: np.ndarray
    regime: np.ndarray
    nswitch: np.ndarray
    occupation1: np.ndarray


def init_state(n: int, x0: float, start: Regime) -> ChainState:
    return ChainState(
        x=np.full(n, float(x0)),
        regime=np.full(n, int(start), dtype=np.int8),
        nswitch=np.zeros(n, dtype=np.int64),
        occupation1=np.zeros(n),
    )


def regime_integral(state: ChainState, t, v0: float, v1: float) -> np.ndarray:
    """Each row's integral over [0, t] of v0 in regime 0 and v1 in regime 1,
    t being the time since ``init_state``: T(t) for (a0, a1), the relaxation
    integral for (gamma0, gamma1); v_j t exactly if one window stayed in j."""
    occ = state.occupation1
    return v0 * (t - occ) + v1 * occ


def _per_regime(v0: float, v1: float, regime):
    """The rows' value for their regime: a scalar when both regimes share
    the value or ``regime`` is one bool for every row (True for regime 1),
    else one value per row of the bool mask ``regime``.

    A scalar broadcasts to the same products as a gathered array, so the
    scalar form changes no result, only the work per pass.
    """
    if v0 == v1:
        return v0
    if isinstance(regime, np.ndarray):
        return np.where(regime, v1, v0)
    return v1 if regime else v0


def _shared_regime(in_r1: np.ndarray):
    """``in_r1`` as one bool when every row is in the same regime."""
    if not in_r1.any():
        return False
    return True if in_r1.all() else in_r1


def _holding_times(rng: np.random.Generator, n: int, regime,
                   params: ModelParams) -> np.ndarray:
    """One exponential holding time for each of n rows, drawn in row order;
    ``inf`` where the row's regime has a zero switching rate."""
    lam_r = _per_regime(params.lambda0, params.lambda1, regime)
    tau = rng.standard_exponential(n)
    if params.lambda0 > 0.0 and params.lambda1 > 0.0:
        tau /= lam_r
        return tau
    with np.errstate(divide="ignore"):
        return np.where(lam_r > 0.0, tau / np.where(lam_r > 0.0, lam_r, 1.0),
                        np.inf)


def _relax(x: np.ndarray, step: np.ndarray, regime, params: ModelParams) -> None:
    """Flow each row along its regime's relaxation for ``step``, in place:
    x <- fp + (x - fp) exp(-g step), with the same roundings as that form."""
    fp_r = _per_regime(params.fixed_point(Regime.R0),
                       params.fixed_point(Regime.R1), regime)
    arg = step * -_per_regime(params.gamma0, params.gamma1, regime)
    np.exp(arg, out=arg)
    x -= fp_r
    x *= arg
    x += fp_r


def advance(state: ChainState, dt, params: ModelParams,
            rng: np.random.Generator) -> None:
    """Advance every replicate by dt (scalar or per-replicate array).

    Each pass draws one holding time per active replicate, in ascending
    replicate order, and moves the replicate to the next switch or to the
    end of its window.  The active rows are worked on as compact copies;
    rows are written back to ``state`` and dropped only on a pass where
    some replicate finishes its window.  A row's regime on pass k is its
    window-start regime flipped k times, and a row that finishes on pass
    k has switched k times in the window, so both come from the pass
    index.  When the active rows share their window-start regime, as they
    do from ``init_state``, every pass works on one regime and takes its
    constants as scalars.  ``occupation1`` gains the step of the rows in
    regime 1 only.  Raises ``RuntimeError`` when some replicate is
    still active after ``DEFAULT_MAX_SWITCHES`` passes.
    """
    dt = np.asarray(dt, dtype=float)
    if not np.all((dt >= 0) & (dt < np.inf)):
        raise ValueError("advance duration must be nonnegative and finite")
    n = state.x.size
    window = np.broadcast_to(dt, (n,))
    idx = np.flatnonzero(window > 0.0)
    x, occ = state.x[idx], state.occupation1[idx]
    rem = window[idx]
    # the window-start regime: one bool, or a per-row mask while mixed
    start = _shared_regime(state.regime[idx] == 1)
    for k in range(DEFAULT_MAX_SWITCHES + 1):
        if not idx.size:
            return
        odd = k % 2 == 1
        regime = start ^ odd
        tau = _holding_times(rng, idx.size, regime, params)
        switched = tau < rem
        every = switched.all()
        step = tau if every else np.minimum(tau, rem)
        _relax(x, step, regime, params)
        if regime is not False:  # some row is in regime 1
            np.add(occ, step, out=occ, where=regime)
        rem -= step
        if every:
            continue
        done = np.flatnonzero(~switched)
        rows = idx[done]
        state.x[rows] = x[done]
        state.occupation1[rows] = occ[done]
        state.regime[rows] ^= odd
        state.nswitch[rows] += k
        keep = np.flatnonzero(switched)
        idx, x, occ, rem = idx[keep], x[keep], occ[keep], rem[keep]
        if isinstance(start, np.ndarray):
            start = _shared_regime(start[keep])
    raise RuntimeError("max_switches exceeded while advancing the chain")


def falling_times(params: ModelParams, x: float, start: Regime,
                  rng: np.random.Generator, n: int) -> np.ndarray:
    """Vectorized falling-time sampler; exact crossing detection.

    Works like ``advance`` on the compact set of replicates still above
    the band.  All of them start in ``start``, so every pass works on one
    regime, flipped from pass to pass: it draws their holding times and,
    on a regime-1 pass, records a replicate whose crossing of a0/gamma0
    comes no later than its switch; then it flows the rest to their
    switch.  Nothing crosses the upper edge in regime 0, and a zero
    lambda0 holds the replicates there, so they record ``inf``.  Raises
    ``RuntimeError`` when some replicate has not fallen after
    ``DEFAULT_MAX_SWITCHES`` switches.
    """
    require_above_band(x, params)
    if start == Regime.R0 and params.lambda0 == 0.0:
        raise ValueError("falling time is infinite from regime 0 with lambda0 == 0")
    out = np.empty(n)
    idx = np.arange(n)
    v = np.full(n, float(x))
    in_r1 = start == Regime.R1
    elapsed = np.zeros(n)
    for _ in range(DEFAULT_MAX_SWITCHES + 1):
        if not idx.size:
            return out
        tau = _holding_times(rng, idx.size, in_r1, params)
        if in_r1:
            cross = crossing_time(v, params)
            fell = cross <= tau
            if fell.any():
                out[idx[fell]] = elapsed[fell] + cross[fell]
                keep = np.flatnonzero(~fell)
                idx, v, elapsed, tau = idx[keep], v[keep], elapsed[keep], tau[keep]
        elif params.lambda0 == 0.0:
            out[idx] = np.inf
            return out
        _relax(v, tau, in_r1, params)
        elapsed += tau
        in_r1 = not in_r1
    raise RuntimeError("max_switches exceeded while sampling falling times")


# ---------------------------------------------------------------------------
# Path functionals
# ---------------------------------------------------------------------------

Functional = Callable[[ModelParams, np.random.Generator, int], np.ndarray]


def functional_of_state(t: float, x0: float, start: Regime, reduce: Callable[
        [ChainState, ModelParams], np.ndarray]) -> Functional:
    """Generic functional: advance the chain to time t, then reduce the
    state with the run's parameters."""

    def sample(params: ModelParams, rng: np.random.Generator, n: int) -> np.ndarray:
        state = init_state(n, x0, start)
        advance(state, t, params, rng)
        return np.asarray(reduce(state, params), dtype=float)

    return sample


def functional_x_at(t: float, x0: float, start: Regime) -> Functional:
    return functional_of_state(t, x0, start, lambda st, p: st.x)


def functional_exp_neg_gamma(t: float, start: Regime) -> Functional:
    return functional_of_state(t, 0.0, start, lambda st, p: np.exp(
        -regime_integral(st, t, p.gamma0, p.gamma1)))


def functional_occupancy(t: float, start: Regime, j: Regime) -> Functional:
    return functional_of_state(t, 0.0, start, lambda st, p: st.regime == int(j))


def functional_telegraph(t: float, start: Regime, j: Regime | None = None,
                         power: int = 1) -> Functional:
    def reduce(st: ChainState, p: ModelParams) -> np.ndarray:
        vals = regime_integral(st, t, p.a0, p.a1) ** power
        if j is not None:
            vals = vals * (st.regime == int(j))
        return vals

    return functional_of_state(t, 0.0, start, reduce)


def functional_telegraph_product(t: float, s: float, start: Regime) -> Functional:
    if not t > s > 0:
        raise ValueError("requires t > s > 0")

    def sample(params: ModelParams, rng: np.random.Generator, n: int) -> np.ndarray:
        state = init_state(n, 0.0, start)
        advance(state, s, params, rng)
        at_s = regime_integral(state, s, params.a0, params.a1)
        advance(state, t - s, params, rng)
        return at_s * regime_integral(state, t, params.a0, params.a1)

    return sample


def functional_exp_z_telegraph(z: float, t: float, start: Regime,
                               n_switches: int) -> Functional:
    def reduce(st: ChainState, p: ModelParams) -> np.ndarray:
        return (np.exp(z * regime_integral(st, t, p.a0, p.a1))
                * (st.nswitch == n_switches))

    return functional_of_state(t, 0.0, start, reduce)


def functional_falling_time(x: float, start: Regime) -> Functional:
    return lambda params, rng, n: falling_times(params, x, start, rng, n)


def functional_exp_q_falling(q: float, x: float, start: Regime) -> Functional:
    def sample(params: ModelParams, rng: np.random.Generator, n: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(-q * falling_times(params, x, start, rng, n))

    return sample


def functional_constant(value: float) -> Functional:
    return lambda params, rng, n: np.full(n, float(value))


# ---------------------------------------------------------------------------
# Monte Carlo reduction
# ---------------------------------------------------------------------------

def _chunk_sizes(config: MCConfig) -> list[int]:
    full, rest = divmod(config.replicates, config.chunk)
    return [config.chunk] * full + ([rest] if rest else [])


def _map_chunks(config: MCConfig, job: Callable[[int, int], object]) -> list:
    """Run job(chunk_index, chunk_size) for every chunk, results in order."""
    sizes = _chunk_sizes(config)
    workers = min(worker_count(), len(sizes))
    if workers <= 1:
        return [job(i, m) for i, m in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(job, i, m) for i, m in enumerate(sizes)]
        return [f.result() for f in futures]


def sample_functional(functional: Functional, params: ModelParams,
                      config: MCConfig) -> np.ndarray:
    """All replicate values of a functional, chunk-seeded, in chunk order."""
    parts = _map_chunks(
        config,
        lambda i, m: np.asarray(functional(params, chunk_rng(config.seed, i), m),
                                dtype=float))
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _mean_of(values: np.ndarray, seed: int) -> EstimateWithCI:
    n = values.size
    vmin, vmax = float(values.min()), float(values.max())
    if vmin == vmax:
        # Constant sample: report the exact common value, not a rounded mean.
        return EstimateWithCI(vmin, 0.0, n, seed)
    mean = float(values.mean())
    se = float(values.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return EstimateWithCI(mean, se, n, seed)


def _variance_of(values: np.ndarray, seed: int) -> EstimateWithCI:
    n = values.size
    if n < 2:
        return EstimateWithCI(0.0, 0.0, n, seed)
    centered = values - values.mean()
    m2 = float(np.mean(centered ** 2))
    m4 = float(np.mean(centered ** 4))
    var = m2 * n / (n - 1.0)
    se = math.sqrt(max(m4 - m2 * m2, 0.0) / n)
    return EstimateWithCI(var, se, n, seed)


def estimate(functional: Functional, params: ModelParams,
             config: MCConfig) -> EstimateWithCI:
    """Mean of a path functional with its standard error."""
    return _mean_of(sample_functional(functional, params, config), config.seed)


def estimate_variance(functional: Functional, params: ModelParams,
                      config: MCConfig) -> EstimateWithCI:
    """Sample variance of a functional with a delta-method standard error."""
    return _variance_of(sample_functional(functional, params, config),
                        config.seed)


def estimate_moments(functional: Functional, params: ModelParams,
                     config: MCConfig) -> tuple[EstimateWithCI, EstimateWithCI]:
    """Mean and variance estimates from one sample of a functional.

    Equal to ``(estimate(...), estimate_variance(...))`` with the same
    arguments, at the cost of one simulation instead of two.
    """
    values = sample_functional(functional, params, config)
    return _mean_of(values, config.seed), _variance_of(values, config.seed)


def histogram(functional: Functional, params: ModelParams, config: MCConfig,
              bins: int, range_: tuple[float, float],
              atoms: Sequence[float] = ()) -> HistogramResult:
    """``histogram_of`` the functional's sample under ``config``."""
    return histogram_of(sample_functional(functional, params, config),
                        config.seed, bins, range_, atoms)


def histogram_of(values: np.ndarray, seed: int, bins: int,
                 range_: tuple[float, float],
                 atoms: Sequence[float] = ()) -> HistogramResult:
    """Normalized counts with binomial errors; atoms split out before binning.

    ``values`` is a sample already drawn with ``seed``.  Samples within
    ``ATOM_TOLERANCE`` of a predicted atom location are counted as that
    atom so a point mass cannot corrupt one bin.
    """
    if bins < 1:
        raise ValueError("bins must be at least 1")
    lo, hi = range_
    if not lo < hi:
        raise ValueError("empty histogram range")
    values = np.asarray(values, dtype=float)
    edges = np.linspace(lo, hi, bins + 1)
    atom_locs = np.asarray(list(atoms), dtype=float)
    atom_counts = np.zeros(atom_locs.size, dtype=np.int64)
    keep = np.ones(values.size, dtype=bool)
    for k, loc in enumerate(atom_locs):
        hit = np.abs(values - loc) <= ATOM_TOLERANCE
        atom_counts[k] = int(hit.sum())
        keep &= ~hit
    counts, _ = np.histogram(values[keep], bins=edges)
    n = float(values.size)
    masses = counts / n
    errors = np.sqrt(masses * (1.0 - masses) / n)
    atom_entries = tuple(
        (float(loc), float(c / n), float(math.sqrt((c / n) * (1.0 - c / n) / n)))
        for loc, c in zip(atom_locs, atom_counts))
    return HistogramResult(edges=edges, masses=masses, std_errors=errors,
                           atoms=atom_entries, replicates=values.size, seed=seed)

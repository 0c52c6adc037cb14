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

from .model import ModelParams, Regime, pattern

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
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Scalar path API
# ---------------------------------------------------------------------------

def sample_path(params: ModelParams, x0: float, start: Regime,
                horizon: float, rng: np.random.Generator) -> Path:
    """Draw one exact trajectory on [0, horizon]."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
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
    """Per-replicate chain state advanced exactly, segment by segment."""

    x: np.ndarray
    regime: np.ndarray
    nswitch: np.ndarray
    tvalue: np.ndarray
    gvalue: np.ndarray


def init_state(n: int, x0: float, start: Regime) -> ChainState:
    return ChainState(
        x=np.full(n, float(x0)),
        regime=np.full(n, int(start), dtype=np.int8),
        nswitch=np.zeros(n, dtype=np.int64),
        tvalue=np.zeros(n),
        gvalue=np.zeros(n),
    )


def _per_regime(v0: float, v1: float, in_r1: np.ndarray):
    """Each row's value for its regime; a scalar when both regimes share it.

    A shared value broadcasts to the same products as a gathered array, so
    the scalar form changes no result, only the work per pass.
    """
    return v0 if v0 == v1 else np.where(in_r1, v1, v0)


def advance(state: ChainState, dt, params: ModelParams,
            rng: np.random.Generator) -> None:
    """Advance every replicate by dt (scalar or per-replicate array).

    Each pass draws one holding time per active replicate, in ascending
    replicate order, and moves the replicate to the next switch or to the
    end of its window.  The active rows are worked on as compact copies;
    rows are written back to ``state`` and dropped only on a pass where
    some replicate finishes its window.
    """
    n = state.x.size
    window = np.broadcast_to(np.asarray(dt, dtype=float), (n,))
    if np.any(window < 0):
        raise ValueError("advance duration must be nonnegative")
    lam0, lam1 = params.lambda0, params.lambda1
    g0, g1 = params.gamma0, params.gamma1
    fp0, fp1 = params.a0 / g0, params.a1 / g1
    positive_rates = lam0 > 0.0 and lam1 > 0.0
    idx = np.flatnonzero(window > 0.0)
    x, tv, gv = state.x[idx], state.tvalue[idx], state.gvalue[idx]
    in_r1, ns, rem = state.regime[idx] == 1, state.nswitch[idx], window[idx]
    while idx.size:
        lam_r = _per_regime(lam0, lam1, in_r1)
        tau = rng.standard_exponential(idx.size)
        if positive_rates:
            tau /= lam_r
        else:
            with np.errstate(divide="ignore"):
                tau = np.where(lam_r > 0.0,
                               tau / np.where(lam_r > 0.0, lam_r, 1.0), np.inf)
        step = np.minimum(tau, rem)
        fp_r = _per_regime(fp0, fp1, in_r1)
        g_r = _per_regime(g0, g1, in_r1)
        # x <- fp + (x - fp) exp(-g step) in place, with the same roundings
        x -= fp_r
        x *= np.exp(-g_r * step)
        x += fp_r
        tv += _per_regime(params.a0, params.a1, in_r1) * step
        gv += g_r * step
        switched = tau < rem
        rem -= step
        if switched.all():
            np.logical_not(in_r1, out=in_r1)
            ns += 1
            continue
        done = np.flatnonzero(~switched)
        rows = idx[done]
        state.x[rows] = x[done]
        state.tvalue[rows] = tv[done]
        state.gvalue[rows] = gv[done]
        state.regime[rows] = in_r1[done]
        state.nswitch[rows] = ns[done]
        keep = np.flatnonzero(switched)
        idx, x, tv, gv, rem = idx[keep], x[keep], tv[keep], gv[keep], rem[keep]
        in_r1 = ~in_r1[keep]
        ns = ns[keep] + 1


def falling_times(params: ModelParams, x: float, start: Regime,
                  rng: np.random.Generator, n: int,
                  max_switches: int = DEFAULT_MAX_SWITCHES) -> np.ndarray:
    """Vectorized falling-time sampler; exact crossing detection."""
    high = params.a0 / params.gamma0
    low = params.a1 / params.gamma1
    if x <= high:
        raise ValueError("x must exceed a0/gamma0")
    if start == Regime.R0 and params.lambda0 == 0.0:
        raise ValueError("falling time is infinite from regime 0 with lambda0 == 0")
    v = np.full(n, float(x))
    regime = np.full(n, int(start), dtype=np.int8)
    elapsed = np.zeros(n)
    out = np.empty(n)
    done = np.zeros(n, dtype=bool)
    lam = np.array([params.lambda0, params.lambda1])
    for _ in range(max_switches + 1):
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


# ---------------------------------------------------------------------------
# Path functionals
# ---------------------------------------------------------------------------

Functional = Callable[[ModelParams, np.random.Generator, int], np.ndarray]


def functional_of_state(t: float, x0: float, start: Regime,
                        reduce: Callable[[ChainState], np.ndarray]) -> Functional:
    """Generic functional: advance the chain to time t, then reduce."""

    def sample(params: ModelParams, rng: np.random.Generator, n: int) -> np.ndarray:
        state = init_state(n, x0, start)
        advance(state, t, params, rng)
        return np.asarray(reduce(state), dtype=float)

    return sample


def functional_x_at(t: float, x0: float, start: Regime, power: int = 1) -> Functional:
    return functional_of_state(t, x0, start,
                               lambda st: st.x if power == 1 else st.x ** power)


def functional_exp_neg_gamma(t: float, start: Regime) -> Functional:
    return functional_of_state(t, 0.0, start, lambda st: np.exp(-st.gvalue))


def functional_occupancy(t: float, start: Regime, j: Regime) -> Functional:
    return functional_of_state(t, 0.0, start,
                               lambda st: (st.regime == int(j)).astype(float))


def functional_telegraph(t: float, start: Regime, j: Regime | None = None,
                         power: int = 1) -> Functional:
    def reduce(st: ChainState) -> np.ndarray:
        vals = st.tvalue ** power if power != 1 else st.tvalue.copy()
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
        at_s = state.tvalue.copy()
        advance(state, t - s, params, rng)
        return at_s * state.tvalue

    return sample


def functional_exp_z_telegraph(z: float, t: float, start: Regime,
                               n_switches: int | None = None) -> Functional:
    def reduce(st: ChainState) -> np.ndarray:
        vals = np.exp(z * st.tvalue)
        if n_switches is not None:
            vals = vals * (st.nswitch == n_switches)
        return vals

    return functional_of_state(t, 0.0, start, reduce)


def functional_falling_time(x: float, start: Regime,
                            max_switches: int = DEFAULT_MAX_SWITCHES) -> Functional:
    def sample(params: ModelParams, rng: np.random.Generator, n: int) -> np.ndarray:
        return falling_times(params, x, start, rng, n, max_switches)

    return sample


def functional_exp_q_falling(q: float, x: float, start: Regime,
                             max_switches: int = DEFAULT_MAX_SWITCHES) -> Functional:
    def sample(params: ModelParams, rng: np.random.Generator, n: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(-q * falling_times(params, x, start, rng, n, max_switches))

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
    """Normalized counts with binomial errors; atoms split out before binning.

    Samples within ``ATOM_TOLERANCE`` of a predicted atom location are
    counted as that atom so a point mass cannot corrupt one bin.
    """
    if bins < 1:
        raise ValueError("bins must be at least 1")
    lo, hi = range_
    if not lo < hi:
        raise ValueError("empty histogram range")
    edges = np.linspace(lo, hi, bins + 1)
    atom_locs = np.asarray(list(atoms), dtype=float)

    def job(i: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        values = np.asarray(functional(params, chunk_rng(config.seed, i), m),
                            dtype=float)
        atom_counts = np.zeros(atom_locs.size, dtype=np.int64)
        keep = np.ones(values.size, dtype=bool)
        for k, loc in enumerate(atom_locs):
            hit = np.abs(values - loc) <= ATOM_TOLERANCE
            atom_counts[k] = int(hit.sum())
            keep &= ~hit
        counts, _ = np.histogram(values[keep], bins=edges)
        return counts, atom_counts

    parts = _map_chunks(config, job)
    counts = sum(p[0] for p in parts)
    atom_counts = sum(p[1] for p in parts)
    n = float(config.replicates)
    masses = counts / n
    errors = np.sqrt(masses * (1.0 - masses) / n)
    atom_entries = tuple(
        (float(loc), float(c / n), float(math.sqrt((c / n) * (1.0 - c / n) / n)))
        for loc, c in zip(atom_locs, atom_counts))
    return HistogramResult(edges=edges, masses=masses, std_errors=errors,
                           atoms=atom_entries, replicates=int(n),
                           seed=config.seed)

"""Series kernels: hypergeometric, Bessel and the switching-count helpers.

All series use compensated (Neumaier) accumulation and a shared truncation
policy: summation stops once two consecutive terms fall below ``REL_TOL``
times the running sum, and fails after ``MAX_TERMS`` terms.  The two-term
rule guards against false convergence of alternating series, which occur
here whenever the band coordinate is negative.  A sum that stops is still
refused when its terms cancel: each term carries a rounding error of about
one ulp, so once the machine epsilon times the sum of the term sizes
exceeds ``REL_TOL`` times the value, the value cannot hold ``REL_TOL`` and
the series raises ``SeriesConvergenceError`` ("series cancelled").

Arguments below the series' natural domain are reached by transformation
rather than analytic continuation machinery: the Gauss series for negative
arguments goes through the Pfaff transformation (whose transformed argument
lies in [0, 1)), the Kummer series through the reflection
``Phi(alpha, beta; z) = exp(z) * Phi(beta - alpha, beta; -z)``, which keeps
every summand nonnegative for the parameter patterns used in this package.
"""

from __future__ import annotations

import math
import sys
from itertools import count
from typing import Iterator

from .model import ModelParams


# Truncation policy of every series, read at call time.
REL_TOL = 1e-12
MAX_TERMS = 10_000


class SeriesConvergenceError(RuntimeError):
    """A series failed to meet REL_TOL within MAX_TERMS terms."""


def _neumaier_step(total: float, comp: float,
                   term: float) -> tuple[float, float, bool]:
    """Add one term to a compensated (Neumaier) sum.

    Returns the new sum and compensation, and whether the term is at most
    ``REL_TOL`` times the running value ``sum + compensation``.
    """
    s = total + term
    if abs(total) >= abs(term):
        comp += (total - s) + term
    else:
        comp += (term - s) + total
    return s, comp, abs(term) <= REL_TOL * max(abs(s + comp), 1e-300)


def _sum_series(terms: Iterator[float], label: str, first: float = 0.0,
                z: float | None = None,
                detail: str = " in {max_terms} terms (z={z})"
                ) -> tuple[float, int]:
    """Sum ``first`` and the terms of a series; returns (value, terms used).

    Stops after two consecutive small terms (see ``_neumaier_step``) and
    raises ``SeriesConvergenceError`` on a non-finite term, when the terms
    cancel below ``REL_TOL`` of the value (see the module docstring) or
    when ``MAX_TERMS`` terms do not suffice; ``detail`` completes the
    last message and is filled with ``max_terms`` and ``z``.
    """
    total, comp, small, size = first, 0.0, 0, abs(first)
    for n, term in zip(range(1, MAX_TERMS + 1), terms):
        if not math.isfinite(term):
            raise SeriesConvergenceError(f"{label} series overflowed")
        total, comp, is_small = _neumaier_step(total, comp, term)
        size += abs(term)
        small = small + 1 if is_small else 0
        if small >= 2:
            value = total + comp
            if size * sys.float_info.epsilon > REL_TOL * abs(value):
                raise SeriesConvergenceError(
                    f"{label} series cancelled: terms of total size "
                    f"{size:.3g} sum to {value:.3g} (z={z})")
            return value, n
    raise SeriesConvergenceError(f"{label} series did not converge"
                                 + detail.format(max_terms=MAX_TERMS, z=z))


def _check_beta(beta: float, name: str = "beta") -> None:
    if beta <= 0 and beta == round(beta):
        raise ValueError(f"{name} must not be zero or a negative integer")


def gauss_2f1(b0: float, b1: float, beta: float, z: float) -> float:
    """Gauss hypergeometric F(b0, b1; beta; z) for z < 1.

    Direct series on [0, 1); Pfaff-transformed series for z < 0, so the
    effective argument w always lies in [0, 1).  Errors name the caller's z.
    """
    _check_beta(beta)
    if z >= 1.0:
        raise ValueError("argument must satisfy z < 1")
    if z >= 0.0:
        scale, w = 1.0, z
    else:
        scale, w, b1 = (1.0 - z) ** (-b0), z / (z - 1.0), beta - b1

    def terms() -> Iterator[float]:
        term = 1.0
        for n in count():
            term *= (b0 + n) * (b1 + n) / ((beta + n) * (n + 1.0)) * w
            yield term

    return scale * _sum_series(terms(), "Gauss", 1.0, z)[0]


def kummer_phi(alpha: float, beta: float, z: float) -> float:
    """Confluent hypergeometric Phi(alpha, beta; z).

    Negative arguments are routed through the Kummer reflection to avoid
    cancellation between alternating terms.
    """
    _check_beta(beta)
    if alpha == 0.0:
        return 1.0
    if z < 0.0:
        return math.exp(z) * kummer_phi(beta - alpha, beta, -z)

    def terms() -> Iterator[float]:
        term = 1.0
        for n in count():
            term *= (alpha + n) / ((beta + n) * (n + 1.0)) * z
            yield term

    return _sum_series(terms(), "Kummer", 1.0, z)[0]


def bessel_i(order: int, z: float) -> float:
    """Modified Bessel function I_0 or I_1 by power series, z >= 0."""
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    if z < 0:
        raise ValueError("z must be nonnegative")
    half_sq = (z / 2.0) * (z / 2.0)
    lead = 1.0 if order == 0 else z / 2.0

    def terms() -> Iterator[float]:
        # ratio of consecutive terms: (z/2)^2 / ((n + 1) (n + 1 + order))
        term = lead
        for n in count():
            term *= half_sq / ((n + 1.0) * (n + 1.0 + order))
            yield term

    return _sum_series(terms(), "Bessel", lead, z)[0]


def psi_pair(t: float, z: float, params: ModelParams) -> tuple[float, float]:
    """The two switching-count series driving the regime occupation laws.

    Returns ``(psi0, psi1)`` where::

        psi0(t, z) = sum_{n>=1} (l0 l1)^n     t^(2n)   / (2n)!   Phi(n, 2n+1; z)
        psi1(t, z) = sum_{n>=1} (l0 l1)^(n-1) t^(2n-1) / (2n-1)! Phi(n, 2n;   z)

    psi0 collects even switching counts, psi1 odd ones.  Both vanish at
    t = 0; psi0 vanishes identically when either rate is zero.  The terms
    grow with |z| and l0 l1 t^2 before they fall, so the cost grows with
    the horizon, and far out a term overflows.  ``analytic.occupation_probs``
    and ``analytic.mgf_gamma`` therefore call it only on their series route
    (``analytic.two_state_route``: 2 delta t <= 4, where |z| <= 4 and
    l0 l1 t^2 <= 4).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    ll = params.lambda0 * params.lambda1
    if t == 0.0:
        return (0.0, 0.0)
    # Both sums stop together, on two consecutive rounds in which both
    # terms are small.
    total0 = comp0 = total1 = comp1 = 0.0
    c0 = ll * t * t / 2.0          # n = 1 prefactor of psi0
    c1 = t                         # n = 1 prefactor of psi1
    small = 0
    for n in range(1, MAX_TERMS + 1):
        term0 = c0 * kummer_phi(n, 2 * n + 1, z)
        term1 = c1 * kummer_phi(n, 2 * n, z)
        if not (math.isfinite(term0) and math.isfinite(term1)):
            raise SeriesConvergenceError("switching-count series overflowed")
        total0, comp0, done0 = _neumaier_step(total0, comp0, term0)
        total1, comp1, done1 = _neumaier_step(total1, comp1, term1)
        small = small + 1 if (done0 and done1) else 0
        if small >= 2:
            return (total0 + comp0, total1 + comp1)
        c0 *= ll * t * t / ((2 * n + 1.0) * (2 * n + 2.0))
        c1 *= ll * t * t / ((2 * n) * (2 * n + 1.0))
    raise SeriesConvergenceError(
        f"switching-count series did not converge in {MAX_TERMS} terms")

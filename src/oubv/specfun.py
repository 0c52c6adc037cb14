"""Series kernels: hypergeometric, Bessel and the switching-count helpers.

All series use compensated (Neumaier) accumulation and a shared truncation
policy: summation stops once two consecutive terms fall below ``rel_tol``
times the running sum, and fails after ``max_terms`` terms.  The two-term
rule guards against false convergence of alternating series, which occur
here whenever the band coordinate is negative.

Arguments below the series' natural domain are reached by transformation
rather than analytic continuation machinery: the Gauss series for negative
arguments goes through the Pfaff transformation (whose transformed argument
lies in [0, 1)), the Kummer series through the reflection
``Phi(alpha, beta; z) = exp(z) * Phi(beta - alpha, beta; -z)``, which keeps
every summand nonnegative for the parameter patterns used in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Iterator

from .model import ModelParams


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for all series evaluations."""

    rel_tol: float = 1e-12
    max_terms: int = 10000

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


DEFAULT_CONTROL = SeriesControl()


class SeriesConvergenceError(RuntimeError):
    """A series failed to meet rel_tol within max_terms terms."""


def _neumaier_step(total: float, comp: float, term: float,
                   rel_tol: float) -> tuple[float, float, bool]:
    """Add one term to a compensated (Neumaier) sum.

    Returns the new sum and compensation, and whether the term is at most
    ``rel_tol`` times the running value ``sum + compensation``.
    """
    s = total + term
    if abs(total) >= abs(term):
        comp += (total - s) + term
    else:
        comp += (term - s) + total
    return s, comp, abs(term) <= rel_tol * max(abs(s + comp), 1e-300)


def _sum_series(terms: Iterator[float], label: str, ctl: SeriesControl,
                first: float = 0.0, z: float | None = None,
                detail: str = " in {max_terms} terms (z={z})"
                ) -> tuple[float, int]:
    """Sum ``first`` and the terms of a series; returns (value, terms used).

    Stops after two consecutive small terms (see ``_neumaier_step``) and
    raises ``SeriesConvergenceError`` on a non-finite term or when
    ``ctl.max_terms`` terms do not suffice; ``detail`` completes the
    second message and is filled with ``max_terms`` and ``z``.
    """
    total, comp, small = first, 0.0, 0
    for n, term in zip(range(1, ctl.max_terms + 1), terms):
        if not math.isfinite(term):
            raise SeriesConvergenceError(f"{label} series overflowed")
        total, comp, is_small = _neumaier_step(total, comp, term, ctl.rel_tol)
        small = small + 1 if is_small else 0
        if small >= 2:
            return total + comp, n
    raise SeriesConvergenceError(f"{label} series did not converge"
                                 + detail.format(max_terms=ctl.max_terms, z=z))


def _check_beta(beta: float, name: str = "beta") -> None:
    if beta <= 0 and beta == round(beta):
        raise ValueError(f"{name} must not be zero or a negative integer")


def _gauss_series(b0: float, b1: float, beta: float, z: float,
                  ctl: SeriesControl) -> float:
    # Direct series; caller guarantees 0 <= z < 1.
    def terms() -> Iterator[float]:
        term = 1.0
        for n in count():
            term *= (b0 + n) * (b1 + n) / ((beta + n) * (n + 1.0)) * z
            yield term

    return _sum_series(terms(), "Gauss", ctl, 1.0, z)[0]


def gauss_2f1(b0: float, b1: float, beta: float, z: float,
              ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Gauss hypergeometric F(b0, b1; beta; z) for z < 1.

    Direct series on [0, 1); Pfaff-transformed series for z < 0, so the
    effective argument always lies in [0, 1).
    """
    _check_beta(beta)
    if z >= 1.0:
        raise ValueError("argument must satisfy z < 1")
    if z >= 0.0:
        return _gauss_series(b0, b1, beta, z, ctl)
    w = z / (z - 1.0)
    return (1.0 - z) ** (-b0) * _gauss_series(b0, beta - b1, beta, w, ctl)


def kummer_phi(alpha: float, beta: float, z: float,
               ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Confluent hypergeometric Phi(alpha, beta; z).

    Negative arguments are routed through the Kummer reflection to avoid
    cancellation between alternating terms.
    """
    _check_beta(beta)
    if alpha == 0.0:
        return 1.0
    if z < 0.0:
        return math.exp(z) * kummer_phi(beta - alpha, beta, -z, ctl)

    def terms() -> Iterator[float]:
        term = 1.0
        for n in count():
            term *= (alpha + n) / ((beta + n) * (n + 1.0)) * z
            yield term

    return _sum_series(terms(), "Kummer", ctl, 1.0, z)[0]


def bessel_i(order: int, z: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
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

    return _sum_series(terms(), "Bessel", ctl, lead, z)[0]


def psi_pair(t: float, z: float, params: ModelParams,
             ctl: SeriesControl = DEFAULT_CONTROL) -> tuple[float, float]:
    """The two switching-count series driving the regime occupation laws.

    Returns ``(psi0, psi1)`` where::

        psi0(t, z) = sum_{n>=1} (l0 l1)^n     t^(2n)   / (2n)!   Phi(n, 2n+1; z)
        psi1(t, z) = sum_{n>=1} (l0 l1)^(n-1) t^(2n-1) / (2n-1)! Phi(n, 2n;   z)

    psi0 collects even switching counts, psi1 odd ones.  Both vanish at
    t = 0; psi0 vanishes identically when either rate is zero.
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
    for n in range(1, ctl.max_terms + 1):
        term0 = c0 * kummer_phi(n, 2 * n + 1, z, ctl)
        term1 = c1 * kummer_phi(n, 2 * n, z, ctl)
        if not (math.isfinite(term0) and math.isfinite(term1)):
            raise SeriesConvergenceError("switching-count series overflowed")
        total0, comp0, done0 = _neumaier_step(total0, comp0, term0, ctl.rel_tol)
        total1, comp1, done1 = _neumaier_step(total1, comp1, term1, ctl.rel_tol)
        small = small + 1 if (done0 and done1) else 0
        if small >= 2:
            return (total0 + comp0, total1 + comp1)
        c0 *= ll * t * t / ((2 * n + 1.0) * (2 * n + 2.0))
        c1 *= ll * t * t / ((2 * n) * (2 * n + 1.0))
    raise SeriesConvergenceError(
        f"switching-count series did not converge in {ctl.max_terms} terms")


_GH_KINDS = ("G1", "H1", "G2", "H2")


def gh_coefficient(kind: str, n: int, t: float, params: ModelParams,
                   ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Kummer-function combinations entering the telegraph moment series.

    The argument of every Kummer factor is ``(lambda0 - lambda1) * t``; the
    mirrored starting regime is reached by passing ``-t``.  When the rates
    agree the combinations collapse to 1/(2n+1), 0, 1/(2n+1), 1/(2n+3) for
    G1, H1, G2, H2 respectively.
    """
    if kind not in _GH_KINDS:
        raise ValueError(f"kind must be one of {_GH_KINDS}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    arg = (params.lambda0 - params.lambda1) * t
    phi = lambda a, b: kummer_phi(a, b, arg, ctl)
    if kind == "G1":
        return phi(n, 2 * n + 1) - (2.0 * n / (2 * n + 1.0)) * phi(n + 1, 2 * n + 2)
    if kind == "H1":
        return phi(n + 1, 2 * n + 2) - phi(n + 2, 2 * n + 3)
    if kind == "G2":
        return ((2.0 * n / (2 * n + 1.0)) * phi(n + 2, 2 * n + 3)
                - (4.0 * n / (2 * n + 1.0)) * phi(n + 1, 2 * n + 2)
                + phi(n, 2 * n + 1))
    return ((2.0 * n + 4.0) / (2 * n + 3.0) * phi(n + 3, 2 * n + 4)
            - 2.0 * phi(n + 2, 2 * n + 3)
            + phi(n + 1, 2 * n + 2))

"""Reference values computed apart from ``oubv``.

Nothing here imports the package under test.  Each reference comes from a
route that differs from the package's own evaluation route:

* generator exponentials (``mpmath.expm`` at 40 digits) for the regime
  occupation laws, ``mgf-gamma`` and every first/second moment: the moments
  of a process driven by a two-state chain solve one linear ODE
  ``y' = M y`` (Van Loan's block construction), so ``y(t) = expm(M t) y(0)``;
* ``mpmath.hyp2f1`` / ``hyp1f1`` / ``besseli`` for the transform, the
  switch-count generating function and the telegraph density;
* ``mpmath.diff`` of the transform at ``q = 0`` for the mean falling time;
* root finding and quadrature on the forward flow composition for the
  crossing times and the joint (position, switch count) densities.

Parameters are passed as plain tuples ``(l0, l1, a0, a1, g0, g1)``.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 40


def _mpf_params(p):
    return tuple(mp.mpf(v) for v in p)


# ---------------------------------------------------------------------------
# Generator exponentials
# ---------------------------------------------------------------------------

def occupation(s, p):
    """``expm(Q s)`` as (pi00, pi01, pi10, pi11)."""
    with mp.workdps(DPS):
        l0, l1, *_ = _mpf_params(p)
        e = mp.expm(mp.matrix([[-l0, l0], [l1, -l1]]) * mp.mpf(s))
        return tuple(float(e[i, j]) for i in (0, 1) for j in (0, 1))


def mgf_gamma(t, start, p):
    """``E_start[exp(-int gamma_e)] = (expm((Q - diag gamma) t) 1)_start``."""
    with mp.workdps(DPS):
        l0, l1, _, _, g0, g1 = _mpf_params(p)
        e = mp.expm(mp.matrix([[-l0 - g0, l0], [l1, -l1 - g1]]) * mp.mpf(t))
        return float(e[start, 0] + e[start, 1])


def restricted_moments(t, x, start, p):
    """(P(e=j), E[X; e=j], E[X^2; e=j]) for j = 0, 1, as mp numbers.

    ``X' = a_e - gamma_e X`` with regime chain ``e``.  With ``gamma = 0``
    and ``x = 0``, X is the telegraph process itself.
    """
    l0, l1, a0, a1, g0, g1 = _mpf_params(p)
    # Q transposed acts on the column of per-regime quantities.
    qt = [[-l0, l1], [l0, -l1]]
    a, g = (a0, a1), (g0, g1)
    m = mp.zeros(6, 6)
    for i in range(2):
        for j in range(2):
            m[i, j] = qt[i][j]
            m[2 + i, 2 + j] = qt[i][j]
            m[4 + i, 4 + j] = qt[i][j]
        m[2 + i, i] += a[i]
        m[2 + i, 2 + i] -= g[i]
        m[4 + i, 2 + i] += 2 * a[i]
        m[4 + i, 4 + i] -= 2 * g[i]
    x = mp.mpf(x)
    y0 = mp.matrix(6, 1)
    y0[start, 0] = 1
    y0[2 + start, 0] = x
    y0[4 + start, 0] = x * x
    y = mp.expm(m * mp.mpf(t)) * y0
    return (y[0], y[1]), (y[2], y[3]), (y[4], y[5])


def mean_var(t, x, start, p):
    """Mean and variance of X(t) from the generator exponential."""
    with mp.workdps(DPS):
        _, m, s = restricted_moments(t, x, start, p)
        mean = m[0] + m[1]
        return float(mean), float(s[0] + s[1] - mean * mean)


def telegraph_moment(order, i, j, t, p):
    """``E[T(t)^order ; e(t) = j | e(0) = i]`` with ``T = int a_e``."""
    with mp.workdps(DPS):
        _, m, s = restricted_moments(t, 0, i, (p[0], p[1], p[2], p[3], 0, 0))
        return float((m, s)[order - 1][j])


def telegraph_cov(i, t, s, p):
    """``E[T(t) T(s) | i]`` for ``t > s`` by the Markov property at s."""
    with mp.workdps(DPS):
        q = (p[0], p[1], p[2], p[3], 0, 0)
        _, m_s, s_s = restricted_moments(s, 0, i, q)
        total = s_s[0] + s_s[1]
        for j in (0, 1):
            _, m_rest, _ = restricted_moments(t - s, 0, j, q)
            total += m_s[j] * (m_rest[0] + m_rest[1])
        return float(total)


def ou_reference(t, x, gamma, sigma):
    """Textbook mean and variance of dY = -gamma Y dt + sigma dW, Y(0) = x."""
    with mp.workdps(DPS):
        t, x, gamma, sigma = (mp.mpf(v) for v in (t, x, gamma, sigma))
        return (float(x * mp.exp(-gamma * t)),
                float(sigma ** 2 / (2 * gamma) * (1 - mp.exp(-2 * gamma * t))))


def switch_count_mgf(z, t, n, start, p):
    """``E[exp(z T(t)) ; N(t) = n | start]`` by the augmented generator.

    States (regime, count) for counts 0..n; counts only grow, so cutting the
    chain at n is exact for the count-n block.  The exponential acts on one
    vector by a Taylor series over short sub-steps.
    """
    with mp.workdps(DPS):
        l0, l1, a0, a1, _, _ = _mpf_params(p)
        z, t = mp.mpf(z), mp.mpf(t)
        lam, vel = (l0, l1), (a0, a1)
        diag = [z * vel[r] - lam[r] for r in (0, 1)]
        size = 2 * (n + 1)
        # Row vector v: v' = v A, with A[(r,k),(r,k)] = diag[r] and
        # A[(r,k),(1-r,k+1)] = lam[r].
        v = [mp.mpf(0)] * size
        v[start] = mp.mpf(1)
        norm = max(abs(diag[0]), abs(diag[1])) + max(l0, l1)
        steps = max(1, int(mp.ceil(norm * t)))
        h = t / steps
        for _ in range(steps):
            term, acc = v, list(v)
            k = 1
            while True:
                nxt = [mp.mpf(0)] * size
                for idx, val in enumerate(term):
                    if not val:
                        continue
                    r, c = idx % 2, idx // 2
                    nxt[idx] += val * diag[r] * h / k
                    if c < n:
                        nxt[2 * (c + 1) + (1 - r)] += val * lam[r] * h / k
                acc = [u + w for u, w in zip(acc, nxt)]
                term = nxt
                k += 1
                if max(abs(w) for w in term) < mp.mpf(10) ** (-DPS + 2):
                    break
            v = acc
        return float(v[2 * n] + v[2 * n + 1])


def switch_count_mgf_kummer(z, t, n, start, p):
    """The same quantity from the paper's Kummer-function form (hyp1f1)."""
    with mp.workdps(DPS):
        l0, l1, a, _, _, _ = _mpf_params(p)
        z, t = mp.mpf(z), mp.mpf(t)
        if start == 0:
            w = (l0 - l1 - 2 * a * z) * t
            expo = mp.exp(-(l0 - a * z) * t)
        else:
            w = (2 * a * z - (l0 - l1)) * t
            expo = mp.exp(-(l1 + a * z) * t)
        m = n // 2
        if n % 2 == 0:
            coeff = (l0 * l1) ** m * t ** (2 * m) / mp.factorial(2 * m)
            phi = mp.hyp1f1(m, 2 * m + 1, w)
        else:
            lead = l0 if start == 0 else l1
            coeff = lead * (l0 * l1) ** m * t ** (2 * m + 1) / mp.factorial(2 * m + 1)
            phi = mp.hyp1f1(m + 1, 2 * m + 2, w)
        return float(coeff * phi * expo)


# ---------------------------------------------------------------------------
# Falling time
# ---------------------------------------------------------------------------

def hyper_roots(q, p):
    """(beta0, beta1, b0, b1) with b0 <= b1 the roots of
    ``b^2 - (beta0 + beta1) b + beta0 beta1 - beta0(0) beta1(0)``."""
    with mp.workdps(DPS):
        l0, l1, _, _, g0, g1 = _mpf_params(p)
        q = mp.mpf(q)
        beta0, beta1 = (l0 + q) / g0, (l1 + q) / g1
        roots = sorted(mp.polyroots([1, -(beta0 + beta1),
                                     beta0 * beta1 - (l0 / g0) * (l1 / g1)]),
                       key=lambda r: mp.re(r))
        return tuple(float(v) for v in (beta0, beta1, mp.re(roots[0]),
                                        mp.re(roots[1])))


def _transform_mp(q, x, start, p):
    l0, l1, a0, a1, g0, g1 = _mpf_params(p)
    high, low = a0 / g0, a1 / g1
    z = (high - mp.mpf(x)) / (high - low)
    beta0, beta1 = (l0 + q) / g0, (l1 + q) / g1
    disc = mp.sqrt((beta0 - beta1) ** 2 + 4 * (l0 / g0) * (l1 / g1))
    b0, b1 = (beta0 + beta1 - disc) / 2, (beta0 + beta1 + disc) / 2
    if start == 1:
        return mp.hyp2f1(b0, b1, beta0, z)
    return l0 / (l0 + q) * mp.hyp2f1(b0, b1, beta0 + 1, z)


def laplace_falling(q, x, start, p):
    """``E[exp(-q T(x)) | start]`` from mpmath's hyp2f1."""
    with mp.workdps(DPS):
        return float(_transform_mp(mp.mpf(q), x, start, p))


def mean_falling(x, start, p):
    """``-d/dq E[exp(-q T)]`` at q = 0, differentiated by mpmath."""
    with mp.workdps(DPS):
        return float(-mp.diff(lambda q: _transform_mp(q, x, start, p), 0))


def t_star(x, p):
    with mp.workdps(DPS):
        _, _, a0, a1, g0, g1 = _mpf_params(p)
        high, low = a0 / g0, a1 / g1
        return float(mp.log((mp.mpf(x) - low) / (high - low)) / g1)


def laplace_falling_special(q, x, start, p):
    """Transform when one switching rate is zero, by direct construction.

    lambda0 = 0: from regime 1 the fall happens iff no switch occurs before
    t*(x).  lambda1 = 0: from regime 1 the fall takes exactly t*(x); from
    regime 0 the process relaxes toward the upper edge for an Exp(lambda0)
    time tau and then falls deterministically, so the transform is
    ``int lambda0 exp(-(lambda0 + q) tau - q t*(x(tau))) dtau``.
    """
    with mp.workdps(DPS):
        l0, l1, a0, a1, g0, g1 = _mpf_params(p)
        q, x = mp.mpf(q), mp.mpf(x)
        high, low = a0 / g0, a1 / g1

        def tstar(y):
            return mp.log((y - low) / (high - low)) / g1

        if l0 == 0:
            return 0.0 if start == 0 else float(mp.exp(-(l1 + q) * tstar(x)))
        if start == 1:
            return float(mp.exp(-q * tstar(x)))
        f = lambda tau: l0 * mp.exp(-(l0 + q) * tau
                                    - q * tstar(high + (x - high) * mp.exp(-g0 * tau)))
        return float(mp.quad(f, [0, 1, 10, mp.inf]))


# ---------------------------------------------------------------------------
# Telegraph density
# ---------------------------------------------------------------------------

def telegraph_density(i, j, t, xv, p):
    """Continuous part of the law of (T(t), e(t) = j | i), Bessel form."""
    with mp.workdps(DPS):
        l0, l1, a0, a1, _, _ = _mpf_params(p)
        t, xv = mp.mpf(t), mp.mpf(xv)
        spread = a0 - a1
        xi = (xv - a1 * t) / spread          # time spent in regime 0
        if not 0 < xi < t:
            return 0.0
        base = mp.exp(-l0 * xi - l1 * (t - xi))
        arg = 2 * mp.sqrt(l0 * l1 * xi * (t - xi))
        if i != j:
            return float((l0 if i == 0 else l1) / spread * base * mp.besseli(0, arg))
        shape = mp.sqrt(xi / (t - xi)) if i == 0 else mp.sqrt((t - xi) / xi)
        return float(mp.sqrt(l0 * l1) / spread * shape * base * mp.besseli(1, arg))


# ---------------------------------------------------------------------------
# Flow composition: crossing times and joint densities
# ---------------------------------------------------------------------------

def _flow(regime, x, dt, p):
    a, g = (p[2], p[3])[regime], (p[4], p[5])[regime]
    c = a / g
    return c + (x - c) * mp.exp(-g * dt)


def _one_switch(first, tau, t, x, p):
    return _flow(1 - first, _flow(first, x, tau, p), t - tau, p)


def _two_switch(first, tau1, tau2, t, x, p):
    y = _flow(first, x, tau1, p)
    y = _flow(1 - first, y, tau2 - tau1, p)
    return _flow(first, y, t - tau2, p)


def _bracket_root(f, lo, hi):
    return mp.findroot(f, (lo, hi), solver="anderson")


def tau_cross(branch, y, t, x, p):
    """Switch epoch tau in [0, t] with one switch landing at y at time t.

    ``tau0``: regime 0 first, then regime 1; ``tau1``: the mirror order.
    """
    with mp.workdps(DPS):
        first = 0 if branch == "tau0" else 1
        mpp = _mpf_params(p)
        t, x, y = mp.mpf(t), mp.mpf(x), mp.mpf(y)
        f = lambda tau: _one_switch(first, tau, t, x, mpp) - y
        return float(_bracket_root(f, mp.mpf(0), t))


def joint_density(y, t, n, x, start, p):
    """Density in y of (X(t) = y, exactly n switches) for n in {0, 1, 2}.

    Switch epochs of a chain with rates (l_start, l_other) have density
    ``l_s^ceil(n/2) l_o^floor(n/2) exp(-time-weighted rates)`` on the
    simplex; pushing it through the flow composition gives the density.
    """
    with mp.workdps(25):
        mpp = _mpf_params(p)
        l_s, l_o = mpp[start], mpp[1 - start]
        t, x, y = mp.mpf(t), mp.mpf(x), mp.mpf(y)
        if n == 0:
            return 0.0
        if n == 1:
            f = lambda tau: _one_switch(start, tau, t, x, mpp) - y
            lo, hi = f(mp.mpf(0)), f(t)
            if lo * hi >= 0:
                return 0.0
            tau = _bracket_root(f, mp.mpf(0), t)
            weight = l_s * mp.exp(-l_s * tau - l_o * (t - tau))
            return float(weight / abs(mp.diff(f, tau)))

        def inner(tau1):
            g = lambda tau2: _two_switch(start, tau1, tau2, t, x, mpp) - y
            lo, hi = g(tau1), g(t)
            if lo * hi >= 0:
                return mp.mpf(0)
            tau2 = _bracket_root(g, tau1, t)
            weight = l_s * l_o * mp.exp(-l_s * tau1 - l_o * (tau2 - tau1)
                                        - l_s * (t - tau2))
            return weight / abs(mp.diff(g, tau2))

        # inner() is zero past the tau1 where the two-switch image leaves y;
        # that edge is where the one-switch composition (second regime run
        # to t) passes y.
        edge = lambda tau1: _one_switch(start, tau1, t, x, mpp) - y
        e0, e1 = edge(mp.mpf(0)), edge(t)
        points = [mp.mpf(0), t]
        if e0 * e1 < 0:
            points = [mp.mpf(0), _bracket_root(edge, mp.mpf(0), t), t]
        return float(mp.quad(inner, points))

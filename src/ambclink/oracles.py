"""Independent numeric oracles used to cross-validate the closed forms.

Every function here recomputes a result by a route that shares no code with
the implementation it checks: combinatorial moment expansion, quadrature,
bisection, grid search, or brute-force grouping. Each imports the scipy
routine it needs when it runs, so importing the package never loads scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import HypothesisMoments


def exp_moment_mean_var(p: float, beta1: float, beta3: float, n_aw: float, n_samples: int):
    """Energy-statistic moments by direct expansion over exponential moments.

    With Z = |h s|^2 exponential of mean P, x = s h (b1 + b3 Z):
      E|x|^(2j) = sum_m C(2j, m) b1^(2j-m) b3^m E[Z^(m+j)],  E[Z^k] = k! P^k.
    Per-sample: E|y|^2 = E|x|^2 + Naw,
                E|y|^4 = E|x|^4 + 2 Naw^2 + 4 E|x|^2 Naw.
    """
    def ex_pow(j: int) -> float:
        # E|x|^(2j)
        return sum(
            math.comb(2 * j, m)
            * beta1 ** (2 * j - m)
            * beta3**m
            * math.factorial(m + j)
            * p ** (m + j)
            for m in range(2 * j + 1)
        )

    ex2 = ex_pow(1)
    ex4 = ex_pow(2)
    ey2 = ex2 + n_aw
    ey4 = ex4 + 2 * n_aw**2 + 4 * ex2 * n_aw
    return ey2, (ey4 - ey2**2) / n_samples


def q_integral(x: float) -> float:
    """Q(x) by adaptive quadrature of the defining integral."""
    from scipy.integrate import quad

    val, _ = quad(lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi),
                  x, math.inf, epsabs=0.0, epsrel=1e-13, limit=500)
    return val


def pdf_equality_root(m: HypothesisMoments) -> float:
    """Crossing point of the two Gaussian PDFs by bracketed root finding on
    the log-density difference."""
    from scipy.optimize import brentq

    def g(t: float) -> float:
        return (
            -((t - m.delta0) ** 2) / (2 * m.var0) - 0.5 * math.log(m.var0)
            + ((t - m.delta1) ** 2) / (2 * m.var1) + 0.5 * math.log(m.var1)
        )

    lo, hi = min(m.delta0, m.delta1), max(m.delta0, m.delta1)
    s = max(math.sqrt(m.var0), math.sqrt(m.var1))
    for a, b in ((lo, hi), (lo - 3 * s, hi + 3 * s), (lo - 10 * s, hi + 10 * s)):
        if g(a) * g(b) <= 0:
            return float(brentq(g, a, b, rtol=1e-15))
    raise ValueError("no bracketed PDF crossing for these moments")


def grid_min_threshold(m: HypothesisMoments):
    """Threshold minimizing the closed-form BER over a grid of 10 000.

    Grid spans [delta_min - 3 s_min, delta_max + 3 s_max]. Returns (T, BER).
    Q comes from scipy's erfc, not from analysis.q_function, which this
    oracle checks.
    """
    from scipy.special import erfc

    if m.delta0 <= m.delta1:
        lo_mean, s_lo, hi_mean, s_hi = m.delta0, math.sqrt(m.var0), m.delta1, math.sqrt(m.var1)
    else:
        lo_mean, s_lo, hi_mean, s_hi = m.delta1, math.sqrt(m.var1), m.delta0, math.sqrt(m.var0)
    grid = np.linspace(lo_mean - 3 * s_lo, hi_mean + 3 * s_hi, 10_000)

    def q(x):
        return 0.5 * erfc(x / math.sqrt(2.0))

    bers = 0.5 * q((grid - lo_mean) / s_lo) + 0.5 * q((hi_mean - grid) / s_hi)
    idx = int(np.argmin(bers))
    return float(grid[idx]), float(bers[idx])


def grouped_mean_var(energies, bits):
    """Brute-force per-group sample mean and unbiased variance keyed by bit."""
    energies = np.asarray(energies, dtype=float)
    bits = np.asarray(bits)
    out = {}
    for b in (0, 1):
        group = energies[bits == b]
        if group.size < 2:
            raise ValueError(f"group {b} needs >= 2 members, has {group.size}")
        mean = group.mean()
        var = ((group - mean) ** 2).sum() / (group.size - 1)
        out[b] = (float(mean), float(var))
    return out

"""Independent numeric oracles used to cross-validate the closed forms.

Every function here recomputes a result by a route that shares no code with
the implementation it checks: moment expansion, Gauss-Legendre quadrature,
grid search, or brute-force grouping. Each imports what it needs beyond numpy
when it runs, so `import ambclink` loads no scipy or numpy.polynomial.
"""

from __future__ import annotations

import functools
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


@functools.cache
def _gauss_legendre():
    from numpy.polynomial.legendre import leggauss   # loads numpy.polynomial on first use
    return leggauss(20)


def q_integral(x: float) -> float:
    """Q(x) for |x| <= 37, where Q is a normal float: phi(t) over [x, max(x, 0) + 40]
    by Gauss-Legendre quadrature in 80 panels of 20 nodes."""
    nodes, weights = _gauss_legendre()
    half = (max(x, 0.0) + 40.0 - x) / 160.0     # half a panel
    t = x + half * (np.arange(1.0, 160.0, 2.0)[:, None] + nodes)
    return half * float(np.sum(np.exp(-0.5 * t * t) @ weights)) / math.sqrt(2.0 * math.pi)


def grid_min_threshold(m: HypothesisMoments):
    """Threshold minimizing the closed-form BER over a grid of 10 000.

    Grid spans [delta_min - 3 s_min, delta_max + 3 s_max]. Returns (T, BER)
    at the first grid minimum. Q comes from scipy's erfc, not from
    analysis.q_function, which this oracle checks.

    Only cells of 33 grid steps that can hold the minimum are evaluated.
    Q((g - lo)/s_lo) falls and Q((hi - g)/s_hi) rises along the grid, so their
    halves at a cell's right and left ends bound its BER from below; a cell
    whose bound exceeds the least BER at any cell end by more than 1e-12 (far
    above erfc's rounding) holds no minimum. The answer is the full grid's.
    """
    from scipy.special import erfc

    if m.delta0 <= m.delta1:
        lo_mean, s_lo, hi_mean, s_hi = m.delta0, math.sqrt(m.var0), m.delta1, math.sqrt(m.var1)
    else:
        lo_mean, s_lo, hi_mean, s_hi = m.delta1, math.sqrt(m.var1), m.delta0, math.sqrt(m.var0)
    grid = np.linspace(lo_mean - 3 * s_lo, hi_mean + 3 * s_hi, 10_000)

    def q(x):
        return 0.5 * erfc(x / math.sqrt(2.0))

    def halves(g):
        return 0.5 * q((g - lo_mean) / s_lo), 0.5 * q((hi_mean - g) / s_hi)

    falling, rising = halves(grid[::33])            # at the cell ends 0, 33, ..., 9999
    # cells whose bound is not above the least end BER + 1e-12; a NaN keeps them all
    cells = np.flatnonzero(~(falling[1:] + rising[:-1] > np.min(falling + rising) + 1e-12))
    idx = (33 * cells[:, None] + np.arange(34)).ravel()  # ascending; shared ends twice
    bers = np.add(*halves(grid[idx]))
    i = int(np.argmin(bers))
    return float(grid[idx[i]]), float(bers[i])


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

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


GRID_POINTS, CELL = 10_000, 33    # 303 cells; the cell ends 0, 33, ..., 9999 hold both grid ends


def grid_min_threshold(m: HypothesisMoments):
    """Threshold minimizing the closed-form BER over a grid of 10 000.

    Grid spans [delta_min - 3 s_min, delta_max + 3 s_max]. Returns (T, BER)
    at the first grid minimum: floats for moments of floats, arrays of one
    tuple per element for moments of arrays, each element bit for bit the
    float call's. Q comes from scipy's erfc, not from analysis.q_function,
    which this oracle checks. The grid points are np.linspace's, i*step +
    start with the last at stop.

    Only cells of 33 grid steps that can hold the minimum are evaluated.
    Q((g - lo)/s_lo) falls and Q((hi - g)/s_hi) rises along the grid, so their
    halves at a cell's right and left ends bound its BER from below; a cell
    whose bound exceeds the least BER at any cell end by more than 1e-12 (far
    above erfc's rounding) holds no minimum. The answer is the full grid's.
    An array call takes the cell ends of every tuple at once, then all their
    candidate cells at once.
    """
    from scipy.special import erfc

    moments = np.array(m, dtype=float).reshape(4, -1)    # one column per tuple
    # lo mean, hi mean and their variances, as the float call orders them
    lo_mean, hi_mean, var_lo, var_hi = np.where(moments[0] <= moments[1], moments,
                                                moments[[1, 0, 3, 2]])
    s_lo, s_hi = np.sqrt(var_lo), np.sqrt(var_hi)
    start, stop = lo_mean - 3 * s_lo, hi_mean + 3 * s_hi
    step = (stop - start) / (GRID_POINTS - 1)

    def half(x, s):     # 0.5 * Q(x / s), in place of x
        x /= s
        x /= math.sqrt(2.0)
        erfc(x, out=x)
        x *= 0.5
        x *= 0.5
        return x

    def halves(i, r):   # grid points i of tuples r, one column each, and the BER's halves there
        g = i * step[r]
        g += start[r]
        np.copyto(g, stop[r], where=i == GRID_POINTS - 1)
        return g, half(g - lo_mean[r], s_lo[r]), half(hi_mean[r] - g, s_hi[r])

    with np.errstate(over="ignore", invalid="ignore"):
        _, falling, rising = halves(np.arange(0.0, GRID_POINTS, CELL)[:, None], slice(None))
        # cells whose bound is not above the least end BER + 1e-12; a NaN keeps them all
        least_end = np.min(falling + rising, axis=0)
        rows, cells = np.nonzero(~(falling[1:] + rising[:-1] > least_end + 1e-12).T)
        # a column per candidate cell, tuple by tuple, ascending
        grid, falling, rising = halves(CELL * cells + np.arange(CELL + 1.0)[:, None], rows)
    bers = falling + rising
    # each cell's first least BER, or its first NaN, as np.argmin picks; then
    # each tuple's first cell holding its least BER, or a NaN
    at, cols = np.argmin(bers, axis=0), np.arange(len(rows))
    cell_least = bers[at, cols]
    tuples = np.arange(len(lo_mean))
    least = np.minimum.reduceat(cell_least, np.searchsorted(rows, tuples))   # NaN if any is
    hits = np.flatnonzero((cell_least == least[rows]) | np.isnan(cell_least))
    first = hits[np.searchsorted(rows[hits], tuples)]
    t, ber = grid[at[first], first], cell_least[first]
    if isinstance(m.delta0, np.ndarray):
        return t.reshape(np.shape(m.delta0)), ber.reshape(np.shape(m.delta0))
    return float(t[0]), float(ber[0])


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

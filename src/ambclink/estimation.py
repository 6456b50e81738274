"""Pilot-based estimation of the energy-statistic moments, and the
threshold-error metric."""

from __future__ import annotations

import numpy as np

from .analysis import HypothesisMoments
from .config import valid_pilot_count
from .errors import EstimationError


def pilot_bits(k_train: int) -> np.ndarray:
    """Bits of the k_train leading pilot symbols: balanced, alternating 0/1,
    so the first k pilots of a longer run are exactly the pilots of count k."""
    if not valid_pilot_count(k_train):
        raise EstimationError(f"k_train must be an even integer >= 4, got {k_train}")
    return np.arange(k_train, dtype=np.int64) % 2


def pilot_statistics(energies: np.ndarray, k_train: int) -> HypothesisMoments:
    """Grouped sample mean/variance of the k_train leading pilot energies
    along the last axis, for any leading axes (frames, realizations).

    delta_i = (2/K_train) sum A_k, var_i = (2/(K_train-2)) sum (A_k - delta_i)^2
    over the pilots whose known bit is i. Returns the estimated
    HypothesisMoments (delta0, delta1, var0, var1), each of shape
    energies.shape[:-1]: floats for one frame, which must be valid moments,
    and otherwise arrays, NaN in a frame whose estimate is degenerate.
    """
    energies = np.asarray(energies, dtype=float)
    bits = pilot_bits(k_train)
    if energies.shape[-1] < k_train:
        raise EstimationError(f"need at least {k_train} energies, got {energies.shape[-1]}")
    pilots = energies[..., :k_train]
    means, variances = [], []
    for b in (0, 1):
        group = pilots[..., bits == b]
        mean = (2.0 / k_train) * group.sum(axis=-1)
        means.append(mean)
        variances.append((2.0 / (k_train - 2)) * ((group - mean[..., None]) ** 2).sum(axis=-1))
    return HypothesisMoments(means[0], means[1], variances[0], variances[1])


def relative_threshold_error(t_true, t_est):
    """|T - T_hat| / |T_hat|, the threshold approximation error metric,
    element by element over arrays that broadcast together."""
    t_est = np.asarray(t_est, dtype=float)
    if np.any(t_est == 0):
        raise EstimationError("relative threshold error undefined for t_est = 0")
    return np.abs(t_true - t_est) / np.abs(t_est)

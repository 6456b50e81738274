"""Pilot-based estimation of the energy-statistic moments, and the
threshold-error metric."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import valid_pilot_count
from .errors import EstimationError


@dataclass(frozen=True)
class PilotPlan:
    """Leading pilot symbols with balanced, alternating 0/1 bits."""

    k_train: int
    pilot_bits: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not valid_pilot_count(self.k_train):
            raise EstimationError(
                f"k_train must be an even integer >= 4, got {self.k_train}"
            )
        bits = np.arange(self.k_train, dtype=np.int64) % 2
        object.__setattr__(self, "pilot_bits", bits)


def pilot_statistics(energies: np.ndarray, plan: PilotPlan):
    """Grouped sample mean/variance of the leading pilot energies along the
    last axis, for any leading axes (frames, realizations).

    delta_i = (2/K_train) sum A_k, var_i = (2/(K_train-2)) sum (A_k - delta_i)^2
    over the pilots whose known bit is i. Returns (delta0, delta1, var0, var1),
    each of shape energies.shape[:-1].
    """
    energies = np.asarray(energies, dtype=float)
    k = plan.k_train
    if energies.shape[-1] < k:
        raise EstimationError(f"need at least {k} energies, got {energies.shape[-1]}")
    pilots = energies[..., :k]
    means, variances = [], []
    for b in (0, 1):
        group = pilots[..., plan.pilot_bits == b]
        mean = (2.0 / k) * group.sum(axis=-1)
        means.append(mean)
        variances.append((2.0 / (k - 2)) * ((group - mean[..., None]) ** 2).sum(axis=-1))
    return means[0], means[1], variances[0], variances[1]


def relative_threshold_error(t_true: float, t_est: float) -> float:
    """|T - T_hat| / |T_hat|, the threshold approximation error metric."""
    if t_est == 0:
        raise EstimationError("relative threshold error undefined for t_est = 0")
    return abs(t_true - t_est) / abs(t_est)

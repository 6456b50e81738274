"""Pilot-based estimation of the energy-statistic moments and threshold."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import ESTIMATED, HypothesisMoments, near_optimal_threshold
from .config import valid_pilot_count
from .errors import EstimationError, ModelValidityError


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


def estimate_moments(energies: np.ndarray, plan: PilotPlan) -> HypothesisMoments:
    """Grouped sample mean/variance of the leading pilot energies.

    delta_i = (2/K_train) sum A_k, var_i = (2/(K_train-2)) sum (A_k - delta_i)^2
    over the pilots whose known bit is i.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.size < plan.k_train:
        raise EstimationError(
            f"need at least {plan.k_train} energies, got {energies.size}"
        )
    pilots = energies[: plan.k_train]
    k = plan.k_train
    est = {}
    for b in (0, 1):
        group = pilots[plan.pilot_bits == b]
        if group.size < 2:
            raise EstimationError(f"pilot group {b} has fewer than 2 symbols")
        mean = (2.0 / k) * group.sum()
        var = (2.0 / (k - 2)) * ((group - mean) ** 2).sum()
        est[b] = (mean, var)
    (d0, v0), (d1, v1) = est[0], est[1]
    if v0 <= 0 or v1 <= 0:
        raise EstimationError("degenerate estimate: zero pilot-group variance")
    return HypothesisMoments(delta0=d0, delta1=d1, var0=v0, var1=v1, source=ESTIMATED)


def estimated_threshold(m: HypothesisMoments) -> float:
    """Near-optimal threshold evaluated at estimated moments."""
    try:
        return near_optimal_threshold(m)
    except ModelValidityError as exc:
        raise EstimationError(f"estimated threshold undefined: {exc}") from exc


def relative_threshold_error(t_true: float, t_est: float) -> float:
    """|T - T_hat| / |T_hat|, the threshold approximation error metric."""
    if t_est == 0:
        raise EstimationError("relative threshold error undefined for t_est = 0")
    return abs(t_true - t_est) / abs(t_est)

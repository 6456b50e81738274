"""Energy detection, end-to-end BER trials, and deterministic parallel sweeps."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, replace

import numpy as np

from .analysis import HypothesisMoments, ber_closed_form, hypothesis_moments, near_optimal_threshold
from .channel import ChannelRealization, channels_with_bdpr, draw_channels
from .config import MODES, SystemParams, valid_pilot_count
from .errors import AmbclinkError, ConfigError
from .estimation import PilotPlan, estimate_moments, estimated_threshold, relative_threshold_error
from .frontend import frame_energies
from .oracles import grid_min_threshold

CLOSED_FORM_TRUE = "closed_form_true"
ESTIMATED_POLICY = "estimated"
NUMERIC_ORACLE = "numeric_oracle"
POLICIES = (CLOSED_FORM_TRUE, ESTIMATED_POLICY, NUMERIC_ORACLE)

SWEEP_PS = "ps_dbm"
SWEEP_BDPR = "bdpr_db"

_WILSON_Z = 1.959963984540054  # two-sided 95%


def detect(energies, threshold: float, m: HypothesisMoments) -> np.ndarray:
    """0/1 decisions for symbol energies; a tie goes to the larger-mean hypothesis."""
    energies = np.asarray(energies)
    if m.delta0 > m.delta1:
        return (energies < threshold).astype(np.int64)
    return (energies >= threshold).astype(np.int64)


@dataclass(frozen=True)
class TrialResult:
    errors: int
    bits: int
    threshold: float
    ber_closed_form: float
    failed: bool = False


def ber_trial(
    params: SystemParams,
    real: ChannelRealization,
    rng: np.random.Generator,
    mode: str,
    threshold_policy: str = CLOSED_FORM_TRUE,
) -> TrialResult:
    """One frame: draw bits, draw their energy statistics, pick a threshold
    per policy, detect, and count errors on data symbols.

    Under the estimated policy the leading pilots are excluded from BER
    counting and the detector orders hypotheses by the estimated moments, so
    it never sees ground truth.
    """
    if threshold_policy not in POLICIES:
        raise ValueError(f"unknown threshold policy {threshold_policy!r}")
    k = params.k_symbols
    true_m = hypothesis_moments(params, real, mode)

    if threshold_policy == ESTIMATED_POLICY:
        plan = PilotPlan(params.k_train)
        bits = np.concatenate([plan.pilot_bits,
                               rng.integers(0, 2, k - plan.k_train)])
    else:
        plan = None
        bits = rng.integers(0, 2, k)

    energies = frame_energies(params, real, bits, rng, mode)

    decision_m = true_m
    if threshold_policy == CLOSED_FORM_TRUE:
        threshold = near_optimal_threshold(true_m)
    elif threshold_policy == NUMERIC_ORACLE:
        threshold, _ = grid_min_threshold(true_m)
    else:
        try:
            decision_m = estimate_moments(energies, plan)
            threshold = estimated_threshold(decision_m)
        except AmbclinkError:
            return TrialResult(0, 0, math.nan, math.nan, failed=True)

    data_slice = slice(plan.k_train, None) if plan is not None else slice(None)
    decided = detect(energies[data_slice], threshold, decision_m)
    errors = int(np.sum(decided != bits[data_slice]))
    n_bits = int(bits[data_slice].size)
    return TrialResult(
        errors=errors,
        bits=n_bits,
        threshold=threshold,
        ber_closed_form=ber_closed_form(true_m, threshold),
    )


def _check_counts(n_frames: int, n_realizations: int) -> None:
    for name, value in (("n_frames", n_frames), ("n_realizations", n_realizations)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}", fields=(name,))


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: a sweep variable, modes, and trial counts."""

    scenario: SystemParams
    sweep_var: str                      # SWEEP_PS or SWEEP_BDPR
    values: tuple
    modes: tuple = MODES
    threshold_policy: str = CLOSED_FORM_TRUE
    n_frames: int = 1
    n_realizations: int = 1
    master_seed: int = 0
    fixed_bdpr_db: float | None = None  # pin BDPR during a ps sweep

    def __post_init__(self):
        if self.sweep_var not in (SWEEP_PS, SWEEP_BDPR):
            raise ConfigError(f"unknown sweep variable {self.sweep_var!r}", fields=("sweep_var",))
        if not self.values:
            raise ConfigError("sweep values must be nonempty", fields=("values",))
        if not self.modes or not all(m in MODES for m in self.modes):
            raise ConfigError(f"modes must be a nonempty subset of {MODES}, got {self.modes!r}",
                              fields=("modes",))
        if self.threshold_policy not in POLICIES:
            raise ConfigError(f"unknown threshold policy {self.threshold_policy!r}",
                              fields=("threshold_policy",))
        if (self.threshold_policy == ESTIMATED_POLICY
                and not valid_pilot_count(self.scenario.k_train)):
            raise ConfigError(
                f"the {ESTIMATED_POLICY} policy needs an even pilot count >= 4, got "
                f"k_train={self.scenario.k_train} (pilot_fraction="
                f"{self.scenario.pilot_fraction})", fields=("pilot_fraction",))
        _check_counts(self.n_frames, self.n_realizations)


@dataclass(frozen=True)
class BerPoint:
    sweep_var: str
    value: float
    mode: str
    threshold_policy: str
    ber_empirical: float
    ber_ci_halfwidth: float
    ber_closed_form: float
    threshold_mean: float
    errors: int
    bits: int
    failures: int
    master_seed: int
    unreliable: bool    # fewer than 10 observed errors


def wilson_halfwidth(errors: int, bits: int, z: float = _WILSON_Z) -> float:
    """Half-width of the Wilson score interval for a binomial proportion."""
    if bits == 0:
        return math.nan
    p = errors / bits
    denom = 1.0 + z * z / bits
    return (z / denom) * math.sqrt(p * (1.0 - p) / bits + z * z / (4.0 * bits * bits))


def _realization_task(task):
    """One (sweep point, mode, realization): draw the channel once, then run
    n_frames frames through ber_trial. A pure function of the task, so results
    do not depend on the worker count.

    The channel seed excludes the mode and the sweep point (`point_key` enters
    only the frame seeds): modes are compared on identical fading, and sweep
    curves are paired across points (common random numbers), so point-to-point
    wiggle reflects the swept variable rather than fresh fading draws.
    """
    params, mode, policy, bdpr_db, n_frames, master_seed, point_key, r_idx = task
    ch_rng = np.random.default_rng(np.random.SeedSequence((master_seed, r_idx, 1)))
    if bdpr_db is None:
        real = draw_channels(params, ch_rng)
    else:
        real = channels_with_bdpr(params, bdpr_db, ch_rng)
    trials = []
    for f_idx in range(n_frames):
        rng = np.random.default_rng(
            np.random.SeedSequence((master_seed, *point_key, r_idx, 2, f_idx))
        )
        trials.append(ber_trial(params, real, rng, mode, policy))
    return real, trials


def _map_tasks(tasks: list, workers: int) -> list:
    """Results of _realization_task in task order; the only place a process
    pool is opened. At least four chunks per worker keep the load balanced
    when one worker runs slower than the other."""
    if workers > 1:
        chunksize = max(1, len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_realization_task, tasks, chunksize=chunksize))
    return [_realization_task(t) for t in tasks]


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[BerPoint]:
    """Run all sweep points; deterministic for a fixed master seed regardless
    of worker count."""
    tasks = []
    for pi, value in enumerate(spec.values):
        if spec.sweep_var == SWEEP_PS:
            params = replace(spec.scenario, ps_dbm=float(value))
            bdpr_db = spec.fixed_bdpr_db
        else:
            params, bdpr_db = spec.scenario, float(value)
        for mi, mode in enumerate(spec.modes):
            tasks.extend(
                (params, mode, spec.threshold_policy, bdpr_db, spec.n_frames,
                 spec.master_seed, (pi, mi), ri)
                for ri in range(spec.n_realizations)
            )
    results = iter(_map_tasks(tasks, workers))

    points = []
    for value in spec.values:
        for mode in spec.modes:
            errors = bits = failures = ok = 0
            thr_sum = cf_sum = 0.0
            for _ in range(spec.n_realizations):
                # sum per realization first; the CSV's last bits depend on this order
                _, trials = next(results)
                thr_part = cf_part = 0.0
                for res in trials:
                    if res.failed:
                        failures += 1
                        continue
                    errors += res.errors
                    bits += res.bits
                    thr_part += res.threshold
                    cf_part += res.ber_closed_form
                    ok += 1
                thr_sum += thr_part
                cf_sum += cf_part
            points.append(BerPoint(
                sweep_var=spec.sweep_var,
                value=float(value),
                mode=mode,
                threshold_policy=spec.threshold_policy,
                ber_empirical=errors / bits if bits else math.nan,
                ber_ci_halfwidth=wilson_halfwidth(errors, bits),
                ber_closed_form=cf_sum / ok if ok else math.nan,
                threshold_mean=thr_sum / ok if ok else math.nan,
                errors=errors,
                bits=bits,
                failures=failures,
                master_seed=spec.master_seed,
                unreliable=errors < 10,
            ))
    return points


@dataclass(frozen=True)
class PilotPoint:
    pilot_fraction: float
    k_train: int
    r_mean: float
    r_median: float
    r_p90: float
    frames: int
    failures: int
    master_seed: int


def run_pilot_sweep(
    params: SystemParams,
    fractions,
    mode: str,
    n_realizations: int,
    n_frames: int,
    master_seed: int,
    workers: int = 1,
) -> list[PilotPoint]:
    """Relative threshold-error statistics versus pilot overhead.

    Each fraction reuses the same channel/noise seed schedule (frame seeds
    carry no point index) so points differ only in pilot count.
    """
    _check_counts(n_frames, n_realizations)
    if any(frac <= 0 for frac in fractions):  # SystemParams reads 0 as "no pilots"
        raise ConfigError("pilot fractions must be > 0", fields=("pilot_fraction",))
    per_fraction = [replace(params, pilot_fraction=float(frac)) for frac in fractions]
    tasks = [
        (p, mode, ESTIMATED_POLICY, None, n_frames, master_seed, (), r)
        for p in per_fraction
        for r in range(n_realizations)
    ]
    results = iter(_map_tasks(tasks, workers))

    points = []
    for p in per_fraction:
        errs = []
        for _ in range(n_realizations):
            real, trials = next(results)
            t_true = near_optimal_threshold(hypothesis_moments(p, real, mode))
            for res in trials:
                if not res.failed:
                    with suppress(AmbclinkError):   # a failed frame
                        errs.append(relative_threshold_error(t_true, res.threshold))
        good = np.array(errs, dtype=float)
        points.append(PilotPoint(
            pilot_fraction=p.pilot_fraction,
            k_train=p.k_train,
            r_mean=float(np.mean(good)) if good.size else math.nan,
            r_median=float(np.median(good)) if good.size else math.nan,
            r_p90=float(np.percentile(good, 90)) if good.size else math.nan,
            frames=int(good.size),
            failures=n_realizations * n_frames - good.size,
            master_seed=master_seed,
        ))
    return points

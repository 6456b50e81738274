"""Energy detection, end-to-end BER trials, and deterministic parallel sweeps.

The unit of Monte Carlo work is a block: one (sweep point, mode) and a run of
consecutive realizations with all their frames, drawn from one generator in
sampler calls of at most BLOCK_SYMBOLS symbols (one call unless a single
realization's frames exceed it).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (
    ber_closed_form,
    hypothesis_moments,
    near_optimal_threshold,
    noise_power,
)
from .channel import ChannelRealization, channels_with_bdpr, draw_channels
from .config import MODES, SystemParams, valid_pilot_count
from .errors import AmbclinkError, ConfigError, EstimationError
from .estimation import (
    PilotPlan,
    estimated_threshold,
    moments_from_statistics,
    pilot_statistics,
    relative_threshold_error,
)
from .frontend import draw_energies
from .oracles import grid_min_threshold

CLOSED_FORM_TRUE = "closed_form_true"
ESTIMATED_POLICY = "estimated"
NUMERIC_ORACLE = "numeric_oracle"
POLICIES = (CLOSED_FORM_TRUE, ESTIMATED_POLICY, NUMERIC_ORACLE)

SWEEP_PS = "ps_dbm"
SWEEP_BDPR = "bdpr_db"

_WILSON_Z = 1.959963984540054  # two-sided 95%
_PILOT_STUDY = "pilot_study"     # task kind of run_pilot_sweep: thresholds only
BLOCK_SYMBOLS = 2 ** 14          # symbols per sampler call of a block, bounding its memory


def detect(energies, threshold, delta0, delta1) -> np.ndarray:
    """0/1 decisions for symbol energies; a tie goes to the larger-mean
    hypothesis. The threshold and the means may be arrays that broadcast
    against the energies, e.g. one per frame."""
    return np.where(np.greater(delta0, delta1), np.less(energies, threshold),
                    np.greater_equal(energies, threshold)).astype(np.int64)


@dataclass(frozen=True)
class TrialResult:
    errors: int
    bits: int
    threshold: float
    ber_closed_form: float
    failed: bool = False


@dataclass(frozen=True)
class _Frames:
    """Per-frame results of a block: arrays of shape (realizations, frames).
    A failed frame counts no errors and no bits."""

    errors: np.ndarray
    bits: np.ndarray
    threshold: np.ndarray
    ber_closed_form: np.ndarray
    failed: np.ndarray


def _frame_runs(params, reals, n_frames, rng, mode, plan):
    """Bits, then energies, of every (realization, frame, symbol) of a block,
    in runs of consecutive frames of at most BLOCK_SYMBOLS symbols (one frame
    per realization at least), each drawn in one sampler call: yields
    (bits, energies), each of shape (len(reals), frames in the run, K).
    Under a pilot plan the leading k_train symbols of each frame are its
    pilots. A block of several realizations holds one run."""
    k_train = plan.k_train if plan is not None else 0
    # [d] is the (realization, 1, 1) column of the bit-d power and noise power
    power = np.array([(real.p0, real.p1) for real in reals]).T[:, :, None, None]
    noise = np.array([[noise_power(params, real.htr_abs2, d, mode) for d in (0, 1)]
                      for real in reals]).T[:, :, None, None]
    run = max(1, BLOCK_SYMBOLS // (len(reals) * params.k_symbols))
    for f0 in range(0, n_frames, run):
        shape = (len(reals), min(run, n_frames - f0))
        bits = rng.integers(0, 2, (*shape, params.k_symbols - k_train))
        if plan is not None:
            bits = np.concatenate(
                [np.broadcast_to(plan.pilot_bits, (*shape, k_train)), bits], axis=-1)
        yield bits, draw_energies(params, bits, power, noise, rng, mode)


def _estimated_thresholds(energies, plan):
    """Per-frame moments and thresholds estimated from the pilots. A frame
    whose estimate or threshold is degenerate is marked failed."""
    stats = pilot_statistics(energies, plan)
    threshold = np.full(stats[0].shape, math.nan)
    failed = np.zeros(stats[0].shape, dtype=bool)
    for idx in np.ndindex(threshold.shape):
        try:
            threshold[idx] = estimated_threshold(moments_from_statistics(*(s[idx] for s in stats)))
        except AmbclinkError:
            failed[idx] = True
    return stats, threshold, failed


def _ber_block(params, reals, n_frames, rng, mode, policy) -> _Frames:
    """Every frame of the realizations `reals`: the closed forms once per
    realization, then per run of frames one sampler call and one vectorized
    detection pass.

    Under the estimated policy the leading pilots are excluded from BER
    counting and the detector orders hypotheses by the estimated moments, so
    it never sees ground truth; its thresholds are taken per frame.
    """
    true_m = [hypothesis_moments(params, real, mode) for real in reals]
    plan = PilotPlan(params.k_train) if policy == ESTIMATED_POLICY else None
    if plan is None:
        if policy == CLOSED_FORM_TRUE:
            true_t = [near_optimal_threshold(m) for m in true_m]
        else:
            true_t = [grid_min_threshold(m)[0] for m in true_m]
        true_cf = [ber_closed_form(m, t) for m, t in zip(true_m, true_t)]
        delta0 = np.array([m.delta0 for m in true_m])[:, None]
        delta1 = np.array([m.delta1 for m in true_m])[:, None]
    runs = []
    for bits, energies in _frame_runs(params, reals, n_frames, rng, mode, plan):
        if plan is None:
            threshold = np.broadcast_to(np.array(true_t)[:, None], bits.shape[:2])
            failed = np.zeros(bits.shape[:2], dtype=bool)
        else:
            (delta0, delta1, _, _), threshold, failed = _estimated_thresholds(energies, plan)
            bits, energies = bits[..., plan.k_train:], energies[..., plan.k_train:]
        decided = detect(energies, threshold[..., None], delta0[..., None], delta1[..., None])
        errors = np.where(failed, 0, np.sum(decided != bits, axis=-1))
        runs.append((errors, np.where(failed, 0, bits.shape[-1]), threshold, failed))
    errors, n_bits, threshold, failed = (np.concatenate(x, axis=1) for x in zip(*runs))
    if plan is None:
        closed = np.broadcast_to(np.array(true_cf)[:, None], failed.shape)
    else:
        closed = np.full(failed.shape, math.nan)
        for r, f in zip(*np.nonzero(~failed)):
            closed[r, f] = ber_closed_form(true_m[r], float(threshold[r, f]))
    return _Frames(errors, n_bits, threshold, closed, failed)


def ber_trial(
    params: SystemParams,
    real: ChannelRealization,
    rng: np.random.Generator,
    mode: str,
    threshold_policy: str = CLOSED_FORM_TRUE,
) -> TrialResult:
    """One frame: draw bits, draw their energy statistics, pick a threshold
    per policy, detect, and count errors on data symbols. The one-realization,
    one-frame case of a Monte Carlo block."""
    if threshold_policy not in POLICIES:
        raise ValueError(f"unknown threshold policy {threshold_policy!r}")
    frames = _ber_block(params, [real], 1, rng, mode, threshold_policy)
    if frames.failed[0, 0]:
        return TrialResult(0, 0, math.nan, math.nan, failed=True)
    return TrialResult(
        errors=int(frames.errors[0, 0]),
        bits=int(frames.bits[0, 0]),
        threshold=float(frames.threshold[0, 0]),
        ber_closed_form=float(frames.ber_closed_form[0, 0]),
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


def _block_task(task):
    """One block: a (sweep point, mode) and a run of consecutive
    realizations, with all their frames. A pure function of the task, so
    results do not depend on the worker count.

    Each channel is drawn once from seed (master, r, 1), which excludes the
    mode and the sweep point: modes are compared on identical fading, and
    sweep curves are paired across points (common random numbers), so
    point-to-point wiggle reflects the swept variable rather than fresh
    fading draws. The block's frames share one generator seeded
    (master, *point_key, r0, 2), with r0 its first realization.
    """
    params, mode, policy, bdpr_db, n_frames, master_seed, point_key, r0, n_real = task
    reals = []
    for r_idx in range(r0, r0 + n_real):
        ch_rng = np.random.default_rng(np.random.SeedSequence((master_seed, r_idx, 1)))
        reals.append(draw_channels(params, ch_rng) if bdpr_db is None
                     else channels_with_bdpr(params, bdpr_db, ch_rng))
    rng = np.random.default_rng(np.random.SeedSequence((master_seed, *point_key, r0, 2)))
    if policy == _PILOT_STUDY:
        t_true = [near_optimal_threshold(hypothesis_moments(params, real, mode))
                  for real in reals]
        plan = PilotPlan(params.k_train)
        runs = [_estimated_thresholds(energies, plan)[1:]
                for _, energies in _frame_runs(params, reals, n_frames, rng, mode, plan)]
        threshold, failed = (np.concatenate(x, axis=1) for x in zip(*runs))
        return t_true, threshold, failed
    return _ber_block(params, reals, n_frames, rng, mode, policy)


def _block_tasks(params, mode, policy, bdpr_db, n_frames, n_realizations,
                 master_seed, point_key) -> list:
    """The blocks of one (sweep point, mode). Their size follows from the
    spec alone, never from the worker count, and keeps a block near
    BLOCK_SYMBOLS symbols."""
    size = max(1, BLOCK_SYMBOLS // (n_frames * params.k_symbols))
    return [(params, mode, policy, bdpr_db, n_frames, master_seed, point_key,
             r0, min(size, n_realizations - r0))
            for r0 in range(0, n_realizations, size)]


def _map_blocks(groups: list, workers: int) -> list:
    """The results of _block_task for each group of tasks, group by group;
    the only place a process pool is opened. At least four chunks per worker
    keep the load balanced when one worker runs slower than the other."""
    tasks = [task for group in groups for task in group]
    if workers > 1:
        chunksize = max(1, len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = iter(list(pool.map(_block_task, tasks, chunksize=chunksize)))
    else:
        results = map(_block_task, tasks)
    return [[next(results) for _ in group] for group in groups]


def _ber_point(spec: SweepSpec, value: float, mode: str, blocks) -> BerPoint:
    errors = bits = failures = ok = 0
    thr_sum = cf_sum = 0.0
    for frames in blocks:
        errors += int(frames.errors.sum())
        bits += int(frames.bits.sum())
        failures += int(frames.failed.sum())
        for thr, cf, failed in zip(frames.threshold.tolist(),
                                   frames.ber_closed_form.tolist(), frames.failed.tolist()):
            # sum per realization first, frame by frame; the CSV's last bits
            # depend on this order
            thr_part = cf_part = 0.0
            for t, c, f in zip(thr, cf, failed):
                if not f:
                    thr_part += t
                    cf_part += c
                    ok += 1
            thr_sum += thr_part
            cf_sum += cf_part
    return BerPoint(
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
    )


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[BerPoint]:
    """Run all sweep points; deterministic for a fixed master seed regardless
    of worker count."""
    groups = []
    for pi, value in enumerate(spec.values):
        if spec.sweep_var == SWEEP_PS:
            params = replace(spec.scenario, ps_dbm=float(value))
            bdpr_db = spec.fixed_bdpr_db
        else:
            params, bdpr_db = spec.scenario, float(value)
        groups.extend(
            _block_tasks(params, mode, spec.threshold_policy, bdpr_db, spec.n_frames,
                         spec.n_realizations, spec.master_seed, (pi, mi))
            for mi, mode in enumerate(spec.modes))
    points = ((value, mode) for value in spec.values for mode in spec.modes)
    return [_ber_point(spec, value, mode, blocks)
            for (value, mode), blocks in zip(points, _map_blocks(groups, workers))]


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
    groups = [_block_tasks(p, mode, _PILOT_STUDY, None, n_frames, n_realizations,
                           master_seed, ()) for p in per_fraction]

    points = []
    for p, blocks in zip(per_fraction, _map_blocks(groups, workers)):
        errs = []
        for t_true, threshold, failed in blocks:
            for t, thr, bad in zip(t_true, threshold, failed):
                for t_est in thr[~bad].tolist():
                    with suppress(EstimationError):   # a failed frame
                        errs.append(relative_threshold_error(t, t_est))
        good = np.array(errs)
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

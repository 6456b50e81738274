"""Energy detection, end-to-end BER trials, and deterministic parallel sweeps.

A sweep draws its channels once, into a table of realizations. The unit of
Monte Carlo work is a block: a run of consecutive realizations of that table
with all their frames, drawn from one generator in sampler calls of at most
BLOCK_SYMBOLS symbols (one call unless a single realization's frames exceed
it). A BER block serves one (sweep point, mode); a pilot-study block serves
every pilot fraction at once.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .analysis import (
    HypothesisMoments,
    ber_closed_form,
    hypothesis_moments,
    near_optimal_threshold,
    noise_power,
)
from .channel import aligned_channel, draw_channels
from .config import (
    MAX_BDPR_DB,
    MODES,
    SystemParams,
    check_counts,
    check_seed,
    check_trials,
    valid_pilot_count,
)
from .errors import AmbclinkError, ConfigError, ModelValidityError
from .estimation import pilot_bits, pilot_statistics, relative_threshold_error
from .frontend import draw_energies

CLOSED_FORM_TRUE = "closed_form_true"
ESTIMATED_POLICY = "estimated"
POLICIES = (CLOSED_FORM_TRUE, ESTIMATED_POLICY)

SWEEP_PS = "ps_dbm"
SWEEP_BDPR = "bdpr_db"

_WILSON_Z = 1.959963984540054  # two-sided 95%
BLOCK_SYMBOLS = 2 ** 14          # symbols per sampler call of a block, bounding its memory
# A sweep with a BDPR target is checked at load on a channel whose |h0|^2 is
# this many times its mean r0^-v0. Under Rayleigh fading that ratio is Exp(1),
# so a draw exceeds it with probability exp(-50), about 2e-22.
PROBE_DIRECT_GAIN = 50.0


def detect(energies, threshold, delta0, delta1) -> np.ndarray:
    """0/1 decisions for symbol energies; a tie goes to the larger-mean
    hypothesis. The threshold and the means may be arrays that broadcast
    against the energies, e.g. one per frame."""
    return np.where(np.greater(delta0, delta1), np.less(energies, threshold),
                    np.greater_equal(energies, threshold)).astype(np.int64)


@dataclass(frozen=True)
class BlockResult:
    """Per-frame results of a block: arrays of shape (realizations, frames).
    A failed frame counts no errors and no bits; its threshold and closed form are NaN."""

    errors: np.ndarray
    bits: np.ndarray
    threshold: np.ndarray
    ber_closed_form: np.ndarray
    failed: np.ndarray


def _frame_runs(params, reals, n_frames, rng, mode, k_train, n_data):
    """Bits, then energies, of every (realization, frame, symbol) of a block,
    in runs of consecutive frames of at most BLOCK_SYMBOLS symbols (one frame
    per realization at least), each drawn in one sampler call: yields
    (bits, energies), each of shape (len(reals), frames in the run, symbols).
    A frame holds k_train pilots (pilot_bits; none for 0), then n_data random
    data bits. A block of several realizations holds one run."""
    # [d] is the (realization, 1, 1) column of the bit-d power and noise power
    power = np.array([(real.p0, real.p1) for real in reals]).T[:, :, None, None]
    noise = np.array([[noise_power(params, real.htr_abs2, d, mode) for d in (0, 1)]
                      for real in reals]).T[:, :, None, None]
    run = max(1, BLOCK_SYMBOLS // (len(reals) * (k_train + n_data)))
    for f0 in range(0, n_frames, run):
        shape = (len(reals), min(run, n_frames - f0))
        bits = rng.integers(0, 2, (*shape, n_data))
        if k_train:
            bits = np.concatenate(
                [np.broadcast_to(pilot_bits(k_train), (*shape, k_train)), bits], axis=-1)
        yield bits, draw_energies(params, bits, power, noise, rng, mode)


def _estimated_thresholds(energies, k_train):
    """Per-frame moments and thresholds estimated from the k_train leading
    pilots. A frame whose estimate or threshold is degenerate is marked failed."""
    stats = pilot_statistics(energies, k_train)
    threshold, failed = [], []
    for frame in zip(*(s.ravel().tolist() for s in stats)):
        try:
            threshold.append(near_optimal_threshold(HypothesisMoments(*frame)))
            failed.append(False)
        except AmbclinkError:
            threshold.append(math.nan)
            failed.append(True)
    shape = stats[0].shape
    return stats, np.array(threshold, float).reshape(shape), np.array(failed, bool).reshape(shape)


def ber_block(params: SystemParams, reals, n_frames: int, rng: np.random.Generator,
              mode: str, policy: str = CLOSED_FORM_TRUE) -> BlockResult:
    """Every frame of the realizations `reals`: draw bits and their energies,
    pick a threshold per policy, detect, and count errors on data symbols.
    The closed forms are taken once per realization, then per run of frames
    come one sampler call and one vectorized detection pass.

    Under the estimated policy the leading pilots are excluded from BER
    counting and the detector orders hypotheses by the estimated moments, so
    it never sees ground truth; its thresholds are taken per frame.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown threshold policy {policy!r}")
    true_m = [hypothesis_moments(params, real, mode) for real in reals]
    estimated = policy == ESTIMATED_POLICY
    k_train = params.k_train if estimated else 0
    if not estimated:
        true_t = [near_optimal_threshold(m) for m in true_m]
        true_cf = [ber_closed_form(m, t) for m, t in zip(true_m, true_t)]
        delta0 = np.array([m.delta0 for m in true_m])[:, None]
        delta1 = np.array([m.delta1 for m in true_m])[:, None]
    runs = []
    n_data = params.k_symbols - k_train
    for bits, energies in _frame_runs(params, reals, n_frames, rng, mode, k_train, n_data):
        if not estimated:
            threshold = np.broadcast_to(np.array(true_t)[:, None], bits.shape[:2])
            failed = np.zeros(bits.shape[:2], dtype=bool)
        else:
            (delta0, delta1, _, _), threshold, failed = _estimated_thresholds(energies, k_train)
            bits, energies = bits[..., k_train:], energies[..., k_train:]
        decided = detect(energies, threshold[..., None], delta0[..., None], delta1[..., None])
        errors = np.where(failed, 0, np.sum(decided != bits, axis=-1))
        runs.append((errors, np.where(failed, 0, bits.shape[-1]), threshold, failed))
    errors, n_bits, threshold, failed = (np.concatenate(x, axis=1) for x in zip(*runs))
    if not estimated:
        closed = np.broadcast_to(np.array(true_cf)[:, None], failed.shape)
    else:
        closed = np.full(failed.shape, math.nan)
        for r, f in zip(*np.nonzero(~failed)):
            closed[r, f] = ber_closed_form(true_m[r], float(threshold[r, f]))
    return BlockResult(errors, n_bits, threshold, closed, failed)


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
        if (not self.modes or not all(m in MODES for m in self.modes)
                or len(set(self.modes)) < len(self.modes)):
            raise ConfigError(f"modes must be a nonempty subset of {MODES} without repeats, "
                              f"got {self.modes!r}", fields=("modes",))
        if self.threshold_policy not in POLICIES:
            raise ConfigError(f"unknown threshold policy {self.threshold_policy!r}",
                              fields=("threshold_policy",))
        k_train, k_symbols = self.scenario.k_train, self.scenario.k_symbols
        if (self.threshold_policy == ESTIMATED_POLICY
                and not (valid_pilot_count(k_train) and k_train < k_symbols)):
            raise ConfigError(
                f"the {ESTIMATED_POLICY} policy needs an even pilot count >= 4 and a data "
                f"symbol after the pilots, got k_train={k_train} of k_symbols={k_symbols} "
                f"(pilot_fraction={self.scenario.pilot_fraction})", fields=("pilot_fraction",))
        pinned = () if self.fixed_bdpr_db is None else (self.fixed_bdpr_db,)
        if pinned and self.sweep_var == SWEEP_BDPR:
            raise ConfigError("fixed_bdpr_db pins the BDPR of a ps sweep, not of a bdpr sweep",
                              fields=("fixed_bdpr_db",))
        field, bdprs = (("values", self.values) if self.sweep_var == SWEEP_BDPR
                        else ("fixed_bdpr_db", pinned))
        bad = [b for b in bdprs if not (math.isfinite(b) and abs(b) <= MAX_BDPR_DB)]
        if bad:
            raise ConfigError(f"bdpr must be finite and within +-{MAX_BDPR_DB:g} dB, got "
                              f"{field} {bad[0]!r}", fields=(field,))
        check_counts(n_frames=self.n_frames, n_realizations=self.n_realizations)
        check_trials(self.n_realizations, self.n_frames, self.scenario.k_symbols,
                     runs=len(self.values) * len(self.modes))
        check_seed(self.master_seed, "master_seed")
        points = self.operating_points   # a Ps out of range raises here, before any draw
        if bdprs:
            _check_bdpr_reach(self.scenario, points, self.modes, field)

    @cached_property
    def operating_points(self) -> list:
        """(params, bdpr_db) of each sweep value: the scenario at the point's
        Ps, and the BDPR target (None keeps each draw's own)."""
        if self.sweep_var == SWEEP_PS:
            return [(replace(self.scenario, ps_dbm=float(v)), self.fixed_bdpr_db)
                    for v in self.values]
        return [(self.scenario, float(v)) for v in self.values]


def _check_bdpr_reach(scenario, points, modes, field) -> None:
    """Reject a BDPR target whose closed forms fail on the probe channel,
    aligned_channel at PROBE_DIRECT_GAIN. At a fixed BDPR the moments grow
    with |h0|. With the LNA the variance grows like p^6, so the threshold's
    discriminant c (v1 - v0) ~ p1^12 / p0^6 grows with Ps + 2 BDPR (in dB)
    until it overflows. At the paper's defaults 200 draws fail from
    Ps + 2 BDPR = 580-583 dBm on, the probe from 572 dBm. A point the probe
    passes, every weaker draw passes too."""
    probe = aligned_channel(scenario, PROBE_DIRECT_GAIN)
    for params, bdpr_db in points:
        real = probe.at_operating_point(params, bdpr_db)
        for mode in modes:
            try:
                near_optimal_threshold(hypothesis_moments(params, real, mode))
            except ModelValidityError as exc:
                raise ConfigError(
                    f"bdpr {bdpr_db:g} dB at ps_dbm {params.ps_dbm:g} is beyond the {mode} "
                    f"closed forms' numeric range on a direct path {PROBE_DIRECT_GAIN:g} "
                    f"times its mean gain ({exc}); lower the bdpr or the ps, got {field} "
                    f"{bdpr_db!r}", fields=(field,)) from exc


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


def wilson_halfwidth(errors: int, bits: int) -> float:
    """Half-width of the 95% Wilson score interval for a binomial proportion."""
    if bits == 0:
        return math.nan
    z = _WILSON_Z
    p = errors / bits
    denom = 1.0 + z * z / bits
    return (z / denom) * math.sqrt(p * (1.0 - p) / bits + z * z / (4.0 * bits * bits))


def _channel_table(params, n_realizations, master_seed) -> list:
    """Realization r of every point and mode of a sweep, drawn once from seed
    (master, r, 1) under `params`. The seed excludes the mode and the point,
    so modes are compared on identical fading and curves are paired across
    points (common random numbers). Blocks compose an entry at their point,
    rescaled to a BDPR target if they have one, with at_operating_point."""
    seeds = (np.random.SeedSequence((master_seed, r, 1)) for r in range(n_realizations))
    return [draw_channels(params, np.random.default_rng(seed)) for seed in seeds]


def _blocks(table, symbols: int) -> list:
    """(r0, realizations) of each block: runs of consecutive entries of the
    table, about BLOCK_SYMBOLS symbols in all at `symbols` per realization.
    Their size follows from the sweep alone, never from the worker count."""
    size = max(1, BLOCK_SYMBOLS // symbols)
    return [(r0, tuple(table[r0:r0 + size])) for r0 in range(0, len(table), size)]


def _frame_rng(master_seed: int, r0: int) -> np.random.Generator:
    """The frames of the block from realization r0, shared by every point, mode and fraction."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, r0, 2)))


def _ber_task(task) -> BlockResult:
    """One BER block: a (sweep point, mode) and a run of realizations of the
    channel table, with all their frames. A pure function of the task, so
    results depend neither on the worker count nor on the other points and
    modes of the sweep."""
    params, mode, policy, bdpr_db, n_frames, master_seed, r0, drawn = task
    reals = [real.at_operating_point(params, bdpr_db) for real in drawn]
    return ber_block(params, reals, n_frames, _frame_rng(master_seed, r0), mode, policy)


def _pilot_task(task):
    """One pilot-study block, for every pilot count in `k_trains` at once:
    the true threshold once per realization, then per frame only the pilots
    of the largest count, drawn from _frame_rng. Each count k estimates from
    the first k of those energies, which are its own pilots (pilot_bits).
    Returns the relative threshold errors, of shape (len(k_trains),
    realizations, frames): NaN where the frame failed or its estimate is 0."""
    params, mode, k_trains, n_frames, master_seed, r0, reals = task
    t_true = np.array([near_optimal_threshold(hypothesis_moments(params, real, mode))
                       for real in reals])
    runs = _frame_runs(params, reals, n_frames, _frame_rng(master_seed, r0), mode,
                       max(k_trains), 0)
    threshold = np.concatenate([[_estimated_thresholds(energies, k)[1] for k in k_trains]
                                for _, energies in runs], axis=-1)
    return relative_threshold_error(t_true[:, None], np.where(threshold == 0, np.nan, threshold))


def _map_blocks(fn, groups: list, workers: int) -> list:
    """The results of `fn` for each group of tasks, group by group; the only
    place a process pool is opened, and only for two tasks or more (tasks
    are pure, so this cannot change a result). At least four chunks per
    worker keep the load balanced when one worker runs slower than the
    other."""
    tasks = [task for group in groups for task in group]
    if workers > 1 and len(tasks) > 1:
        chunksize = max(1, len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = iter(list(pool.map(fn, tasks, chunksize=chunksize)))
    else:
        results = map(fn, tasks)
    return [[next(results) for _ in group] for group in groups]


def _ber_point(spec: SweepSpec, value: float, mode: str, blocks) -> BerPoint:
    """One (point, mode)'s row. Its means are correctly rounded sums (fsum) over
    the frames that did not fail, so neither block layout nor order moves them."""
    errors = sum(int(b.errors.sum()) for b in blocks)
    bits = sum(int(b.bits.sum()) for b in blocks)
    failures = sum(int(b.failed.sum()) for b in blocks)
    thr = [t for b in blocks for t in b.threshold[~b.failed].tolist()]
    cf = [c for b in blocks for c in b.ber_closed_form[~b.failed].tolist()]
    return BerPoint(
        sweep_var=spec.sweep_var,
        value=float(value),
        mode=mode,
        threshold_policy=spec.threshold_policy,
        ber_empirical=errors / bits if bits else math.nan,
        ber_ci_halfwidth=wilson_halfwidth(errors, bits),
        ber_closed_form=math.fsum(cf) / len(cf) if cf else math.nan,
        threshold_mean=math.fsum(thr) / len(thr) if thr else math.nan,
        errors=errors,
        bits=bits,
        failures=failures,
        master_seed=spec.master_seed,
        unreliable=errors < 10,
    )


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[BerPoint]:
    """Run all sweep points; deterministic for a fixed master seed regardless
    of worker count."""
    check_counts(workers=workers)
    table = _channel_table(spec.scenario, spec.n_realizations, spec.master_seed)
    blocks = _blocks(table, spec.n_frames * spec.scenario.k_symbols)
    groups = [[(params, mode, spec.threshold_policy, bdpr_db, spec.n_frames, spec.master_seed,
                r0, drawn) for r0, drawn in blocks]
              for params, bdpr_db in spec.operating_points for mode in spec.modes]
    points = ((value, mode) for value in spec.values for mode in spec.modes)
    return [_ber_point(spec, value, mode, results) for (value, mode), results
            in zip(points, _map_blocks(_ber_task, groups, workers))]


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

    The fractions are paired (common random numbers): every fraction sees the
    same channels and the same frames, and a fraction with k pilots estimates
    from the first k pilot energies of each frame, drawn once for the
    largest fraction (see _pilot_task). Frames carry pilots only: the data
    symbols play no part in the estimate and are not drawn.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}", fields=("mode",))
    check_counts(n_frames=n_frames, n_realizations=n_realizations, workers=workers)
    check_seed(master_seed, "master_seed")
    # 0 reads as "no pilots"; a repeat would write two rows under one key
    if (not fractions or any(frac <= 0 for frac in fractions)
            or len(set(fractions)) < len(fractions)):
        raise ConfigError("pilot fractions must be a nonempty list of distinct values > 0, "
                          f"got pilot_fraction {tuple(fractions)!r}", fields=("pilot_fraction",))
    per_fraction = [replace(params, pilot_fraction=float(frac)) for frac in fractions]
    k_trains = tuple(p.k_train for p in per_fraction)
    check_trials(n_realizations, n_frames, max(k_trains))
    table = _channel_table(params, n_realizations, master_seed)
    tasks = [(params, mode, k_trains, n_frames, master_seed, r0, reals)
             for r0, reals in _blocks(table, n_frames * max(k_trains))]
    (blocks,) = _map_blocks(_pilot_task, [tasks], workers)
    errors = np.concatenate(blocks, axis=1)

    points = []
    for p, err in zip(per_fraction, errors):
        good = err[~np.isnan(err)]       # (realization, frame) order
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

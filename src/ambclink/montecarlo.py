"""Energy detection, end-to-end BER trials, and deterministic parallel sweeps.

The unit of Monte Carlo work is a block: a run of consecutive realizations
with all their frames, drawn once and shared by every sweep point and mode
(a pilot-study block serves every pilot fraction at once). A block draws its
own channels, seeded per realization, then its frames in runs of at most
BLOCK_SYMBOLS symbols (one run unless a single realization's frames exceed
it): the bits and the no-LNA standard gammas from the block's frame
generator, the LNA variates from a generator of their own. A block of either
study is built from mode groups: cases of one mode stacked, with one batch
of closed forms (analysis: NaN marks an element whose float call raises) and
per run one pass on the shared draws. A BER block composes its channel table
once per BDPR target and groups at most STACK_SYMBOLS symbols a run; a
pilot-study block is one group of one case."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .analysis import ber_closed_form, level_moments, near_optimal_threshold, noise_levels
from .channel import channel_table
from .config import (LNA, MAX_BDPR_DB, MAX_SWEEP_POINTS, MAX_WORKERS, MODES, NO_LNA,
                     SystemParams, check_in, check_int, check_mode, check_trials,
                     is_finite_real, valid_pilot_count)
from .errors import ConfigError, ModelValidityError
from .estimation import pilot_bits, pilot_statistics, relative_threshold_error
from .frontend import draw_lna_variates, energies_from_variates

CLOSED_FORM_TRUE = "closed_form_true"
ESTIMATED_POLICY = "estimated"
POLICIES = (CLOSED_FORM_TRUE, ESTIMATED_POLICY)

SWEEP_PS = "ps_dbm"
SWEEP_BDPR = "bdpr_db"

_WILSON_Z = 1.959963984540054  # two-sided 95%
BLOCK_SYMBOLS = 2 ** 14          # symbols per run of a block's frames, bounding its memory
STACK_SYMBOLS = 8 * BLOCK_SYMBOLS   # symbols of a BER pass over stacked cases, likewise
# The samples a sweep's frames draw (realizations x frames x symbols x N, per
# mode) above which _map_blocks opens a process pool; below it a pool costs
# more than a second worker saves. An empty pool takes about 10 ms to open and
# drain, and a process's first pool about 14 ms more to import
# concurrent.futures and multiprocessing. Points and pilot fractions share a
# block's draws and add little, so they do not count. A no-LNA symbol draws
# one Gamma(N) variate, not N samples, and counts NO_LNA_WEIGHT of them. In
# fresh processes on a 2-vCPU Xeon, --workers 2 overtook --workers 1 between
# 600 and 700 realizations of the README ps sweep, between 20 and 30 of the
# README pilot study (6 and 9 million samples), and between 3000 and 4000 of
# one no-LNA point (K = 100, N = 75), which took 0.30-0.33 of an LNA point's time.
POOL_MIN_SAMPLES = 10 ** 7
NO_LNA_WEIGHT = 0.4
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


def _run_frames(n_reals, n_frames, frame_symbols) -> int:
    """Frames per run of a block's frames: as many as BLOCK_SYMBOLS symbols
    hold, one at least, all of them at most."""
    return min(n_frames, max(1, BLOCK_SYMBOLS // (n_reals * frame_symbols)))


def _frame_runs(params, modes, n_reals, n_frames, k_train, n_data, frame_rng, lna_rng):
    """The draws of every (realization, frame, symbol) of a block serving
    `modes`, in runs of consecutive frames of at most BLOCK_SYMBOLS symbols
    (one frame per realization at least). Yields per run the bits, of shape
    (n_reals, frames in the run, symbols), and their variates by mode, as
    energies_from_variates takes them: from frame_rng the bits, then the
    no-LNA Gamma(N) variates (None for an LNA-only run without data bits);
    from lna_rng the LNA variates if `modes` holds LNA, else None. A frame
    holds k_train pilots (pilot_bits), then n_data random data bits."""
    n = params.n_samples
    run = _run_frames(n_reals, n_frames, k_train + n_data)
    for f0 in range(0, n_frames, run):
        shape = (n_reals, min(run, n_frames - f0))
        bits = frame_rng.integers(0, 2, (*shape, n_data))
        if k_train:
            bits = np.concatenate(
                [np.broadcast_to(pilot_bits(k_train), (*shape, k_train)), bits], axis=-1)
        # the next run's bits follow the gammas, so an LNA-only sweep draws them too
        gamma = frame_rng.standard_gamma(n, bits.shape) if n_data or NO_LNA in modes else None
        yield bits, {NO_LNA: gamma,
                     LNA: draw_lna_variates(n, bits.shape, lna_rng) if LNA in modes else None}


class _ModeGroup:
    """Consecutive cases (ps, mode, channel_table) of one mode of a block of
    either study, stacked: their levels, [d] the bit-d input power (gain times
    ps) and noise power, of shape (2, cases, realizations, 1); their true
    closed forms in one batch, of shape (cases, realizations, 1): the threshold
    unless `estimated`, its BER once read; per run the results of one pass."""

    def __init__(self, params, mode, cases, estimated):
        self.params, self.mode, self.estimated = params, mode, estimated
        power = np.stack([table[:2] * ps for ps, _, table in cases], axis=1)[..., None]
        ht2 = np.stack([table[2] for *_, table in cases])[..., None]
        self.levels = power, np.stack(noise_levels(params, ht2, mode))
        self.moments = level_moments(params, *self.levels, mode)
        if not estimated:
            self.threshold = near_optimal_threshold(self.moments)
        self.failed = np.isnan(self.moments.var0 if estimated else self.threshold).any()
        self.runs = []

    @cached_property
    def closed(self):
        return ber_closed_form(self.moments, self.threshold)

    def energies(self, bits, variates):
        """A run's energies (_frame_runs) at every case: (cases, *bits.shape)."""
        return energies_from_variates(self.params, bits, *(x[..., None] for x in self.levels),
                                      self.mode, variates[self.mode])

    def add_run(self, k_train, bits, variates):
        """Detect a run's frames at every case and count errors on their data
        symbols; the cases broadcast against the bits and variates they share."""
        energies = self.energies(bits, variates)
        if not self.estimated:
            threshold, closed = (np.broadcast_to(x, energies.shape[:-1])
                                 for x in (self.threshold, self.closed))
            delta0, delta1 = self.moments.delta0, self.moments.delta1
        else:
            # estimated per frame from its pilots: NaN where the frame failed
            m = pilot_statistics(energies, k_train)
            threshold, delta0, delta1 = near_optimal_threshold(m), m.delta0, m.delta1
            bits, energies = bits[..., k_train:], energies[..., k_train:]
            closed = ber_closed_form(self.moments, threshold)
        failed = np.isnan(threshold)
        decided = detect(energies, threshold[..., None], delta0[..., None], delta1[..., None])
        errors = np.where(failed, 0, np.sum(decided != bits, axis=-1))
        self.runs.append((errors, np.where(failed, 0, bits.shape[-1]), threshold, closed, failed))


def _raise_first_failure(slots) -> None:
    """If a group marks NaN, raise where the float calls on `slots`, (group, index
    in it) of each case, fail first: case by case, its moments before its true thresholds."""
    for group, j in slots if any(group.failed for group, _ in slots) else ():
        power, noise = (x[:, j].reshape(2, -1).T.tolist() for x in group.levels)
        moments = [level_moments(group.params, p, n, group.mode) for p, n in zip(power, noise)]
        for m in () if group.estimated else moments:
            near_optimal_threshold(m)


def _check_point_count(values, field: str) -> None:
    """At most MAX_SWEEP_POINTS sweep points, judged before any point is built."""
    if len(values) > MAX_SWEEP_POINTS:
        raise ConfigError(f"{field} holds {len(values)} sweep points, more than "
                          f"{MAX_SWEEP_POINTS}", fields=(field,))


def _check_pilot_layout(params: SystemParams) -> None:
    """The estimated policy's frame: an even pilot count >= 4, then a data symbol."""
    if not (valid_pilot_count(params.k_train) and params.k_train < params.k_symbols):
        raise ConfigError(
            f"the {ESTIMATED_POLICY} policy needs an even pilot count >= 4 and a data symbol "
            f"after the pilots, got k_train={params.k_train} of k_symbols={params.k_symbols} "
            f"(pilot_fraction={params.pilot_fraction})", fields=("pilot_fraction",))


def ber_block(params: SystemParams, cases, n_frames: int, frame_rng: np.random.Generator,
              lna_rng: np.random.Generator | None, policy: str = CLOSED_FORM_TRUE) -> list:
    """Every frame of a block at each case (ps, mode, table) of the scenario
    `params`: the realizations of `table` (channel_table: |h0|^2, |h1|^2 and
    |htr|^2, of shape (3, realizations)) with |h0|^2 and |h1|^2 scaled by the
    Ps `ps` (W), in `mode`. The cases share every parameter but Ps and the
    BDPR their table carries, so they share one draw of the block's frames
    (_frame_runs; the LNA variates come from lna_rng, drawn only if a case is
    LNA). A mode's consecutive cases are stacked in groups of at most
    STACK_SYMBOLS symbols per run (one case at least), and per run each group
    takes its energies, picks a threshold per policy, detects, and counts
    errors on data symbols in one pass. Returns one BlockResult per case. The
    trial counts, and the estimated policy's pilots, are judged as SweepSpec's.

    Under the estimated policy the leading pilots are excluded from BER
    counting and the detector orders hypotheses by the estimated moments, so
    it never sees ground truth; its thresholds are taken per frame.
    """
    check_in(policy, POLICIES, "threshold_policy")
    estimated = policy == ESTIMATED_POLICY
    cases = list(cases)
    counts = sorted({table.shape[1] for _, _, table in cases})
    if len(counts) != 1 or counts[0] == 0:
        raise ValueError("ber_block needs at least one case, and its cases equally many "
                         f"realizations, at least one; they hold {counts}")
    n_reals, k = counts[0], params.k_symbols
    check_trials(n_reals, n_frames, k, runs=len(cases))
    if estimated:
        _check_pilot_layout(params)
    k_train = params.k_train if estimated else 0
    stacked = max(1, STACK_SYMBOLS // (n_reals * k * _run_frames(n_reals, n_frames, k)))
    groups, slots = [], [None] * len(cases)     # slots: (group, index in it) of each case
    for mode in dict.fromkeys(mode for _, mode, _ in cases):
        index = [i for i, case in enumerate(cases) if case[1] == mode]
        for chunk in (index[s:s + stacked] for s in range(0, len(index), stacked)):
            groups.append(_ModeGroup(params, mode, [cases[i] for i in chunk], estimated))
            for j, i in enumerate(chunk):
                slots[i] = groups[-1], j
    _raise_first_failure(slots)
    for bits, variates in _frame_runs(params, {g.mode for g in groups}, n_reals, n_frames,
                                      k_train, k - k_train, frame_rng, lna_rng):
        for group in groups:
            group.add_run(k_train, bits, variates)
    results = {group: [np.concatenate(x, axis=2) for x in zip(*group.runs)] for group in groups}
    return [BlockResult(*(x[j] for x in results[group])) for group, j in slots]


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
        for name, items in (("values", self.values), ("modes", self.modes)):
            if not isinstance(items, (tuple, list)):    # a string would be read letter by letter
                raise ConfigError(f"{name} must be a tuple or a list, got {items!r}", fields=(name,))
        _check_point_count(self.values, "values")
        check_in(self.sweep_var, (SWEEP_PS, SWEEP_BDPR), "sweep_var")
        for mode in self.modes:
            check_mode(mode, "modes")
        check_in(self.threshold_policy, POLICIES, "threshold_policy")
        if self.threshold_policy == ESTIMATED_POLICY:
            _check_pilot_layout(self.scenario)
        pinned = () if self.fixed_bdpr_db is None else (self.fixed_bdpr_db,)
        if pinned and self.sweep_var == SWEEP_BDPR:
            raise ConfigError("fixed_bdpr_db pins the BDPR of a ps sweep, not of a bdpr sweep",
                              fields=("fixed_bdpr_db",))
        field, bdprs = (("values", self.values) if self.sweep_var == SWEEP_BDPR
                        else ("fixed_bdpr_db", pinned))
        bad = [b for b in bdprs if not (is_finite_real(b) and abs(b) <= MAX_BDPR_DB)]
        if bad:
            raise ConfigError(f"bdpr must be finite and within +-{MAX_BDPR_DB:g} dB, got "
                              f"{field} {bad[0]!r}", fields=(field,))
        points = self.operating_points   # SystemParams judges each Ps here, before any draw
        for name, items in (("values", self.values), ("modes", self.modes)):
            if not items or len(set(items)) < len(items):
                raise ConfigError(f"{name} must be nonempty without repeats, got {items!r}",
                                  fields=(name,))
        check_trials(self.n_realizations, self.n_frames, self.scenario.k_symbols,
                     runs=len(self.values) * len(self.modes))
        check_int(self.master_seed, 0, math.inf, "master_seed")
        if bdprs:
            _check_bdpr_reach(self.scenario, points, self.modes, field)

    @cached_property
    def operating_points(self) -> list:
        """(params, bdpr_db) of each sweep value: the scenario at the point's
        Ps, and the BDPR target (None keeps each draw's own)."""
        if self.sweep_var == SWEEP_PS:
            return [(replace(self.scenario, ps_dbm=v), self.fixed_bdpr_db) for v in self.values]
        return [(self.scenario, float(v)) for v in self.values]


def _check_bdpr_reach(scenario, points, modes, field) -> None:
    """Reject a BDPR target whose closed forms fail on the probe channel, run as
    a block runs its cases: |h0|^2 at PROBE_DIRECT_GAIN times its mean, |htr|^2
    at its mean and h0, hst, htr in phase, as one column of normals. At a fixed
    BDPR the moments grow with |h0|. With the LNA the variance grows like p^6,
    so the threshold's discriminant c (v1 - v0) ~ p1^12 / p0^6 grows with Ps +
    2 BDPR (in dB) until it overflows. At the paper's defaults 200 draws fail
    from Ps + 2 BDPR = 580-583 dBm on, the probe from 572 dBm. A point the
    probe passes, every weaker draw passes too. Float calls name the first failure."""
    normals = np.array([[math.sqrt(2 * PROBE_DIRECT_GAIN)], [0], [1], [0], [math.sqrt(2)], [0]])
    tables = {b: channel_table(scenario, normals, b) for b in {b for _, b in points}}
    groups = {mode: _ModeGroup(scenario, mode, [(p.ps, mode, tables[b]) for p, b in points],
                               False) for mode in modes}
    for j, (params, bdpr_db) in enumerate(points):
        for mode in modes:
            try:
                _raise_first_failure([(groups[mode], j)])
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


def _blocks(realizations, symbols: int) -> list:
    """(r0, realizations) of each block: runs of consecutive realizations
    (a range) in as few blocks of at most BLOCK_SYMBOLS symbols, at
    `symbols` per realization, as hold them all (one realization at least),
    and of sizes within one of each other, so that no block holds most of the
    work. Their sizes follow from the sweep alone, never from the worker
    count."""
    n = len(realizations)
    count = -(-n // max(1, BLOCK_SYMBOLS // symbols))
    bounds = [n * i // count for i in range(count)] + [n]
    return [(r0, realizations[r0:r1]) for r0, r1 in zip(bounds, bounds[1:])]


def _block_draws(master_seed: int, r0: int, realizations):
    """A block's channels, the normals of channel_table, and its two generators.
    Channel r is seeded (master, r, 1), whatever the block, so modes are
    compared on identical fading and curves are paired across points (common
    random numbers). The frames of the block from realization r0 are seeded
    (master, r0, 2) and its LNA variates (master, r0, 3): both are shared by
    every point, mode and fraction."""
    def rng(*key):
        return np.random.default_rng(np.random.SeedSequence((master_seed, *key)))

    return np.array([rng(r, 1).standard_normal(6) for r in realizations]).T, rng(r0, 2), rng(r0, 3)


def _ber_task(task) -> list:
    """One BER block: a run of realizations with all their frames, at every
    (sweep point, mode) of the spec. A pure function of the task, so results
    depend neither on the worker count nor on the block layout of the other
    blocks; each case's result depends only on its own point and mode."""
    spec, r0, realizations = task
    normals, frame_rng, lna_rng = _block_draws(spec.master_seed, r0, realizations)
    # composed once per BDPR target: ber_block scales the gains by each point's Ps
    tables = {bdpr_db: channel_table(spec.scenario, normals, bdpr_db)
              for bdpr_db in {bdpr_db for _, bdpr_db in spec.operating_points}}
    cases = [(params.ps, mode, tables[bdpr_db])
             for params, bdpr_db in spec.operating_points for mode in spec.modes]
    return ber_block(spec.scenario, cases, spec.n_frames, frame_rng, lna_rng,
                     spec.threshold_policy)


def _pilot_task(task):
    """One pilot-study block, for every pilot count in `k_trains` at once: a
    mode group's true threshold per realization, then per frame the energies
    of only the pilots of the largest count (_frame_runs). Each count k
    estimates from the first k of those, which are its own pilots (pilot_bits).
    Returns the relative threshold errors, of shape (len(k_trains),
    realizations, frames): NaN where the frame failed or its estimate is 0."""
    params, mode, k_trains, n_frames, master_seed, r0, realizations = task
    normals, frame_rng, lna_rng = _block_draws(master_seed, r0, realizations)
    group = _ModeGroup(params, mode, [(params.ps, mode, channel_table(params, normals))], False)
    _raise_first_failure([(group, 0)])
    runs = _frame_runs(params, (mode,), len(realizations), n_frames, max(k_trains), 0,
                       frame_rng, lna_rng)
    threshold = np.concatenate(
        [[near_optimal_threshold(pilot_statistics(energies, k)) for k in k_trains]
         for energies in (group.energies(bits, variates)[0] for bits, variates in runs)], axis=-1)
    return relative_threshold_error(group.threshold[0],
                                    np.where(threshold == 0, np.nan, threshold))


def _map_blocks(fn, head: tuple, n_realizations: int, symbols: int, samples: float,
                workers: int) -> list:
    """The results of `fn` on (*head, r0, realizations) for each block (_blocks), in
    order; the only place a process pool is opened, only for two tasks or more
    of a sweep whose frames draw more than POOL_MIN_SAMPLES `samples`, and with
    at most one process per task (tasks are pure, so this cannot change a
    result). At least four chunks per worker keep the load balanced when one
    worker runs slower than the other."""
    check_int(workers, 1, MAX_WORKERS, "workers")
    tasks = [(*head, *block) for block in _blocks(range(n_realizations), symbols)]
    workers = min(workers, len(tasks)) if samples > POOL_MIN_SAMPLES else 1
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor   # loaded with the first pool
        chunksize = max(1, len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks, chunksize=chunksize))
    return list(map(fn, tasks))


def _samples(params: SystemParams, modes, symbols: int) -> float:
    """The samples `symbols` symbols draw in each of `modes`, as POOL_MIN_SAMPLES counts them."""
    return symbols * params.n_samples * sum(1.0 if m == LNA else NO_LNA_WEIGHT for m in modes)


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
    symbols = spec.n_frames * spec.scenario.k_symbols
    samples = _samples(spec.scenario, spec.modes, spec.n_realizations * symbols)
    per_case = zip(*_map_blocks(_ber_task, (spec,), spec.n_realizations, symbols, samples,
                                workers))
    points = ((value, mode) for value in spec.values for mode in spec.modes)
    return [_ber_point(spec, value, mode, blocks)
            for (value, mode), blocks in zip(points, per_case)]


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
    check_mode(mode)
    check_int(master_seed, 0, math.inf, "master_seed")
    if not isinstance(fractions, (tuple, list)):    # read once, as SweepSpec reads its values
        raise ConfigError(f"pilot fractions must be a tuple or a list, got {fractions!r}",
                          fields=("pilot_fraction",))
    _check_point_count(fractions, "pilot_fraction")
    per_fraction = [replace(params, pilot_fraction=frac) for frac in fractions]
    k_trains = tuple(p.k_train for p in per_fraction)
    # the pilot count is what a fraction estimates from: 0 pilots (a fraction
    # of 0) estimate nothing, and two fractions of one count, repeated or only
    # rounded together, would write one row twice
    if not k_trains or 0 in k_trains or len(set(k_trains)) < len(k_trains):
        raise ConfigError("pilot fractions must be a nonempty list of values > 0 of distinct "
                          f"pilot counts, got pilot_fraction {tuple(fractions)!r} (k_train "
                          f"{k_trains})", fields=("pilot_fraction",))
    check_trials(n_realizations, n_frames, max(k_trains))
    head = params, mode, k_trains, n_frames, master_seed
    symbols = n_frames * max(k_trains)
    errors = np.concatenate(_map_blocks(_pilot_task, head, n_realizations, symbols,
                                        _samples(params, (mode,), n_realizations * symbols),
                                        workers), axis=1)

    points = []
    for p, err in zip(per_fraction, errors):
        ok = err[~np.isnan(err)]       # (realization, frame) order
        stats = (np.mean(ok), np.median(ok), np.percentile(ok, 90)) if ok.size else [math.nan] * 3
        points.append(PilotPoint(p.pilot_fraction, p.k_train, *map(float, stats), ok.size,
                                 n_realizations * n_frames - ok.size, master_seed))
    return points

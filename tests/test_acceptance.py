"""Acceptance gate: nine criteria, one printed pass/fail line each.

Each test prints `ACCEPTANCE <n> <name>: PASS|FAIL -- detail` before asserting,
so the printed table survives even when a criterion is red.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from ambclink import LNA, NO_LNA, load_scenario
from ambclink.analysis import ber_closed_form, hypothesis_moments, near_optimal_threshold
from ambclink.channel import channel_table, draw_channels
from ambclink.frontend import generate_frame
from ambclink.montecarlo import (
    CLOSED_FORM_TRUE,
    ESTIMATED_POLICY,
    SWEEP_PS,
    SweepSpec,
    ber_block,
    detect,
    run_pilot_sweep,
    run_sweep,
)
from ambclink.verify import (
    check_deflection,
    check_moments_vs_expansion,
    check_moments_vs_montecarlo,
    check_threshold_near_optimality,
)

CHANNEL_SEED = 20240801       # fixed-realization criteria (2, 4)
SWEEP_SEED = 5                # fading-averaged and pinned-BDPR sweeps (5, 6, 7)
PILOT_SEED = 24               # pilot-estimation criterion (8)
SWEEP_VALUES = tuple(float(v) for v in range(-10, 35, 5))


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num} {name}: {status} -- {detail}")


@pytest.fixture(scope="module")
def params():
    return replace(load_scenario({}, paper_defaults=True), pilot_fraction=0.0)


@pytest.fixture(scope="module")
def averaged_spec(params):
    """Fading-averaged Ps sweep shared by criteria 5 and 6."""
    return SweepSpec(scenario=params, sweep_var=SWEEP_PS, values=SWEEP_VALUES,
                     modes=(LNA, NO_LNA), threshold_policy=CLOSED_FORM_TRUE,
                     n_frames=1, n_realizations=200, master_seed=SWEEP_SEED)


@pytest.fixture(scope="module")
def averaged_sweep(averaged_spec):
    return run_sweep(averaged_spec, workers=1)


def test_criterion_1_moment_exactness():
    t0 = time.monotonic()
    res = check_moments_vs_expansion(seed=2024, n_tuples=1000)
    dt = time.monotonic() - t0
    ok = res.passed and dt < 5.0
    _report(1, "moment_exactness", ok, f"{res.detail} in {dt:.2f}s (< 5s)")
    assert res.passed, res.detail
    assert dt < 5.0


def test_criterion_2_moment_realism(params):
    t0 = time.monotonic()
    res = check_moments_vs_montecarlo(params, seed=CHANNEL_SEED, n_samples_mc=10_000_000,
                                      mean_tol=0.01, var_tol=0.03)
    dt = time.monotonic() - t0
    ok = res.passed and dt < 120.0
    _report(2, "moment_realism", ok, f"{res.detail}, 1e7 samples in {dt:.1f}s (< 120s)")
    assert res.passed, res.detail
    assert dt < 120.0


def test_criterion_3_threshold_optimality():
    t0 = time.monotonic()
    res = check_threshold_near_optimality(seed=7, n_tuples=1000)
    dt = time.monotonic() - t0
    ok = res.passed and dt < 30.0
    _report(3, "threshold_optimality", ok, f"{res.detail}, 1000 tuples in {dt:.1f}s (< 30s)")
    assert res.passed, res.detail
    assert dt < 30.0


def _criterion_4_point(task):
    """Errors on 10^5 sample-level LNA symbols at one (N, Ps), in frames of
    10^4, with the point's closed-form BER: (n, errors, cf, n_symbols)."""
    params, n, i, ps = task
    n_symbols, chunk = 100_000, 10_000
    p = replace(params, n_samples=n, ps_dbm=ps)
    real = draw_channels(p, np.random.default_rng(np.random.SeedSequence(CHANNEL_SEED)))
    m = hypothesis_moments(p, real, LNA)
    t = near_optimal_threshold(m)
    errors = 0
    rng = np.random.default_rng(np.random.SeedSequence((1000 * n + i, 7)))
    pc = replace(p, k_symbols=chunk)
    for _ in range(n_symbols // chunk):
        bits = rng.integers(0, 2, chunk)
        energies = generate_frame(pc, real, bits, rng, LNA)
        errors += int(np.sum(detect(energies, t, m.delta0, m.delta1) != bits))
    return n, errors, ber_closed_form(m, t), n_symbols


def test_criterion_4_ber_formula_vs_simulation(params):
    # the 12 points are independent, each on its own seed: two processes
    # run them, and each point's errors are those of a serial run
    t0 = time.monotonic()
    tasks = [(params, n, i, ps) for n in (50, 75, 100)
             for i, ps in enumerate((0.0, 5.0, 10.0, 15.0))]
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_criterion_4_point, tasks))
    maxdev = {}
    enough_errors = True
    all_within = True
    for n in (50, 75, 100):
        devs = []
        for _, errors, cf, n_symbols in (r for r in results if r[0] == n):
            if errors < 10:
                enough_errors = False
                continue
            se = math.sqrt(cf * (1 - cf) / n_symbols)
            dev = abs(errors / n_symbols - cf) / se
            devs.append(dev)
            all_within = all_within and dev <= 3.0
        maxdev[n] = max(devs) if devs else math.inf
    improves = maxdev[50] >= maxdev[100]
    dt = time.monotonic() - t0
    ok = enough_errors and all_within and improves and dt < 600.0
    _report(4, "ber_formula_vs_simulation", ok,
            f"max normalized deviation by N: "
            f"{ {k: round(v, 2) for k, v in maxdev.items()} } (each point <= 3 SE), "
            f"N=50 vs N=100 non-increasing: {improves}, {dt:.0f}s (< 600s)")
    assert enough_errors, "a point produced fewer than 10 errors"
    assert all_within, "a point deviated by more than 3 binomial standard errors"
    assert improves, "max normalized deviation grew from N=50 to N=100"
    assert dt < 600.0


def test_criterion_5_lna_advantage(params, averaged_sweep):
    t0 = time.monotonic()
    lna = {p.value: p for p in averaged_sweep if p.mode == LNA}
    nol = {p.value: p for p in averaged_sweep if p.mode == NO_LNA}
    low = [v for v in SWEEP_VALUES if v <= 10.0]
    separated = all(
        lna[v].ber_empirical < nol[v].ber_empirical
        and nol[v].ber_empirical - lna[v].ber_empirical
        > lna[v].ber_ci_halfwidth + nol[v].ber_ci_halfwidth
        for v in low
    )
    ratio = {v: lna[v].ber_empirical / nol[v].ber_empirical for v in SWEEP_VALUES}
    rises = ratio[30.0] > max(ratio[v] for v in low) and ratio[30.0] >= 0.95

    # deflection-coefficient side: the exact form against its moment
    # composition, strict ordering on random fading draws, and convergence
    # within 1% at very large received power
    dc = check_deflection(params, seed=505)
    dt = time.monotonic() - t0
    ok = separated and rises and dc.passed
    _report(5, "lna_advantage", ok,
            f"LNA below no-LNA outside CIs for Ps <= 10 dBm: {separated}; "
            f"BER ratio {ratio[-10.0]:.3f} at -10 dBm -> {ratio[30.0]:.3f} at 30 dBm "
            f"(rises toward 1: {rises}); DC on 50 draws: {dc.detail}; "
            f"checks in {dt:.0f}s (sweep shared, < 900s)")
    assert separated
    assert rises
    assert dc.passed, dc.detail


def _noise_free(params):
    return replace(params, n_ar_dbm=-300.0, n_at_dbm=-300.0, n_cov_dbm=-300.0)


def _successive_ratios(curve):
    return [curve[i + 1] / curve[i] for i in range(len(curve) - 1)]


def test_criterion_6_error_floor(averaged_spec, averaged_sweep):
    # The energy detector's error floor is the ambient source's direct-link
    # interference, not noise. Without noise each hypothesis' energy has the
    # moments (P, P^2/N) up to the front-end gain, so the floor BER depends
    # only on N and |h1|^2/|h0|^2: not on Ps, the noise, or the LNA (the
    # cubic's compression moves it by ~4e-8 relative over the grid, well
    # inside the 1e-6 flatness bound). At seed
    # 5 it is 0.3808, so no raw ratio of successive points can drop below
    # about 0.381/0.5 ~ 0.76 on any grid, and the LNA curve meets the floor
    # to within 1e-5 at 30 dBm. The LNA helps only while the receiver is
    # noise-limited, so the fall is checked on the excess BER over the floor,
    # which tends to 10^-0.5 ~ 0.316 per 5 dB step at high SNR.
    #
    # The mean closed-form BER column is the same fading-averaged curve as the
    # empirical one (channels are paired across sweep points) without binomial
    # noise, so the shape test is deterministic. The floor reruns the same
    # spec with the noise powers far below the signal, which keeps the
    # channel pairing.
    quiet = _noise_free(averaged_spec.scenario)
    floor_sweep = run_sweep(replace(averaged_spec, scenario=quiet, modes=(LNA,)),
                            workers=1)
    curve = [p.ber_closed_form for p in averaged_sweep if p.mode == LNA]
    floor = [p.ber_closed_form for p in floor_sweep]
    excess = [c - f for c, f in zip(curve, floor)]
    ratios = _successive_ratios(curve)
    excess_ratios = _successive_ratios(excess)
    above = [r for r, v in zip(ratios, SWEEP_VALUES[1:]) if v > 20.0]
    below = [r for r, v in zip(excess_ratios, SWEEP_VALUES[1:]) if v <= 10.0]
    flat_above_20 = all(r >= 0.9 for r in above)
    floor_spread = max(floor) - min(floor)
    flat_floor = floor_spread <= 1e-6 * max(floor)
    above_floor = all(e > 0 for e in excess)
    falls_below_10 = any(r <= 0.7 for r in below)
    ok = flat_above_20 and flat_floor and above_floor and falls_below_10
    _report(6, "error_floor", ok,
            f"LNA curve {[round(c, 4) for c in curve]}; successive ratios above "
            f"20 dBm {[round(r, 4) for r in above]} (all >= 0.9: {flat_above_20}); "
            f"noise-free floor {floor[0]:.6f} (spread {floor_spread:.1e}, "
            f"flat: {flat_floor}); excess over floor "
            f"[{', '.join(f'{e:.3e}' for e in excess)}] (all > 0: {above_floor}); "
            f"excess ratios {[round(r, 4) for r in excess_ratios]}, min at/below "
            f"10 dBm {min(below):.4f} (<= 0.7 somewhere: {falls_below_10})")
    assert flat_above_20
    assert flat_floor, f"interference floor moves with Ps (spread {floor_spread:.3e})"
    assert above_floor, "LNA curve dips below its noise-free interference floor"
    assert falls_below_10, (
        f"no successive 5 dB step at/below 10 dBm drops the excess BER over the "
        f"floor to <= 0.7 of the previous point (min ratio {min(below):.4f})"
    )


def _first_flatten(curve, values, bound=0.9):
    ratios = _successive_ratios(curve)
    for i in range(len(ratios)):
        if all(r >= bound for r in ratios[i:]):
            return values[i + 1]
    return math.inf


def _first_within(excess, bounds, values):
    for i in range(len(excess)):
        if all(e <= b for e, b in zip(excess[i:], bounds[i:])):
            return values[i]
    return math.inf


def test_criterion_7_bdpr_invariance(params):
    # The gate reads the onset off raw successive ratios. At BDPR -30 and -20
    # dB every raw ratio is >= 0.9, so that onset sits at the grid's first
    # step; the diagnostic onsets read the excess over criterion 6's
    # noise-free floor, rerun at each BDPR, and do not enter the gate.
    t0 = time.monotonic()
    quiet = _noise_free(params)
    flatten, relative, absolute = {}, {}, {}
    for b in (-30.0, -20.0, -10.0):
        spec = SweepSpec(scenario=params, sweep_var=SWEEP_PS, values=SWEEP_VALUES,
                         modes=(LNA,), threshold_policy=CLOSED_FORM_TRUE,
                         n_frames=1, n_realizations=200, master_seed=SWEEP_SEED,
                         fixed_bdpr_db=b)
        curve = [p.ber_closed_form for p in run_sweep(spec, workers=1)]
        floor = [p.ber_closed_form
                 for p in run_sweep(replace(spec, scenario=quiet), workers=1)]
        flatten[b] = _first_flatten(curve, SWEEP_VALUES)
        excess = [c - f for c, f in zip(curve, floor)]
        relative[b] = _first_within(excess, [0.01 * f for f in floor], SWEEP_VALUES)
        absolute[b] = _first_within(excess, [1e-3] * len(floor), SWEEP_VALUES)
    spread = max(flatten.values()) - min(flatten.values())
    dt = time.monotonic() - t0
    ok = spread <= 5.0
    _report(7, "bdpr_invariance", ok,
            f"error-floor onset Ps by BDPR: {flatten} dBm, spread {spread:.1f} dB "
            f"(<= one 5 dB grid step), {dt:.0f}s; diagnostic onsets on the excess "
            f"over the noise-free floor: <= 1% of the floor {relative} dBm, "
            f"<= 1e-3 {absolute} dBm")
    assert spread <= 5.0


def test_criterion_8_pilot_estimation(params):
    t0 = time.monotonic()
    p = replace(params, k_symbols=200)
    points = run_pilot_sweep(p, (0.05, 0.1, 0.2, 0.4), LNA,
                             n_realizations=1, n_frames=500,
                             master_seed=PILOT_SEED, workers=1)
    medians = [pt.r_median for pt in points]
    monotone = all(a > b for a, b in zip(medians, medians[1:]))
    low_gain = medians[0] - medians[1]     # 5% -> 10%
    high_gain = medians[2] - medians[3]    # 20% -> 40%
    diminishing = low_gain > high_gain

    # paired BER at 20% overhead on the same operating point the sweep used
    pe = replace(p, pilot_fraction=0.2)
    table = channel_table(pe, np.random.default_rng(      # the sweep's realization 0
        np.random.SeedSequence((PILOT_SEED, 0, 1))).standard_normal((6, 1)))
    counts = {}
    for policy in (CLOSED_FORM_TRUE, ESTIMATED_POLICY):
        errors = bits = 0
        for f in range(600):
            rng, lna_rng = (np.random.default_rng(
                np.random.SeedSequence((PILOT_SEED, 0, i, f, 9))) for i in (2, 3))
            (res,) = ber_block(pe, [(pe.ps, LNA, table)], 1, rng, lna_rng, policy)
            if not res.failed[0, 0]:
                errors += int(res.errors[0, 0])
                bits += int(res.bits[0, 0])
        counts[policy] = errors / bits
    excess = counts[ESTIMATED_POLICY] / counts[CLOSED_FORM_TRUE] - 1.0
    close = excess <= 0.10
    dt = time.monotonic() - t0
    ok = monotone and diminishing and close and dt < 600.0
    _report(8, "pilot_estimation", ok,
            f"median R {[round(m, 4) for m in medians]} strictly decreasing: "
            f"{monotone}; 5->10% gain {low_gain:.4f} > 20->40% gain "
            f"{high_gain:.4f}: {diminishing}; estimated-threshold BER excess "
            f"{excess * 100:.1f}% (<= 10%), {dt:.0f}s (< 600s)")
    assert monotone
    assert diminishing
    assert close
    assert dt < 600.0


def test_criterion_9_determinism(tmp_path):
    import json

    from ambclink.cli import main

    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"paper_defaults": True, "k_symbols": 40,
                                    "n_samples": 25, "pilot_fraction": 0.0}))
    outputs = {}
    for workers in (1, 3):
        out = tmp_path / f"w{workers}.csv"
        rc = main(["ber-sweep", "--scenario", str(scenario), "--out", str(out),
                   "--sweep", "ps:0:10:5", "--frames", "1",
                   "--realizations", "4", "--seed", "9",
                   "--workers", str(workers)])
        assert rc == 0
        outputs[workers] = out.read_bytes()
    identical = outputs[1] == outputs[3]
    _report(9, "determinism", identical,
            f"ber-sweep CSV with --workers 1 vs 3: "
            f"{'byte-identical' if identical else 'DIFFERENT'} "
            f"({len(outputs[1])} bytes)")
    assert identical

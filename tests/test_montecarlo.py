import concurrent.futures
import math
from dataclasses import astuple, replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ambclink.montecarlo as mc
import ambclink.verify
from ambclink import LNA, NO_LNA, channel
from ambclink.analysis import (
    HypothesisMoments,
    ber_closed_form,
    hypothesis_moments,
    level_moments,
    near_optimal_threshold,
    noise_levels,
)
from ambclink.channel import channel_table, draw_channels
from ambclink.config import (MAX_REALIZATIONS, MAX_SWEEP_POINTS, MAX_SWEEP_SYMBOLS, MODES,
                             SystemParams)
from ambclink.errors import ConfigError, ModelValidityError, NoSeparationError
from ambclink.estimation import (
    pilot_statistics,
    relative_threshold_error,
)
from ambclink.frontend import draw_energies, draw_lna_variates, energies_from_variates
from ambclink.montecarlo import (
    CLOSED_FORM_TRUE,
    ESTIMATED_POLICY,
    POLICIES,
    SWEEP_BDPR,
    SWEEP_PS,
    SweepSpec,
    ber_block,
    detect,
    run_pilot_sweep,
    run_sweep,
    wilson_halfwidth,
)

# a NaN, a fraction and a bool in each count and seed: none is an integer
BAD_COUNTS = [({name: bad}, (name,)) for name in ("n_frames", "n_realizations", "master_seed")
              for bad in (math.nan, 2.5, True)]
BAD_COUNT_IDS = [f"{name}-{bad}" for name in ("frames", "realizations", "seed")
                 for bad in ("nan", "float", "bool")]


def _manual_table(params, h0, hst, htr):
    """A hand-built channel table of one realization: |h0|^2, |h1|^2, |htr|^2."""
    h1 = h0 + params.alpha_amp * hst * htr
    return np.array([[abs(h0) ** 2], [abs(h1) ** 2], [abs(htr) ** 2]])


def _no_draw(*args):
    raise AssertionError("channel drawn")


def _no_params(*args):
    raise AssertionError("SystemParams built")


def _no_lna_draw(*args):
    raise AssertionError("LNA variates drawn")


class TestDetect:
    def test_rule_applications(self):
        up = HypothesisMoments(1.0, 6.0, 1.0, 1.0)
        down = HypothesisMoments(6.0, 1.0, 1.0, 1.0)
        assert detect(5.0, 3.0, up.delta0, up.delta1) == 1
        assert detect(5.0, 3.0, down.delta0, down.delta1) == 0

    def test_tie_goes_to_the_geq_branch(self):
        up = HypothesisMoments(1.0, 6.0, 1.0, 1.0)
        assert detect(3.0, 3.0, up.delta0, up.delta1) == 1
        down = HypothesisMoments(6.0, 1.0, 1.0, 1.0)
        assert detect(3.0, 3.0, down.delta0, down.delta1) == 0


class TestWilson:
    def test_known_value(self):
        # p=0.5, n=100: classic Wilson half-width just under 0.1
        hw = wilson_halfwidth(50, 100)
        assert hw == pytest.approx(0.0958, abs=2e-3)

    def test_degenerate(self):
        assert math.isnan(wilson_halfwidth(0, 0))
        assert wilson_halfwidth(0, 1000) > 0


def _one_frame(params, table, seed, mode, policy):
    """ber_block's single frame of the single realization of `table`, read
    at [0, 0]: its bits drawn from default_rng(seed), its variates, in either
    mode, from default_rng([seed, 3])."""
    (res,) = ber_block(params, [(params.ps, mode, table)], 1, np.random.default_rng(seed),
                       np.random.default_rng([seed, 3]), policy)
    return (int(res.errors[0, 0]), int(res.bits[0, 0]), float(res.threshold[0, 0]),
            float(res.ber_closed_form[0, 0]), bool(res.failed[0, 0]))


class TestBerTrial:
    """One frame of one realization through ber_block."""

    def test_noise_free_separated_is_error_free(self, paper_params):
        p = replace(paper_params, beta1=1.0, beta3=0.0, alpha_db=0.0,
                    n_ar_dbm=-400.0, n_cov_dbm=-400.0, n_at_dbm=-400.0,
                    k_symbols=400, pilot_fraction=0.0)
        table = _manual_table(p, 1e-4 + 0j, 1.0 + 0j, 1.0 + 0j)
        assert table[1, 0] / table[0, 0] > 1e6
        errors, bits, *_ = _one_frame(p, table, 3, LNA, CLOSED_FORM_TRUE)
        assert errors == 0
        assert bits == 400

    def test_no_tag_information_gives_half(self, paper_params):
        # -200 dB keeps the hypotheses formally distinct (so a threshold
        # exists) while carrying no usable tag information
        p = replace(paper_params, alpha_db=-200.0, k_symbols=4000,
                    pilot_fraction=0.0)
        table = _manual_table(p, 0.001 + 0.001j, 0.01 + 0j, 0.02 + 0j)
        errors, bits, *_ = _one_frame(p, table, 5, LNA, CLOSED_FORM_TRUE)
        assert abs(errors / bits - 0.5) < 4 * math.sqrt(0.25 / bits)

    def test_estimated_policy_excludes_pilots(self, paper_params, fixed_table):
        p = replace(paper_params, k_symbols=100, pilot_fraction=0.2)
        _, bits, _, _, failed = _one_frame(p, fixed_table, 7, LNA, ESTIMATED_POLICY)
        assert failed is False
        assert bits == 80

    def test_estimated_policy_without_pilots_raises(self, paper_params, fixed_table):
        # a frame with no pilots has nothing to estimate from: refused at entry
        p = replace(paper_params, k_symbols=100, pilot_fraction=0.0)
        with pytest.raises(ConfigError) as ei:
            _one_frame(p, fixed_table, 7, LNA, ESTIMATED_POLICY)
        assert ei.value.fields == ("pilot_fraction",)

    def test_degenerate_estimate_is_recorded_not_raised(self, paper_params, fixed_table,
                                                        monkeypatch):
        def degenerate(energies, k_train):
            d0, d1, v0, v1 = pilot_statistics(energies, k_train)
            return HypothesisMoments(d0, d1, np.zeros_like(v0), v1)   # zero pilot-group variance
        monkeypatch.setattr(mc, "pilot_statistics", degenerate)
        p = replace(paper_params, k_symbols=100, pilot_fraction=0.2)
        errors, bits, threshold, closed, failed = _one_frame(
            p, fixed_table, 11, LNA, ESTIMATED_POLICY)
        assert failed is True
        assert (errors, bits) == (0, 0)
        assert math.isnan(threshold) and math.isnan(closed)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_is_the_one_frame_case_of_a_block(self, paper_params, fixed_realization,
                                               fixed_table, policy):
        # equals one frame drawn by draw_energies and detected by hand on the
        # channel object of the table's normals: the bits from the frame
        # generator, the energies from the LNA variates'
        p = replace(paper_params, k_symbols=100, pilot_fraction=0.2)
        res = _one_frame(p, fixed_table, 21, LNA, policy)

        rng = np.random.default_rng(21)
        k0 = p.k_train if policy == ESTIMATED_POLICY else 0
        bits = np.concatenate([np.arange(k0) % 2, rng.integers(0, 2, p.k_symbols - k0)])
        noise = noise_levels(p, fixed_realization.htr_abs2, LNA)
        energies = draw_energies(p, bits, (fixed_realization.p0, fixed_realization.p1), noise,
                                 np.random.default_rng([21, 3]), LNA)
        true_m = hypothesis_moments(p, fixed_realization, LNA)
        m = (HypothesisMoments(*map(float, pilot_statistics(energies, k0)))
             if k0 else true_m)
        t = near_optimal_threshold(m)
        errors = int(np.sum(detect(energies[k0:], t, m.delta0, m.delta1) != bits[k0:]))
        assert res == (errors, p.k_symbols - k0, t, ber_closed_form(true_m, t), False)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_failing_true_closed_forms_raise_the_float_calls_error(self, paper_params,
                                                                  fixed_table, policy):
        # the batches mark NaN where a float call raises; ber_block raises that
        # call's error where the loop over the cases and their realizations
        # met it first: the LNA case's overflowing moments before the no-LNA
        # case's missing separation (no tag path, so equal means), though the
        # no-LNA batch is taken first. The estimated policy takes no true
        # threshold, so there only the moments fail, and in the same place.
        p = replace(paper_params, k_symbols=100, pilot_fraction=0.2)
        huge = _manual_table(p, 1e30 + 0j, 1.0 + 0j, 1.0 + 0j)   # P^6 overflows
        nosep = _manual_table(p, 1e-3 + 0j, 0j, 0j)

        def float_call(table, mode):
            (g0, g1, gtr), = table.T.tolist()
            return level_moments(p, (g0 * p.ps, g1 * p.ps), noise_levels(p, gtr, mode), mode)

        with pytest.raises(ModelValidityError) as float_error:
            float_call(huge, LNA)
        with pytest.raises(NoSeparationError):
            near_optimal_threshold(float_call(nosep, NO_LNA))
        cases = [(p.ps, LNA, np.hstack([fixed_table, huge])),
                 (p.ps, NO_LNA, np.hstack([nosep, fixed_table]))]
        with pytest.raises(ModelValidityError) as raised:
            ber_block(p, cases, 1, np.random.default_rng(1), np.random.default_rng(2), policy)
        assert str(raised.value) == str(float_error.value)

    def test_unknown_policy_rejected(self, paper_params, fixed_table):
        with pytest.raises(ValueError, match="threshold_policy must be one of") as ei:
            ber_block(paper_params, [(paper_params.ps, LNA, fixed_table)], 1,
                      np.random.default_rng(1), np.random.default_rng(2), "oracle")
        assert ei.value.fields == ("threshold_policy",)    # SweepSpec's rule (check_in)

    @pytest.mark.parametrize("modes, counts, match", [
        ((), (), "at least one case"),
        ((NO_LNA, LNA), (2, 3), r"equally many realizations, at least one; they hold \[2, 3\]"),
        ((LNA, LNA), (2, 3), r"equally many realizations, at least one; they hold \[2, 3\]"),
        ((LNA,), (0,), r"equally many realizations, at least one; they hold \[0\]"),
    ], ids=["no-cases", "across-modes", "within-a-mode", "no-realizations"])
    def test_cases_it_cannot_run_are_named(self, paper_params, fixed_table, modes,
                                           counts, match):
        cases = [(paper_params.ps, mode, np.repeat(fixed_table, n, axis=1))
                 for mode, n in zip(modes, counts)]
        with pytest.raises(ValueError, match=match):
            ber_block(paper_params, cases, 1, np.random.default_rng(1), np.random.default_rng(2))

    @pytest.mark.parametrize("n_frames, fraction, policy, fields", [
        (0, 0.2, CLOSED_FORM_TRUE, ("n_frames",)),
        (-1, 0.2, CLOSED_FORM_TRUE, ("n_frames",)),
        (1.5, 0.2, CLOSED_FORM_TRUE, ("n_frames",)),
        (True, 0.2, CLOSED_FORM_TRUE, ("n_frames",)),
        (MAX_SWEEP_SYMBOLS, 0.2, CLOSED_FORM_TRUE, ("n_frames", "n_realizations")),
        (1, 0.995, ESTIMATED_POLICY, ("pilot_fraction",)),
        (1, 0.0, ESTIMATED_POLICY, ("pilot_fraction",)),
    ], ids=["no-frames", "negative", "fraction", "bool", "symbol-cap", "all-pilots",
            "no-pilots"])
    def test_frames_and_pilots_judged_before_any_work(self, paper_params, fixed_table,
                                                      monkeypatch, n_frames, fraction,
                                                      policy, fields):
        # SweepSpec's rules at entry: no closed form runs and no generator moves
        def no_closed_form(*args):
            raise AssertionError("closed form computed")

        p = replace(paper_params, pilot_fraction=fraction)
        monkeypatch.setattr(mc, "level_moments", no_closed_form)
        frame_rng, lna_rng = np.random.default_rng(1), np.random.default_rng(2)
        states = frame_rng.bit_generator.state, lna_rng.bit_generator.state
        with pytest.raises(ConfigError) as ei:
            ber_block(p, [(p.ps, LNA, np.repeat(fixed_table, 2, axis=1))], n_frames,
                      frame_rng, lna_rng, policy)
        assert ei.value.fields == fields
        assert (frame_rng.bit_generator.state, lna_rng.bit_generator.state) == states


class TestSweepSpec:
    def test_validation(self, paper_params):
        good = dict(scenario=paper_params, sweep_var=SWEEP_PS, values=(0.0,))
        SweepSpec(**good)
        with pytest.raises(ValueError):
            SweepSpec(**{**good, "sweep_var": "gain"})
        with pytest.raises(ValueError):
            SweepSpec(**{**good, "values": ()})
        with pytest.raises(ValueError):
            SweepSpec(**{**good, "modes": ("amp",)})
        with pytest.raises(ConfigError, match="^modes must be a tuple or a list, got 'lna'$"):
            SweepSpec(**{**good, "modes": LNA})
        with pytest.raises(ValueError):
            SweepSpec(**{**good, "threshold_policy": "guess"})
        with pytest.raises(ValueError):
            SweepSpec(**{**good, "n_frames": 0})
        with pytest.raises(ConfigError) as ei:
            SweepSpec(**{**good, "n_realizations": 0})
        assert ei.value.fields == ("n_realizations",)
        SweepSpec(**{**good, "threshold_policy": ESTIMATED_POLICY})
        with pytest.raises(ConfigError) as ei:
            SweepSpec(**{**good, "threshold_policy": ESTIMATED_POLICY,
                         "scenario": replace(paper_params, pilot_fraction=0.0)})
        assert ei.value.fields == ("pilot_fraction",)

    @pytest.mark.parametrize("changes, field", [
        ({"fixed_bdpr_db": math.nan}, "fixed_bdpr_db"),
        ({"fixed_bdpr_db": -math.inf}, "fixed_bdpr_db"),
        ({"fixed_bdpr_db": 200.5}, "fixed_bdpr_db"),
        ({"fixed_bdpr_db": 1e308}, "fixed_bdpr_db"),
        ({"sweep_var": SWEEP_BDPR, "values": (-10.0, 300.0)}, "values"),
        ({"sweep_var": SWEEP_BDPR, "values": (math.nan,)}, "values"),
        ({"sweep_var": SWEEP_BDPR, "fixed_bdpr_db": -20.0}, "fixed_bdpr_db"),
        ({"fixed_bdpr_db": "x"}, "fixed_bdpr_db"),
        ({"fixed_bdpr_db": True}, "fixed_bdpr_db"),
        ({"sweep_var": SWEEP_BDPR, "values": ("a",)}, "values"),
        ({"sweep_var": SWEEP_BDPR, "values": (0.0, 10 ** 400)}, "values"),
    ], ids=["nan", "-inf", "above-bound", "huge", "sweep-above-bound", "sweep-nan",
            "pinned-in-bdpr-sweep", "str", "bool", "sweep-str", "sweep-huge-int"])
    def test_bad_bdpr_rejected_before_any_channel_is_drawn(self, paper_params,
                                                           monkeypatch, changes, field):
        monkeypatch.setattr(mc, "_block_draws", _no_draw)
        with pytest.raises(ConfigError) as ei:
            spec = SweepSpec(**{"scenario": paper_params, "sweep_var": SWEEP_PS,
                                "values": (0.0,), **changes})
            run_sweep(spec)
        assert ei.value.fields == (field,)

    @pytest.mark.parametrize("ps, bdpr, reachable", [
        (200.0, 200.0, False), (250.0, 170.0, False), (300.0, 150.0, False),
        (300.0, 120.0, True), (250.0, 150.0, True), (200.0, 170.0, True),
    ])
    def test_bdpr_beyond_the_closed_forms_rejected_at_load(self, paper_params, monkeypatch,
                                                           ps, bdpr, reachable):
        """A BDPR target whose closed forms would fail on a strong draw is
        rejected before any channel is drawn, naming the BDPR field, for a
        pinned BDPR and for a bdpr sweep alike. The rejected points do fail on
        some of 200 realizations; the accepted ones on none."""
        seeds = (np.random.SeedSequence((1, r, 1)) for r in range(200))
        table = [draw_channels(paper_params, np.random.default_rng(seed)) for seed in seeds]
        p = replace(paper_params, ps_dbm=ps)

        def fails(real):
            real = channel._compose(p, *real[:3], bdpr)
            try:
                near_optimal_threshold(hypothesis_moments(p, real, LNA))
            except ModelValidityError:
                return True
            return False

        assert any(fails(real) for real in table) is not reachable

        monkeypatch.setattr(mc, "_block_draws", _no_draw)
        for changes, field in (({"values": (ps,), "fixed_bdpr_db": bdpr}, "fixed_bdpr_db"),
                               ({"scenario": p, "sweep_var": SWEEP_BDPR,
                                 "values": (0.0, bdpr)}, "values")):
            spec = {"scenario": paper_params, "sweep_var": SWEEP_PS, **changes}
            if reachable:
                SweepSpec(**spec)
                continue
            with pytest.raises(ConfigError, match="bdpr") as ei:
                SweepSpec(**spec)
            assert ei.value.fields == (field,)

    def test_the_probe_names_the_first_failing_point_and_mode(self, paper_params):
        # at Ps 200 dBm the LNA closed forms fail on the probe from BDPR 186 dB
        # on, the no-LNA ones never: the second point fails first, in lna
        spec = {"scenario": replace(paper_params, ps_dbm=200.0), "sweep_var": SWEEP_BDPR,
                "values": (0.0, 190.0, 195.0), "modes": (NO_LNA, LNA)}
        with pytest.raises(ConfigError, match=r"^bdpr 190 dB at ps_dbm 200 is beyond the lna "):
            SweepSpec(**spec)
        SweepSpec(**{**spec, "values": (0.0,)})

    def test_the_probe_agrees_with_its_float_route(self, paper_params):
        """The probe, run as a block runs its cases, accepts the points and
        names the first failing point and mode that the float calls on the
        probe channel do: h0, hst = 1 and htr in phase, |h0|^2 at
        PROBE_DIRECT_GAIN times its mean and |htr|^2 at its mean, composed at
        each target. At Ps 100-300 dBm: a pinned BDPR of 0-100 dB in 0.25 dB
        steps in each mode, and a two-mode bdpr sweep of 100-200 dB."""
        p = paper_params
        h0 = complex(math.sqrt(mc.PROBE_DIRECT_GAIN * p.r0 ** -p.v0))
        htr = complex(math.sqrt(p.rtr ** -p.vtr))

        def first_failure(params, bdprs, modes):
            for bdpr in bdprs:
                real = channel._compose(params, h0, 1 + 0j, htr, bdpr)
                for mode in modes:
                    try:
                        near_optimal_threshold(hypothesis_moments(params, real, mode))
                    except ModelValidityError:
                        return (f"^bdpr {bdpr:g} dB at ps_dbm {params.ps_dbm:g} "
                                f"is beyond the {mode} ")
            return None

        def check(spec, field, failure):
            if failure is None:
                SweepSpec(**spec)
                return
            with pytest.raises(ConfigError, match=failure) as ei:
                SweepSpec(**spec)
            assert ei.value.fields == (field,)

        pinned = [0.25 * i for i in range(401)]
        swept = tuple(100.0 + bdpr for bdpr in pinned)
        rejected = []
        for ps in (100.0, 150.0, 200.0, 250.0, 300.0):
            at = replace(p, ps_dbm=ps)
            for mode in MODES:
                for bdpr in pinned:
                    check({"scenario": p, "sweep_var": SWEEP_PS, "values": (ps,),
                           "modes": (mode,), "fixed_bdpr_db": bdpr},
                          "fixed_bdpr_db", first_failure(at, [bdpr], [mode]))
            failure = first_failure(at, swept, MODES)
            check({"scenario": at, "sweep_var": SWEEP_BDPR, "values": swept, "modes": MODES},
                  "values", failure)
            rejected += [ps] if failure else []
        assert rejected == [200.0, 250.0, 300.0]

    def test_more_points_than_the_cap_rejected_before_any_is_built(self, paper_params,
                                                                 monkeypatch):
        # a ps sweep builds each point's SystemParams; the cap is judged first
        values = tuple(0.1 * i for i in range(MAX_SWEEP_POINTS + 1))
        SweepSpec(scenario=paper_params, sweep_var=SWEEP_PS, values=values[:-1])
        monkeypatch.setattr(SystemParams, "__post_init__", _no_params)
        for sweep_var in (SWEEP_PS, SWEEP_BDPR):
            with pytest.raises(ConfigError, match="more than 1000") as ei:
                SweepSpec(scenario=paper_params, sweep_var=sweep_var, values=values)
            assert ei.value.fields == ("values",)

    @pytest.mark.parametrize("changes, fields", [
        ({"modes": (LNA, LNA)}, ("modes",)),
        ({"values": (0.0, 5.0, 0.0)}, ("values",)),
        ({"n_realizations": MAX_REALIZATIONS + 1}, ("n_realizations",)),
        ({"n_frames": MAX_SWEEP_SYMBOLS // 100 + 1}, ("n_frames", "n_realizations")),
        ({"values": (0.0, 10.0), "n_frames": MAX_SWEEP_SYMBOLS // 200 + 1},
         ("n_frames", "n_realizations")),
        *BAD_COUNTS,
        ({"workers": 2.5}, ("workers",)),
        ({"workers": True}, ("workers",)),
        *[({"values": (0.0, bad)}, ("ps_dbm",)) for bad in ("a", None, 10 ** 400, True)],
        ({"values": np.arange(0.0, 20.0, 10.0)}, ("values",)),
        ({"values": "05"}, ("values",)),
        ({"modes": LNA}, ("modes",)),
    ], ids=["repeated-mode", "repeated-value", "realizations-over-cap", "symbols-over-cap",
            "symbols-over-cap-by-points", *BAD_COUNT_IDS, "workers-float", "workers-bool",
            "ps-str", "ps-none", "ps-huge-int", "ps-bool", "values-array", "values-str",
            "modes-str"])
    def test_repeats_and_trial_caps_rejected_before_any_channel_is_drawn(
            self, paper_params, monkeypatch, changes, fields):
        monkeypatch.setattr(mc, "_block_draws", _no_draw)
        changes = dict(changes)
        workers = changes.pop("workers", 1)     # run_sweep's; the rest are the spec's
        with pytest.raises(ConfigError) as ei:
            run_sweep(SweepSpec(**{"scenario": paper_params, "sweep_var": SWEEP_PS,
                                   "values": (0.0,), "modes": (LNA,), **changes}), workers)
        assert ei.value.fields == fields

    def test_trial_caps_are_inclusive(self, paper_params):
        # K = 100: one point and one mode reach the symbol cap exactly
        assert paper_params.k_symbols == 100
        SweepSpec(scenario=paper_params, sweep_var=SWEEP_PS, values=(0.0,), modes=(LNA,),
                  n_realizations=MAX_REALIZATIONS)
        SweepSpec(scenario=paper_params, sweep_var=SWEEP_PS, values=(0.0,), modes=(LNA,),
                  n_frames=MAX_SWEEP_SYMBOLS // 100)

    def test_bdpr_bounds_are_inclusive(self, paper_params):
        SweepSpec(scenario=paper_params, sweep_var=SWEEP_PS, values=(0.0,),
                  fixed_bdpr_db=-200.0)
        SweepSpec(scenario=paper_params, sweep_var=SWEEP_BDPR, values=(-200.0, 200.0))


@pytest.fixture(scope="module")
def small_spec(paper_params):
    p = replace(paper_params, pilot_fraction=0.0, k_symbols=50, n_samples=25)
    return SweepSpec(scenario=p, sweep_var=SWEEP_PS, values=(0.0, 10.0),
                     modes=(LNA, NO_LNA), n_frames=2, n_realizations=8,
                     master_seed=77)


class TestRunSweep:
    def test_deterministic_rerun(self, small_spec):
        assert run_sweep(small_spec, workers=1) == run_sweep(small_spec, workers=1)

    def test_worker_count_invariance(self, small_spec):
        assert run_sweep(small_spec, workers=1) == run_sweep(small_spec, workers=3)

    def test_point_bookkeeping(self, small_spec):
        points = run_sweep(small_spec, workers=1)
        assert len(points) == 4
        for pt in points:
            assert pt.errors <= pt.bits
            assert 0.0 <= pt.ber_empirical <= 1.0
            assert pt.bits == 50 * 2 * 8
            assert pt.master_seed == 77

    def test_different_seeds_differ(self, small_spec):
        a = run_sweep(small_spec, workers=1)
        b = run_sweep(replace(small_spec, master_seed=78), workers=1)
        assert a != b

    def test_bdpr_sweep_monotone_within_confidence(self, paper_params):
        p = replace(paper_params, pilot_fraction=0.0, ps_dbm=5.0)
        spec = SweepSpec(scenario=p, sweep_var=SWEEP_BDPR,
                         values=(-30.0, -10.0), modes=(LNA,),
                         n_frames=1, n_realizations=60, master_seed=13)
        lo, hi = run_sweep(spec, workers=2)
        assert hi.ber_empirical <= lo.ber_empirical + lo.ber_ci_halfwidth \
            + hi.ber_ci_halfwidth

    def test_pinned_bdpr_ps_sweep(self, paper_params):
        p = replace(paper_params, pilot_fraction=0.0, k_symbols=50, n_samples=25)
        spec = SweepSpec(scenario=p, sweep_var=SWEEP_PS, values=(0.0,),
                         modes=(LNA,), n_frames=1, n_realizations=10,
                         master_seed=3, fixed_bdpr_db=-20.0)
        (pt,) = run_sweep(spec, workers=1)
        assert pt.bits == 500

    def test_estimated_policy_counts_failures(self, paper_params):
        p = replace(paper_params, pilot_fraction=0.2, k_symbols=100,
                    n_samples=25)
        spec = SweepSpec(scenario=p, sweep_var=SWEEP_PS, values=(10.0,),
                         modes=(LNA,), threshold_policy=ESTIMATED_POLICY,
                         n_frames=5, n_realizations=10, master_seed=2)
        (pt,) = run_sweep(spec, workers=1)
        assert pt.bits + 0 == (50 - pt.failures) * 80
        assert pt.failures >= 0


class TestBlocks:
    """Blocks hold at most max(1, BLOCK_SYMBOLS // (F*K)) realizations: at
    K=400 and F=4 that is 10, so 12 realizations span two blocks of 6."""

    @pytest.fixture(scope="class")
    def block_params(self, paper_params):
        return replace(paper_params, k_symbols=400, n_samples=10, pilot_fraction=0.1)

    def test_two_blocks(self, block_params):
        blocks = mc._blocks(range(12), 4 * block_params.k_symbols)
        assert [(r0, len(reals)) for r0, reals in blocks] == [(0, 6), (6, 6)]

    @pytest.mark.usefixtures("pool_at_any_size")
    @pytest.mark.parametrize("policy", POLICIES)
    def test_sweep_worker_invariance_across_blocks(self, block_params, policy):
        spec = SweepSpec(scenario=block_params, sweep_var=SWEEP_PS, values=(0.0, 10.0),
                         modes=(LNA, NO_LNA), threshold_policy=policy, n_frames=4,
                         n_realizations=12, master_seed=31)
        one = run_sweep(spec, workers=1)
        assert one == run_sweep(spec, workers=2)
        assert all(pt.bits + pt.failures * 360 == 12 * 4 * (360 if policy == ESTIMATED_POLICY
                                                             else 400) for pt in one)

    @pytest.mark.usefixtures("pool_at_any_size")
    def test_pilot_sweep_worker_invariance_across_blocks(self, block_params):
        def sweep(workers):
            return run_pilot_sweep(block_params, (0.05, 0.1), LNA, n_realizations=12,
                                   n_frames=4, master_seed=8, workers=workers)
        one = sweep(1)
        assert one == sweep(2)
        assert [pt.frames + pt.failures for pt in one] == [48, 48]

    def test_long_blocks_draw_in_runs_of_frames(self, paper_params, monkeypatch):
        # F*K = 24000 > BLOCK_SYMBOLS: one realization per block, its frames
        # drawn in runs of BLOCK_SYMBOLS // K = 4
        p = replace(paper_params, k_symbols=4000, n_samples=4, pilot_fraction=0.01)
        shapes = []

        def recording(n_samples, shape, rng):
            shapes.append(shape)
            return draw_lna_variates(n_samples, shape, rng)

        monkeypatch.setattr(mc, "draw_lna_variates", recording)
        spec = SweepSpec(scenario=p, sweep_var=SWEEP_PS, values=(5.0,), modes=(LNA,),
                         threshold_policy=ESTIMATED_POLICY, n_frames=6,
                         n_realizations=2, master_seed=6)
        (pt,) = run_sweep(spec, workers=1)
        assert shapes == [(1, 4, 4000), (1, 2, 4000)] * 2
        assert pt.bits + pt.failures * 3960 == 2 * 6 * 3960

    def test_closed_form_columns_add_each_frame(self, block_params):
        # the closed-form threshold and BER are the same on every frame of a
        # realization, and enter the mean once per frame. The means are exact
        # sums divided by the frame count, so a power-of-two count of frames,
        # spread over other blocks, gives the one-frame means bit for bit
        spec = SweepSpec(scenario=block_params, sweep_var=SWEEP_PS, values=(-5.0, 5.0, 25.0),
                         modes=(LNA, NO_LNA), n_frames=1, n_realizations=12, master_seed=4)

        def means(n_frames):
            return [(pt.threshold_mean, pt.ber_closed_form)
                    for pt in run_sweep(replace(spec, n_frames=n_frames), workers=1)]

        ref = means(1)
        for n_frames in (2, 4, 8):
            assert means(n_frames) == ref


@settings(max_examples=20, deadline=None)
@given(k=st.integers(8, 40), n=st.integers(1, 25), r=st.integers(1, 6),
       f=st.integers(1, 3), policy=st.sampled_from(POLICIES),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_sweep_identical_at_one_and_two_workers(paper_params, k, n, r, f, policy, seed,
                                                data):
    k_train = data.draw(st.sampled_from(range(4, k, 2)))
    p = replace(paper_params, k_symbols=k, n_samples=n, pilot_fraction=k_train / k)
    spec = SweepSpec(scenario=p, sweep_var=SWEEP_PS, values=(0.0, 10.0),
                     modes=(LNA, NO_LNA), threshold_policy=policy, n_frames=f,
                     n_realizations=r, master_seed=seed)
    # repr compares NaN fields (a point whose frames all failed) as equal
    assert repr(run_sweep(spec, workers=1)) == repr(run_sweep(spec, workers=2))


@settings(max_examples=12, deadline=None)
@given(sweep=st.sampled_from(["ps", "pinned-bdpr", "bdpr"]), policy=st.sampled_from(POLICIES),
       workers=st.sampled_from([1, 2]), r=st.integers(1, 16), f=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_a_row_depends_only_on_its_point_and_mode(paper_params, sweep, policy, workers, r, f,
                                                  seed, data):
    # K=400 and up to 3 frames: blocks of 13 realizations or more, so up to
    # 16 realizations span one or two blocks
    p = replace(paper_params, k_symbols=400, n_samples=4, pilot_fraction=0.05, ps_dbm=5.0)
    spec = SweepSpec(scenario=p, sweep_var=SWEEP_BDPR if sweep == "bdpr" else SWEEP_PS,
                     values=(-30.0, -20.0, -10.0) if sweep == "bdpr" else (0.0, 10.0, 20.0),
                     modes=data.draw(st.permutations((LNA, NO_LNA))), threshold_policy=policy,
                     n_frames=f, n_realizations=r, master_seed=seed,
                     fixed_bdpr_db=-20.0 if sweep == "pinned-bdpr" else None)
    with mock.patch.object(mc, "POOL_MIN_SAMPLES", 0):     # two blocks open a pool
        rows = run_sweep(spec, workers=workers)
        row = data.draw(st.sampled_from(rows))
        alone = run_sweep(replace(spec, values=(row.value,), modes=(row.mode,)),
                          workers=workers)
    # repr compares NaN fields (a point whose frames all failed) as equal
    assert repr(alone) == repr([row])


class TestSharedDraws:
    """A block draws its frames and variates once for every point and mode."""

    @pytest.mark.usefixtures("pool_at_any_size")
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("layout", ["blocks-of-realizations", "runs-of-frames"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_mode_sweep_writes_the_two_mode_rows(self, paper_params, policy, layout,
                                                     workers):
        # runs-of-frames: F*K = 6 * 4000 > BLOCK_SYMBOLS, so each realization
        # is a block of two runs, and a one-mode sweep's second run must read
        # the bits and variates of the two-mode sweep's
        if layout == "runs-of-frames":
            p = replace(paper_params, k_symbols=4000, n_samples=4, pilot_fraction=0.01)
            assert 6 * p.k_symbols > mc.BLOCK_SYMBOLS
            counts = {"n_frames": 6, "n_realizations": 3}
        else:
            p = replace(paper_params, k_symbols=100, n_samples=10, pilot_fraction=0.2)
            counts = {"n_frames": 2, "n_realizations": 90}    # blocks of 81 realizations
        spec = SweepSpec(scenario=p, sweep_var=SWEEP_PS, values=(0.0, 20.0),
                         modes=(LNA, NO_LNA), threshold_policy=policy, master_seed=19,
                         **counts)
        both = run_sweep(spec, workers=workers)
        for mode in (LNA, NO_LNA):
            alone = run_sweep(replace(spec, modes=(mode,)), workers=workers)
            assert repr(alone) == repr([pt for pt in both if pt.mode == mode])

    def test_readme_ber_sweep_draws_the_lna_variates_once_per_block(self, paper_params,
                                                                     monkeypatch):
        # ps:-10:30:5, both modes, 200 realizations: two equal blocks of K=100
        # frames, each drawing its LNA variates once for the nine points
        shapes = []

        def recording(n_samples, shape, rng):
            shapes.append(shape)
            return draw_lna_variates(n_samples, shape, rng)

        monkeypatch.setattr(mc, "draw_lna_variates", recording)
        spec = SweepSpec(scenario=paper_params, sweep_var=SWEEP_PS,
                         values=tuple(float(v) for v in range(-10, 31, 5)),
                         modes=(LNA, NO_LNA), n_realizations=200, master_seed=7)
        points = run_sweep(spec, workers=1)
        assert len(points) == 18
        assert shapes == [(100, 1, 100), (100, 1, 100)]

    @pytest.mark.parametrize("modes", [(LNA,), (NO_LNA,), (LNA, NO_LNA)],
                             ids=["lna", "no_lna", "both"])
    def test_a_block_takes_only_its_bits_from_the_frame_generator(self, paper_params,
                                                                  fixed_table, modes):
        # K = 4000 and 6 frames: runs of 4 and 2 frames. Whatever the modes,
        # the frame generator gives each run's bits and nothing else, so the
        # next run's bits do not depend on the modes
        p = replace(paper_params, k_symbols=4000, n_samples=4, pilot_fraction=0.0)
        frame_rng, fresh = np.random.default_rng(5), np.random.default_rng(5)
        ber_block(p, [(p.ps, mode, fixed_table) for mode in modes], 6, frame_rng,
                  np.random.default_rng(6))
        for frames in (4, 2):
            fresh.integers(0, 2, (1, frames, 4000))
        assert frame_rng.bit_generator.state == fresh.bit_generator.state


class TestStackedCases:
    """A BER block runs each mode's cases as stacked passes over channels
    composed once per BDPR target; every case gets the arrays it would get
    alone."""

    @staticmethod
    def _alone(spec, r0, realizations, params, bdpr_db, mode):
        """One case through ber_block on its own, its channel table composed at its point."""
        normals, frame_rng, lna_rng = mc._block_draws(spec.master_seed, r0, realizations)
        table = channel_table(params, normals, bdpr_db)
        (res,) = ber_block(params, [(params.ps, mode, table)], spec.n_frames, frame_rng, lna_rng,
                           spec.threshold_policy)
        return res

    @staticmethod
    def _degenerate_where_odd(monkeypatch):
        # a frame whose first pilot energy has an odd last mantissa bit gets a
        # zero H0 variance, so estimated frames fail (NaN) in scattered places
        def degenerate(energies, k_train):
            m = pilot_statistics(energies, k_train)
            odd = energies[..., 0].view(np.int64) % 2 == 1
            return m._replace(var0=np.where(odd, 0.0, m.var0))
        monkeypatch.setattr(mc, "pilot_statistics", degenerate)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("sweep", ["ps", "pinned-bdpr", "bdpr"])
    @pytest.mark.parametrize("runs", ["one-run", "several-runs", "one-frame"])
    def test_every_case_equals_the_case_alone(self, paper_params, monkeypatch, policy, sweep,
                                              runs):
        # one-frame: a case alone estimates from one contiguous row of pilots,
        # stacked from one row of a strided batch
        p = replace(paper_params, k_symbols=40, n_samples=6, pilot_fraction=0.5, ps_dbm=5.0)
        reals, frames = (1, 1) if runs == "one-frame" else (3, 5)
        if runs == "several-runs":      # 3 realizations of 5 frames: runs of 2, 2 and 1 frames
            monkeypatch.setattr(mc, "BLOCK_SYMBOLS", 3 * 2 * p.k_symbols)
        if policy == ESTIMATED_POLICY:
            self._degenerate_where_odd(monkeypatch)
        spec = SweepSpec(scenario=p, sweep_var=SWEEP_BDPR if sweep == "bdpr" else SWEEP_PS,
                         values=(-30.0, -20.0, -10.0) if sweep == "bdpr" else (-5.0, 10.0, 25.0),
                         modes=(NO_LNA, LNA), threshold_policy=policy, n_frames=frames,
                         n_realizations=reals, master_seed=23,
                         fixed_bdpr_db=-20.0 if sweep == "pinned-bdpr" else None)
        stacked = mc._ber_task((spec, 0, range(reals)))
        cases = [(params, bdpr_db, mode) for params, bdpr_db in spec.operating_points
                 for mode in spec.modes]
        assert len(stacked) == len(cases) == 6
        failed = 0
        for res, case in zip(stacked, cases):
            alone = self._alone(spec, 0, range(reals), *case)
            assert res.errors.shape == (reals, frames)
            for got, want in zip(astuple(res), astuple(alone)):
                assert np.array_equal(got, want, equal_nan=True)
            failed += int(res.failed.sum())
        if runs != "one-frame":
            assert (failed > 0) is (policy == ESTIMATED_POLICY)

    @pytest.mark.parametrize("sweep, targets", [("ps", [None]), ("pinned-bdpr", [-20.0]),
                                                ("bdpr", [-30.0, -20.0, -10.0])])
    def test_channels_are_composed_once_per_bdpr_target(self, paper_params, monkeypatch,
                                                        sweep, targets):
        # 5 realizations of 2 frames of K=40 in blocks of at most 2: one
        # table per block and BDPR target, of the block's realizations
        composed = []

        def counting(params, normals, target=None):
            composed.append((normals.shape, target))
            return channel_table(params, normals, target)

        p = replace(paper_params, k_symbols=40, n_samples=6, pilot_fraction=0.0, ps_dbm=5.0)
        spec = SweepSpec(scenario=p, sweep_var=SWEEP_BDPR if sweep == "bdpr" else SWEEP_PS,
                         values=(-30.0, -20.0, -10.0) if sweep == "bdpr" else (-5.0, 10.0, 25.0),
                         modes=(NO_LNA, LNA), n_frames=2, n_realizations=5, master_seed=5,
                         fixed_bdpr_db=-20.0 if sweep == "pinned-bdpr" else None)
        monkeypatch.setattr(mc, "BLOCK_SYMBOLS", 2 * 2 * p.k_symbols)
        monkeypatch.setattr(mc, "channel_table", counting)
        run_sweep(spec, workers=1)
        assert sorted(composed, key=repr) == sorted(
            [((6, n), target) for n in (1, 2, 2) for target in targets], key=repr)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_no_pass_stacks_more_symbols_than_the_budget(self, paper_params, monkeypatch,
                                                         policy):
        # 4 realizations of 2 frames of K=40: runs of 320 symbols, so a budget
        # of 960 stacks the 9 points of a mode in 3 passes of 3 cases
        p = replace(paper_params, k_symbols=40, n_samples=6, pilot_fraction=0.2)
        spec = SweepSpec(scenario=p, sweep_var=SWEEP_PS,
                         values=tuple(float(v) for v in range(-10, 31, 5)),
                         modes=(LNA, NO_LNA), threshold_policy=policy, n_frames=2,
                         n_realizations=4, master_seed=17)
        unchunked = run_sweep(spec, workers=1)
        sizes = []

        def recording(*args):
            energies = energies_from_variates(*args)
            sizes.append(energies.size)
            return energies

        monkeypatch.setattr(mc, "STACK_SYMBOLS", 3 * 320)
        monkeypatch.setattr(mc, "energies_from_variates", recording)
        assert repr(run_sweep(spec, workers=1)) == repr(unchunked)
        assert sizes == [3 * 320] * 6


class TestPilotSweep:
    """All fractions share one draw: per frame the pilots of the largest
    fraction, of which each fraction reads a prefix."""

    @pytest.fixture(scope="class")
    def k200(self, paper_params):
        return replace(paper_params, k_symbols=200, pilot_fraction=0.0)

    def test_fractions_estimate_from_prefixes_of_one_draw(self, k200, monkeypatch):
        drawn = []

        def recording(*args):
            drawn.append(energies_from_variates(*args))
            return drawn[-1]

        monkeypatch.setattr(mc, "energies_from_variates", recording)
        fractions = (0.05, 0.2, 0.1)
        points = run_pilot_sweep(k200, fractions, LNA, n_realizations=1, n_frames=30,
                                 master_seed=12, workers=1)
        (energies,) = drawn     # one energy call for the run, at the study's one case
        assert energies.shape == (1, 1, 30, 40)
        energies = energies[0]
        real = draw_channels(k200, np.random.default_rng(np.random.SeedSequence((12, 0, 1))))
        t_true = near_optimal_threshold(hypothesis_moments(k200, real, LNA))
        for frac, pt in zip(fractions, points):
            k = round(frac * 200)
            stats = pilot_statistics(energies[0, :, :k], k)
            errs = [relative_threshold_error(
                        t_true, near_optimal_threshold(HypothesisMoments(*row)))
                    for row in zip(*(s.tolist() for s in stats))]
            assert (pt.k_train, pt.frames, pt.failures) == (k, 30, 0)
            assert (pt.r_mean, pt.r_median, pt.r_p90) == (
                float(np.mean(errs)), float(np.median(errs)), float(np.percentile(errs, 90)))

    def test_a_failing_true_threshold_raises(self, k200, monkeypatch):
        # every channel without a tag path: equal means, so no true threshold
        block_draws = mc._block_draws

        def no_tag_path(*args):
            normals, frame_rng, lna_rng = block_draws(*args)
            normals[2:] = 0.0
            return normals, frame_rng, lna_rng

        monkeypatch.setattr(mc, "_block_draws", no_tag_path)
        with pytest.raises(NoSeparationError):
            run_pilot_sweep(k200, (0.1,), LNA, n_realizations=2, n_frames=3, master_seed=1)

    def test_failing_moments_raise_the_float_calls_error(self, k200, monkeypatch):
        # the second realization's direct path overflows the LNA moments (P^2
        # is inf): the study raises that realization's float call's error,
        # message and all, before any LNA variate is drawn
        block_draws = mc._block_draws

        def huge_direct_path(*args):
            normals, frame_rng, lna_rng = block_draws(*args)
            normals[:2, 1] *= 1e100
            return normals, frame_rng, lna_rng

        (g0, g1, gtr), = channel_table(k200, huge_direct_path(12, 0, range(2))[0])[:, 1:].T
        with pytest.raises(ModelValidityError) as float_error:
            level_moments(k200, (float(g0) * k200.ps, float(g1) * k200.ps),
                          noise_levels(k200, float(gtr), LNA), LNA)
        monkeypatch.setattr(mc, "_block_draws", huge_direct_path)
        monkeypatch.setattr(mc, "draw_lna_variates", _no_lna_draw)
        with pytest.raises(ModelValidityError) as raised:
            run_pilot_sweep(k200, (0.1, 0.2), LNA, n_realizations=2, n_frames=3, master_seed=12)
        assert str(raised.value) == str(float_error.value)

    # the rows of the no-LNA study below, pinned: no stream may move them
    NO_LNA_ROWS = (
        "[PilotPoint(pilot_fraction=0.4, k_train=80, r_mean=0.02973403731432338, "
        "r_median=0.020180202159678043, r_p90=0.06742185267200411, frames=600, failures=0, "
        "master_seed=21), PilotPoint(pilot_fraction=0.05, k_train=10, "
        "r_mean=0.04934490836339036, r_median=0.041248970497834506, r_p90=0.09915000891811594, "
        "frames=600, failures=0, master_seed=21), PilotPoint(pilot_fraction=0.2, k_train=40, "
        "r_mean=0.03687268984185868, r_median=0.02921856252455201, r_p90=0.07859236496396932, "
        "frames=600, failures=0, master_seed=21)]")

    @pytest.mark.usefixtures("pool_at_any_size")
    def test_a_no_lna_study_estimates_from_prefixes_of_one_draw(self, k200, monkeypatch):
        # 2 realizations x 300 frames of 80 pilots: two blocks of one
        # realization, each drawn in two runs (204 and 96 frames) of the
        # variates an LNA study draws
        fractions = (0.4, 0.05, 0.2)
        study = partial(run_pilot_sweep, k200, fractions, NO_LNA, n_realizations=2,
                        n_frames=300, master_seed=21)
        pooled = study(workers=2)
        drawn, shapes = [], []

        def recording(*args):
            drawn.append(energies_from_variates(*args))
            return drawn[-1]

        def recording_shapes(n_samples, shape, rng):
            shapes.append(shape)
            return draw_lna_variates(n_samples, shape, rng)

        monkeypatch.setattr(mc, "energies_from_variates", recording)
        monkeypatch.setattr(mc, "draw_lna_variates", recording_shapes)
        points = study(workers=1)
        assert points == pooled and repr(points) == self.NO_LNA_ROWS
        assert len(drawn) == 4 and shapes == [(1, 204, 80), (1, 96, 80)] * 2
        energies = np.concatenate([e.reshape(-1, 80) for e in drawn])   # (realization, frame)
        t_true = [near_optimal_threshold(hypothesis_moments(
                      k200, draw_channels(k200, np.random.default_rng(
                          np.random.SeedSequence((21, r, 1)))), NO_LNA)) for r in range(2)]
        for frac, pt in zip(fractions, points):
            k = round(frac * 200)
            rows = zip(*(s.tolist() for s in pilot_statistics(energies[:, :k], k)))
            errs = [relative_threshold_error(
                        t_true[j // 300], near_optimal_threshold(HypothesisMoments(*row)))
                    for j, row in enumerate(rows)]
            assert (pt.k_train, pt.frames, pt.failures) == (k, 600, 0)
            assert (pt.r_mean, pt.r_median, pt.r_p90) == (
                float(np.mean(errs)), float(np.median(errs)), float(np.percentile(errs, 90)))

    def test_a_zero_estimated_threshold_counts_as_a_failure(self, k200, monkeypatch):
        # the relative error |T - T_hat| / |T_hat| is undefined at T_hat = 0
        drawn, estimated = [], []

        def recording(*args):
            drawn.append(energies_from_variates(*args))
            return drawn[-1]

        reals = [draw_channels(k200, np.random.default_rng(np.random.SeedSequence((12, r, 1))))
                 for r in range(2)]
        zeroed = {0: [3, 45], 1: [10]}   # by fraction: (realization, frame), flattened

        def zeroing(m):
            t = near_optimal_threshold(m)
            if t.shape == (2, 30):      # one batch of estimated thresholds per fraction
                t.ravel()[zeroed[len(estimated)]] = 0.0
                estimated.append(m)
            return t

        monkeypatch.setattr(mc, "energies_from_variates", recording)
        monkeypatch.setattr(mc, "near_optimal_threshold", zeroing)
        fractions = (0.1, 0.2)
        points = run_pilot_sweep(k200, fractions, LNA, n_realizations=2, n_frames=30,
                                 master_seed=12, workers=1)
        (energies,) = drawn     # one energy call for the run, at the study's one case
        assert energies.shape == (1, 2, 30, 40) and len(estimated) == 2
        energies = energies[0]
        t_true = [near_optimal_threshold(hypothesis_moments(k200, real, LNA)) for real in reals]
        for i, (frac, pt) in enumerate(zip(fractions, points)):
            k = round(frac * 200)
            rows = zip(*(s.ravel().tolist() for s in pilot_statistics(energies, k)))
            errs = [relative_threshold_error(
                        t_true[j // 30], near_optimal_threshold(HypothesisMoments(*row)))
                    for j, row in enumerate(rows) if j not in zeroed[i]]
            assert pt.frames + pt.failures == 2 * 30
            assert (pt.frames, pt.failures) == (len(errs), [2, 1][i])
            assert (pt.r_mean, pt.r_median, pt.r_p90) == (
                float(np.mean(errs)), float(np.median(errs)), float(np.percentile(errs, 90)))

    @pytest.mark.parametrize("n_realizations, n_frames", [(5, 100), (1, 500)],
                             ids=["blocks-of-realizations", "runs-of-frames"])
    def test_draws_only_the_largest_fractions_pilots(self, k200, monkeypatch,
                                                     n_realizations, n_frames):
        symbols = []

        def counting(n_samples, shape, rng):
            symbols.append(math.prod(shape))
            return draw_lna_variates(n_samples, shape, rng)

        monkeypatch.setattr(mc, "draw_lna_variates", counting)
        run_pilot_sweep(k200, (0.05, 0.2, 0.1), LNA, n_realizations=n_realizations,
                        n_frames=n_frames, master_seed=3, workers=1)
        assert max(symbols) <= mc.BLOCK_SYMBOLS
        assert sum(symbols) == n_realizations * n_frames * 40


def test_pilot_sweep_rejects_an_unknown_mode_before_any_channel_is_drawn(paper_params,
                                                                        monkeypatch):
    monkeypatch.setattr(mc, "_block_draws", _no_draw)
    with pytest.raises(ConfigError) as ei:
        run_pilot_sweep(paper_params, (0.2,), "amp", n_realizations=1, n_frames=1,
                        master_seed=0)
    assert ei.value.fields == ("mode",)


def test_pilot_sweep_rejects_more_fractions_than_the_cap_before_any_is_built(paper_params,
                                                                            monkeypatch):
    monkeypatch.setattr(SystemParams, "__post_init__", _no_params)
    fractions = [(i + 1) / 4096 for i in range(MAX_SWEEP_POINTS + 1)]
    with pytest.raises(ConfigError, match="more than 1000") as ei:
        run_pilot_sweep(paper_params, fractions, LNA, n_realizations=1, n_frames=1,
                        master_seed=0)
    assert ei.value.fields == ("pilot_fraction",)


def _pilot_sweep(fractions=(0.2,), n_realizations=1, n_frames=1, master_seed=0):
    return partial(run_pilot_sweep, fractions=fractions, mode=LNA, n_realizations=n_realizations,
                   n_frames=n_frames, master_seed=master_seed)


@pytest.mark.parametrize("run, fields", [
    (_pilot_sweep((0.1, 0.2, 0.1)), ("pilot_fraction",)),
    (_pilot_sweep(n_realizations=MAX_REALIZATIONS + 1), ("n_realizations",)),
    (_pilot_sweep((0.1, 0.2), n_frames=MAX_SWEEP_SYMBOLS // 20 + 1),
     ("n_frames", "n_realizations")),
    (_pilot_sweep((0.1, 0.1000000001)), ("pilot_fraction",)),
    *[(_pilot_sweep(**changes), fields) for changes, fields in BAD_COUNTS],
    (partial(ambclink.verify.run_all_checks, seed=math.nan), ("seed",)),
    *[(_pilot_sweep((0.2, bad)), ("pilot_fraction",)) for bad in ("a", None, 10 ** 400)],
    *[(_pilot_sweep(fractions), ("pilot_fraction",))
      for fractions in ((f for f in (0.1, 0.2)), np.array([0.1, 0.2]))],
], ids=["repeated-fraction", "realizations-over-cap", "symbols-over-cap",
        "fractions-of-one-pilot-count", *BAD_COUNT_IDS, "verify-seed-nan",
        "fraction-str", "fraction-none", "fraction-huge-int", "fractions-generator",
        "fractions-ndarray"])
def test_pilot_sweep_rejects_repeats_and_trial_caps_before_any_channel_is_drawn(
        paper_params, monkeypatch, run, fields):
    # K = 100: the largest fraction, 0.2, draws 20 pilots per frame; 0.1 and
    # 0.1000000001 are distinct fractions of one pilot count, 10. Fractions
    # come in a tuple or a list, as SweepSpec's values do: a generator or an
    # array of valid fractions is refused. verify's seed obeys the same rule
    # as the sweeps' master_seed.
    monkeypatch.setattr(mc, "_block_draws", _no_draw)
    monkeypatch.setattr(ambclink.verify, "draw_channels", _no_draw)
    with pytest.raises(ConfigError) as ei:
        run(paper_params)
    assert ei.value.fields == fields


def test_numpy_scalars_give_the_rows_of_python_floats(paper_params):
    # SystemParams keeps an accepted numpy scalar as its float: same rows
    p = replace(paper_params, k_symbols=40, n_samples=25)
    runs = {SWEEP_PS: np.arange(0.0, 20.0, 10.0), SWEEP_BDPR: np.arange(-30, -9, 10)}
    for sweep_var, grid in runs.items():
        rows = [repr(run_sweep(SweepSpec(scenario=p, sweep_var=sweep_var, values=values,
                                         n_realizations=3, master_seed=5)))
                for values in (tuple(grid), tuple(grid.tolist()))]
        assert rows[0] == rows[1]
    rows = [repr(run_pilot_sweep(p, fractions, LNA, n_realizations=2, n_frames=2,
                                 master_seed=5))
            for fractions in ((np.float64(0.1), np.float64(0.2)), (0.1, 0.2))]
    assert rows[0] == rows[1]


class TestPool:
    """A pool opens only for two tasks or more of a sweep whose frames draw more
    than POOL_MIN_SAMPLES samples (realizations x frames x symbols x N, once
    per mode)."""

    def _no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was opened")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)

    def test_single_task_pilot_sweep_opens_no_pool(self, paper_params, monkeypatch):
        # one realization is one task, whatever its frames of 80 pilots of N = 75
        p = replace(paper_params, k_symbols=200, pilot_fraction=0.0)
        args = (p, (0.05, 0.1, 0.2, 0.4), LNA, 1, mc.POOL_MIN_SAMPLES // (80 * 75) + 1, 9)
        serial = run_pilot_sweep(*args, workers=1)
        self._no_pool(monkeypatch)
        assert run_pilot_sweep(*args, workers=2) == serial

    def test_single_task_ber_sweep_opens_no_pool(self, small_spec, monkeypatch):
        # one realization serves both points and both modes: one task
        spec = replace(small_spec, n_realizations=1,
                       n_frames=mc.POOL_MIN_SAMPLES // (2 * 50 * 25) + 1)
        serial = run_sweep(spec, workers=1)
        self._no_pool(monkeypatch)
        assert run_sweep(spec, workers=2) == serial

    def test_two_tasks_open_a_pool(self, small_spec, monkeypatch):
        # 100 symbols per realization: blocks of at most 163 realizations, so
        # these make many, and just over POOL_MIN_SAMPLES
        n_realizations = mc.POOL_MIN_SAMPLES // (100 * 25) + 1
        self._no_pool(monkeypatch)
        with pytest.raises(AssertionError, match="pool"):
            run_sweep(replace(small_spec, modes=(LNA,), n_realizations=n_realizations),
                      workers=2)

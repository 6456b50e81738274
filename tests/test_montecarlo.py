import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ambclink.montecarlo as mc
from ambclink import LNA, NO_LNA
from ambclink.analysis import (
    HypothesisMoments,
    ber_closed_form,
    hypothesis_moments,
    near_optimal_threshold,
)
from ambclink.channel import ChannelRealization, draw_channels
from ambclink.config import MAX_REALIZATIONS, MAX_SWEEP_SYMBOLS
from ambclink.errors import ConfigError, ModelValidityError
from ambclink.estimation import (
    PilotPlan,
    estimated_threshold,
    pilot_statistics,
    relative_threshold_error,
)
from ambclink.frontend import draw_energies, frame_energies
from ambclink.oracles import grid_min_threshold
from ambclink.montecarlo import (
    CLOSED_FORM_TRUE,
    ESTIMATED_POLICY,
    NUMERIC_ORACLE,
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


def _manual_realization(params, h0, hst, htr):
    h1 = h0 + params.alpha_amp * hst * htr
    return ChannelRealization(h0=h0, hst=hst, htr=htr, h1=h1,
                              p0=abs(h0) ** 2 * params.ps,
                              p1=abs(h1) ** 2 * params.ps)


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


def _one_frame(params, real, seed, mode, policy):
    """ber_block's single frame of a single realization, read at [0, 0]."""
    res = ber_block(params, [real], 1, np.random.default_rng(seed), mode, policy)
    return (int(res.errors[0, 0]), int(res.bits[0, 0]), float(res.threshold[0, 0]),
            float(res.ber_closed_form[0, 0]), bool(res.failed[0, 0]))


class TestBerTrial:
    """One frame of one realization through ber_block."""

    def test_noise_free_separated_is_error_free(self, paper_params):
        p = replace(paper_params, beta1=1.0, beta3=0.0, alpha_db=0.0,
                    n_ar_dbm=-400.0, n_cov_dbm=-400.0, n_at_dbm=-400.0,
                    k_symbols=400, pilot_fraction=0.0)
        real = _manual_realization(p, 1e-4 + 0j, 1.0 + 0j, 1.0 + 0j)
        assert real.p1 / real.p0 > 1e6
        errors, bits, *_ = _one_frame(p, real, 3, LNA, CLOSED_FORM_TRUE)
        assert errors == 0
        assert bits == 400

    def test_no_tag_information_gives_half(self, paper_params):
        # -200 dB keeps the hypotheses formally distinct (so a threshold
        # exists) while carrying no usable tag information
        p = replace(paper_params, alpha_db=-200.0, k_symbols=4000,
                    pilot_fraction=0.0)
        real = _manual_realization(p, 0.001 + 0.001j, 0.01 + 0j, 0.02 + 0j)
        errors, bits, *_ = _one_frame(p, real, 5, LNA, CLOSED_FORM_TRUE)
        assert abs(errors / bits - 0.5) < 4 * math.sqrt(0.25 / bits)

    def test_estimated_policy_excludes_pilots(self, paper_params, fixed_realization):
        p = replace(paper_params, k_symbols=100, pilot_fraction=0.2)
        _, bits, _, _, failed = _one_frame(p, fixed_realization, 7, LNA, ESTIMATED_POLICY)
        assert failed is False
        assert bits == 80

    def test_numeric_oracle_policy_close_to_closed_form(self, paper_params,
                                                        fixed_realization):
        p = replace(paper_params, k_symbols=2000, pilot_fraction=0.0)
        a_errors, a_bits, *_ = _one_frame(p, fixed_realization, 9, LNA, CLOSED_FORM_TRUE)
        b_errors, b_bits, *_ = _one_frame(p, fixed_realization, 9, LNA, NUMERIC_ORACLE)
        # near-optimality: closed-form threshold is not meaningfully worse
        se = math.sqrt(2 * 0.25 / p.k_symbols)
        assert a_errors / a_bits - b_errors / b_bits <= 3 * se

    def test_degenerate_estimate_is_recorded_not_raised(self, paper_params,
                                                        fixed_realization,
                                                        monkeypatch):
        def degenerate(energies, plan):
            d0, d1, v0, v1 = pilot_statistics(energies, plan)
            return d0, d1, np.zeros_like(v0), v1    # zero pilot-group variance
        monkeypatch.setattr(mc, "pilot_statistics", degenerate)
        p = replace(paper_params, k_symbols=100, pilot_fraction=0.2)
        errors, bits, threshold, closed, failed = _one_frame(
            p, fixed_realization, 11, LNA, ESTIMATED_POLICY)
        assert failed is True
        assert (errors, bits) == (0, 0)
        assert math.isnan(threshold) and math.isnan(closed)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_is_the_one_frame_case_of_a_block(self, paper_params, fixed_realization,
                                               policy):
        # equals one frame drawn by frame_energies and detected by hand
        p = replace(paper_params, k_symbols=100, pilot_fraction=0.2)
        res = _one_frame(p, fixed_realization, 21, LNA, policy)

        rng = np.random.default_rng(21)
        k0 = p.k_train if policy == ESTIMATED_POLICY else 0
        bits = np.concatenate([np.arange(k0) % 2, rng.integers(0, 2, p.k_symbols - k0)])
        energies = frame_energies(p, fixed_realization, bits, rng, LNA)
        true_m = hypothesis_moments(p, fixed_realization, LNA)
        m = (HypothesisMoments(*map(float, pilot_statistics(energies, PilotPlan(k0))))
             if k0 else true_m)
        t = (grid_min_threshold(m)[0] if policy == NUMERIC_ORACLE
             else near_optimal_threshold(m))
        errors = int(np.sum(detect(energies[k0:], t, m.delta0, m.delta1) != bits[k0:]))
        assert res == (errors, p.k_symbols - k0, t, ber_closed_form(true_m, t), False)

    def test_unknown_policy_rejected(self, paper_params, fixed_realization):
        with pytest.raises(ValueError, match="unknown threshold policy"):
            ber_block(paper_params, [fixed_realization], 1, np.random.default_rng(1),
                      LNA, "oracle")


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
    ], ids=["nan", "-inf", "above-bound", "huge", "sweep-above-bound", "sweep-nan",
            "pinned-in-bdpr-sweep"])
    def test_bad_bdpr_rejected_before_any_channel_is_drawn(self, paper_params,
                                                           monkeypatch, changes, field):
        def no_draw(*args):
            raise AssertionError("channel table drawn")
        monkeypatch.setattr(mc, "_channel_table", no_draw)
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
        the draws of a 200-realization table; the accepted ones do not."""
        table = mc._channel_table(paper_params, True, 200, 1)
        p = replace(paper_params, ps_dbm=ps)

        def fails(real):
            real = real.at_operating_point(p, bdpr)
            try:
                near_optimal_threshold(hypothesis_moments(p, real, LNA))
            except ModelValidityError:
                return True
            return False

        assert any(fails(real) for real in table) is not reachable

        def no_draw(*args):
            raise AssertionError("channel table drawn")
        monkeypatch.setattr(mc, "_channel_table", no_draw)
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

    @pytest.mark.parametrize("changes, fields", [
        ({"modes": (LNA, LNA)}, ("modes",)),
        ({"n_realizations": MAX_REALIZATIONS + 1}, ("n_realizations",)),
        ({"n_frames": MAX_SWEEP_SYMBOLS // 100 + 1}, ("n_frames", "n_realizations")),
        ({"values": (0.0, 10.0), "n_frames": MAX_SWEEP_SYMBOLS // 200 + 1},
         ("n_frames", "n_realizations")),
    ], ids=["repeated-mode", "realizations-over-cap", "symbols-over-cap",
            "symbols-over-cap-by-points"])
    def test_repeats_and_trial_caps_rejected_before_any_channel_is_drawn(
            self, paper_params, monkeypatch, changes, fields):
        def no_draw(*args):
            raise AssertionError("channel table drawn")
        monkeypatch.setattr(mc, "_channel_table", no_draw)
        with pytest.raises(ConfigError) as ei:
            run_sweep(SweepSpec(**{"scenario": paper_params, "sweep_var": SWEEP_PS,
                                   "values": (0.0,), "modes": (LNA,), **changes}))
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
    """Blocks hold max(1, BLOCK_SYMBOLS // (F*K)) realizations: at K=400 and
    F=4 that is 10, so 12 realizations span two blocks."""

    @pytest.fixture(scope="class")
    def block_params(self, paper_params):
        return replace(paper_params, k_symbols=400, n_samples=10, pilot_fraction=0.1)

    def test_two_blocks(self, block_params):
        blocks = mc._blocks(range(12), 4 * block_params.k_symbols)
        assert [(r0, len(reals)) for r0, reals in blocks] == [(0, 10), (10, 2)]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_sweep_worker_invariance_across_blocks(self, block_params, policy):
        spec = SweepSpec(scenario=block_params, sweep_var=SWEEP_PS, values=(0.0, 10.0),
                         modes=(LNA, NO_LNA), threshold_policy=policy, n_frames=4,
                         n_realizations=12, master_seed=31)
        one = run_sweep(spec, workers=1)
        assert one == run_sweep(spec, workers=2)
        assert all(pt.bits + pt.failures * 360 == 12 * 4 * (360 if policy == ESTIMATED_POLICY
                                                             else 400) for pt in one)

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

        def recording(params, bits, *args):
            shapes.append(bits.shape)
            return draw_energies(params, bits, *args)

        monkeypatch.setattr(mc, "draw_energies", recording)
        spec = SweepSpec(scenario=p, sweep_var=SWEEP_PS, values=(5.0,), modes=(LNA,),
                         threshold_policy=ESTIMATED_POLICY, n_frames=6,
                         n_realizations=2, master_seed=6)
        (pt,) = run_sweep(spec, workers=1)
        assert shapes == [(1, 4, 4000), (1, 2, 4000)] * 2
        assert pt.bits + pt.failures * 3960 == 2 * 6 * 3960

    def test_closed_form_columns_add_each_frame(self, block_params):
        # the closed-form threshold and BER are the same on every frame of a
        # realization, and enter the mean once per frame
        spec = SweepSpec(scenario=block_params, sweep_var=SWEEP_PS, values=(5.0,),
                         modes=(LNA,), n_frames=4, n_realizations=12, master_seed=4)
        (pt,) = run_sweep(spec, workers=1)
        (ref,) = run_sweep(replace(spec, n_frames=1), workers=1)
        assert pt.threshold_mean == pytest.approx(ref.threshold_mean, rel=1e-14)
        assert pt.ber_closed_form == pytest.approx(ref.ber_closed_form, rel=1e-14)


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


class TestPilotSweep:
    """All fractions share one draw: per frame the pilots of the largest
    fraction, of which each fraction reads a prefix."""

    @pytest.fixture(scope="class")
    def k200(self, paper_params):
        return replace(paper_params, k_symbols=200, pilot_fraction=0.0)

    def test_fractions_estimate_from_prefixes_of_one_draw(self, k200, monkeypatch):
        drawn = []

        def recording(*args):
            drawn.append(draw_energies(*args))
            return drawn[-1]

        monkeypatch.setattr(mc, "draw_energies", recording)
        fractions = (0.05, 0.2, 0.1)
        points = run_pilot_sweep(k200, fractions, LNA, n_realizations=1, n_frames=30,
                                 master_seed=12, workers=1)
        (energies,) = drawn
        assert energies.shape == (1, 30, 40)
        real = draw_channels(k200, np.random.default_rng(np.random.SeedSequence((12, 0, 1))))
        t_true = near_optimal_threshold(hypothesis_moments(k200, real, LNA))
        for frac, pt in zip(fractions, points):
            k = round(frac * 200)
            stats = pilot_statistics(energies[0, :, :k], PilotPlan(k))
            errs = [relative_threshold_error(t_true, estimated_threshold(*row))
                    for row in zip(*stats)]
            assert (pt.k_train, pt.frames, pt.failures) == (k, 30, 0)
            assert (pt.r_mean, pt.r_median, pt.r_p90) == (
                float(np.mean(errs)), float(np.median(errs)), float(np.percentile(errs, 90)))

    @pytest.mark.parametrize("n_realizations, n_frames", [(5, 100), (1, 500)],
                             ids=["blocks-of-realizations", "runs-of-frames"])
    def test_draws_only_the_largest_fractions_pilots(self, k200, monkeypatch,
                                                     n_realizations, n_frames):
        symbols = []

        def counting(params, bits, *args):
            symbols.append(bits.size)
            return draw_energies(params, bits, *args)

        monkeypatch.setattr(mc, "draw_energies", counting)
        run_pilot_sweep(k200, (0.05, 0.2, 0.1), LNA, n_realizations=n_realizations,
                        n_frames=n_frames, master_seed=3, workers=1)
        assert max(symbols) <= mc.BLOCK_SYMBOLS
        assert sum(symbols) == n_realizations * n_frames * 40


def test_pilot_sweep_rejects_an_unknown_mode_before_any_channel_is_drawn(paper_params,
                                                                        monkeypatch):
    def no_draw(*args):
        raise AssertionError("channel table drawn")
    monkeypatch.setattr(mc, "_channel_table", no_draw)
    with pytest.raises(ConfigError) as ei:
        run_pilot_sweep(paper_params, (0.2,), "amp", n_realizations=1, n_frames=1,
                        master_seed=0)
    assert ei.value.fields == ("mode",)


@pytest.mark.parametrize("fractions, n_realizations, n_frames, fields", [
    ((0.1, 0.2, 0.1), 1, 1, ("pilot_fraction",)),
    ((0.2,), MAX_REALIZATIONS + 1, 1, ("n_realizations",)),
    ((0.1, 0.2), 1, MAX_SWEEP_SYMBOLS // 20 + 1, ("n_frames", "n_realizations")),
], ids=["repeated-fraction", "realizations-over-cap", "symbols-over-cap"])
def test_pilot_sweep_rejects_repeats_and_trial_caps_before_any_channel_is_drawn(
        paper_params, monkeypatch, fractions, n_realizations, n_frames, fields):
    # K = 100: the largest fraction, 0.2, draws 20 pilots per frame
    def no_draw(*args):
        raise AssertionError("channel table drawn")
    monkeypatch.setattr(mc, "_channel_table", no_draw)
    with pytest.raises(ConfigError) as ei:
        run_pilot_sweep(paper_params, fractions, LNA, n_realizations=n_realizations,
                        n_frames=n_frames, master_seed=0)
    assert ei.value.fields == fields


class TestPool:
    def _no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was opened")
        monkeypatch.setattr(mc, "ProcessPoolExecutor", refuse)

    def test_single_task_pilot_sweep_opens_no_pool(self, paper_params, monkeypatch):
        p = replace(paper_params, k_symbols=200, pilot_fraction=0.0)
        args = (p, (0.05, 0.1, 0.2, 0.4), LNA, 4, 50, 9)
        serial = run_pilot_sweep(*args, workers=1)
        self._no_pool(monkeypatch)
        assert run_pilot_sweep(*args, workers=2) == serial

    def test_single_task_ber_sweep_opens_no_pool(self, small_spec, monkeypatch):
        spec = replace(small_spec, values=(0.0,), modes=(LNA,))
        serial = run_sweep(spec, workers=1)
        self._no_pool(monkeypatch)
        assert run_sweep(spec, workers=2) == serial

    def test_two_tasks_open_a_pool(self, small_spec, monkeypatch):
        self._no_pool(monkeypatch)
        with pytest.raises(AssertionError, match="pool"):
            run_sweep(replace(small_spec, modes=(LNA,)), workers=2)

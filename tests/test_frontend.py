import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambclink import LNA, NO_LNA, ConfigError
from ambclink.analysis import lna_moments, noise_levels, nolna_moments
from ambclink.channel import draw_channels
import ambclink.frontend as frontend
from ambclink.frontend import (
    FRAME_BLOCK,
    SAMPLER_CHUNK,
    LnaVariates,
    draw_energies,
    draw_lna_variates,
    energies_from_variates,
    generate_frame,
)
from ambclink.verify import check_moments_vs_montecarlo, check_sampler_equivalence


def symbol_energies(samples, n_samples):
    """The sample-level reference of a symbol's energy statistic: mean |y|^2
    over each block of N samples."""
    samples = np.asarray(samples)
    if n_samples < 1 or samples.size % n_samples != 0:
        raise ValueError(
            f"sample count {samples.size} is not a multiple of n_samples={n_samples}"
        )
    return np.mean(np.abs(samples.reshape(-1, n_samples)) ** 2, axis=1)


def frame_energies(params, real, bits, rng, mode):
    """draw_energies for the K symbols of one frame on the channel `real`."""
    noise = noise_levels(params, real.htr_abs2, mode)
    return draw_energies(params, bits, (real.p0, real.p1), noise, rng, mode)


def _draw_cn_block(rng, variance, total):
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(total) + 1j * rng.standard_normal(total))


def _clone_draws(params, total, seed):
    """Replicate generate_frame's draws: s, then one unit CN noise block.
    The clone's generator is returned too, at the state generate_frame
    should leave its own in."""
    rng = np.random.default_rng(seed)
    s = _draw_cn_block(rng, params.ps, total)
    w = _draw_cn_block(rng, 1.0, total)
    return s, w, rng


def _noise_sd(params, real, mode):
    """sigma_d for d = 0, 1 from the model equation: the sum of the receiver
    noises is CN(0, a^2 n_ar + n_cov + a^2 alpha^2 |htr|^2 d n_at), with
    a = beta1 in LNA mode and 1 without it, summed in that order."""
    a2 = 1.0 if mode == NO_LNA else params.beta1 ** 2
    tag = params.alpha_amp ** 2 * real.htr_abs2 * params.n_at
    return np.sqrt([a2 * params.n_ar + params.n_cov + a2 * (tag * b) for b in (0, 1)])


def _reference_frame(params, real, bits, seed, mode):
    """generate_frame's sample-level text on a flat layout of K*N samples,
    each sample's gain and noise SD gathered from its bit: the energies,
    and the clone's generator at the state generate_frame should leave."""
    s, w, clone = _clone_draws(params, bits.size * params.n_samples, seed)
    d = np.repeat(bits, params.n_samples)
    x = (real.h0 + params.alpha_amp * real.hst * real.htr * d) * s
    noise = _noise_sd(params, real, mode)[d] * w
    if mode == NO_LNA:
        y = x + noise
    else:
        y = params.beta1 * x + params.beta3 * x * np.abs(x) ** 2 + noise
    return symbol_energies(y, params.n_samples), clone


def _assert_same_next_draw(rng, clone):
    # generate_frame drew exactly the clone's 4*K*N normals
    assert rng.standard_normal() == clone.standard_normal()


class TestSymbolEnergies:
    def test_constant_ones(self):
        assert np.allclose(symbol_energies(np.ones(8, dtype=complex), 4), 1.0)

    def test_unit_modulus(self):
        samples = np.array([1, 1j, -1, -1j])
        assert symbol_energies(samples, 4) == pytest.approx([1.0])

    def test_zeros(self):
        assert np.all(symbol_energies(np.zeros(12, dtype=complex), 4) == 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            symbol_energies(np.ones(10, dtype=complex), 4)

    @pytest.mark.parametrize("mode", [LNA, NO_LNA])
    # each frame spans three blocks of FRAME_BLOCK samples, the last one partial
    @pytest.mark.parametrize("n, k, layout", [
        (1, 20_000, "ones"),        # the moment check's layout
        (4, 5_000, "alternating"),  # the sampler check's
        (75, 300, "random"),
    ])
    def test_recomputable_from_frame(self, paper_params, fixed_realization, n, k, layout,
                                     mode):
        # the samples rebuilt per sample from the same draws, in generate_frame's order
        assert -(-k // (FRAME_BLOCK // n)) == 3
        p = replace(paper_params, n_samples=n, k_symbols=k, pilot_fraction=0.0)
        bits = {"ones": np.ones(k, dtype=np.int64), "alternating": np.arange(k) % 2,
                "random": np.random.default_rng(4).integers(0, 2, k)}[layout]
        rng = np.random.default_rng(3)
        energies = generate_frame(p, fixed_realization, bits, rng, mode)
        expected, clone = _reference_frame(p, fixed_realization, bits, 3, mode)
        assert np.array_equal(energies, expected)
        _assert_same_next_draw(rng, clone)
        assert energies.shape == (p.k_symbols,)
        assert np.all(energies >= 0)


class TestGenerateFrame:
    def test_identity_lna_zero_bits_is_direct_path(self, paper_params, fixed_realization):
        # beta1=1, beta3=0, negligible noise, all-zero bits: y = h0 * s
        p = replace(paper_params, beta1=1.0, beta3=0.0, pilot_fraction=0.0,
                    n_ar_dbm=-400.0, n_cov_dbm=-400.0, n_at_dbm=-400.0,
                    k_symbols=10)
        bits = np.zeros(10, dtype=np.int64)
        rng = np.random.default_rng(5)
        energies = generate_frame(p, fixed_realization, bits, rng, LNA)
        s, _, clone = _clone_draws(p, bits.size * p.n_samples, 5)
        assert np.allclose(energies, symbol_energies(fixed_realization.h0 * s, p.n_samples),
                           rtol=1e-12, atol=0.0)
        _assert_same_next_draw(rng, clone)

    def test_linear_lna_equals_no_lna_bitwise(self, paper_params, fixed_realization):
        p = replace(paper_params, beta1=1.0, beta3=0.0, pilot_fraction=0.0,
                    k_symbols=16)
        bits = np.random.default_rng(8).integers(0, 2, 16)
        fa = generate_frame(p, fixed_realization, bits, np.random.default_rng(9), LNA)
        fb = generate_frame(p, fixed_realization, bits, np.random.default_rng(9), NO_LNA)
        # identical draw order, beta3 |x|^2 term contributes exactly zero
        assert np.array_equal(fa, fb)

    def test_no_lna_bit_difference_is_backscatter_path(self, paper_params, fixed_realization):
        p = replace(paper_params, k_symbols=12, pilot_fraction=0.0)
        ones = np.ones(12, dtype=np.int64)
        zeros = np.zeros(12, dtype=np.int64)
        real = fixed_realization
        rngs = [np.random.default_rng(21) for _ in range(2)]
        f1 = generate_frame(p, real, ones, rngs[1], NO_LNA)
        f0 = generate_frame(p, real, zeros, rngs[0], NO_LNA)
        s, w, _ = _clone_draws(p, 12 * p.n_samples, 21)
        # bit 1 adds the backscatter path to the signal, and the tag noise
        # alpha^2 |htr|^2 n_at to the noise power
        sd0, sd1 = _noise_sd(p, real, NO_LNA)
        y0 = real.h0 * s + sd0 * w
        y1 = (real.h0 + p.alpha_amp * real.hst * real.htr) * s + sd1 * w
        assert np.allclose(f0, symbol_energies(y0, p.n_samples), rtol=1e-10, atol=0.0)
        assert np.allclose(f1, symbol_energies(y1, p.n_samples), rtol=1e-10, atol=0.0)
        for rng in rngs:
            _assert_same_next_draw(rng, _clone_draws(p, 12 * p.n_samples, 21)[2])

    def test_bits_validated(self, paper_params, fixed_realization):
        p = replace(paper_params, k_symbols=4, pilot_fraction=0.0)
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            generate_frame(p, fixed_realization, np.zeros(3, dtype=int), rng, LNA)
        with pytest.raises(ValueError):
            generate_frame(p, fixed_realization, np.array([0, 1, 2, 0]), rng, LNA)
        with pytest.raises(ValueError):
            generate_frame(p, fixed_realization, np.zeros(4, dtype=int), rng, "amp")


class TestStatisticalProperties:
    def test_gated_noise_variance(self, paper_params, fixed_realization):
        # signal off: sample variance of y must equal the d-gated noise power
        p = replace(paper_params, ps_dbm=-400.0, k_symbols=20_000, n_samples=25,
                    pilot_fraction=0.0)
        for mode in (NO_LNA, LNA):
            for d in (0, 1):
                bits = np.full(p.k_symbols, d, dtype=np.int64)
                energies = generate_frame(p, fixed_realization, bits,
                                          np.random.default_rng(30 + d), mode)
                var = float(np.mean(energies))     # mean |y|^2 over all samples
                target = noise_levels(p, fixed_realization.htr_abs2, mode)[d]
                assert var == pytest.approx(target, rel=0.01, abs=0.0)

    @pytest.mark.parametrize("mode", [LNA, NO_LNA])
    @pytest.mark.parametrize("source", ["n_ar", "n_cov", "n_at"])
    def test_each_noise_source_has_its_gain(self, paper_params, fixed_realization, mode,
                                            source):
        # the signal and two sources at -400 dBm: the mean energy is the one
        # source left on times its gain in the model equation, so drawing the
        # sum as one Gaussian hides no wrong gain or d-gate on any source
        off = {f"{name}_dbm": -400.0 for name in ("n_ar", "n_cov", "n_at") if name != source}
        p = replace(paper_params, ps_dbm=-400.0, k_symbols=20_000, n_samples=25,
                    pilot_fraction=0.0, **off)
        real = fixed_realization
        a2 = 1.0 if mode == NO_LNA else p.beta1 ** 2
        for d in (0, 1):
            gains = {"n_ar": a2 * p.n_ar, "n_cov": p.n_cov,
                     "n_at": a2 * p.alpha_amp ** 2 * real.htr_abs2 * d * p.n_at}
            signal = a2 * abs(real.h0 + p.alpha_amp * real.hst * real.htr * d) ** 2 * p.ps
            # the gated-off tag noise (n_at, d = 0) leaves the -400 dBm floor
            assert gains[source] > 1e20 * signal or (source, d) == ("n_at", 0)
            bits = np.full(p.k_symbols, d, dtype=np.int64)
            e = generate_frame(p, real, bits, np.random.default_rng(60 + d), mode)
            assert float(np.mean(e)) == pytest.approx(sum(gains.values()) + signal,
                                                      rel=0.01, abs=0.0)

    def test_lna_energy_mean_matches_closed_form(self, paper_params, fixed_realization):
        p = replace(paper_params, k_symbols=20_000, n_samples=50, pilot_fraction=0.0)
        n_aw = noise_levels(p, fixed_realization.htr_abs2, LNA)[1]
        mean_c, var_c = lna_moments(fixed_realization.p1, p.beta1, p.beta3,
                                    n_aw, p.n_samples)
        bits = np.ones(p.k_symbols, dtype=np.int64)
        energies = generate_frame(p, fixed_realization, bits, np.random.default_rng(31), LNA)
        assert float(np.mean(energies)) == pytest.approx(mean_c, rel=0.01, abs=0.0)
        assert float(np.var(energies)) == pytest.approx(var_c, rel=0.08, abs=0.0)

    def test_no_lna_energy_mean_matches_closed_form(self, paper_params, fixed_realization):
        p = replace(paper_params, k_symbols=20_000, n_samples=50, pilot_fraction=0.0)
        n_w = noise_levels(p, fixed_realization.htr_abs2, NO_LNA)[0]
        mean_c, var_c = nolna_moments(fixed_realization.p0, n_w, p.n_samples)
        bits = np.zeros(p.k_symbols, dtype=np.int64)
        energies = generate_frame(p, fixed_realization, bits, np.random.default_rng(32), NO_LNA)
        assert float(np.mean(energies)) == pytest.approx(mean_c, rel=0.01, abs=0.0)
        assert float(np.var(energies)) == pytest.approx(var_c, rel=0.08, abs=0.0)

    def test_energy_statistic_approximately_gaussian(self, paper_params, fixed_realization):
        # CLT shape check at N=75: standardized energies have small skew and
        # excess kurtosis
        p = replace(paper_params, k_symbols=5_000, pilot_fraction=0.0)
        bits = np.ones(p.k_symbols, dtype=np.int64)
        e = generate_frame(p, fixed_realization, bits, np.random.default_rng(33), LNA)
        z = (e - e.mean()) / e.std()
        skew = float(np.mean(z ** 3))
        ex_kurt = float(np.mean(z ** 4)) - 3.0
        # an N-sample mean of exponential-like terms has skew ~ 2/sqrt(N) ~ 0.23
        assert abs(skew) < 0.4
        assert abs(ex_kurt) < 1.0


class TestFrameEnergies:
    @pytest.mark.parametrize("sampler", [generate_frame])
    def test_bad_inputs_rejected_alike(self, paper_params, fixed_realization, sampler):
        p = replace(paper_params, k_symbols=4, pilot_fraction=0.0)
        rng = np.random.default_rng(1)
        for bits, mode in ((np.zeros(3, dtype=int), LNA),
                           (np.zeros((2, 2), dtype=int), LNA),
                           (np.array([0, 1, 2, 0]), NO_LNA),
                           (np.array([0.0, 0.5, 1.0, 0.0]), LNA),
                           (np.zeros(4, dtype=int), "amp")):
            with pytest.raises(ValueError):
                sampler(p, fixed_realization, bits, rng, mode)

    @pytest.mark.parametrize("mode", [LNA, NO_LNA])
    @pytest.mark.parametrize("bits", [[2, 5, 0, 1], [0.5, 1.0], [-1, 1]],
                             ids=["ints", "fraction", "negative"])
    def test_both_samplers_reject_bits_other_than_0_and_1(self, paper_params,
                                                           fixed_realization, mode, bits):
        # one 0/1 rule, checked before any draw; draw_energies reads bits of any shape
        p = replace(paper_params, k_symbols=len(bits), pilot_fraction=0.0)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        for sampler in (generate_frame, frame_energies):
            with pytest.raises(ValueError, match="bits must be 0/1 valued"):
                sampler(p, fixed_realization, np.array(bits), rng, mode)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("mode", [LNA, NO_LNA])
    def test_energies_from_variates_reads_bits_by_the_samplers_rule(
            self, paper_params, fixed_realization, mode):
        # a list reads as its array; a bit of 2 or 0.5 is refused, not read as bit 0
        rng = np.random.default_rng(4)
        n = paper_params.n_samples
        variates = (rng.standard_gamma(n, 2) if mode == NO_LNA
                    else draw_lna_variates(n, 2, rng))
        levels = ((fixed_realization.p0, fixed_realization.p1),
                  noise_levels(paper_params, fixed_realization.htr_abs2, mode))
        want = energies_from_variates(paper_params, np.array([0, 1]), *levels, mode, variates)
        got = energies_from_variates(paper_params, [0, 1], *levels, mode, variates)
        assert np.array_equal(got, want)
        assert got[1] != energies_from_variates(paper_params, [0, 0], *levels, mode, variates)[1]
        for bits in (np.array([0, 2]), [0.5, 1.0]):
            with pytest.raises(ValueError, match="bits must be 0/1 valued"):
                energies_from_variates(paper_params, bits, *levels, mode, variates)

    @pytest.mark.parametrize("mode", [LNA, NO_LNA])
    def test_same_rng_same_energies(self, paper_params, fixed_realization, mode):
        bits = np.random.default_rng(2).integers(0, 2, paper_params.k_symbols)
        a, b = (frame_energies(paper_params, fixed_realization, bits,
                               np.random.default_rng(11), mode) for _ in range(2))
        assert a.shape == (paper_params.k_symbols,)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", [LNA, NO_LNA])
    def test_moments_match_closed_form(self, paper_params, fixed_realization, mode):
        p = replace(paper_params, k_symbols=20_000, pilot_fraction=0.0)
        assert p.k_symbols * p.n_samples > SAMPLER_CHUNK
        ht2 = fixed_realization.htr_abs2
        for d, power in ((0, fixed_realization.p0), (1, fixed_realization.p1)):
            n_d = noise_levels(p, ht2, mode)[d]
            mean_c, var_c = (lna_moments(power, p.beta1, p.beta3, n_d, p.n_samples)
                             if mode == LNA else nolna_moments(power, n_d, p.n_samples))
            e = frame_energies(p, fixed_realization, np.full(p.k_symbols, d),
                               np.random.default_rng(40 + d), mode)
            assert float(np.mean(e)) == pytest.approx(mean_c, rel=0.01, abs=0.0)
            assert float(np.var(e)) == pytest.approx(var_c, rel=0.05, abs=0.0)

    @pytest.mark.parametrize("mode", [LNA, NO_LNA])
    def test_noise_free_floor_run_is_finite_and_positive(self, paper_params,
                                                         fixed_realization, mode):
        # criterion 6's floor run: every noise power at -300 dBm
        p = replace(paper_params, n_ar_dbm=-300.0, n_at_dbm=-300.0, n_cov_dbm=-300.0)
        bits = np.arange(p.k_symbols) % 2
        e = frame_energies(p, fixed_realization, bits, np.random.default_rng(12), mode)
        assert np.all(np.isfinite(e)) and np.all(e > 0)

    def test_underflowed_noise_gives_the_noise_free_limit(self, paper_params,
                                                          fixed_realization):
        # -4000 dBm is 0 W in floating point: the LNA energy is then exactly
        # A/N with A = beta1^2 p s1 + 2 beta1 beta3 p^2 s2 + beta3^2 p^3 s3,
        # never NaN, and A is the per-sample sum z (beta1 + beta3 z)^2
        p = replace(paper_params, n_ar_dbm=-4000.0, n_at_dbm=-4000.0, n_cov_dbm=-4000.0)
        assert noise_levels(p, fixed_realization.htr_abs2, LNA)[1] == 0.0
        bits = np.arange(p.k_symbols) % 2
        e = frame_energies(p, fixed_realization, bits, np.random.default_rng(13), LNA)
        power = np.where(bits == 1, fixed_realization.p1, fixed_realization.p0)
        v = draw_lna_variates(p.n_samples, bits.shape, np.random.default_rng(13))
        b1, b3 = p.beta1, p.beta3
        a = (b1 * b1 * power * v.s1 + 2.0 * b1 * b3 * (power * power) * v.s2
             + b3 * b3 * (power * power * power) * v.s3)
        assert not np.any(np.isnan(e))
        assert np.array_equal(e, a / p.n_samples)
        z = power[:, None] * np.random.default_rng(13).standard_exponential(
            (p.k_symbols, p.n_samples))
        per_sample = np.sum(z * (b1 + b3 * z) ** 2, axis=1)
        assert np.allclose(e, per_sample / p.n_samples, rtol=1e-14, atol=0.0)

    def test_draws_do_not_depend_on_the_chunk(self, paper_params, fixed_realization,
                                              monkeypatch):
        p = replace(paper_params, k_symbols=1000, pilot_fraction=0.0)
        bits = np.arange(p.k_symbols) % 2
        draws = []
        for chunk in (10 ** 9, SAMPLER_CHUNK, 7 * p.n_samples + 3):
            monkeypatch.setattr(frontend, "SAMPLER_CHUNK", chunk)
            draws.append(frame_energies(p, fixed_realization, bits,
                                        np.random.default_rng(14), LNA))
        assert all(np.array_equal(d, draws[0]) for d in draws)

    @pytest.mark.parametrize("mode", [LNA, NO_LNA])
    def test_block_of_realizations_matches_each_ones_moments(self, paper_params, mode):
        # per-realization levels of shape (R, 1, 1) broadcast over frames and symbols
        reals = [draw_channels(paper_params, np.random.default_rng(s)) for s in (1, 2)]
        levels = [np.array([getattr(r, f"p{d}") for r in reals])[:, None, None]
                  for d in (0, 1)]
        noise = [np.array([noise_levels(paper_params, r.htr_abs2, mode)[d]
                           for r in reals])[:, None, None] for d in (0, 1)]
        bits = np.ones((2, 4, 5000), dtype=np.int64)
        e = draw_energies(paper_params, bits, levels, noise, np.random.default_rng(15), mode)
        assert e.shape == bits.shape
        for r, real in enumerate(reals):
            n_1 = noise_levels(paper_params, real.htr_abs2, mode)[1]
            mean_c, var_c = (lna_moments(real.p1, paper_params.beta1, paper_params.beta3,
                                         n_1, paper_params.n_samples) if mode == LNA
                             else nolna_moments(real.p1, n_1, paper_params.n_samples))
            assert float(np.mean(e[r])) == pytest.approx(mean_c, rel=0.01, abs=0.0)
            assert float(np.var(e[r])) == pytest.approx(var_c, rel=0.05, abs=0.0)

    def test_sampler_equivalence_check(self, paper_params):
        res = check_sampler_equivalence(paper_params, seed=5)
        assert res.passed, res.detail

    def test_sampler_equivalence_check_sees_a_dropped_cubic(self, paper_params,
                                                            monkeypatch):
        import ambclink.verify as verify

        def linear_lna(params, *args):
            return draw_energies(replace(params, beta3=0.0), *args)

        monkeypatch.setattr(verify, "draw_energies", linear_lna)
        res = verify.check_sampler_equivalence(paper_params, seed=5)
        assert not res.passed
        assert "compression lna" in res.detail


class TestLnaSumForm:
    """The LNA sampler takes A = sum_k z_k (beta1 + beta3 z_k)^2 over a
    symbol's samples z = p e as beta1^2 p S1 + 2 beta1 beta3 p^2 S2 +
    beta3^2 p^3 S3, with S_j the sum of e^j. A is read as N times the energy
    at zero noise, the A/N branch."""

    @staticmethod
    def _sum_form(params, power, variates):
        bits = np.ones(np.shape(variates.s1), dtype=np.int64)
        energies = energies_from_variates(params, bits, (power, power), (0.0, 0.0), LNA,
                                          variates)
        return energies * params.n_samples

    # N from 25, as in the paper's sweeps: over few samples, samples near
    # beta1 + beta3 z = 0 can cancel A far below its terms; the next test
    # bounds that case absolutely at N = 1
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(25, 200), log_ratio=st.floats(-6.0, 6.0), beta1=st.floats(1.0, 100.0),
           beta3=st.floats(1e-3, 1e5), sign=st.sampled_from([-1.0, 1.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_per_sample_sum(self, paper_params, n, log_ratio, beta1, beta3, sign,
                                        seed):
        params = replace(paper_params, beta1=beta1, beta3=sign * beta3, n_samples=n)
        power = 10.0 ** log_ratio * beta1 / beta3      # |beta3| p / beta1 = 10^log_ratio
        z = power * np.random.default_rng(seed).standard_exponential((16, n))
        per_sample = np.sum(z * (params.beta1 + params.beta3 * z) ** 2, axis=1)
        got = self._sum_form(params, power,
                             draw_lna_variates(n, (16,), np.random.default_rng(seed)))
        assert np.max(np.abs(got - per_sample) / per_sample) <= 1e-14

    @settings(max_examples=100, deadline=None)
    @given(beta1=st.floats(1.0, 100.0), beta3=st.floats(-1e5, -1e-3), e=st.floats(1e-3, 20.0),
           delta=st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6)))
    def test_one_sample_cancellation_is_bounded_by_the_terms(self, paper_params, beta1, beta3,
                                                             e, delta):
        # z within delta of -beta1/beta3, where beta1 + beta3 z is about 0
        params = replace(paper_params, beta1=beta1, beta3=beta3, n_samples=1)
        power = beta1 / -beta3 / e * (1.0 + delta)
        # draw_lna_variates at N = 1: S1 = e, S2 = e*e, S3 = (e*e)*e
        variates = LnaVariates(*(np.array([x]) for x in (e, e * e, e * e * e, 0.0, 0.0)))
        (got,) = self._sum_form(params, power, variates)
        z = Fraction(power) * Fraction(e)
        exact = z * (Fraction(beta1) + Fraction(beta3) * z) ** 2
        terms = (beta1 ** 2 * power * e + 2 * abs(beta1 * beta3) * power ** 2 * e ** 2
                 + beta3 ** 2 * power ** 3 * e ** 3)
        assert got >= 0.0
        assert abs(Fraction(float(got)) - exact) <= 4 * Fraction(np.finfo(float).eps * terms)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 100), noise=st.sampled_from([0.0, 1e-320]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_underflowed_noise_gives_a_over_n(self, paper_params, n, noise, seed):
        # 2A/noise is not finite: the energy is A/N, the noise-free limit
        params = replace(paper_params, n_samples=n)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, (3, 40))
        power = [np.array([[0.0], [1e-9], [1e-4]]) * (1 + d) for d in (0, 1)]
        variates = draw_lna_variates(n, bits.shape, np.random.default_rng([seed, 1]))
        e = energies_from_variates(params, bits, power, (noise, noise), LNA, variates)
        if noise:
            e = e[1:]                   # at p = 0, 2A/noise = 0 is finite
        else:
            assert np.array_equal(e[0], np.zeros(40))
        z = (np.where(bits == 1, power[1], power[0])[..., None]
             * np.random.default_rng([seed, 1]).standard_exponential((3, 40, n)))
        a = np.sum(z * (params.beta1 + params.beta3 * z) ** 2, axis=-1)[-len(e):]
        assert np.all(np.isfinite(e))
        assert np.allclose(e, a / n, rtol=1e-14, atol=0.0)


class TestMomentsVsMonteCarlo:
    def test_default_check_memory_is_bounded(self, paper_params):
        """The 2M-sample check draws in SAMPLER_CHUNK frames; in frames of
        500 000 its traced peak was 76 MB."""
        import tracemalloc

        tracemalloc.start()
        try:
            res = check_moments_vs_montecarlo(paper_params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.passed, res.detail
        assert peak <= 8e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_draws_exactly_the_requested_count(self, paper_params, monkeypatch):
        import ambclink.verify as verify

        sizes = []

        def counting(params, real, bits, rng, mode):
            sizes.append(bits.size)
            return generate_frame(params, real, bits, rng, mode)

        monkeypatch.setattr(verify, "generate_frame", counting)
        verify.check_moments_vs_montecarlo(paper_params, n_samples_mc=100_001)
        assert sum(sizes) == 100_001
        assert sizes == [SAMPLER_CHUNK] * 3 + [100_001 - 3 * SAMPLER_CHUNK]

    def test_each_tolerance_bounds_its_error(self, paper_params):
        """The check fails once a tolerance drops below the error it measured,
        each tolerance gating its own moment."""
        def run(mean_tol=1.0, var_tol=1.0):
            return check_moments_vs_montecarlo(paper_params, seed=3, n_samples_mc=5000,
                                               mean_tol=mean_tol, var_tol=var_tol)

        loose = run()
        assert loose.passed, loose.detail
        err_m, err_v = (float(x) for x in re.findall(r"rel err (\S+)", loose.detail))
        assert not run(mean_tol=err_m / 2).passed
        assert not run(var_tol=err_v / 2).passed

    @pytest.mark.parametrize("n", [0, 1, 2.5, True, 1e6])
    def test_sample_count_is_judged_by_name(self, paper_params, n):
        # two samples at least, for a sample variance; an integer, not a bool
        with pytest.raises(ConfigError, match="n_samples_mc") as info:
            check_moments_vs_montecarlo(paper_params, n_samples_mc=n)
        assert info.value.fields == ("n_samples_mc",)

import math
from dataclasses import replace

import numpy as np
import pytest

from ambclink import LNA, NO_LNA
from ambclink.analysis import lna_moments, noise_power, nolna_moments
from ambclink.channel import draw_channels
import ambclink.frontend as frontend
from ambclink.frontend import (
    SAMPLER_CHUNK,
    _draw_cn_block,
    draw_energies,
    frame_energies,
    generate_frame,
    symbol_energies,
)
from ambclink.verify import check_moments_vs_montecarlo, check_sampler_equivalence


def _clone_draws(params, total, seed):
    """Replicate generate_frame's draw order (s, w_ar, w_cov, w_at)."""
    rng = np.random.default_rng(seed)
    s = _draw_cn_block(rng, params.ps, total)
    w_ar = _draw_cn_block(rng, params.n_ar, total)
    w_cov = _draw_cn_block(rng, params.n_cov, total)
    w_at = _draw_cn_block(rng, params.n_at, total)
    return s, w_ar, w_cov, w_at


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

    def test_recomputable_from_frame(self, paper_params, fixed_realization):
        p = replace(paper_params, k_symbols=20, pilot_fraction=0.0)
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 20)
        frame = generate_frame(p, fixed_realization, bits, rng, LNA)
        assert np.array_equal(
            frame.energies, symbol_energies(frame.samples, p.n_samples)
        )
        assert frame.samples.size == p.k_symbols * p.n_samples
        assert np.all(frame.energies >= 0)


class TestGenerateFrame:
    def test_identity_lna_zero_bits_is_direct_path(self, paper_params, fixed_realization):
        # beta1=1, beta3=0, negligible noise, all-zero bits: y = h0 * s
        p = replace(paper_params, beta1=1.0, beta3=0.0, pilot_fraction=0.0,
                    n_ar_dbm=-400.0, n_cov_dbm=-400.0, n_at_dbm=-400.0,
                    k_symbols=10)
        bits = np.zeros(10, dtype=np.int64)
        frame = generate_frame(p, fixed_realization, bits, np.random.default_rng(5), LNA)
        s, _, _, _ = _clone_draws(p, bits.size * p.n_samples, 5)
        assert np.allclose(frame.samples, fixed_realization.h0 * s, rtol=1e-12)

    def test_linear_lna_equals_no_lna_bitwise(self, paper_params, fixed_realization):
        p = replace(paper_params, beta1=1.0, beta3=0.0, pilot_fraction=0.0,
                    k_symbols=16)
        bits = np.random.default_rng(8).integers(0, 2, 16)
        fa = generate_frame(p, fixed_realization, bits, np.random.default_rng(9), LNA)
        fb = generate_frame(p, fixed_realization, bits, np.random.default_rng(9), NO_LNA)
        # identical draw order, beta3 |x|^2 term contributes exactly zero
        assert np.array_equal(fa.samples, fb.samples)
        assert np.array_equal(fa.energies, fb.energies)

    def test_no_lna_bit_difference_is_backscatter_path(self, paper_params, fixed_realization):
        p = replace(paper_params, k_symbols=12, pilot_fraction=0.0)
        ones = np.ones(12, dtype=np.int64)
        zeros = np.zeros(12, dtype=np.int64)
        f1 = generate_frame(p, fixed_realization, ones, np.random.default_rng(21), NO_LNA)
        f0 = generate_frame(p, fixed_realization, zeros, np.random.default_rng(21), NO_LNA)
        s, _, _, w_at = _clone_draws(p, 12 * p.n_samples, 21)
        a = p.alpha_amp
        expected = a * fixed_realization.hst * fixed_realization.htr * s \
            + a * fixed_realization.htr * w_at
        assert np.allclose(f1.samples - f0.samples, expected, rtol=1e-10)

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
                frame = generate_frame(p, fixed_realization, bits,
                                       np.random.default_rng(30 + d), mode)
                var = float(np.mean(np.abs(frame.samples) ** 2))
                target = noise_power(p, fixed_realization.htr_abs2, d, mode)
                assert var == pytest.approx(target, rel=0.01)

    def test_lna_energy_mean_matches_closed_form(self, paper_params, fixed_realization):
        p = replace(paper_params, k_symbols=20_000, n_samples=50, pilot_fraction=0.0)
        n_aw = noise_power(p, fixed_realization.htr_abs2, 1, LNA)
        mean_c, var_c = lna_moments(fixed_realization.p1, p.beta1, p.beta3,
                                    n_aw, p.n_samples)
        bits = np.ones(p.k_symbols, dtype=np.int64)
        frame = generate_frame(p, fixed_realization, bits, np.random.default_rng(31), LNA)
        assert float(np.mean(frame.energies)) == pytest.approx(mean_c, rel=0.01)
        assert float(np.var(frame.energies)) == pytest.approx(var_c, rel=0.08)

    def test_no_lna_energy_mean_matches_closed_form(self, paper_params, fixed_realization):
        p = replace(paper_params, k_symbols=20_000, n_samples=50, pilot_fraction=0.0)
        n_w = noise_power(p, fixed_realization.htr_abs2, 0, NO_LNA)
        mean_c, var_c = nolna_moments(fixed_realization.p0, n_w, p.n_samples)
        bits = np.zeros(p.k_symbols, dtype=np.int64)
        frame = generate_frame(p, fixed_realization, bits, np.random.default_rng(32), NO_LNA)
        assert float(np.mean(frame.energies)) == pytest.approx(mean_c, rel=0.01)
        assert float(np.var(frame.energies)) == pytest.approx(var_c, rel=0.08)

    def test_energy_statistic_approximately_gaussian(self, paper_params, fixed_realization):
        # CLT shape check at N=75: standardized energies have small skew and
        # excess kurtosis
        p = replace(paper_params, k_symbols=5_000, pilot_fraction=0.0)
        bits = np.ones(p.k_symbols, dtype=np.int64)
        frame = generate_frame(p, fixed_realization, bits, np.random.default_rng(33), LNA)
        e = frame.energies
        z = (e - e.mean()) / e.std()
        skew = float(np.mean(z ** 3))
        ex_kurt = float(np.mean(z ** 4)) - 3.0
        # an N-sample mean of exponential-like terms has skew ~ 2/sqrt(N) ~ 0.23
        assert abs(skew) < 0.4
        assert abs(ex_kurt) < 1.0


class TestFrameEnergies:
    @pytest.mark.parametrize("sampler", [generate_frame, frame_energies])
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
            n_d = noise_power(p, ht2, d, mode)
            mean_c, var_c = (lna_moments(power, p.beta1, p.beta3, n_d, p.n_samples)
                             if mode == LNA else nolna_moments(power, n_d, p.n_samples))
            e = frame_energies(p, fixed_realization, np.full(p.k_symbols, d),
                               np.random.default_rng(40 + d), mode)
            assert float(np.mean(e)) == pytest.approx(mean_c, rel=0.01)
            assert float(np.var(e)) == pytest.approx(var_c, rel=0.05)

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
        # A/N with A = sum_k Z_k (beta1 + beta3 Z_k)^2, never NaN
        p = replace(paper_params, n_ar_dbm=-4000.0, n_at_dbm=-4000.0, n_cov_dbm=-4000.0)
        assert noise_power(p, fixed_realization.htr_abs2, 1, LNA) == 0.0
        bits = np.arange(p.k_symbols) % 2
        e = frame_energies(p, fixed_realization, bits, np.random.default_rng(13), LNA)
        power = np.where(bits == 1, fixed_realization.p1, fixed_realization.p0)
        z = power[:, None] * np.random.default_rng(13).standard_exponential(
            (p.k_symbols, p.n_samples))
        a = np.sum(z * (p.beta1 + p.beta3 * z) ** 2, axis=1)
        assert not np.any(np.isnan(e))
        assert np.array_equal(e, a / p.n_samples)

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
        noise = [np.array([noise_power(paper_params, r.htr_abs2, d, mode)
                           for r in reals])[:, None, None] for d in (0, 1)]
        bits = np.ones((2, 4, 5000), dtype=np.int64)
        e = draw_energies(paper_params, bits, levels, noise, np.random.default_rng(15), mode)
        assert e.shape == bits.shape
        for r, real in enumerate(reals):
            n_1 = noise_power(paper_params, real.htr_abs2, 1, mode)
            mean_c, var_c = (lna_moments(real.p1, paper_params.beta1, paper_params.beta3,
                                         n_1, paper_params.n_samples) if mode == LNA
                             else nolna_moments(real.p1, n_1, paper_params.n_samples))
            assert float(np.mean(e[r])) == pytest.approx(mean_c, rel=0.01)
            assert float(np.var(e[r])) == pytest.approx(var_c, rel=0.05)

    def test_sampler_equivalence_check(self, paper_params):
        res = check_sampler_equivalence(paper_params, seed=5)
        assert res.passed, res.detail

    def test_sampler_equivalence_check_sees_a_dropped_cubic(self, paper_params,
                                                            monkeypatch):
        import ambclink.verify as verify

        def linear_lna(params, *args):
            return frame_energies(replace(params, beta3=0.0), *args)

        monkeypatch.setattr(verify, "frame_energies", linear_lna)
        res = verify.check_sampler_equivalence(paper_params, seed=5)
        assert not res.passed
        assert "compression lna" in res.detail


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

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_samples_rejected(self, paper_params, n):
        with pytest.raises(ValueError, match="n_samples_mc"):
            check_moments_vs_montecarlo(paper_params, n_samples_mc=n)

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambclink import LNA, NO_LNA, ModelValidityError, NoSeparationError
from ambclink.analysis import (
    HypothesisMoments,
    ber_closed_form,
    dc_noise_powers,
    deflection_lna_approx,
    deflection_lna_full,
    deflection_no_lna,
    hypothesis_moments,
    lna_moments,
    near_optimal_threshold,
    noise_power,
    nolna_moments,
    q_function,
)
from ambclink.channel import draw_channels
from ambclink.config import MODES
from ambclink.oracles import (
    exp_moment_mean_var,
    grid_min_threshold,
    pdf_equality_root,
    q_integral,
)
from ambclink.verify import (
    check_linear_reduction,
    check_model_validity_guard,
    check_moments_vs_expansion,
    check_threshold_near_optimality,
    random_valid_moments,
)

from conftest import rel_err


class TestMoments:
    def test_linear_case_by_hand(self):
        mean, var = lna_moments(2.0, 1.0, 0.0, 0.5, 1)
        assert mean == pytest.approx(2.5, rel=1e-12)
        assert var == pytest.approx(6.25, rel=1e-12)

    def test_noise_only(self):
        mean, var = lna_moments(0.0, 56.23, -7497.33, 1e-10, 75)
        assert mean == pytest.approx(1e-10, rel=1e-12)
        assert var == pytest.approx(1e-20 / 75, rel=1e-12)

    def test_nolna_by_hand(self):
        assert nolna_moments(1.0, 1.0, 4) == (pytest.approx(2.0), pytest.approx(1.0))
        mean, var = nolna_moments(0.0, 3e-13, 50)
        assert mean == pytest.approx(3e-13)
        assert var == pytest.approx(9e-26 / 50)

    def test_linear_reduction_exact(self, paper_params):
        res = check_linear_reduction(paper_params)
        assert res.passed, res.detail

    def test_matches_expansion_oracle(self):
        res = check_moments_vs_expansion(seed=17, n_tuples=200)
        assert res.passed, res.detail

    @settings(max_examples=200, deadline=None)
    @given(beta1=st.floats(1.0, 100.0), log_p=st.floats(-12.0, -6.0),
           compression=st.floats(0.0, 0.1), log_noise=st.floats(-14.0, -8.0),
           n=st.integers(1, 200), lna=st.booleans())
    def test_matches_expansion_oracle_property(self, beta1, log_p, compression, log_noise,
                                               n, lna):
        # compression = |beta3| P / beta1, kept small as in verify's random tuples
        p, noise = 10.0 ** log_p, 10.0 ** log_noise
        if lna:
            beta3 = -compression * beta1 / p
            closed = lna_moments(p, beta1, beta3, noise, n)
        else:
            beta1, beta3 = 1.0, 0.0
            closed = nolna_moments(p, noise, n)
        oracle = exp_moment_mean_var(p, beta1, beta3, noise, n)
        assert rel_err(closed[0], oracle[0]) <= 1e-12
        assert rel_err(closed[1], oracle[1]) <= 1e-12

    def test_negative_power_rejected(self):
        with pytest.raises(ModelValidityError):
            lna_moments(-1.0, 1.0, 0.0, 1.0, 1)
        with pytest.raises(ModelValidityError):
            nolna_moments(-1.0, 1.0, 1)

    def test_out_of_range_power_trips_guard(self, paper_params):
        res = check_model_validity_guard(paper_params)
        assert res.passed, res.detail


class TestNoisePower:
    def test_tag_path_gated_by_bit(self, paper_params):
        ht2 = 0.02
        a2 = paper_params.alpha_amp ** 2
        n0 = noise_power(paper_params, ht2, 0, NO_LNA)
        n1 = noise_power(paper_params, ht2, 1, NO_LNA)
        assert n0 == pytest.approx(paper_params.n_ar + paper_params.n_cov, rel=1e-12)
        assert n1 - n0 == pytest.approx(a2 * ht2 * paper_params.n_at, rel=1e-12)
        b2 = paper_params.beta1 ** 2
        m0 = noise_power(paper_params, ht2, 0, LNA)
        m1 = noise_power(paper_params, ht2, 1, LNA)
        assert m0 == pytest.approx(b2 * paper_params.n_ar + paper_params.n_cov, rel=1e-12)
        assert m1 - m0 == pytest.approx(b2 * a2 * ht2 * paper_params.n_at, rel=1e-12)

    def test_hypothesis_moments_uses_gated_noise(self, paper_params, fixed_realization):
        m = hypothesis_moments(paper_params, fixed_realization, LNA)
        ht2 = fixed_realization.htr_abs2
        d0, v0 = lna_moments(fixed_realization.p0, paper_params.beta1,
                             paper_params.beta3,
                             noise_power(paper_params, ht2, 0, LNA),
                             paper_params.n_samples)
        assert (m.delta0, m.var0) == (d0, v0)

    @pytest.mark.parametrize("mode", [LNA, NO_LNA])
    def test_noise_free_moments_set_the_interference_floor(self, paper_params, mode):
        # Without noise the energy of hypothesis i is G |h_i s|^2 averaged
        # over N samples: mean G P_i and variance G^2 P_i^2 / N, with
        # G = beta1^2 behind the LNA (the cubic moves it by < 1e-7 at
        # Ps <= -10 dBm) and G = 1 without it. These moments fix the level of
        # the interference floor that acceptance criterion 6 measures.
        quiet = replace(paper_params, n_ar_dbm=-300.0, n_at_dbm=-300.0, n_cov_dbm=-300.0)
        gain = quiet.beta1 ** 2 if mode == LNA else 1.0
        rng = np.random.default_rng(606)
        for ps in (-30.0, -20.0, -10.0):
            p = replace(quiet, ps_dbm=ps)
            for _ in range(20):
                real = draw_channels(p, rng)
                m = hypothesis_moments(p, real, mode)
                for mean, var, power in ((m.delta0, m.var0, real.p0), (m.delta1, m.var1, real.p1)):
                    assert rel_err(mean, gain * power) <= 1e-6
                    assert rel_err(var, gain**2 * power**2 / p.n_samples) <= 1e-6

    def test_dc_noise_ungated(self, paper_params):
        ht2 = 0.02
        n_w, n_aw = dc_noise_powers(paper_params, ht2)
        assert n_w == noise_power(paper_params, ht2, 1, NO_LNA)
        assert n_aw == noise_power(paper_params, ht2, 1, LNA)


class TestQFunction:
    def test_half_at_zero(self):
        assert q_function(0.0) == 0.5

    def test_symmetry(self):
        for x in (-4.0, -1.3, 0.7, 2.5):
            assert q_function(x) + q_function(-x) == pytest.approx(1.0, rel=1e-14)

    def test_known_value_vs_quadrature(self):
        assert float(q_function(1.0)) == pytest.approx(0.158655, abs=5e-7)
        for x in (-6.0, -2.0, 0.5, 3.0, 7.5):
            assert rel_err(float(q_function(x)), q_integral(x)) <= 1e-12

    def test_decreasing_and_chernoff_bound(self):
        xs = np.linspace(0.0, 8.0, 40)
        qs = np.array([q_function(x) for x in xs])
        assert np.all(np.diff(qs) < 0)
        assert np.all(qs <= np.exp(-xs ** 2 / 2) / 2 + 1e-300)


    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(-37.0, 37.0))
    def test_agrees_with_scipy_erfc(self, x):
        from scipy.special import erfc

        # scipy's erfc rounds the argument of its exp(-z^2), so its own error
        # grows like z^2 = x^2 / 2 ulp, plus a few ulp from 1 - erf(z) below
        # z = 1; above x = 37.7 it returns 0 where Q is still subnormal
        ref = 0.5 * float(erfc(x / math.sqrt(2.0)))
        assert abs(q_function(x) - ref) <= (16 + x * x / 2) * math.ulp(ref)


class TestBerClosedForm:
    def test_symmetric_unit_case(self):
        m = HypothesisMoments(0.0, 2.0, 1.0, 1.0)
        assert ber_closed_form(m, 1.0) == pytest.approx(float(q_function(1.0)), rel=1e-12)

    def test_extreme_thresholds_half(self):
        m = HypothesisMoments(0.0, 2.0, 1.0, 1.0)
        assert ber_closed_form(m, -1e6) == pytest.approx(0.5, abs=1e-12)
        assert ber_closed_form(m, 1e6) == pytest.approx(0.5, abs=1e-12)

    def test_indistinguishable_hypotheses(self):
        m = HypothesisMoments(1.0, 1.0, 0.5, 0.5)
        for t in (-3.0, 0.0, 1.0, 9.0):
            assert ber_closed_form(m, t) == pytest.approx(0.5, rel=1e-12)

    def test_swap_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = random_valid_moments(rng)
            sw = HypothesisMoments(m.delta1, m.delta0, m.var1, m.var0)
            t = 0.5 * (m.delta0 + m.delta1)
            assert ber_closed_form(m, t) == pytest.approx(ber_closed_form(sw, t), rel=1e-12)

    def test_variance_validity_enforced(self):
        with pytest.raises(ModelValidityError):
            HypothesisMoments(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ModelValidityError):
            HypothesisMoments(0.0, 1.0, 1.0, math.nan)


class TestThreshold:
    def test_equal_variance_midpoint(self):
        m = HypothesisMoments(1.0, 3.0, 0.25, 0.25)
        assert near_optimal_threshold(m) == pytest.approx(2.0, rel=1e-12)

    def test_unequal_variance_vs_bisection_oracle(self):
        m = HypothesisMoments(1.0, 3.0, 0.25, 1.0)
        t = near_optimal_threshold(m)
        assert 1.0 <= t <= 3.0
        assert t == pytest.approx(pdf_equality_root(m), rel=1e-10)

    def test_unconverged_fallback_root_is_a_model_validity_error(self):
        # moments far apart in scale: the closed form's discriminant
        # overflows, and brentq runs out of iterations on the fallback bracket
        m = HypothesisMoments(delta0=3.2481729156742285e-05, delta1=3.6564856250845187e+74,
                              var0=1.4067348907434611e-11, var1=3.3870380720339295e+148)
        with pytest.raises(ModelValidityError, match="did not converge"):
            near_optimal_threshold(m)

    def test_near_grid_minimum(self):
        res = check_threshold_near_optimality(seed=29, n_tuples=100)
        assert res.passed, res.detail

    def test_no_separation(self):
        with pytest.raises(NoSeparationError):
            near_optimal_threshold(HypothesisMoments(1.0, 1.0, 0.5, 0.5))

    def test_translation_monotonicity(self):
        # equal variances: T tracks the midpoint under translation
        base = HypothesisMoments(1.0, 3.0, 0.25, 0.25)
        t0 = near_optimal_threshold(base)
        for shift in (0.5, 1.0, 10.0):
            m = HypothesisMoments(1.0 + shift, 3.0 + shift, 0.25, 0.25)
            assert near_optimal_threshold(m) == pytest.approx(t0 + shift, rel=1e-12)

    def test_inverted_ordering_still_near_optimal(self):
        # larger mean with smaller variance: the primary closed-form root can
        # leave the means interval; the result must still beat the grid
        m = HypothesisMoments(2.0, 1.0, 0.01, 0.25)
        t = near_optimal_threshold(m)
        _, ber_grid = grid_min_threshold(m)
        assert ber_closed_form(m, t) <= ber_grid + 1e-6


    @settings(max_examples=300, deadline=None)
    @given(log_d0=st.floats(-15.0, 5.0),
           log_ratio=st.floats(1e-6, 3.0) | st.floats(-3.0, -1e-6),
           n=st.integers(1, 10_000), f0=st.floats(0.01, 100.0), f1=st.floats(0.01, 100.0))
    def test_ber_at_threshold_in_range(self, log_d0, log_ratio, n, f0, f1):
        # an N-sample energy of mean d has variance near d^2 / N; f0, f1 scale it
        d0 = 10.0 ** log_d0
        d1 = d0 * 10.0 ** log_ratio
        m = HypothesisMoments(d0, d1, f0 * d0 * d0 / n, f1 * d1 * d1 / n)
        assert 0.0 <= ber_closed_form(m, near_optimal_threshold(m)) <= 0.5


def _float_digest(values) -> str:
    return hashlib.sha256(",".join(float(v).hex() for v in values).encode()).hexdigest()


class TestExactBits:
    """The closed forms' exact bits, as sha256 over float.hex. Every CSV's
    closed-form columns rest on these bits, so a faster evaluation must keep
    the digests. They were taken on x86-64 Linux with CPython 3.11 and
    numpy 2.4, whose libm and random streams they assume."""

    def test_threshold_and_ber_on_random_moments(self):
        # 2000 tuples cover all three branches of near_optimal_threshold:
        # the primary root (940), the other root inside the means (977) and
        # the lower-BER of two crossings (83)
        rng = np.random.default_rng(0)
        values = []
        for _ in range(2000):
            m = random_valid_moments(rng)
            t = near_optimal_threshold(m)
            values += [t, ber_closed_form(m, t)]
        assert _float_digest(values) == (
            "cfa38d0a77a21542679d79b11407b3ef8c1fbd8a37a030e2aa756cc2d854133c")

    def test_fading_averaged_curve_grid(self, paper_params):
        """The closed_form_curve benchmark's grid (Ps -60..30 dBm, both modes)
        on 40 channels: the draws, moments, thresholds and BERs, where the
        lower-BER branch serves most evaluations."""
        values = []
        for r in range(40):
            real = draw_channels(paper_params,
                                 np.random.default_rng(np.random.SeedSequence((7, r, 1))))
            for ps in range(-60, 31, 5):
                p = replace(paper_params, ps_dbm=float(ps))
                at = real.at_operating_point(p)
                for mode in MODES:
                    m = hypothesis_moments(p, at, mode)
                    t = near_optimal_threshold(m)
                    values += [at.p0, at.p1, m.delta0, m.delta1, m.var0, m.var1, t,
                               ber_closed_form(m, t)]
        assert _float_digest(values) == (
            "23bc05ac8b9dd4c919e536142ebf91cb62b517485f91cdc589de7b38f53d2df0")


class TestDeflection:
    def test_zero_at_equal_powers(self, paper_params):
        n_w, n_aw = dc_noise_powers(paper_params, 0.01)
        assert deflection_no_lna(1e-10, 1e-10, n_w, 75) == 0.0
        assert deflection_lna_full(1e-10, 1e-10, paper_params.beta1,
                                   paper_params.beta3, n_aw, 75) == 0.0
        assert deflection_lna_approx(1e-10, 1e-10, paper_params.beta1, n_aw, 75) == 0.0

    def test_full_rejects_negative_power(self, paper_params):
        # the H0 variance comes from lna_moments, which refuses P < 0
        with pytest.raises(ModelValidityError, match="nonnegative"):
            deflection_lna_full(-1e-12, 1e-12, paper_params.beta1, paper_params.beta3,
                                1e-10, 75)

    def test_no_lna_by_hand(self):
        assert deflection_no_lna(1.0, 2.0, 1.0, 100) == pytest.approx(25.0, rel=1e-12)

    def test_no_lna_scale_invariance(self):
        base = deflection_no_lna(1.0, 2.0, 1.0, 100)
        for c in (1e-12, 3.7, 1e6):
            assert deflection_no_lna(c, 2 * c, c, 100) == pytest.approx(base, rel=1e-12)

    def test_full_equals_moment_composition(self, paper_params):
        n_aw = 1e-10
        p0, p1 = 1e-10, 1.5e-10
        full = deflection_lna_full(p0, p1, paper_params.beta1, paper_params.beta3,
                                   n_aw, 75)
        m0 = lna_moments(p0, paper_params.beta1, paper_params.beta3, n_aw, 75)
        m1 = lna_moments(p1, paper_params.beta1, paper_params.beta3, n_aw, 75)
        assert rel_err(full, (m1[0] - m0[0]) ** 2 / m0[1]) <= 1e-12

    def test_beta3_zero_full_equals_approx(self):
        full = deflection_lna_full(1e-10, 2e-10, 50.0, 0.0, 1e-10, 75)
        approx = deflection_lna_approx(1e-10, 2e-10, 50.0, 1e-10, 75)
        assert rel_err(full, approx) <= 1e-12

    def test_approx_close_to_full_at_small_power(self, paper_params, fixed_realization):
        # small-P regime: Ps <= 0 dBm keeps the dropped cubic terms negligible
        p = replace(paper_params, ps_dbm=0.0)
        rng = np.random.default_rng(31)
        from ambclink.channel import draw_channels
        for _ in range(20):
            r = draw_channels(p, rng)
            _, n_aw = dc_noise_powers(p, r.htr_abs2)
            full = deflection_lna_full(r.p0, r.p1, p.beta1, p.beta3, n_aw, 75)
            approx = deflection_lna_approx(r.p0, r.p1, p.beta1, n_aw, 75)
            if full > 0:
                assert rel_err(full, approx) <= 0.01

    def test_lna_advantage_ordering(self, paper_params):
        n_w, n_aw = dc_noise_powers(paper_params, 0.01)
        assert n_aw / paper_params.beta1 ** 2 < n_w
        a = deflection_lna_approx(1e-12, 2e-12, paper_params.beta1, n_aw, 75)
        b = deflection_no_lna(1e-12, 2e-12, n_w, 75)
        assert a > b

    def test_asymptotic_convergence(self, paper_params):
        n_w, n_aw = dc_noise_powers(paper_params, 0.01)
        p0 = 1e6 * max(n_w, n_aw / paper_params.beta1 ** 2)
        ratio = deflection_lna_approx(p0, 2 * p0, paper_params.beta1, n_aw, 75) \
            / deflection_no_lna(p0, 2 * p0, n_w, 75)
        assert 1.0 < ratio < 1.01

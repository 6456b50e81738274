import hashlib
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ambclink import LNA, NO_LNA, ConfigError, ModelValidityError, NoSeparationError
from ambclink.analysis import (
    HypothesisMoments,
    ber_closed_form,
    dc_noise_powers,
    deflection_lna_approx,
    deflection_lna_full,
    deflection_no_lna,
    hypothesis_moments,
    level_moments,
    lna_moments,
    near_optimal_threshold,
    noise_levels,
    nolna_moments,
    q_function,
)
from ambclink.channel import draw_channels
from ambclink.config import MODES
from ambclink.oracles import exp_moment_mean_var, grid_min_threshold, q_integral
import ambclink.verify as verify
from ambclink.verify import (
    GRID_BATCH,
    check_linear_reduction,
    check_model_validity_guard,
    check_moments_vs_expansion,
    check_threshold_near_optimality,
    random_valid_moments,
)

from conftest import rel_err


def pdf_equality_root(m: HypothesisMoments) -> float:
    """Crossing point of the two Gaussian PDFs by bracketed root finding on
    the log-density difference."""
    from scipy.optimize import brentq

    def g(t: float) -> float:
        return (
            -((t - m.delta0) ** 2) / (2 * m.var0) - 0.5 * math.log(m.var0)
            + ((t - m.delta1) ** 2) / (2 * m.var1) + 0.5 * math.log(m.var1)
        )

    lo, hi = min(m.delta0, m.delta1), max(m.delta0, m.delta1)
    s = max(math.sqrt(m.var0), math.sqrt(m.var1))
    for a, b in ((lo, hi), (lo - 3 * s, hi + 3 * s), (lo - 10 * s, hi + 10 * s)):
        if g(a) * g(b) <= 0:
            return float(brentq(g, a, b, rtol=1e-15))
    raise ValueError("no bracketed PDF crossing for these moments")


class TestMoments:
    def test_linear_case_by_hand(self):
        mean, var = lna_moments(2.0, 1.0, 0.0, 0.5, 1)
        assert mean == pytest.approx(2.5, rel=1e-12)
        assert var == pytest.approx(6.25, rel=1e-12)

    def test_noise_only(self):
        mean, var = lna_moments(0.0, 56.23, -7497.33, 1e-10, 75)
        assert mean == pytest.approx(1e-10, rel=1e-12, abs=0.0)
        assert var == pytest.approx(1e-20 / 75, rel=1e-12, abs=0.0)

    def test_nolna_by_hand(self):
        assert nolna_moments(1.0, 1.0, 4) == (pytest.approx(2.0), pytest.approx(1.0))
        mean, var = nolna_moments(0.0, 3e-13, 50)
        assert mean == pytest.approx(3e-13, rel=1e-6, abs=0.0)
        assert var == pytest.approx(9e-26 / 50, rel=1e-6, abs=0.0)

    def test_linear_reduction_exact(self, paper_params):
        res = check_linear_reduction(paper_params)
        assert res.passed, res.detail

    def test_matches_expansion_oracle(self):
        res = check_moments_vs_expansion(seed=17, n_tuples=200)
        assert res.passed, res.detail

    @pytest.mark.parametrize("check", [check_moments_vs_expansion,
                                       check_threshold_near_optimality])
    @pytest.mark.parametrize("n_tuples", [0, -1, 2.5, True, "10"])
    def test_tuple_count_is_judged_by_name(self, check, n_tuples):
        # 0 tuples would pass both checks on no evidence
        with pytest.raises(ConfigError) as info:
            check(n_tuples=n_tuples)
        assert info.value.fields == ("n_tuples",)

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

    @settings(max_examples=200, deadline=None)
    @given(log_p=st.lists(st.floats(-20.0, 200.0), min_size=1, max_size=12),
           negative=st.lists(st.booleans(), min_size=12, max_size=12),
           beta1=st.floats(1.0, 100.0), beta3=st.floats(-1e4, 1e4),
           log_noise=st.floats(-14.0, -8.0), n=st.integers(1, 200), lna=st.booleans())
    @example(log_p=[200.0, 0.0], negative=[False] * 12, beta1=1.0, beta3=0.0,
             log_noise=-10.0, n=75, lna=False)
    def test_batch_gives_the_float_bits_and_fails_where_floats_raise(
            self, log_p, negative, beta1, beta3, log_noise, n, lna):
        # the LNA polynomials overflow from about 1e60 W, the no-LNA p * p from
        # about 1e154 W, and a power < 0 is refused; a batch marks those
        # elements NaN
        p = [-10.0 ** x if neg else 10.0 ** x for x, neg in zip(log_p, negative)]
        noise = 10.0 ** log_noise

        def moments(power):
            return (lna_moments(power, beta1, beta3, noise, n) if lna
                    else nolna_moments(power, noise, n))

        def float_call(power):
            try:
                return moments(power)
            except ModelValidityError:
                return math.nan, math.nan

        with warnings.catch_warnings():     # the overflowing elements compute quietly
            warnings.simplefilter("error", RuntimeWarning)
            mean, var = moments(np.array(p))
        expected = [float_call(power) for power in p]
        assert _bits(mean) == _bits(e[0] for e in expected)
        assert _bits(var) == _bits(e[1] for e in expected)

    @pytest.mark.parametrize("mode", MODES)
    def test_level_moments_over_realizations_give_the_float_bits(self, paper_params, mode):
        # the batch the Monte Carlo takes: one array element per realization
        reals = [draw_channels(paper_params, np.random.default_rng(np.random.SeedSequence((9, r))))
                 for r in range(50)]
        power = [np.array([getattr(real, p) for real in reals]) for p in ("p0", "p1")]
        ht2 = np.array([real.htr_abs2 for real in reals])
        noise = noise_levels(paper_params, ht2, mode)
        batch = level_moments(paper_params, power, noise, mode)
        for i, real in enumerate(reals):
            m = hypothesis_moments(paper_params, real, mode)
            assert _bits(m) == _bits(x[i] for x in batch)

    def test_negative_power_rejected(self):
        with pytest.raises(ModelValidityError):
            lna_moments(-1.0, 1.0, 0.0, 1.0, 1)
        with pytest.raises(ModelValidityError):
            nolna_moments(-1.0, 1.0, 1)

    @pytest.mark.parametrize("n_samples", [0, -3, 2.5, math.nan, True])
    @pytest.mark.parametrize("moments", [
        lambda n: lna_moments(1.0, 1.0, 0.0, 1.0, n),
        lambda n: nolna_moments(1.0, 1.0, n),
    ], ids=["lna", "no_lna"])
    def test_nonpositive_n_samples_rejected(self, moments, n_samples):
        # one rule for both modes (config.is_int_in): no ZeroDivisionError, no
        # negative variance, no moments of a fractional N, a NaN N named as N
        with pytest.raises(ModelValidityError,
                           match=f"^n_samples must be an integer >= 1, got {n_samples!r}$"):
            moments(n_samples)

    def test_out_of_range_power_trips_guard(self, paper_params):
        res = check_model_validity_guard(paper_params)
        assert res.passed, res.detail


class TestNoisePower:
    def test_tag_path_gated_by_bit(self, paper_params):
        ht2 = 0.02
        a2 = paper_params.alpha_amp ** 2
        n0, n1 = noise_levels(paper_params, ht2, NO_LNA)
        assert n0 == pytest.approx(paper_params.n_ar + paper_params.n_cov, rel=1e-12, abs=0.0)
        # n1 - n0 (1.6e-15) would keep only the rounding of n0 (1e-10) beyond
        # rel 1e-12, so the tag term is checked inside n1
        assert n1 == pytest.approx(n0 + a2 * ht2 * paper_params.n_at, rel=1e-12, abs=0.0)
        b2 = paper_params.beta1 ** 2
        m0, m1 = noise_levels(paper_params, ht2, LNA)
        assert m0 == pytest.approx(b2 * paper_params.n_ar + paper_params.n_cov, rel=1e-12, abs=0.0)
        assert m1 - m0 == pytest.approx(b2 * a2 * ht2 * paper_params.n_at, rel=1e-12, abs=0.0)

    def test_hypothesis_moments_uses_gated_noise(self, paper_params, fixed_realization):
        m = hypothesis_moments(paper_params, fixed_realization, LNA)
        ht2 = fixed_realization.htr_abs2
        d0, v0 = lna_moments(fixed_realization.p0, paper_params.beta1,
                             paper_params.beta3,
                             noise_levels(paper_params, ht2, LNA)[0],
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
        assert n_w == noise_levels(paper_params, ht2, NO_LNA)[1]
        assert n_aw == noise_levels(paper_params, ht2, LNA)[1]


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

    def test_oracle_matches_adaptive_quadrature(self):
        from scipy.integrate import quad

        def reference(x):
            return quad(lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi),
                        x, math.inf, epsabs=0.0, epsrel=1e-13, limit=500)[0]

        rng = np.random.default_rng(2)     # check_q_function's points
        xs = np.concatenate([np.linspace(-37.0, 37.0, 149), [0.0, 1.0, -1.0],
                             rng.uniform(-8, 8, 50)])
        worst = max(rel_err(q_integral(float(x)), reference(float(x))) for x in xs)
        assert worst <= 1e-13

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
        with pytest.raises(ModelValidityError):
            HypothesisMoments(0.0, 1.0, 1.0, 1.0)._replace(var0=0.0)


# moments beyond the float range of the threshold's closed form
OUT_OF_RANGE = [
    (1.0, 2.0, 1e300, 1e-300),
    (1e160, -1e160, 1.0, 2.0),
    (1e-10, -1e-8, 1e300, 1e-34),
    (1e154, -1e154, 1e300, 2e300),
    (-1e-26, -1e-25, 1e-23, 1e307),
    (1.0, 10.0, 10.0, 1e-31),
    (1.0, 2.0, 1e-300, 1e300),
    # moments far apart in scale: c * (delta0 - delta1)^2 overflows to inf
    (3.2481729156742285e-05, 3.6564856250845187e+74, 1.4067348907434611e-11,
     3.3870380720339295e+148),
    (1.0, 2.0, 1e-10, 1e300),
]
OUT_OF_RANGE_IDS = ["variance-ratio-underflow", "mean-gap-overflow", "log-of-zero-ratio",
                    "square-overflow", "ratio-overflow-negative-means", "sub-ulp-crossing",
                    "sub-ulp-crossing-ratio-overflow", "discriminant-overflow",
                    "overflowing-variance-ratio"]


def _batch(rows) -> HypothesisMoments:
    """The moments of `rows` (delta0, delta1, var0, var1) as one batch of arrays."""
    return HypothesisMoments(*(np.array(column, dtype=float) for column in zip(*rows)))


def _bits(values) -> list:
    return [float(v).hex() for v in values]


class TestThreshold:
    def test_equal_variance_midpoint(self):
        m = HypothesisMoments(1.0, 3.0, 0.25, 0.25)
        assert near_optimal_threshold(m) == pytest.approx(2.0, rel=1e-12)

    def test_unequal_variance_vs_bisection_oracle(self):
        m = HypothesisMoments(1.0, 3.0, 0.25, 1.0)
        t = near_optimal_threshold(m)
        assert 1.0 <= t <= 3.0
        assert t == pytest.approx(pdf_equality_root(m), rel=1e-10)

    def test_near_grid_minimum(self):
        res = check_threshold_near_optimality(seed=29, n_tuples=100)
        assert res.passed, res.detail

    def test_no_separation(self):
        with pytest.raises(NoSeparationError):
            near_optimal_threshold(HypothesisMoments(1.0, 1.0, 0.5, 0.5))
        assert np.isnan(near_optimal_threshold(_batch([(1.0, 1.0, 0.5, 0.5)]))).all()

    def test_translation_monotonicity(self):
        # equal variances: T tracks the midpoint under translation
        base = HypothesisMoments(1.0, 3.0, 0.25, 0.25)
        t0 = near_optimal_threshold(base)
        for shift in (0.5, 1.0, 10.0):
            m = HypothesisMoments(1.0 + shift, 3.0 + shift, 0.25, 0.25)
            assert near_optimal_threshold(m) == pytest.approx(t0 + shift, rel=1e-12)

    def test_inverted_ordering_still_near_optimal(self):
        # larger mean with smaller variance: the + root leaves the means
        # interval, and the - root is the BER minimum
        m = HypothesisMoments(2.0, 1.0, 0.01, 0.25)
        t = near_optimal_threshold(m)
        _, ber_grid = grid_min_threshold(m)
        assert ber_closed_form(m, t) <= ber_grid + 1e-6

    def test_matches_pdf_equality_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            m = random_valid_moments(rng)
            assert near_optimal_threshold(m) == pytest.approx(pdf_equality_root(m), rel=1e-9)

    def test_extreme_variance_ratio_takes_the_ber_minimum(self):
        # var1/var0 ~ 1e36: both PDF crossings lie within 1e-13 of delta0,
        # and the + root is the BER maximum (0.75)
        m = HypothesisMoments(1.9573577084307967e-06, 4.923566230907227e-08,
                              1.217131888351243e-30, 1111789.5100164565)
        _, ber_grid = grid_min_threshold(m)
        assert ber_closed_form(m, near_optimal_threshold(m)) <= ber_grid + 1e-6

    @pytest.mark.parametrize("m", [HypothesisMoments(*row) for row in OUT_OF_RANGE],
                             ids=OUT_OF_RANGE_IDS)
    def test_out_of_float_range_is_a_model_validity_error(self, m):
        # beyond the float range of the closed form (var1/var0 or the
        # discriminant overflows to inf, so the root is not finite), or a
        # crossing finer than the floats beside a mean, where the threshold
        # would land on that PDF's peak; a batch marks the element NaN
        with pytest.raises(ModelValidityError):
            near_optimal_threshold(m)
        assert np.isnan(near_optimal_threshold(_batch([m]))).all()

    def test_both_pdfs_underflowing_at_the_crossing_keeps_the_closed_form(self):
        # both PDFs underflow to 0.0 at the crossing; the closed form still
        # takes the BER minimum
        m = HypothesisMoments(442.7111714361245, 3.7822054451280614e-10,
                              1.6481075805794583, 1.086381776477637e-33)
        assert ber_closed_form(m, near_optimal_threshold(m)) <= grid_min_threshold(m)[1] + 1e-6

    @settings(max_examples=300, deadline=None)
    @given(log_d0=st.floats(-15.0, 5.0), log_d1=st.floats(-15.0, 5.0),
           log_v0=st.floats(-35.0, 10.0), log_v1=st.floats(-35.0, 10.0))
    def test_never_above_the_grid_minimum(self, log_d0, log_d1, log_v0, log_v1):
        m = HypothesisMoments(10.0 ** log_d0, 10.0 ** log_d1, 10.0 ** log_v0, 10.0 ** log_v1)
        try:
            t = near_optimal_threshold(m)
        except (ModelValidityError, NoSeparationError):
            return
        assert ber_closed_form(m, t) <= grid_min_threshold(m)[1] + 1e-6


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

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(-15.0, 5.0), st.floats(-15.0, 5.0),
                                   st.floats(-35.0, 10.0), st.floats(-35.0, 10.0),
                                   st.sampled_from(["free", "equal-means", "equal-variances",
                                                    "negative-mean", "zero-variance"])),
                         min_size=1, max_size=12),
           out_of_range=st.lists(st.sampled_from(OUT_OF_RANGE), max_size=4))
    def test_batch_gives_the_float_bits_and_fails_where_floats_raise(self, rows, out_of_range):
        """A batch of moments gives, element by element, the bits of the
        float calls of the threshold and the BER at it, and NaN exactly where
        building the moments or taking the threshold raises. The ranges are
        those of test_never_above_the_grid_minimum, with ties (no separation,
        the midpoint), invalid variances and the out-of-range cases mixed in."""
        moments = []
        for log_d0, log_d1, log_v0, log_v1, kind in rows:
            d0, d1, v0, v1 = 10.0 ** log_d0, 10.0 ** log_d1, 10.0 ** log_v0, 10.0 ** log_v1
            d1 = d0 if kind == "equal-means" else -d1 if kind == "negative-mean" else d1
            v1 = v0 if kind == "equal-variances" else 0.0 if kind == "zero-variance" else v1
            moments.append((d0, d1, v0, v1))
        moments += out_of_range

        def float_calls(row):
            try:
                m = HypothesisMoments(*row)
                t = near_optimal_threshold(m)
            except (ModelValidityError, NoSeparationError):
                return math.nan, math.nan
            return t, ber_closed_form(m, t)

        expected = [float_calls(row) for row in moments]
        batch = _batch(moments)
        t = near_optimal_threshold(batch)
        assert _bits(t) == _bits(e[0] for e in expected)
        assert _bits(ber_closed_form(batch, t)) == _bits(e[1] for e in expected)


def full_grid_min_threshold(m: HypothesisMoments):
    """grid_min_threshold's reference: the BER at every one of the 10 000
    grid points, and its first minimum."""
    from scipy.special import erfc

    if m.delta0 <= m.delta1:
        lo_mean, s_lo, hi_mean, s_hi = m.delta0, math.sqrt(m.var0), m.delta1, math.sqrt(m.var1)
    else:
        lo_mean, s_lo, hi_mean, s_hi = m.delta1, math.sqrt(m.var1), m.delta0, math.sqrt(m.var0)
    grid = np.linspace(lo_mean - 3 * s_lo, hi_mean + 3 * s_hi, 10_000)

    def q(x):
        return 0.5 * erfc(x / math.sqrt(2.0))

    bers = 0.5 * q((grid - lo_mean) / s_lo) + 0.5 * q((hi_mean - grid) / s_hi)
    idx = int(np.argmin(bers))
    return float(grid[idx]), float(bers[idx])


GRID_EDGES = [
    HypothesisMoments(1.9573577084307967e-06, 4.923566230907227e-08,
                      1.217131888351243e-30, 1111789.5100164565),
    HypothesisMoments(442.7111714361245, 3.7822054451280614e-10,
                      1.6481075805794583, 1.086381776477637e-33),
    HypothesisMoments(2.0, 1.0, 0.01, 0.25),
    HypothesisMoments(1.0, 3.0, 0.25, 0.25),
    # the BER underflows to 0 over most of the grid, so the first 0 counts
    HypothesisMoments(0.0, 1000.0, 1.0, 1.0),
]
GRID_EDGE_IDS = ["variance-ratio-1e36", "both-pdfs-underflowing", "inverted-ordering",
                 "equal-variances", "separation-1000-sd"]


def _assert_batch_is_each_float_call(moments):
    """The array call over `moments` gives each tuple's float call and its
    full-grid reference, bit for bit."""
    expected = [full_grid_min_threshold(m) for m in moments]
    assert [grid_min_threshold(m) for m in moments] == expected
    t, ber = grid_min_threshold(_batch(moments))
    assert t.shape == ber.shape == (len(moments),)
    assert list(zip(t.tolist(), ber.tolist())) == expected


class TestGridOracle:
    """The grid minimum skips cells that cannot hold it, and returns the
    full grid's (T, BER) bit for bit, for one tuple or a batch."""

    @pytest.mark.parametrize("m", GRID_EDGES, ids=GRID_EDGE_IDS)
    def test_edges(self, m):
        _assert_batch_is_each_float_call([m])

    def test_edges_in_one_batch(self):
        _assert_batch_is_each_float_call(GRID_EDGES + GRID_EDGES[::-1])

    @pytest.mark.parametrize("seed", [3, 13, 23])
    def test_random_valid_moments(self, seed):
        rng = np.random.default_rng(seed)
        _assert_batch_is_each_float_call([random_valid_moments(rng) for _ in range(200)])

    @settings(max_examples=300, deadline=None)
    @given(log_d0=st.floats(-15.0, 5.0), log_d1=st.floats(-15.0, 5.0),
           log_v0=st.floats(-35.0, 10.0), log_v1=st.floats(-35.0, 10.0))
    def test_log_uniform_moments(self, log_d0, log_d1, log_v0, log_v1):
        m = HypothesisMoments(10.0 ** log_d0, 10.0 ** log_d1, 10.0 ** log_v0, 10.0 ** log_v1)
        assert grid_min_threshold(m) == full_grid_min_threshold(m)

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(-15.0, 5.0), st.floats(-15.0, 5.0),
                                   st.floats(-35.0, 10.0), st.floats(-35.0, 10.0)),
                         min_size=1, max_size=20))
    def test_log_uniform_batches(self, rows):
        _assert_batch_is_each_float_call([HypothesisMoments(*(10.0 ** x for x in row))
                                          for row in rows])

    @pytest.mark.parametrize("batch", [1, 7, GRID_BATCH, 150])
    def test_threshold_check_does_not_depend_on_the_batch(self, batch, monkeypatch):
        expected = check_threshold_near_optimality(seed=11, n_tuples=150)
        monkeypatch.setattr(verify, "GRID_BATCH", batch)
        assert check_threshold_near_optimality(seed=11, n_tuples=150) == expected

    def test_threshold_check_fails_where_the_threshold_does(self, monkeypatch):
        # a sub-ulp crossing among valid tuples: its float threshold raises,
        # and the batch marks it NaN, which must fail the check
        rng = np.random.default_rng(5)
        tuples = iter([random_valid_moments(rng), HypothesisMoments(1.0, 10.0, 10.0, 1e-31),
                       random_valid_moments(rng)])
        monkeypatch.setattr(verify, "random_valid_moments", lambda rng: next(tuples))
        res = check_threshold_near_optimality(n_tuples=3)
        assert not res.passed
        assert "max BER gap nan" in res.detail, res.detail

    def test_threshold_check_memory_is_bounded(self):
        """The check takes its tuples GRID_BATCH at a time; all 1000 of the
        default in one batch peaked at 39 MB traced."""
        import tracemalloc

        tracemalloc.start()
        try:
            res = check_threshold_near_optimality()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.passed, res.detail
        assert peak <= 8e6, f"traced peak {peak / 1e6:.1f} MB"


def _float_digest(values) -> str:
    return hashlib.sha256(",".join(float(v).hex() for v in values).encode()).hexdigest()


class TestExactBits:
    """The closed forms' exact bits, as sha256 over float.hex. Every CSV's
    closed-form columns rest on these bits, so a faster evaluation must keep
    the digests. They were taken on x86-64 Linux with CPython 3.11 and
    numpy 2.4, whose libm and random streams they assume."""

    def test_threshold_and_ber_on_random_moments(self):
        # 2000 tuples cover both closed-form roots of near_optimal_threshold:
        # the + root for delta0 < delta1 (980) and the - root otherwise (1020)
        rng = np.random.default_rng(0)
        values = []
        for _ in range(2000):
            m = random_valid_moments(rng)
            t = near_optimal_threshold(m)
            values += [t, ber_closed_form(m, t)]
        assert _float_digest(values) == (
            "a6945f665c938f5e0afad044439fc342125ce90ee9d8f46a664f3157c48d8775")

    def test_fading_averaged_curve_grid(self, paper_params):
        """The closed_form_curve benchmark's grid (Ps -60..30 dBm, both modes)
        on 40 channels: the draws, moments, thresholds and BERs; the + root
        serves 892 evaluations and the - root 628."""
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
            "31dacdcd662387da12d9d82bda7a17e35a104d26c98db91752bcba69bde11a99")


def _dc(name, params, p0, p1, noise):
    """One of the three deflection coefficients at the paper's gains and N = 75."""
    if name == "no_lna":
        return deflection_no_lna(p0, p1, noise, 75)
    if name == "approx":
        return deflection_lna_approx(p0, p1, params.beta1, noise, 75)
    return deflection_lna_full(p0, p1, params.beta1, params.beta3, noise, 75)


def _exact_dc(p0, p1, b1, b3, n_aw, n_samples):
    """(m1 - m0)^2 / var0 of the LNA moments, in exact rationals of the floats given."""
    p0, p1, b1, b3, n = map(Fraction, (p0, p1, b1, b3, n_aw))

    def mean(p):
        return b1 ** 2 * p + 4 * b1 * b3 * p ** 2 + 6 * b3 ** 2 * p ** 3 + n

    var0 = (b1 ** 4 * p0 ** 2 + 16 * b1 ** 3 * b3 * p0 ** 3 + 116 * b1 ** 2 * b3 ** 2 * p0 ** 4
            + 432 * b1 * b3 ** 3 * p0 ** 5 + 684 * b3 ** 4 * p0 ** 6 + 2 * b1 ** 2 * p0 * n
            + 8 * b1 * b3 * p0 ** 2 * n + 12 * b3 ** 2 * p0 ** 3 * n + n * n) / n_samples
    return (mean(p1) - mean(p0)) ** 2 / var0


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

    @pytest.mark.parametrize("dc", ["no_lna", "approx"])
    def test_every_dc_rejects_a_negative_power(self, paper_params, dc):
        # as the full DC does (above): through lna_moments
        with pytest.raises(ModelValidityError, match="nonnegative"):
            _dc(dc, paper_params, -1e-12, 1e-12, 1e-10)

    @pytest.mark.parametrize("dc", ["no_lna", "approx", "full"])
    def test_every_dc_rejects_a_negative_p1(self, paper_params, dc):
        # lna_moments judges p0 only, so the DC judges p1 itself
        with pytest.raises(ModelValidityError, match="nonnegative"):
            _dc(dc, paper_params, 1e-10, -1e-8, 1e-10)

    @pytest.mark.parametrize("dc,p1", [("no_lna", 1e200), ("approx", 1e200),
                                       ("full", 1e110), ("full", 1e200)])
    def test_out_of_range_power_raises_model_validity_error(self, paper_params, dc, p1):
        # never a bare OverflowError, an inf or a NaN
        with pytest.raises(ModelValidityError, match="numeric range"):
            _dc(dc, paper_params, 1e-10, p1, 1e-10)

    @pytest.mark.parametrize("p0", [1e-9, 1e-7, 1e-6, 3e-6])
    def test_every_dc_exact_when_p1_is_near_p0(self, paper_params, p0):
        # against rational arithmetic on the same floats: the difference of two
        # nearly equal means must not cancel
        b1, b3 = paper_params.beta1, paper_params.beta3
        for delta in (1e-3, 1e-6, 1e-9, 1e-12):
            p1 = p0 * (1 + delta)
            for dc, gains in (("no_lna", (1.0, 0.0)), ("approx", (b1, 0.0)), ("full", (b1, b3))):
                exact = _exact_dc(p0, p1, *gains, 1e-10, 75)
                got = _dc(dc, paper_params, p0, p1, 1e-10)
                assert abs(Fraction(got) - exact) <= Fraction(1e-14) * exact, (dc, p0, delta)

    def test_approx_and_no_lna_are_the_full_dc_at_their_gains(self, paper_params):
        rng = np.random.default_rng(4)
        for ps in (-20.0, 10.0, 60.0):
            p = replace(paper_params, ps_dbm=ps)
            for _ in range(50):
                r = draw_channels(p, rng)
                n_w, n_aw = dc_noise_powers(p, r.htr_abs2)
                assert deflection_lna_approx(r.p0, r.p1, p.beta1, n_aw, 75) \
                    == deflection_lna_full(r.p0, r.p1, p.beta1, 0.0, n_aw, 75)
                assert deflection_no_lna(r.p0, r.p1, n_w, 75) \
                    == deflection_lna_full(r.p0, r.p1, 1.0, 0.0, n_w, 75)

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

import math
from dataclasses import replace

import numpy as np
import pytest

from ambclink import UndefinedRatioError
from ambclink.channel import ChannelRealization, bdpr, draw_channels

N_DRAWS = 200_000  # 1% tolerance targets leave ~3x headroom at this size


def _bits(x):
    """The exact bits of a float or of a complex's two parts."""
    x = complex(x)
    return x.real.hex(), x.imag.hex()


def _draw_many(params, seed, n=N_DRAWS):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [draw_channels(params, rng) for _ in range(n)]


@pytest.fixture(scope="module")
def draws(paper_params):
    return _draw_many(paper_params, 101)


class TestDrawChannels:
    def test_variance_matches_path_loss(self, paper_params, draws):
        expected = {
            "h0": paper_params.r0 ** -paper_params.v0,
            "hst": paper_params.rst ** -paper_params.vst,
            "htr": paper_params.rtr ** -paper_params.vtr,
        }
        for name, target in expected.items():
            mean_sq = np.mean([abs(getattr(r, name)) ** 2 for r in draws])
            assert mean_sq == pytest.approx(target, rel=0.01)

    def test_zero_mean(self, paper_params, draws):
        h0 = np.array([r.h0 for r in draws])
        scale = math.sqrt(paper_params.r0 ** -paper_params.v0 / 2 / len(draws))
        assert abs(h0.real.mean()) < 4 * scale
        assert abs(h0.imag.mean()) < 4 * scale

    def test_real_imag_uncorrelated(self, draws):
        h0 = np.array([r.h0 for r in draws])
        corr = np.corrcoef(h0.real, h0.imag)[0, 1]
        assert abs(corr) < 4 / math.sqrt(len(draws))

    def test_composite_gain_identity(self, paper_params, draws):
        for r in draws[:200]:
            expected = r.h0 + paper_params.alpha_amp * r.hst * r.htr
            assert r.h1 == expected
            assert r.p0 == abs(r.h0) ** 2 * paper_params.ps
            assert r.p1 == abs(r.h1) ** 2 * paper_params.ps

    def test_composite_mean_power(self, paper_params, draws):
        p = paper_params
        expected = p.r0 ** -p.v0 + p.alpha_amp ** 2 * p.rst ** -p.vst * p.rtr ** -p.vtr
        mean_sq = np.mean([abs(r.h1) ** 2 for r in draws])
        assert mean_sq == pytest.approx(expected, rel=0.015)

    def test_negligible_tag_coefficient_collapses_hypotheses(self, paper_params):
        p = replace(paper_params, alpha_db=-300.0)
        rng = np.random.default_rng(7)
        for _ in range(100):
            r = draw_channels(p, rng)
            assert r.h1 == pytest.approx(r.h0, rel=1e-12)
            assert r.p1 == pytest.approx(r.p0, rel=1e-12)

    @pytest.mark.parametrize("scenario", [{}, {"r0": 7.0, "v0": 2.2, "rst": 3.0, "vst": 3.7,
                                           "rtr": 1.0, "vtr": 1.5, "alpha_db": -13.0}],
                             ids=["paper", "other-gains"])
    def test_stream_is_six_scalar_normal_draws(self, paper_params, scenario):
        """draw_channels takes one call of six standard normals: bit for bit
        the values of six rng.normal(0, s) calls, h0, hst, htr in turn, real
        part first, and the generator is left in the same state."""
        p = replace(paper_params, **scenario)
        for seed in range(150):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            real = draw_channels(p, rng)
            parts = []
            for r, v in ((p.r0, p.v0), (p.rst, p.vst), (p.rtr, p.vtr)):
                s = math.sqrt(r ** -v / 2.0)
                parts.append(complex(ref.normal(0.0, s), ref.normal(0.0, s)))
            h0, hst, htr = parts
            h1 = h0 + p.alpha_amp * hst * htr
            expected = (h0, hst, htr, h1, abs(h0) ** 2 * p.ps, abs(h1) ** 2 * p.ps)
            got = (real.h0, real.hst, real.htr, real.h1, real.p0, real.p1)
            assert [_bits(x) for x in got] == [_bits(x) for x in expected]
            assert real.htr_abs2 == abs(htr) ** 2
            assert rng.random() == ref.random()

    def test_deterministic_for_seed(self, paper_params):
        a = _draw_many(paper_params, 55, n=50)
        b = _draw_many(paper_params, 55, n=50)
        for ra, rb in zip(a, b):
            assert ra == rb


class TestBdpr:
    def _real(self, params, h0, hst, htr):
        h1 = h0 + params.alpha_amp * hst * htr
        return ChannelRealization(
            h0=h0, hst=hst, htr=htr, h1=h1,
            p0=abs(h0) ** 2 * params.ps, p1=abs(h1) ** 2 * params.ps,
        )

    def test_equal_powers_zero_db(self, paper_params):
        a = paper_params.alpha_amp
        r = self._real(paper_params, 1.0 + 0j, 1.0 / a + 0j, 1.0 + 0j)
        assert bdpr(r, paper_params) == pytest.approx(0.0, abs=1e-12)

    def test_ten_times_smaller_amplitude_is_minus_twenty(self, paper_params):
        a = paper_params.alpha_amp
        r = self._real(paper_params, 1.0 + 0j, 0.1 / a + 0j, 1.0 + 0j)
        assert bdpr(r, paper_params) == pytest.approx(-20.0, abs=1e-9)

    def test_zero_direct_gain_errors(self, paper_params):
        r = self._real(paper_params, 0j, 1.0 + 0j, 1.0 + 0j)
        with pytest.raises(UndefinedRatioError):
            bdpr(r, paper_params)

    @pytest.mark.parametrize("hst, htr", [(0j, 1.0 + 0j), (1.0 + 0j, 0j)],
                             ids=["hst", "htr"])
    def test_zero_backscatter_gain_errors(self, paper_params, hst, htr):
        # log10(0) would raise a bare ValueError: math domain error
        r = self._real(paper_params, 1.0 + 0j, hst, htr)
        with pytest.raises(UndefinedRatioError, match="backscatter"):
            bdpr(r, paper_params)


def _with_bdpr(params, target, rng):
    """A draw, its hst rescaled to the target BDPR."""
    return draw_channels(params, rng).at_operating_point(params, target)


class TestChannelsWithBdpr:
    def test_hits_target(self, paper_params):
        rng = np.random.default_rng(11)
        for target in (-30.0, -20.0, -10.0, 0.0):
            r = _with_bdpr(paper_params, target, rng)
            assert bdpr(r, paper_params) == pytest.approx(target, abs=1e-9)

    def test_zero_db_amplitude_identity(self, paper_params):
        rng = np.random.default_rng(12)
        r = _with_bdpr(paper_params, 0.0, rng)
        assert paper_params.alpha_amp * abs(r.hst * r.htr) == pytest.approx(
            abs(r.h0), rel=1e-10
        )

    def test_only_hst_rescaled(self, paper_params):
        base = draw_channels(paper_params, np.random.default_rng(13))
        pinned = _with_bdpr(paper_params, -20.0, np.random.default_rng(13))
        assert pinned.h0 == base.h0
        assert pinned.htr == base.htr
        assert pinned.hst != base.hst

    def test_non_finite_target_rejected(self, paper_params):
        with pytest.raises(UndefinedRatioError):
            _with_bdpr(paper_params, math.inf, np.random.default_rng(1))

import hashlib
import math
import pickle
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ambclink import UndefinedRatioError, channel
from ambclink.channel import ChannelRealization, bdpr, channel_table, draw_channels

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


def test_a_realization_is_an_immutable_value(paper_params):
    # built by keyword, equal to its pickled copy, and neither a field nor the
    # derived |htr|^2 can be set
    real = draw_channels(paper_params, np.random.default_rng(3))
    assert ChannelRealization(h0=real.h0, hst=real.hst, htr=real.htr, h1=real.h1,
                              p0=real.p0, p1=real.p1) == real
    assert pickle.loads(pickle.dumps(real)) == real
    for name in ("h0", "p1", "htr_abs2", "other"):
        with pytest.raises(AttributeError):
            setattr(real, name, 0.0)


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


def _normals(master, n):
    """The six standard normals of channels (master, r, 1), r < n, as the
    sweeps seed them: one column per realization."""
    return np.array([np.random.default_rng(np.random.SeedSequence((master, r, 1)))
                     .standard_normal(6) for r in range(n)]).T


class TestChannelTable:
    """channel_table composes each of a block's channels through the text
    that composes one ChannelRealization, so both give the same bits."""

    @pytest.mark.parametrize("scenario", [{}, {"r0": 7.0, "v0": 2.2, "rst": 3.0, "vst": 3.7,
                                           "rtr": 1.0, "vtr": 1.5, "alpha_db": -13.0}],
                             ids=["paper", "other-gains"])
    def test_gains_are_those_of_each_realization(self, paper_params, scenario):
        # 5 masters x 2000 realizations x 6 BDPR targets x 3 gains; numpy's
        # complex product and abs, and its squares, would each miss some
        p = replace(paper_params, **scenario)
        for master in range(5):
            drawn = [draw_channels(p, np.random.default_rng(np.random.SeedSequence((master, r, 1))))
                     for r in range(2000)]
            normals = _normals(master, 2000)
            for target in (None, -30.0, 0.0, 17.3, 150.0, -150.0):
                reals = [real.at_operating_point(p, target) for real in drawn]
                want = np.array([(abs(r.h0) ** 2, abs(r.h1) ** 2, r.htr_abs2) for r in reals]).T
                got = channel_table(p, normals, target)
                assert got.shape == (3, 2000)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (master, target)

    @pytest.mark.parametrize("normals, digest", [
        (_normals(6, 1), "4012292876c3df41cf1dcc0b17d5d092993067404a092e6b362e45520761b6ea"),
        (_normals(6, 10), "921446aa83603a1decc18c09f7f52f59070e486474b5a1e1964f7ad512e222bd"),
        (_normals(6, 10).T, None), (_normals(6, 2).ravel(), None),
        (_normals(6, 2)[..., None], None)], ids=["6x1", "6x10", "10x6", "12", "6x2x1"])
    def test_normals_are_six_rows_of_realizations(self, paper_params, normals, digest):
        # a reshape would read any 6R numbers as (6, R), so a transposed or
        # flat array would compose scrambled channels without an error
        if digest is None:
            shape = re.escape(str(normals.shape))
            with pytest.raises(ValueError, match=rf"normals .* got {shape}"):
                channel_table(paper_params, normals)
        else:
            got = channel_table(paper_params, normals)
            assert got.shape == (3, normals.shape[1])
            assert hashlib.sha256(got.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("rows, match", [((2, 3), "backscatter"), ((4, 5), "backscatter"),
                                             ((0, 1), r"\|h0\| = 0")],
                             ids=["hst", "htr", "h0"])
    def test_a_zero_gain_with_a_target_raises_what_bdpr_raises(self, paper_params, rows, match):
        # log10(0) would raise a bare ValueError: math domain error
        normals = _normals(3, 4)
        normals[rows, 2] = 0.0
        with pytest.raises(UndefinedRatioError, match=match) as raised:
            channel_table(paper_params, normals, -20.0)
        column = SimpleNamespace(standard_normal=lambda size: normals[:, 2])
        real = draw_channels(paper_params, column)    # the float call on the same normals
        with pytest.raises(UndefinedRatioError) as float_call:
            bdpr(real, paper_params)
        assert str(raised.value) == str(float_call.value)
        assert channel_table(paper_params, normals).shape == (3, 4)   # no target, no ratio

    @pytest.mark.parametrize("target", [None, -20.0])
    def test_each_realization_is_composed_once_per_operating_point(
            self, paper_params, monkeypatch, target):
        # a target rescales hst inside the one composition
        calls, compose = [], channel._compose

        def counting(*args):
            calls.append(args)
            return compose(*args)

        monkeypatch.setattr(channel, "_compose", counting)
        assert channel_table(paper_params, _normals(4, 7), target).shape == (3, 7)
        assert len(calls) == 7

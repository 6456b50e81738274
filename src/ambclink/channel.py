"""Quasi-static Rayleigh channel draws with distance-based path loss, composed
once per operating point by one text on Python numbers, _compose."""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .config import SystemParams
from .errors import UndefinedRatioError


class ChannelRealization(NamedTuple):
    """One coherence interval's channel state.

    h1 = h0 + alpha_amp * hst * htr; p_i = |h_i|^2 * Ps (watts).
    """

    h0: complex
    hst: complex
    htr: complex
    h1: complex
    p0: float
    p1: float

    @property
    def htr_abs2(self) -> float:
        return abs(self.htr) ** 2

    def at_operating_point(self, params: SystemParams,
                           target_bdpr_db: float | None = None) -> ChannelRealization:
        """The drawn h0, hst, htr composed under `params`, as _compose does."""
        return _compose(params, self.h0, self.hst, self.htr, target_bdpr_db)


def _compose(params: SystemParams, h0: complex, hst: complex, htr: complex,
             target_bdpr_db: float | None = None) -> ChannelRealization:
    """The one composition of h0, hst, htr, under `params` (its Ps and tag gain).
    A target first rescales hst so bdpr() hits it exactly; h0 and htr stay."""
    if target_bdpr_db is not None:
        if not math.isfinite(target_bdpr_db):
            raise UndefinedRatioError(f"target BDPR must be finite, got {target_bdpr_db!r}")
        hst = hst * 10.0 ** ((target_bdpr_db - bdpr((h0, hst, htr), params)) / 20.0)
    h1 = h0 + params.alpha_amp * hst * htr
    ps = params.ps
    return ChannelRealization(h0, hst, htr, h1, abs(h0) ** 2 * ps, abs(h1) ** 2 * ps)


def _from_normals(params: SystemParams, normals: list,
                  target_bdpr_db: float | None = None) -> ChannelRealization:
    """h0, hst, htr from six standard normals, real then imaginary part of each
    times params.cn_scales: the values of six `rng.normal(0, s)` calls (0 + s*z)."""
    x0, y0, xst, yst, xtr, ytr = normals
    s0, sst, s_tr = params.cn_scales
    return _compose(params, complex(s0 * x0, s0 * y0), complex(sst * xst, sst * yst),
                    complex(s_tr * xtr, s_tr * ytr), target_bdpr_db)


def draw_channels(params: SystemParams, rng: np.random.Generator) -> ChannelRealization:
    """Draw h0, hst, htr independently from CN(0, r^-v) from six standard normals."""
    return _from_normals(params, rng.standard_normal(6).tolist())


def channel_table(params: SystemParams, normals: np.ndarray,
                  target_bdpr_db: float | None = None) -> np.ndarray:
    """|h0|^2, |h1|^2 and |htr|^2, of shape (3, realizations), of the channels
    draw_channels draws from the six standard normals normals[:, r], each composed
    once, at the target and Ps = 1 W: a gain times a Ps is the power. `normals`
    must be (6, realizations); a transposed (6, 6) array cannot be told apart."""
    if np.ndim(normals) != 2 or len(normals) != 6:
        raise ValueError(f"normals must have shape (6, realizations), got {np.shape(normals)}")
    unit = replace(params, ps_dbm=30.0)
    reals = [_from_normals(unit, column, target_bdpr_db)
             for column in np.transpose(normals).tolist()]
    return np.array([(real.p0, real.p1, real.htr_abs2) for real in reals]).reshape(-1, 3).T


def aligned_channel(params: SystemParams, direct_gain: float) -> ChannelRealization:
    """A channel with |h0|^2 at `direct_gain` times its mean r0^-v0, |htr|^2 at its
    mean rtr^-vtr and hst = 1, all in phase: rescaled to a BDPR by at_operating_point,
    it carries the largest |h1| that BDPR allows at that |h0|."""
    h0 = complex(math.sqrt(direct_gain * params.r0 ** -params.v0))
    return _compose(params, h0, 1 + 0j, complex(math.sqrt(params.rtr ** -params.vtr)))


def bdpr(real: ChannelRealization, params: SystemParams) -> float:
    """Backscatter-to-direct-link power ratio in dB of a realization, or of its
    (h0, hst, htr). Raises UndefinedRatioError when either gain is 0."""
    h0, hst, htr = real[:3]
    direct = abs(h0) ** 2
    if direct == 0.0:
        raise UndefinedRatioError("BDPR undefined: |h0| = 0")
    back = params.alpha_amp ** 2 * abs(hst) ** 2 * abs(htr) ** 2
    if back == 0.0:
        raise UndefinedRatioError("BDPR undefined: the backscatter gain is 0")
    return 10.0 * math.log10(back / direct)

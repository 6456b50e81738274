"""Quasi-static Rayleigh channel draws with distance-based path loss."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import SystemParams
from .errors import UndefinedRatioError


@dataclass(frozen=True)
class ChannelRealization:
    """One coherence interval's channel state.

    h1 = h0 + alpha_amp * hst * htr; p_i = |h_i|^2 * Ps (watts).
    """

    h0: complex
    hst: complex
    htr: complex
    h1: complex
    p0: float
    p1: float

    @cached_property
    def htr_abs2(self) -> float:
        return abs(self.htr) ** 2

    def at_operating_point(self, params: SystemParams,
                           target_bdpr_db: float | None = None) -> ChannelRealization:
        """The drawn h0, hst, htr composed under `params` (its Ps and tag
        gain). With a target, hst is first rescaled so bdpr() hits it
        exactly; h0 and htr keep their drawn values."""
        hst = self.hst
        if target_bdpr_db is not None:
            if not math.isfinite(target_bdpr_db):
                raise UndefinedRatioError(f"target BDPR must be finite, got {target_bdpr_db!r}")
            hst = hst * 10.0 ** ((target_bdpr_db - bdpr(self, params)) / 20.0)
        return _compose(params, self.h0, hst, self.htr)


def _compose(params: SystemParams, h0: complex, hst: complex, htr: complex) -> ChannelRealization:
    h1 = h0 + params.alpha_amp * hst * htr
    ps = params.ps
    return ChannelRealization(
        h0=h0, hst=hst, htr=htr, h1=h1,
        p0=abs(h0) ** 2 * ps, p1=abs(h1) ** 2 * ps,
    )


def draw_channels(params: SystemParams, rng: np.random.Generator) -> ChannelRealization:
    """Draw h0, hst, htr independently from CN(0, r^-v): real, then imaginary
    part of each, scaled from one call of six standard normals (the values of
    six `rng.normal(0, s)` calls, which compute 0 + s*z)."""
    x0, y0, xst, yst, xtr, ytr = rng.standard_normal(6).tolist()
    s0, sst, s_tr = (math.sqrt(r ** -v / 2.0) for r, v in
                     ((params.r0, params.v0), (params.rst, params.vst), (params.rtr, params.vtr)))
    return _compose(params, complex(s0 * x0, s0 * y0), complex(sst * xst, sst * yst),
                    complex(s_tr * xtr, s_tr * ytr))


def aligned_channel(params: SystemParams, direct_gain: float) -> ChannelRealization:
    """A channel with |h0|^2 at `direct_gain` times its mean r0^-v0, |htr|^2 at
    its mean rtr^-vtr and hst = 1, all in phase: rescaled to a BDPR by
    at_operating_point, it carries the largest |h1| that BDPR allows at that
    |h0|."""
    h0 = complex(math.sqrt(direct_gain * params.r0 ** -params.v0))
    return _compose(params, h0, 1 + 0j, complex(math.sqrt(params.rtr ** -params.vtr)))


def bdpr(real: ChannelRealization, params: SystemParams) -> float:
    """Backscatter-to-direct-link power ratio in dB. Raises
    UndefinedRatioError when either gain is 0."""
    direct = abs(real.h0) ** 2
    if direct == 0.0:
        raise UndefinedRatioError("BDPR undefined: |h0| = 0")
    back = params.alpha_amp ** 2 * abs(real.hst) ** 2 * abs(real.htr) ** 2
    if back == 0.0:
        raise UndefinedRatioError("BDPR undefined: the backscatter gain is 0")
    return 10.0 * math.log10(back / direct)


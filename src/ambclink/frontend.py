"""Per-symbol energy statistics for a frame of tag symbols.

`draw_energies` draws each symbol's energy statistic directly from its exact
distribution, for symbols of any shape; `frame_energies` is its one-frame
entry point. `generate_frame` builds the same statistic from K*N baseband
samples and is kept as the sample-level reference for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import noise_power
from .channel import ChannelRealization
from .config import MODES, NO_LNA, SystemParams

SAMPLER_CHUNK = 2 ** 15  # exponential samples the LNA sampler holds at once


@dataclass(frozen=True)
class SymbolFrame:
    """A generated frame: K*N complex samples and K energy statistics."""

    samples: np.ndarray     # (K*N,) complex
    energies: np.ndarray    # (K,) float, watts


def symbol_energies(samples: np.ndarray, n_samples: int) -> np.ndarray:
    """Per-symbol average energy: mean |y|^2 over each block of N samples."""
    samples = np.asarray(samples)
    if n_samples < 1 or samples.size % n_samples != 0:
        raise ValueError(
            f"sample count {samples.size} is not a multiple of n_samples={n_samples}"
        )
    blocks = samples.reshape(-1, n_samples)
    return np.mean(np.abs(blocks) ** 2, axis=1)


def _checked_bits(params: SystemParams, bits, mode: str) -> np.ndarray:
    """The frame's bits as an int array, after the checks both samplers share."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.size != params.k_symbols:
        raise ValueError(f"bits must have length K={params.k_symbols}, got {bits.size}")
    # checked before the cast, which would truncate 0.5 to a valid 0
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("bits must be 0/1 valued")
    return bits.astype(np.int64, copy=False)


def _draw_cn_block(rng: np.random.Generator, variance: float, shape) -> np.ndarray:
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def generate_frame(
    params: SystemParams,
    real: ChannelRealization,
    bits: np.ndarray,
    rng: np.random.Generator,
    mode: str,
) -> SymbolFrame:
    """Generate the K*N received samples for one frame, channel held fixed.

    no_lna: y = g*s + (w_ar + w_cov + alpha*htr*d*w_at), g = h0 + alpha*hst*htr*d
    lna:    y = beta1*g*s + beta3*(g*s)|g*s|^2
                + (beta1*w_ar + w_cov + beta1*alpha*htr*d*w_at)
    The cubic distortion acts on the noiseless signal component only.
    """
    bits = _checked_bits(params, bits, mode)
    n = params.n_samples
    total = bits.size * n
    d = np.repeat(bits, n)                   # sample-level tag symbol
    alpha = params.alpha_amp
    g = real.h0 + alpha * real.hst * real.htr * d

    s = _draw_cn_block(rng, params.ps, total)
    w_ar = _draw_cn_block(rng, params.n_ar, total)
    w_cov = _draw_cn_block(rng, params.n_cov, total)
    w_at = _draw_cn_block(rng, params.n_at, total)

    if mode == NO_LNA:
        y = g * s + w_ar + w_cov + alpha * real.htr * d * w_at
    else:
        x = g * s
        y = (params.beta1 * x + params.beta3 * x * np.abs(x) ** 2
             + params.beta1 * w_ar + w_cov
             + params.beta1 * alpha * real.htr * d * w_at)

    return SymbolFrame(samples=y, energies=symbol_energies(y, n))


def frame_energies(
    params: SystemParams,
    real: ChannelRealization,
    bits: np.ndarray,
    rng: np.random.Generator,
    mode: str,
) -> np.ndarray:
    """The K energy statistics of one frame, drawn from exactly the
    distribution of `generate_frame(...).energies` (see `draw_energies`)."""
    bits = _checked_bits(params, bits, mode)
    noise = [noise_power(params, real.htr_abs2, d, mode) for d in (0, 1)]
    return draw_energies(params, bits, (real.p0, real.p1), noise, rng, mode)


def draw_energies(params: SystemParams, bits: np.ndarray, power, noise,
                  rng: np.random.Generator, mode: str) -> np.ndarray:
    """Energy statistics of symbols `bits` (0/1, any shape), whose input
    power and d-gated noise power under bit d are power[d] and noise[d]:
    scalars, or arrays that broadcast against `bits`.

    With p_d the input power and n_d the noise power of symbol d:
    no_lna: y is CN(0, p_d + n_d), so the energy is Gamma(N, (p_d + n_d)/N).
    lna:    the phase of x = g*s does not matter (the noise is circular), so
            draw Z_k = |x_k|^2 ~ Exp(p_d) and set A = sum_k Z_k (beta1 + beta3 Z_k)^2.
            Given Z, sum_k |a_k + w_k|^2 with w ~ CN(0, n_d) is
            (n_d/2) chi'^2_{2N}(2A/n_d), so the energy is that over N.
            Where 2A/n_d is not finite (n_d underflowed to 0 W) the energy
            is its exact limit A/N.
    The exponentials are drawn in chunks of at most SAMPLER_CHUNK samples,
    all before the chi-square draws, so memory stays bounded and the draws
    do not depend on the chunk size.
    """
    one = bits == 1
    power = np.where(one, power[1], power[0])
    noise = np.where(one, noise[1], noise[0])
    n = params.n_samples
    if mode == NO_LNA:
        return rng.gamma(n, (power + noise) / n)
    a = np.empty(power.shape)
    flat_power, flat_a = power.reshape(-1), a.reshape(-1)
    rows = max(1, SAMPLER_CHUNK // n)
    for start in range(0, flat_power.size, rows):
        stop = min(start + rows, flat_power.size)
        z = rng.standard_exponential((stop - start, n))
        z *= flat_power[start:stop, None]
        t = params.beta3 * z
        t += params.beta1
        t *= t
        t *= z
        t.sum(axis=1, out=flat_a[start:stop])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        nonc = 2.0 * a / noise
    finite = np.isfinite(nonc)
    chi2 = rng.noncentral_chisquare(2 * n, np.where(finite, nonc, 0.0))
    return np.where(finite, noise / (2 * n) * chi2, a / n)

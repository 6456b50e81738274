"""Per-symbol energy statistics for a frame of tag symbols.

`draw_energies` draws each symbol's energy statistic directly from its exact
distribution, for symbols of any shape. It draws the symbols' variates first
(`draw_lna_variates`, in either mode), which do not depend on the powers, and
turns them into energies with `energies_from_variates`; the sweeps draw the
variates once and take the energies at every point and mode, so the two
modes are paired sample by sample. `generate_frame` builds the same
statistic from K*N baseband samples and is kept as the sample-level
reference for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import noise_levels
from .channel import ChannelRealization
from .config import NO_LNA, SystemParams, check_mode

SAMPLER_CHUNK = 2 ** 15  # exponential samples the LNA sampler holds at once
FRAME_BLOCK = 2 ** 13    # samples generate_frame computes at once, so its arrays stay in cache


def generate_frame(
    params: SystemParams,
    real: ChannelRealization,
    bits: np.ndarray,
    rng: np.random.Generator,
    mode: str,
) -> np.ndarray:
    """The K energy statistics of one frame, built from its K*N received
    samples, channel held fixed.

    y = beta1*g*s + beta3*(g*s)|g*s|^2 + (beta1*w_ar + w_cov + beta1*alpha*htr*d*w_at)
    with g the realization's own h0 under bit 0 and h1 under bit 1. Without the
    LNA, beta1 = 1 and beta3 = 0: y = g*s + (w_ar + w_cov + alpha*htr*d*w_at), to
    the bit. The cubic distortion acts on the noiseless signal component only.
    The three noises are independent circular Gaussians, so their sum is drawn
    as one, CN(0, a^2 n_ar + n_cov + a^2 alpha^2 |htr|^2 d n_at) with a = beta1
    (a = 1 without the LNA), the level of analysis.noise_levels: s first, then
    one unit CN block scaled per sample, 4 normals a sample.

    The samples sit on a (K, N) layout: each bit's g and noise SD are taken
    once and broadcast over its symbol's N samples, and the arithmetic runs
    in place, FRAME_BLOCK samples at a time. Every float operation has the
    operands, in the order, of the per-sample expression above (numpy
    rounds g*s and s*g differently).
    """
    check_mode(mode)
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.size != params.k_symbols:
        raise ValueError(f"bits must have length K={params.k_symbols}, got {bits.size}")
    d = _zero_one(bits)[:, None]
    g = np.array([real.h0, real.h1])   # under bits 0, 1
    sigma = np.sqrt(noise_levels(params, real.htr_abs2, mode))

    z = rng.standard_normal((4, bits.size, params.n_samples))  # s's re, im; w's re, im
    rows = max(1, FRAME_BLOCK // params.n_samples)
    return np.concatenate([
        _block_energies(params, mode, z[:, k:k + rows], g[d[k:k + rows]], sigma[d[k:k + rows]])
        for k in range(0, bits.size, rows)])


def _zero_one(bits: np.ndarray) -> np.ndarray:
    """The one 0/1 rule for bits, checked before the cast to int64 truncates 0.5 to 0."""
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("bits must be 0/1 valued")
    return bits.astype(np.int64, copy=False)


def _block_energies(params: SystemParams, mode: str, z: np.ndarray, g: np.ndarray,
                    sigma: np.ndarray) -> np.ndarray:
    """The energies of a block of generate_frame's symbols, from their
    normals z (4, rows, N) and each symbol's gain g and noise SD sigma
    (rows, 1). z[0] is overwritten."""
    s, w = (_cn(scale, z[i], z[i + 1]) for scale, i in
            ((math.sqrt(params.ps / 2.0), 0), (math.sqrt(1.0 / 2.0), 2)))
    np.multiply(sigma, w, out=w)
    x = np.multiply(g, s, out=s)
    beta1, beta3 = (1.0, 0.0) if mode == NO_LNA else (params.beta1, params.beta3)
    cubic = np.multiply(beta3, x)
    x2 = np.square(np.abs(x, out=z[0]), out=z[0])
    np.multiply(cubic, x2, out=cubic)
    y = np.multiply(beta1, x, out=x)
    np.add(y, cubic, out=y)
    np.add(y, w, out=y)
    return np.mean(np.square(np.abs(y, out=z[0]), out=z[0]), axis=1)


def _cn(scale: float, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """scale * (re + 1j*im), the circular Gaussian of standard normals re, im."""
    out = np.multiply(1j, im)
    np.add(re, out, out=out)
    return np.multiply(scale, out, out=out)


@dataclass(frozen=True)
class LnaVariates:
    """What the energy of symbols of some shape needs of their random draws,
    in either mode, each array of that shape: s1, s2, s3 the sums of e, e^2,
    e^3 over the symbol's N standard exponentials e, g a standard
    Gamma(N - 1/2) and z a standard normal. Without the LNA (beta3 = 0) only
    s1, g and z are read."""

    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    g: np.ndarray
    z: np.ndarray


def draw_lna_variates(n_samples: int, shape, rng: np.random.Generator) -> LnaVariates:
    """The variates of symbols of `shape`, which both modes read: first the
    exponentials, in chunks of at most SAMPLER_CHUNK samples reduced to their
    sums in place, so memory stays bounded and the draws do not depend on the
    chunk size; then every g, then every z."""
    sums = [np.empty(shape) for _ in range(3)]
    s1, s2, s3 = (s.reshape(-1) for s in sums)
    rows = max(1, SAMPLER_CHUNK // n_samples)
    buf = np.empty((2, min(rows, s1.size), n_samples))
    for start in range(0, s1.size, rows):
        stop = min(start + rows, s1.size)
        e = rng.standard_exponential(out=buf[0, :stop - start])
        t = np.multiply(e, e, out=buf[1, :stop - start])
        np.einsum("ij->i", e, out=s1[start:stop])
        np.einsum("ij->i", t, out=s2[start:stop])
        np.einsum("ij,ij->i", t, e, out=s3[start:stop])
    buf = e = t = None      # frees the chunk buffers before g and z are drawn
    return LnaVariates(*sums, rng.standard_gamma(n_samples - 0.5, shape),
                       rng.standard_normal(shape))


def energies_from_variates(params: SystemParams, bits: np.ndarray, power, noise,
                           mode: str, variates: LnaVariates) -> np.ndarray:
    """Energy statistics of symbols `bits` (0s and 1s of any shape, a list
    too, else ValueError), whose input power and d-gated noise power under
    bit d are power[d] and noise[d]: scalars, or arrays that broadcast
    against `bits`. `variates` are the symbols' LnaVariates, in either mode.

    With p_d the input power and n_d the noise power of symbol d: the phase
    of x = g*s does not matter (the noise is circular), so Z_k = |x_k|^2 =
    p_d e_k with e_k standard exponential, and
        A = sum_k Z_k (beta1 + beta3 Z_k)^2
          = beta1^2 p_d s1 + 2 beta1 beta3 p_d^2 s2 + beta3^2 p_d^3 s3,
    with beta1 = 1 and beta3 = 0 without the LNA, as in generate_frame.
    Where beta3 = 0 the s2 and s3 terms are skipped: A = beta1^2 p_d s1.
    Given Z, sum_k |a_k + w_k|^2 with w ~ CN(0, n_d) is
    (n_d/2) chi'^2_{2N}(2A/n_d), and chi'^2_{2N}(lam) is 2 g + (z + sqrt(lam))^2,
    so the energy is that over N. Without the LNA this is exact: given s1 it
    is that noncentral chi-square, and unconditionally Gamma(N, (p_d + n_d)/N).
    Where 2A/n_d is not finite (n_d underflowed to 0 W) the energy is its
    exact limit A/N. The factors of p_d and n_d are formed before the
    per-symbol pick, on the (realization, bit) levels."""
    one = _zero_one(np.asarray(bits)) == 1
    n = params.n_samples
    b1, b3 = (1.0, 0.0) if mode == NO_LNA else (params.beta1, params.beta3)

    def pick(f):        # f of each bit's power, picked per symbol
        return np.where(one, f(power[1]), f(power[0]))

    # computed in place, beside the variates every case shares
    a = pick(lambda p: b1 * b1 * p)
    a *= variates.s1
    if b3:          # else A = beta1^2 p s1, as without the LNA
        for f, s in ((lambda p: 2.0 * b1 * b3 * (p * p), variates.s2),
                     (lambda p: b3 * b3 * (p * p * p), variates.s3)):
            term = pick(f)
            term *= s
            a += term
        np.maximum(a, 0.0, out=a)   # the sum is >= 0; its cancellation may round below
    noise = np.where(one, noise[1], noise[0])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        chi2 = np.multiply(a, 2.0)
        chi2 /= noise               # the noncentrality 2A/n
    not_finite = ~np.isfinite(chi2)
    np.copyto(chi2, 0.0, where=not_finite)
    np.sqrt(chi2, out=chi2)
    chi2 += variates.z
    chi2 *= chi2
    chi2 += variates.g * 2.0
    noise /= 2 * n
    chi2 *= noise
    np.divide(a, n, out=chi2, where=not_finite)
    return chi2


def draw_energies(params: SystemParams, bits: np.ndarray, power, noise,
                  rng: np.random.Generator, mode: str) -> np.ndarray:
    """Energy statistics of symbols `bits` (0s and 1s, else ValueError), as
    energies_from_variates takes them, drawn from `rng`: variates, then energies."""
    check_mode(mode)
    bits = _zero_one(np.asarray(bits))
    variates = draw_lna_variates(params.n_samples, bits.shape, rng)
    return energies_from_variates(params, bits, power, noise, mode, variates)

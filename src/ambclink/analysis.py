"""Closed-form detection results: energy-statistic moments, BER, near-optimal
threshold, and deflection coefficients (floats only, one text at three gains).

The moments, the threshold and the BER take Python floats or numpy arrays
alike, through one text of +, -, *, / and sqrt, which IEEE 754 rounds
correctly: an array element gets the bits of the float call on its values.
Powers are products; log and erfc run through math, once per element of an
array. Where a float call raises ModelValidityError or NoSeparationError,
an array call marks the element NaN.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .channel import ChannelRealization
from .config import LNA, NO_LNA, SystemParams, check_mode, is_int_in
from .errors import ModelValidityError, NoSeparationError


class HypothesisMoments(namedtuple("HypothesisMoments", "delta0 delta1 var0 var1")):
    """Means (W) and variances (W^2) of the energy statistic under H0 and H1:
    floats, which must be finite with positive variances, or arrays of one
    value per element, where an element that is not is marked NaN."""

    __slots__ = ()

    def __new__(cls, delta0, delta1, var0, var1):
        if isinstance(delta0, np.ndarray):
            ok = (np.isfinite(delta0) & np.isfinite(delta1) & np.isfinite(var0)
                  & np.isfinite(var1) & (var0 > 0) & (var1 > 0))
            delta0, delta1, var0, var1 = (np.where(ok, x, np.nan)
                                          for x in (delta0, delta1, var0, var1))
        elif not (math.isfinite(delta0) and math.isfinite(delta1)
                  and 0 < var0 < math.inf and 0 < var1 < math.inf):
            raise ModelValidityError(
                f"hypothesis variances must be finite and positive, got ({var0}, {var1})")
        return super().__new__(cls, delta0, delta1, var0, var1)

    @classmethod
    def _make(cls, iterable):   # _replace builds through it: check the new values too
        return cls(*iterable)


def noise_levels(params: SystemParams, htr_abs2, mode: str) -> tuple:
    """Effective additive noise power under bits 0 and 1; the bit gates the tag noise."""
    check_mode(mode)
    a2 = 1.0 if mode == NO_LNA else params.beta1 ** 2     # the receiver's power gain
    floor = a2 * params.n_ar + params.n_cov
    tag = params.alpha_amp ** 2 * htr_abs2 * params.n_at   # times 0 keeps its shape, and NaN
    return floor + a2 * (tag * 0), floor + a2 * (tag * 1)


def _checked_moments(p, n_samples: int, sums, *args):
    """(mean, var_sum / N) of sums(p, *args) for both moment forms: a float call
    raises where p < 0 or they are not finite with var > 0, an array call marks that element NaN."""
    if isinstance(p, np.ndarray):   # an element that overflows is marked NaN, quietly
        with np.errstate(over="ignore", invalid="ignore"):
            mean, var_sum = sums(p, *args)
    else:
        mean, var_sum = sums(p, *args)
    var = var_sum / n_samples
    if isinstance(mean, np.ndarray):
        ok = (p >= 0) & np.isfinite(mean) & np.isfinite(var) & (var > 0)
        return np.where(ok, mean, np.nan), np.where(ok, var, np.nan)
    if p < 0:
        raise ModelValidityError(f"received power must be nonnegative, got {p}")
    if not (math.isfinite(mean) and math.isfinite(var) and var > 0):
        raise ModelValidityError(f"moments ({mean}, {var}) invalid at P={p}: "
                                 "input power beyond the model's numeric range")
    return mean, var


def _checked_n(n_samples: int) -> int:     # SystemParams checks its own N
    if not is_int_in(n_samples, 1, math.inf):
        raise ModelValidityError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    return n_samples


def _lna_sums(p, b1: float, b3: float, n_aw):
    """The mean of lna_moments and N times its variance."""
    b1sq, b3sq = b1 * b1, b3 * b3
    b1cu, b3cu = b1sq * b1, b3sq * b3
    p2 = p * p
    p3 = p2 * p
    p4 = p3 * p
    p5 = p4 * p
    mean = b1sq * p + 6 * b3sq * p3 + 4 * b1 * b3 * p2 + n_aw
    var_sum = (
        b1cu * b1 * p2
        + 16 * b1cu * b3 * p3
        + 116 * b1sq * b3sq * p4
        + 432 * b1 * b3cu * p5
        + 684 * (b3cu * b3) * (p5 * p)
        + 2 * b1sq * p * n_aw
        + 8 * b1 * b3 * p2 * n_aw
        + 12 * b3sq * p3 * n_aw
        + n_aw * n_aw
    )
    return mean, var_sum


def lna_moments(p, beta1: float, beta3: float, n_aw, n_samples: int):
    """Mean and variance of the energy statistic behind an LNA front end."""
    return _checked_moments(p, _checked_n(n_samples), _lna_sums, beta1, beta3, n_aw)


def _nolna_sums(p, n_w):
    """The mean of nolna_moments and N times its variance."""
    return p + n_w, p * p + 2 * p * n_w + n_w * n_w


def nolna_moments(p, n_w, n_samples: int):
    """Mean and variance of the energy statistic without an LNA."""
    return _checked_moments(p, _checked_n(n_samples), _nolna_sums, n_w)


def level_moments(params: SystemParams, power, noise, mode: str) -> HypothesisMoments:
    """Closed-form moments of both hypotheses at input power power[d] and
    d-gated noise power noise[d] under bit d, floats or arrays."""
    check_mode(mode)
    sums, gains = (_lna_sums, (params.beta1, params.beta3)) if mode == LNA else (_nolna_sums, ())
    d0, v0 = _checked_moments(power[0], params.n_samples, sums, *gains, noise[0])
    d1, v1 = _checked_moments(power[1], params.n_samples, sums, *gains, noise[1])
    if isinstance(d0, np.ndarray):   # an element that fails under one bit fails under both
        return HypothesisMoments(d0, d1, v0, v1)
    return tuple.__new__(HypothesisMoments, (d0, d1, v0, v1))  # floats checked just now


def hypothesis_moments(params: SystemParams, real: ChannelRealization,
                       mode: str) -> HypothesisMoments:
    """Closed-form moments for both hypotheses of one channel realization."""
    return level_moments(params, (real.p0, real.p1),
                         noise_levels(params, real.htr_abs2, mode), mode)


_SQRT2 = math.sqrt(2.0)


def _each(f, x: np.ndarray) -> np.ndarray:
    """The math function f of each element of x, as an array of its shape."""
    return np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)


def q_function(x):
    """Gaussian tail probability Q(x), via the complementary error function."""
    if isinstance(x, np.ndarray):
        return 0.5 * _each(math.erfc, x / _SQRT2)
    return 0.5 * math.erfc(x / _SQRT2)


def ber_closed_form(m: HypothesisMoments, threshold):
    """BER of the energy detector at a given threshold, each hypothesis mean
    paired with its own variance. The moments and the threshold may be
    arrays that broadcast together (e.g. one threshold per frame)."""
    d0, d1 = m.delta0, m.delta1
    # each tail measured away from the other mean: s = -1 where delta0 > delta1
    s = 1.0 - 2.0 * (d1 < d0)
    x0, x1 = s * (threshold - d0), s * (d1 - threshold)
    sqrt = np.sqrt if isinstance(x0, np.ndarray) else math.sqrt
    return 0.5 * q_function(x0 / sqrt(m.var0)) + 0.5 * q_function(x1 / sqrt(m.var1))


def near_optimal_threshold(m: HypothesisMoments):
    """Detection threshold at the crossing of the two Gaussian PDFs where the
    BER, of slope (f1 - f0)/2 for delta0 < delta1, is least: f0 - f1 falls
    through zero at the + root of the PDF equality and rises at the - root, so
    that is the + root for delta0 < delta1 and the - root otherwise. Equal
    variances give the midpoint. Over arrays, NaN marks each element whose
    float call raises."""
    if isinstance(m.delta0, np.ndarray):
        with np.errstate(all="ignore"):     # a failed element may compute inf or NaN
            return _threshold(m, True)
    return _threshold(m, False)


_RESOLUTION = 2.0 ** -40    # of a mean: 2^12 float spacings, the finest crossing resolved


def _threshold(m: HypothesisMoments, arrays: bool):
    d0, d1, v0, v1 = m.delta0, m.delta1, m.var0, m.var1
    sqrt = np.sqrt if arrays else math.sqrt
    # the crossing lies a few standard deviations of the narrower PDF, the least
    # (var, mean), off its mean
    narrow0 = (v0 < v1) | (v0 == v1) & (d0 <= d1)
    narrow1 = (v1 < v0) | (v0 == v1) & (d1 < d0)
    unresolved = (narrow0 & (sqrt(v0) < _RESOLUTION * abs(d0))
                  | narrow1 & (sqrt(v1) < _RESOLUTION * abs(d1)))
    c = v1 / v0
    midpoint = abs(c - 1.0) < 1e-9
    if not arrays:
        if d0 == d1:
            raise NoSeparationError("delta0 == delta1: hypotheses are not separable")
        if unresolved:
            raise ModelValidityError(f"PDF crossing finer than the floats beside a mean for {m}")
        if midpoint:
            return 0.5 * (d0 + d1)
        log_c = math.log(c) if c > 0 else math.nan
    else:
        log_c = _each(math.log, np.where(c > 0, c, np.nan))
    # both terms are >= 0, so the discriminant is too (or NaN, or inf); the
    # root's sign is +1.0 for delta0 < delta1 and -1.0 otherwise
    root = sqrt(c * ((d0 - d1) * (d0 - d1)) + c * (v1 - v0) * log_c)
    t = (d0 * c - d1 + (2.0 * (d0 < d1) - 1.0) * root) / (c - 1.0)
    if not arrays:
        if not math.isfinite(t):   # the variance ratio or the discriminant overflowed
            raise ModelValidityError(f"threshold closed form out of float range for {m}")
        return t
    # moments marked NaN give a NaN t, away from the midpoint
    failed = (d0 == d1) | unresolved | ~(midpoint | np.isfinite(t))
    return np.where(failed, np.nan, np.where(midpoint, 0.5 * (d0 + d1), t))


def deflection_no_lna(p0: float, p1: float, n_w: float, n_samples: int) -> float:
    """Deflection coefficient of the conventional receiver, deflection_lna_full at
    beta1 = 1, beta3 = 0; n_w is the ungated noise power (tag-noise term included)."""
    return deflection_lna_full(p0, p1, 1.0, 0.0, n_w, n_samples)


def deflection_lna_full(p0: float, p1: float, beta1: float, beta3: float, n_aw: float,
                        n_samples: int) -> float:
    """Exact deflection coefficient with the LNA: squared difference of the
    closed-form means over the H0 variance of lna_moments, which judges p0 and
    that variance; p1 must be nonnegative too. p1 - p0 is factored out of the
    mean difference, so it keeps its precision when p1 is close to p0. A
    result that is not finite raises ModelValidityError."""
    b1, b3 = beta1, beta3
    var0 = lna_moments(p0, b1, b3, n_aw, n_samples)[1]
    if p1 < 0:
        raise ModelValidityError(f"received power must be nonnegative, got {p1}")
    diff = (p1 - p0) * (b1 * b1 + 4 * b1 * b3 * (p1 + p0)
                        + 6 * (b3 * b3) * (p1 * p1 + p1 * p0 + p0 * p0))
    dc = diff * diff / var0
    if not math.isfinite(dc):
        raise ModelValidityError(f"deflection coefficient {dc} at P0={p0}, P1={p1}: "
                                 "input power beyond the model's numeric range")
    return dc


def deflection_lna_approx(p0: float, p1: float, beta1: float, n_aw: float,
                          n_samples: int) -> float:
    """Small-power LNA deflection coefficient, deflection_lna_full at beta3 = 0:
    the conventional receiver's, with the noise referred to the LNA input."""
    return deflection_lna_full(p0, p1, beta1, 0.0, n_aw, n_samples)


def dc_noise_powers(params: SystemParams, htr_abs2: float):
    """(n_w, n_aw) for the deflection coefficients: tag-noise term ungated."""
    return noise_levels(params, htr_abs2, NO_LNA)[1], noise_levels(params, htr_abs2, LNA)[1]

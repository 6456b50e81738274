"""Closed-form detection results: energy-statistic moments, BER, near-optimal
threshold, and deflection coefficients."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelRealization
from .config import LNA, MODES, NO_LNA, SystemParams
from .errors import ModelValidityError, NoSeparationError


@dataclass(frozen=True)
class HypothesisMoments:
    """Mean/variance of the energy statistic under each tag hypothesis."""

    delta0: float   # mean under H0, watts
    delta1: float   # mean under H1, watts
    var0: float     # variance under H0, watts^2
    var1: float     # variance under H1, watts^2

    def __post_init__(self):
        if not (math.isfinite(self.delta0) and math.isfinite(self.delta1)
                and 0 < self.var0 < math.inf and 0 < self.var1 < math.inf):
            raise ModelValidityError(
                f"hypothesis variances must be finite and positive, "
                f"got ({self.var0}, {self.var1})"
            )


def noise_power(params: SystemParams, htr_abs2: float, d: int, mode: str) -> float:
    """Effective additive noise power; the tag-noise path is gated by d."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    tag = params.alpha_amp ** 2 * htr_abs2 * params.n_at * d
    if mode == NO_LNA:
        return params.n_ar + params.n_cov + tag
    b1sq = params.beta1 ** 2
    return b1sq * params.n_ar + params.n_cov + b1sq * tag


def lna_moments(p: float, beta1: float, beta3: float, n_aw: float, n_samples: int):
    """Mean and variance of the energy statistic behind an LNA front end."""
    if p < 0:
        raise ModelValidityError(f"received power must be nonnegative, got {p}")
    if n_samples < 1:
        raise ModelValidityError(f"n_samples must be >= 1, got {n_samples}")
    b1, b3 = beta1, beta3
    try:
        mean = b1**2 * p + 6 * b3**2 * p**3 + 4 * b1 * b3 * p**2 + n_aw
        var = (
            b1**4 * p**2
            + 16 * b1**3 * b3 * p**3
            + 116 * b1**2 * b3**2 * p**4
            + 432 * b1 * b3**3 * p**5
            + 684 * b3**4 * p**6
            + 2 * b1**2 * p * n_aw
            + 8 * b1 * b3 * p**2 * n_aw
            + 12 * b3**2 * p**3 * n_aw
            + n_aw**2
        ) / n_samples
    except OverflowError as exc:
        raise ModelValidityError(
            f"moment polynomial overflowed at P={p}: beyond the model's numeric range"
        ) from exc
    if not (math.isfinite(mean) and math.isfinite(var) and var > 0):
        raise ModelValidityError(
            f"moments ({mean}, {var}) invalid at P={p}: "
            "input power beyond the cubic model's numeric range"
        )
    return mean, var


def nolna_moments(p: float, n_w: float, n_samples: int):
    """Mean and variance of the energy statistic without an LNA."""
    if p < 0:
        raise ModelValidityError(f"received power must be nonnegative, got {p}")
    mean = p + n_w
    var = (p**2 + 2 * p * n_w + n_w**2) / n_samples
    return mean, var


def hypothesis_moments(
    params: SystemParams, real: ChannelRealization, mode: str
) -> HypothesisMoments:
    """Closed-form moments for both hypotheses of one channel realization."""
    ht2 = real.htr_abs2
    n0 = noise_power(params, ht2, 0, mode)
    n1 = noise_power(params, ht2, 1, mode)
    if mode == LNA:
        d0, v0 = lna_moments(real.p0, params.beta1, params.beta3, n0, params.n_samples)
        d1, v1 = lna_moments(real.p1, params.beta1, params.beta3, n1, params.n_samples)
    else:
        d0, v0 = nolna_moments(real.p0, n0, params.n_samples)
        d1, v1 = nolna_moments(real.p1, n1, params.n_samples)
    return HypothesisMoments(delta0=d0, delta1=d1, var0=v0, var1=v1)


_SQRT2 = math.sqrt(2.0)


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x), via the complementary error function."""
    return 0.5 * math.erfc(float(x) / _SQRT2)


def ber_closed_form(m: HypothesisMoments, threshold: float) -> float:
    """BER of the energy detector at a given threshold, each hypothesis mean
    paired with its own variance."""
    if m.delta0 <= m.delta1:
        lo, s_lo, hi, s_hi = m.delta0, m.var0, m.delta1, m.var1
    else:
        lo, s_lo, hi, s_hi = m.delta1, m.var1, m.delta0, m.var0
    return float(
        0.5 * q_function((threshold - lo) / math.sqrt(s_lo))
        + 0.5 * q_function((hi - threshold) / math.sqrt(s_hi))
    )


def _log_pdf_diff(m: HypothesisMoments, t: float) -> float:
    # ln f(t|H0) - ln f(t|H1) for the Gaussian approximations
    return (
        -((t - m.delta0) ** 2) / (2 * m.var0)
        - 0.5 * math.log(m.var0)
        + ((t - m.delta1) ** 2) / (2 * m.var1)
        + 0.5 * math.log(m.var1)
    )


def _pdf(mean: float, var: float, t: float) -> float:
    return math.exp(-((t - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


def _pdf_gap(m: HypothesisMoments, t: float):
    """(|f0 - f1|, max(f0, f1)) of the two Gaussian PDFs at t."""
    f0 = _pdf(m.delta0, m.var0, t)
    f1 = _pdf(m.delta1, m.var1, t)
    return abs(f0 - f1), max(f0, f1)


def _gap_within(gap, rel_tol: float) -> bool:
    """Whether the PDFs agree at a root to `rel_tol` of the larger one."""
    diff, peak = gap
    return peak > 0 and diff <= rel_tol * peak


def _root_of_pdf_equality(m: HypothesisMoments) -> float:
    from scipy.optimize import brentq   # rare fallback: keeps scipy off the import path

    lo, hi = min(m.delta0, m.delta1), max(m.delta0, m.delta1)
    s = max(math.sqrt(m.var0), math.sqrt(m.var1))
    brackets = [(lo, hi), (lo - 3 * s, hi + 3 * s), (lo - 10 * s, hi + 10 * s)]
    for a, b in brackets:
        fa, fb = _log_pdf_diff(m, a), _log_pdf_diff(m, b)
        if fa == 0.0:
            return a
        if fb == 0.0:
            return b
        if fa * fb < 0:
            try:
                return float(brentq(lambda t: _log_pdf_diff(m, t), a, b, xtol=1e-300, rtol=1e-15))
            except RuntimeError as exc:   # brentq ran out of iterations
                raise ModelValidityError(f"PDF-equality root did not converge: {exc}") from exc
    raise ModelValidityError("PDF-equality root not bracketable for these moments")


def near_optimal_threshold(m: HypothesisMoments) -> float:
    """Detection threshold at the crossing of the two Gaussian PDFs.

    Closed form with the positive root; equal-variance limit is the midpoint
    of the means. A numeric root of the PDF equality guards against
    floating-point degeneracy of the closed form.
    """
    if m.delta0 == m.delta1:
        raise NoSeparationError("delta0 == delta1: hypotheses are not separable")
    c = m.var1 / m.var0
    if abs(c - 1.0) < 1e-9:
        return 0.5 * (m.delta0 + m.delta1)
    disc = c * (m.delta0 - m.delta1) ** 2 + c * (m.var1 - m.var0) * math.log(c)
    lo, hi = min(m.delta0, m.delta1), max(m.delta0, m.delta1)
    if disc >= 0:
        root = math.sqrt(disc)
        t_plus = (m.delta0 * c - m.delta1 + root) / (c - 1.0)
        gap_plus = _pdf_gap(m, t_plus)   # each root's PDFs are evaluated once
        if _gap_within(gap_plus, 1e-9) and lo <= t_plus <= hi:
            return t_plus
        # Both quadratic roots are genuine PDF crossings; when the primary one
        # leaves the means interval (possible for inverted mean/variance
        # orderings) take whichever crossing yields the lower BER.
        t_minus = (m.delta0 * c - m.delta1 - root) / (c - 1.0)
        candidates = [t for t, gap in ((t_plus, gap_plus), (t_minus, _pdf_gap(m, t_minus)))
                      if _gap_within(gap, 1e-6)]
        inside = [t for t in candidates if lo <= t <= hi]
        if inside:
            return inside[0]
        if candidates:
            return min(candidates, key=lambda t: ber_closed_form(m, t))
    return _root_of_pdf_equality(m)


def deflection_no_lna(p0: float, p1: float, n_w: float, n_samples: int) -> float:
    """Deflection coefficient of the conventional receiver.

    n_w here is the ungated noise power (tag-noise term included).
    """
    if p0 + n_w <= 0:
        raise ModelValidityError("p0 + n_w must be positive")
    return n_samples * ((p1 - p0) / (p0 + n_w)) ** 2


def deflection_lna_full(
    p0: float, p1: float, beta1: float, beta3: float, n_aw: float, n_samples: int
) -> float:
    """Exact deflection coefficient with the LNA: squared difference of the
    closed-form means over the H0 closed-form variance of lna_moments. The
    mean difference is taken on P, term by term, so it keeps its precision
    when p1 is close to p0."""
    b1, b3 = beta1, beta3
    var0 = lna_moments(p0, b1, b3, n_aw, n_samples)[1]
    try:
        return (
            b1**2 * (p1 - p0)
            + 6 * b3**2 * (p1**3 - p0**3)
            + 4 * b1 * b3 * (p1**2 - p0**2)
        ) ** 2 / var0
    except OverflowError as exc:
        raise ModelValidityError(
            f"deflection polynomial overflowed at P1={p1}"
        ) from exc


def deflection_lna_approx(
    p0: float, p1: float, beta1: float, n_aw: float, n_samples: int
) -> float:
    """Small-power approximation of the LNA deflection coefficient."""
    den = p0 + n_aw / beta1**2
    if den <= 0:
        raise ModelValidityError("p0 + n_aw/beta1^2 must be positive")
    return n_samples * ((p1 - p0) / den) ** 2


def dc_noise_powers(params: SystemParams, htr_abs2: float):
    """(n_w, n_aw) for the deflection coefficients: tag-noise term ungated."""
    return (
        noise_power(params, htr_abs2, 1, NO_LNA),
        noise_power(params, htr_abs2, 1, LNA),
    )

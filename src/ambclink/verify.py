"""Cross-validation suite: every closed form against an independent oracle.

Of scipy only scipy.special is imported, inside the checks and oracles that use it."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, oracles
from .analysis import HypothesisMoments, dc_noise_powers
from .channel import draw_channels
from .config import LNA, MAX_DBM, MODES, SystemParams, check_int, watts_to_dbm
from .errors import ModelValidityError
from .frontend import SAMPLER_CHUNK, draw_energies, generate_frame


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def random_moment_tuple(rng: np.random.Generator):
    """A random (beta1, beta3, P, Naw) tuple in the model's valid range."""
    beta1 = rng.uniform(1.0, 100.0)
    p = 10.0 ** rng.uniform(-12, -6)
    # keep |beta3| P << beta1 so the cubic stays perturbative
    beta3 = -rng.uniform(0.0, 0.1) * beta1 / p
    n_aw = 10.0 ** rng.uniform(-14, -8)
    return beta1, beta3, p, n_aw


def check_moments_vs_expansion(seed: int = 0, n_tuples: int = 1000) -> CheckResult:
    """Closed-form moments against the exponential-moment expansion oracle."""
    check_int(n_tuples, 1, math.inf, "n_tuples")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_tuples):
        beta1, beta3, p, n_aw = random_moment_tuple(rng)
        n = int(rng.integers(1, 200))
        mean_c, var_c = analysis.lna_moments(p, beta1, beta3, n_aw, n)
        mean_o, var_o = oracles.exp_moment_mean_var(p, beta1, beta3, n_aw, n)
        worst = max(worst, _rel_err(mean_c, mean_o), _rel_err(var_c, var_o))
    return CheckResult(
        "moments_vs_expansion_oracle", worst <= 1e-12,
        f"max relative error {worst:.3e} over {n_tuples} tuples (tol 1e-12)",
    )


def check_moments_vs_montecarlo(
    params: SystemParams, seed: int = 1, n_samples_mc: int = 2_000_000,
    mean_tol: float = 0.02, var_tol: float = 0.08,
) -> CheckResult:
    """Closed-form LNA moments against simulated sample moments at H1.

    The samples are drawn in frames of SAMPLER_CHUNK, so the check's memory
    does not grow with n_samples_mc. Each frame draws its signal block, then
    its one noise block, 4 normals a sample; the frame size fixes which
    normals feed each sample, so changing it changes the draws."""
    check_int(n_samples_mc, 2, math.inf, "n_samples_mc")    # 2 for a sample variance
    rng = np.random.default_rng(seed)
    real = draw_channels(params, rng)
    n_aw = analysis.noise_levels(params, real.htr_abs2, LNA)[1]
    mean_c, var_c = analysis.lna_moments(real.p1, params.beta1, params.beta3, n_aw, 1)
    # per-sample moments of |y|^2 with d[k] = 1 throughout
    full = replace(params, k_symbols=SAMPLER_CHUNK, n_samples=1, pilot_fraction=0.0)
    ones = np.ones(SAMPLER_CHUNK, dtype=np.int64)
    sq_sum = 0.0
    quad_sum = 0.0
    done = 0
    while done < n_samples_mc:
        take = min(SAMPLER_CHUNK, n_samples_mc - done)
        # at N = 1 each symbol energy is one sample's |y|^2
        pc = full if take == SAMPLER_CHUNK else replace(full, k_symbols=take)
        e = generate_frame(pc, real, ones[:take], rng, LNA)
        sq_sum += float(np.sum(e))
        quad_sum += float(np.sum(e * e))
        done += take
    mean_mc = sq_sum / done
    var_mc = quad_sum / done - mean_mc**2
    err_m, err_v = _rel_err(mean_c, mean_mc), _rel_err(var_c, var_mc)
    return CheckResult(
        "moments_vs_montecarlo", err_m <= mean_tol and err_v <= var_tol,
        f"mean rel err {err_m:.3e} (tol {mean_tol}), var rel err {err_v:.3e} (tol {var_tol})",
    )


def _ks_2samp_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """Asymptotic p-value of the two-sample Kolmogorov-Smirnov statistic."""
    from scipy.special import kolmogorov

    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    d = np.max(np.abs(np.searchsorted(a, both, side="right") / a.size
                      - np.searchsorted(b, both, side="right") / b.size))
    return float(kolmogorov(math.sqrt(a.size * b.size / (a.size + b.size)) * d))


def _moment_pvalues(a: np.ndarray, b: np.ndarray):
    """Two-sided normal p-values for equal means and equal variances."""
    def var_of_var(x):
        c = x - x.mean()
        return (np.mean(c**4) - np.mean(c**2) ** 2) / x.size

    z_mean = (a.mean() - b.mean()) / math.sqrt(a.var() / a.size + b.var() / b.size)
    z_var = (a.var() - b.var()) / math.sqrt(var_of_var(a) + var_of_var(b))
    return tuple(math.erfc(abs(float(z)) / math.sqrt(2.0)) for z in (z_mean, z_var))


def check_sampler_equivalence(params: SystemParams, seed: int = 5) -> CheckResult:
    """The energy-domain sampler against the sample-level one, on one channel.

    Per mode and per bit (alternating bits), the energies of draw_energies
    and of generate_frame must agree in distribution (two-sample KS) and in
    mean and variance, each at p >= 1e-6. N = 4, so the statistic is far
    from Gaussian and its shape is tested, not only its first two moments.
    The channel is drawn once and composed at two points derived from `params`:
    - noise-limited: the tag noise raised to 3x the larger input-referred
      ungated noise, so n1/n0 >= 4, and the direct path at that noise;
    - compression: Ps set so that |beta3| P / beta1 = 0.05 on the weaker
      hypothesis (the params' own Ps when beta3 = 0).
    A derived power is capped at MAX_DBM, the bound the scenario was loaded
    under; only a nearly linear LNA or a tag gain far below the paper's
    reaches the cap, and the point then falls short of its ratio.
    The reference takes 4000 symbols in frames of 1000, the energy sampler
    20000 in one frame.
    """
    n_samples, chunk, k_ref, k_fast, p_min = 4, 1000, 4000, 20_000, 1e-6
    base = replace(params, n_samples=n_samples, k_symbols=chunk, pilot_fraction=0.0)
    real = draw_channels(base, np.random.default_rng(seed))
    h0_2, h1_2 = real.p0 / base.ps, real.p1 / base.ps
    n_in = max(base.n_ar + base.n_cov, base.n_ar + base.n_cov / base.beta1**2)
    tag = base.alpha_amp**2 * real.htr_abs2

    def dbm(watts):
        return min(watts_to_dbm(watts), MAX_DBM)

    points = {
        "noise-limited": replace(base, n_at_dbm=dbm(3.0 * n_in / tag),
                                 ps_dbm=dbm(n_in / h0_2)),
        "compression": base if base.beta3 == 0 else replace(
            base, ps_dbm=dbm(0.05 * abs(base.beta1 / base.beta3) / min(h0_2, h1_2))),
    }
    chunk_bits, ref_bits, fast_bits = (np.arange(k) % 2 for k in (chunk, k_ref, k_fast))
    worst = (math.inf, "")
    stream = 0
    for label, point in points.items():
        at = draw_channels(point, np.random.default_rng(seed))  # real's normals, at the point
        for mode in MODES:
            stream += 1
            rng = np.random.default_rng(np.random.SeedSequence((seed, stream)))
            ref = np.concatenate([
                generate_frame(point, at, chunk_bits, rng, mode) for _ in range(k_ref // chunk)
            ])
            noise = analysis.noise_levels(point, at.htr_abs2, mode)
            fast = draw_energies(point, fast_bits, (at.p0, at.p1), noise, rng, mode)
            for d in (0, 1):
                a, b = ref[ref_bits == d], fast[fast_bits == d]
                p_ks = _ks_2samp_pvalue(a, b)
                p_mean, p_var = _moment_pvalues(a, b)
                for name, p in (("KS", p_ks), ("mean", p_mean), ("variance", p_var)):
                    worst = min(worst, (p, f"{label} {mode} bit {d} {name}"))
    return CheckResult(
        "sampler_equivalence", worst[0] >= p_min,
        f"min p {worst[0]:.2e} ({worst[1]}) over {len(points) * len(MODES) * 2 * 3} tests "
        f"(KS, mean, variance; bound {p_min:g}), N={n_samples}",
    )


def check_q_function(seed: int = 2) -> CheckResult:
    rng = np.random.default_rng(seed)
    xs = np.concatenate([[0.0, 1.0, -1.0], rng.uniform(-8, 8, 50)])
    worst = max(
        _rel_err(float(analysis.q_function(x)), oracles.q_integral(float(x))) for x in xs
    )
    return CheckResult(
        "q_function_vs_quadrature", worst <= 1e-12,
        f"max relative error {worst:.3e} (tol 1e-12)",
    )


def random_valid_moments(rng: np.random.Generator) -> HypothesisMoments:
    """Moments shaped like an energy detector's: larger mean, larger variance."""
    d0 = 10.0 ** rng.uniform(-12, -4)
    sep = rng.uniform(0.05, 3.0)
    n = rng.integers(25, 400)
    v0 = (d0 / math.sqrt(n)) ** 2
    d1 = d0 + sep * math.sqrt(v0)
    v1 = v0 * (d1 / d0) ** 2
    if rng.random() < 0.5:
        d0, d1, v0, v1 = d1, d0, v1, v0
    return HypothesisMoments(delta0=d0, delta1=d1, var0=v0, var1=v1)


GRID_BATCH = 100    # tuples per array call of the threshold check


def check_threshold_near_optimality(seed: int = 3, n_tuples: int = 1000) -> CheckResult:
    """Closed-form threshold against the grid-minimum and the PDF-equality
    residual. The tuples are drawn one by one, then judged in batches of
    GRID_BATCH through array calls, so memory does not grow with n_tuples."""
    check_int(n_tuples, 1, math.inf, "n_tuples")
    rng = np.random.default_rng(seed)
    worst_gap = 0.0
    worst_res = 0.0
    for done in range(0, n_tuples, GRID_BATCH):
        tuples = [random_valid_moments(rng) for _ in range(min(GRID_BATCH, n_tuples - done))]
        batch = HypothesisMoments(*map(np.array, zip(*tuples)))
        thresholds = analysis.near_optimal_threshold(batch)
        gap = analysis.ber_closed_form(batch, thresholds) - oracles.grid_min_threshold(batch)[1]
        residuals = []
        for m, t in zip(tuples, thresholds.tolist()):
            f0 = math.exp(-((t - m.delta0) ** 2) / (2 * m.var0)) / math.sqrt(2 * math.pi * m.var0)
            f1 = math.exp(-((t - m.delta1) ** 2) / (2 * m.var1)) / math.sqrt(2 * math.pi * m.var1)
            residuals.append(abs(f0 - f1) / max(f0, f1))
        # np.max keeps a NaN (a threshold the array call marked failed), which fails the check
        worst_gap = float(np.max(gap, initial=worst_gap))
        worst_res = float(np.max(residuals, initial=worst_res))
    ok = worst_gap <= 1e-6 and worst_res <= 1e-9
    return CheckResult(
        "threshold_near_optimality", ok,
        f"max BER gap {worst_gap:.3e} (tol 1e-6), max PDF residual {worst_res:.3e} (tol 1e-9)",
    )


def check_deflection(params: SystemParams, seed: int = 4) -> CheckResult:
    """Deflection identities on random fading draws: the exact LNA form
    against its moment composition, the approximate LNA form above the
    no-LNA one, and their convergence at large power.

    The composition (m1 - m0)^2 / var0 subtracts two closed-form means that
    are nearly equal when |h1| is close to |h0|, so its rounding error grows
    with cond = (|m0| + |m1|) / |m1 - m0|. Inside the model's range
    (|beta3| P << beta1) each mean is one dominant product (2 roundings)
    plus three additions, so it carries a relative error of at most about
    5 eps. The difference then carries 5 eps (|m0| + |m1|), a relative
    5 eps cond, and squaring doubles that to 10 eps cond. The exact form
    factors p1 - p0 (exact for p1 within a factor 2 of p0) out of its mean
    difference, adding only a few eps, covered by the 1e-12 floor, and
    divides by the same var0, the lna_moments variance at p0, so the
    division adds no error between them. Hence the tolerance 1e-12 + 10 eps
    cond; over verify --seed 0..199 at paper defaults the observed error
    peaks at 2.30 eps cond, and a well-conditioned draw keeps the 1e-12 bound.
    """
    eps = np.finfo(float).eps
    rng = np.random.default_rng(seed)
    n = params.n_samples
    msgs = []
    ok = True
    for _ in range(50):
        real = draw_channels(params, rng)
        n_w, n_aw = dc_noise_powers(params, real.htr_abs2)
        p0, p1 = real.p0, real.p1
        full = analysis.deflection_lna_full(p0, p1, params.beta1, params.beta3, n_aw, n)
        m0 = analysis.lna_moments(p0, params.beta1, params.beta3, n_aw, n)
        m1 = analysis.lna_moments(p1, params.beta1, params.beta3, n_aw, n)
        diff = m1[0] - m0[0]
        comp = diff ** 2 / m0[1]
        cond = (abs(m0[0]) + abs(m1[0])) / abs(diff) if diff else math.inf
        tol = 1e-12 + 10 * eps * cond
        if _rel_err(full, comp) > tol:
            ok = False
            msgs.append(f"full-vs-composition rel err {_rel_err(full, comp):.3e} "
                        f"(tol {tol:.3e} at cond {cond:.3e})")
            break
        approx = analysis.deflection_lna_approx(p0, p1, params.beta1, n_aw, n)
        base = analysis.deflection_no_lna(p0, p1, n_w, n)
        if p0 != p1 and n_w > n_aw / params.beta1**2 and not approx > base:
            ok = False
            msgs.append("approx DC did not exceed no-LNA DC")
            break
    # convergence at large power: ratio within 1% when P0 >= 1e6 * max noise scale
    n_w, n_aw = dc_noise_powers(params, params.rtr ** -params.vtr)
    p0 = 1e6 * max(n_w, n_aw / params.beta1**2)
    p1 = 1.5 * p0
    ratio = analysis.deflection_lna_approx(p0, p1, params.beta1, n_aw, params.n_samples) \
        / analysis.deflection_no_lna(p0, p1, n_w, params.n_samples)
    if not (1.0 < ratio < 1.01):
        ok = False
        msgs.append(f"high-power DC ratio {ratio:.6f} not in (1, 1.01)")
    return CheckResult(
        "deflection_identities", ok,
        "; ".join(msgs) if msgs else "composition, ordering, and convergence hold",
    )


def check_linear_reduction(params: SystemParams) -> CheckResult:
    """beta1=1, beta3=0 collapses the LNA forms onto the no-LNA ones."""
    worst = 0.0
    for p in (0.0, 1e-12, 1e-9, 1e-6):
        for n_w in (1e-13, 1e-10):
            m_l = analysis.lna_moments(p, 1.0, 0.0, n_w, params.n_samples)
            m_n = analysis.nolna_moments(p, n_w, params.n_samples)
            worst = max(worst, _rel_err(m_l[0], m_n[0]), _rel_err(m_l[1], m_n[1]))
    return CheckResult(
        "linear_reduction_identity", worst == 0.0,
        f"max relative error {worst:.3e} (exact match required)",
    )


def check_model_validity_guard(params: SystemParams) -> CheckResult:
    """An absurd input power must trip the variance guard, not return junk."""
    for p_huge in (1e20, 1e40, 1e60, 1e80, 1e120):
        try:
            analysis.lna_moments(p_huge, params.beta1, params.beta3, 0.0,
                                 params.n_samples)
        except ModelValidityError as exc:
            return CheckResult("model_validity_guard", True, f"guard raised: {exc}")
    return CheckResult("model_validity_guard", False,
                       "no ModelValidityError raised for out-of-range power")


def run_all_checks(params: SystemParams, seed: int = 0) -> list[CheckResult]:
    check_int(seed, 0, math.inf, "seed")
    return [
        check_moments_vs_expansion(seed=seed),
        check_moments_vs_montecarlo(params, seed=seed + 1),
        check_q_function(seed=seed + 2),
        check_threshold_near_optimality(seed=seed + 3),
        check_deflection(params, seed=seed + 4),
        check_linear_reduction(params),
        check_model_validity_guard(params),
        check_sampler_equivalence(params, seed=seed + 5),
    ]

"""Scenario configuration, unit conversions, and parameter validation."""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields
from functools import cached_property

from .errors import ConfigError

NO_LNA = "no_lna"
LNA = "lna"
MODES = (NO_LNA, LNA)


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power from dBm to watts."""
    if not math.isfinite(p_dbm):
        raise ConfigError(f"power in dBm must be finite, got {p_dbm!r}")
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def watts_to_dbm(p_watts: float) -> float:
    """Convert a power from watts to dBm."""
    if not (math.isfinite(p_watts) and p_watts > 0):
        raise ConfigError(f"power in watts must be finite and positive, got {p_watts!r}")
    return 10.0 * math.log10(p_watts) + 30.0


def db_to_amplitude_gain(g_db: float) -> float:
    """Amplitude multiplier corresponding to a dB power gain."""
    if not math.isfinite(g_db):
        raise ConfigError(f"gain in dB must be finite, got {g_db!r}")
    return 10.0 ** (g_db / 20.0)


# Upper bounds, checked at load. A power of 300 dBm is 1e27 W; the LNA variance
# grows like P^6, which is then 1e162, so the closed-form moments stay finite
# (about 1e138 at the paper's gains and path loss with every power at the
# bound). There is no lower bound: below about -3200 dBm a power is 0 W, the
# exact noise-free (or signal-free) limit the samplers and closed forms handle.
MAX_DBM = 300.0
# A passive tag reflects at most the power it receives. Below -300 dB (a power
# gain of 1e-30) the tag carries no usable signal, and far below it the gain
# underflows to 0 (about -3200 dB), where verify's sampler check can no longer
# refer the receiver noise to the tag link.
MAX_ALPHA_DB = 0.0
MIN_ALPHA_DB = -300.0
# A passive link adds no gain either: each path gain r^-v is at most 1 (0 dB).
# With v > 0 that is r >= 1 m, checked on r because r^-v overflows for tiny r.
MIN_DISTANCE_M = 1.0
# Below -300 dB a link carries no usable signal either, and far below it the
# gain underflows to 0, where the hypotheses merge and BDPR is undefined (the
# paper's links sit at -76 dB). Checked as v * log10(r) <= 30, so nothing is
# raised to a power.
MIN_PATH_GAIN_DB = -300.0
# A pinned or swept BDPR rescales hst by 10^(BDPR/20). At the paper's defaults
# sweeps ran clean up to 200 dB; from about 280 dB they fail. At high Ps the
# reach is lower, and SweepSpec checks it per point.
MAX_BDPR_DB = 200.0
# A sweep holds whole frames of K symbols, the LNA sampler at least one
# symbol's N exponentials, and the sample-level generate_frame a few arrays of
# K*N complex samples (the signal, the one noise block and their sum; 160 MB
# each at the cap).
MAX_K_SYMBOLS = 10 ** 6
MAX_N_SAMPLES = 10 ** 6
MAX_FRAME_SAMPLES = 10 ** 7
# Each block draws its own channels, 15 us per realization seeded, drawn and
# composed, with a BDPR target or without (paper defaults, 2-vCPU Xeon), so the cap is
# 15 s of channel draws spread over the blocks, each holding its own table. The LNA sampler
# draws about 1 M symbols/s (N = 75; 0.9 to 1.1 M measured). The symbol cap
# counts every point and mode, though a block draws once for all of them, so it
# bounds the sampling at 15 to 20 minutes per worker, and the per-point arithmetic.
MAX_REALIZATIONS = 10 ** 6
MAX_SWEEP_SYMBOLS = 10 ** 9
# A sweep's process pool starts all its workers at its first task (on Linux it
# forks them). 61 is the most ProcessPoolExecutor accepts on Windows.
MAX_WORKERS = 61


def check_in(value, allowed, field: str) -> None:
    """Reject a value outside `allowed`, naming the field."""
    if value not in allowed:
        raise ConfigError(f"{field} must be one of {tuple(allowed)}, got {value!r}",
                          fields=(field,))


def check_mode(mode: str, field: str = "mode") -> None:
    """Reject a receiver mode other than those of MODES, naming the field."""
    check_in(mode, MODES, field)


def is_int_in(value, lo, hi) -> bool:
    """True for an int (not a bool) in lo..hi: NaN, 2.5 and True are not."""
    return isinstance(value, int) and not isinstance(value, bool) and lo <= value <= hi


def is_finite_real(value) -> bool:
    """True for a finite real number (not a bool) within the float range, a
    numpy scalar too: NaN, inf, 10**400, True and "1" are not."""
    if type(value) is float:    # the common case, ahead of the slower numbers.Real test
        return math.isfinite(value)
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:       # an integer beyond the float range
        return False


def check_int(value, lo, hi, field: str) -> None:
    """Reject anything but an int (not a bool) in lo..hi, naming the field.
    A seed takes 0..math.inf: numpy's SeedSequence takes only nonnegative
    integers, and would refuse any other only once a draw starts."""
    if not is_int_in(value, lo, hi):
        raise ConfigError(f"{field} must be an integer in {lo}..{hi}, got {value!r}",
                          fields=(field,))


def check_trials(n_realizations: int, n_frames: int, frame_symbols: int, runs: int = 1) -> None:
    """Reject trial counts that are not integers >= 1, or a sweep beyond the
    trial caps, naming the fields: more than MAX_REALIZATIONS channel draws,
    or more than MAX_SWEEP_SYMBOLS symbols in `runs` passes (sweep points x
    modes) over n_realizations x n_frames frames of frame_symbols symbols."""
    check_int(n_frames, 1, MAX_SWEEP_SYMBOLS, "n_frames")
    check_int(n_realizations, 1, MAX_REALIZATIONS, "n_realizations")
    symbols = runs * n_realizations * n_frames * frame_symbols
    if symbols > MAX_SWEEP_SYMBOLS:
        raise ConfigError(
            f"the sweep would draw {symbols} symbols, more than {MAX_SWEEP_SYMBOLS}: lower "
            f"n_frames ({n_frames}) or n_realizations ({n_realizations})",
            fields=("n_frames", "n_realizations"))


def valid_pilot_count(k_train: int) -> bool:
    """The pilot estimator needs two pilots of each bit value: an even count >= 4."""
    return k_train >= 4 and k_train % 2 == 0


@dataclass(frozen=True)
class SystemParams:
    """All scenario constants. Immutable; safe to share across workers."""

    beta1: float            # LNA linear gain (amplitude domain), > 0
    beta3: float            # LNA third-order coefficient, 1/power
    alpha_db: float         # tag coefficient, dB power gain
    n_ar_dbm: float         # receiver antenna noise power
    n_at_dbm: float         # tag antenna noise power
    n_cov_dbm: float        # down-conversion noise power
    v0: float               # path-loss exponents
    vst: float
    vtr: float
    r0: float               # link distances, meters
    rst: float
    rtr: float
    ps_dbm: float           # ambient source transmit power
    n_samples: int          # N, samples per tag symbol
    k_symbols: int          # K, tag symbols per coherence interval
    pilot_fraction: float = 0.0

    def __post_init__(self):
        # the type rule of every scenario value, however the scenario is built
        bad = [name for name in _FLOAT_FIELDS if not is_finite_real(getattr(self, name))]
        limits = [f"finite real {', '.join(bad)}"] if bad else []
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if name in bad or type(value) is not float:
                # an int or a numpy scalar is kept as its float, and a rejected value
                # (this instance raises below) as NaN, which the range checks can compare
                object.__setattr__(self, name, math.nan if name in bad else float(value))
        for name, cap in _DB_CAPS.items():
            if getattr(self, name) > cap:
                bad.append(name)
                limits.append(f"{name} <= {cap:g}")
        for name, floor in _FLOORS.items():
            if getattr(self, name) < floor:
                bad.append(name)
                limits.append(f"{name} >= {floor:g}")
        for name, cap in (("n_samples", MAX_N_SAMPLES), ("k_symbols", MAX_K_SYMBOLS)):
            if not is_int_in(getattr(self, name), 1, cap):
                bad.append(name)
                limits.append(f"integer 1 <= {name} <= {cap}")
        k, n = self.k_symbols, self.n_samples
        if isinstance(k, int) and isinstance(n, int) and k * n > MAX_FRAME_SAMPLES:
            bad += ["k_symbols", "n_samples"]
            limits.append(f"k_symbols * n_samples <= {MAX_FRAME_SAMPLES}")
        for name in ("beta1", "v0", "vst", "vtr"):
            if not getattr(self, name) > 0:
                bad.append(name)
        for r, v in (("r0", "v0"), ("rst", "vst"), ("rtr", "vtr")):
            if (r not in bad and v not in bad
                    and getattr(self, v) * math.log10(getattr(self, r)) > -MIN_PATH_GAIN_DB / 10):
                bad += [r, v]
                limits.append(f"path gain {r}^-{v} >= {MIN_PATH_GAIN_DB:g} dB")
        if not 0.0 <= self.pilot_fraction < 1.0:
            bad.append("pilot_fraction")
        elif (self.pilot_fraction > 0.0 and "k_symbols" not in bad
              and not valid_pilot_count(self.k_train)):
            bad.append("pilot_fraction")
        if bad:
            bad = list(dict.fromkeys(bad))
            need = f" (need {'; '.join(limits)})" if limits else ""
            raise ConfigError(f"invalid parameter value(s): {', '.join(bad)}{need}", fields=bad)

    # Derived linear-scale quantities, each computed once per instance (the
    # sweeps read them per realization); `replace` builds a new instance, so a
    # cached value cannot go stale.
    @cached_property
    def alpha_amp(self) -> float:
        """Tag amplitude multiplier (alpha_db read as a power gain)."""
        return db_to_amplitude_gain(self.alpha_db)

    @cached_property
    def ps(self) -> float:
        return dbm_to_watts(self.ps_dbm)

    @cached_property
    def n_ar(self) -> float:
        return dbm_to_watts(self.n_ar_dbm)

    @cached_property
    def n_at(self) -> float:
        return dbm_to_watts(self.n_at_dbm)

    @cached_property
    def n_cov(self) -> float:
        return dbm_to_watts(self.n_cov_dbm)

    @cached_property
    def cn_scales(self) -> tuple:
        """Scale of the real and imaginary parts of h0, hst, htr ~ CN(0, r^-v)."""
        return tuple(math.sqrt(r ** -v / 2.0) for r, v in
                     ((self.r0, self.v0), (self.rst, self.vst), (self.rtr, self.vtr)))

    @property
    def k_train(self) -> int:
        """Number of pilot symbols implied by pilot_fraction."""
        return round(self.pilot_fraction * self.k_symbols)

    def to_dict(self) -> dict:
        return asdict(self)


# ps_dbm and n_samples are swept in the experiments; the defaults here pick
# the middle of the published operating range.
PAPER_DEFAULTS = {
    "beta1": 56.23,
    "beta3": -7497.33,
    "alpha_db": -1.1,
    "n_ar_dbm": -100.0,
    "n_at_dbm": -100.0,
    "n_cov_dbm": -70.0,
    "v0": 4.5,
    "vst": 4.5,
    "vtr": 2.5,
    "r0": 50.0,
    "rst": 50.0,
    "rtr": 10.0,
    "ps_dbm": 10.0,
    "n_samples": 75,
    "k_symbols": 100,
    "pilot_fraction": 0.2,
}

_FIELD_NAMES = tuple(f.name for f in fields(SystemParams))
_INT_FIELDS = ("n_samples", "k_symbols")
_FLOAT_FIELDS = tuple(name for name in _FIELD_NAMES if name not in _INT_FIELDS)
_DB_CAPS = {"n_ar_dbm": MAX_DBM, "n_at_dbm": MAX_DBM, "n_cov_dbm": MAX_DBM,
            "ps_dbm": MAX_DBM, "alpha_db": MAX_ALPHA_DB}
_FLOORS = {"alpha_db": MIN_ALPHA_DB, "r0": MIN_DISTANCE_M, "rst": MIN_DISTANCE_M,
           "rtr": MIN_DISTANCE_M}


def load_scenario(doc: dict, paper_defaults: bool = False) -> SystemParams:
    """Build validated SystemParams from a flat key-value document.

    Unknown keys are rejected. With `paper_defaults` (flag, or a
    "paper_defaults" key in the document, which must be a boolean) missing
    keys fall back to the published values; otherwise every field but
    pilot_fraction must be present. SystemParams judges every value.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"scenario document must be a mapping, got {type(doc).__name__}")
    doc = dict(doc)
    flag = doc.pop("paper_defaults", False)
    if not isinstance(flag, bool):
        raise ConfigError(f"paper_defaults must be true or false, got {flag!r}",
                          fields=("paper_defaults",))
    paper_defaults = paper_defaults or flag

    unknown = sorted(set(doc) - set(_FIELD_NAMES))
    if unknown:
        raise ConfigError(f"unknown scenario key(s): {', '.join(unknown)}", fields=unknown)

    values = dict(PAPER_DEFAULTS) if paper_defaults else {}
    values.update(doc)
    missing = sorted(set(_FIELD_NAMES) - set(values) - {"pilot_fraction"})
    if missing:
        raise ConfigError(f"missing scenario key(s): {', '.join(missing)}", fields=missing)
    for name in _INT_FIELDS:    # a JSON number of an integer, e.g. 75.0 for N
        if isinstance(values[name], float) and values[name].is_integer():
            values[name] = int(values[name])
    return SystemParams(**values)


def read_scenario(path: str, paper_defaults: bool = False) -> SystemParams:
    """Load a scenario from a JSON file (textual key-value document)."""
    import json     # loaded on first use, so `import ambclink` loads no json
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return load_scenario(doc, paper_defaults=paper_defaults)

import math
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambclink import ConfigError, SystemParams, load_scenario, read_scenario
from ambclink.analysis import hypothesis_moments, level_moments, noise_power
from ambclink.config import (
    MAX_ALPHA_DB,
    MAX_DBM,
    MAX_FRAME_SAMPLES,
    MAX_K_SYMBOLS,
    MAX_N_SAMPLES,
    MIN_ALPHA_DB,
    MIN_DISTANCE_M,
    MIN_PATH_GAIN_DB,
    PAPER_DEFAULTS,
    MODES,
    db_to_amplitude_gain,
    db_to_power_gain,
    dbm_to_watts,
    watts_to_dbm,
)
from ambclink.frontend import draw_energies, generate_frame


class TestUnitConversions:
    def test_dbm_to_watts_known_values(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
        assert dbm_to_watts(0.0) == pytest.approx(1.0e-3, rel=1e-12)
        assert dbm_to_watts(-100.0) == pytest.approx(1.0e-13, rel=1e-12, abs=0.0)

    def test_db_to_power_gain_known_values(self):
        assert db_to_power_gain(0.0) == 1.0
        assert db_to_power_gain(10.0) == pytest.approx(10.0, rel=1e-12)
        assert db_to_power_gain(-1.1) == pytest.approx(0.77625, rel=1e-4)

    def test_amplitude_gain_is_sqrt_of_power_gain(self):
        for g in (-20.0, -1.1, 0.0, 3.0, 17.5):
            assert db_to_amplitude_gain(g) == pytest.approx(
                math.sqrt(db_to_power_gain(g)), rel=1e-12
            )

    def test_round_trip(self):
        for p in (-200.0, -100.0, -37.5, 0.0, 42.0, 100.0):
            assert watts_to_dbm(dbm_to_watts(p)) == pytest.approx(p, rel=1e-12, abs=1e-12)

    def test_power_gain_strictly_increasing(self):
        xs = [-50.0, -10.0, -1.0, 0.0, 0.5, 10.0, 50.0]
        ys = [db_to_power_gain(x) for x in xs]
        assert all(a < b for a, b in zip(ys, ys[1:]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        for fn in (dbm_to_watts, db_to_power_gain, db_to_amplitude_gain):
            with pytest.raises(ConfigError):
                fn(bad)
        with pytest.raises(ConfigError):
            watts_to_dbm(bad)

    def test_nonpositive_watts_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ConfigError):
                watts_to_dbm(bad)


class TestLoadScenario:
    def test_paper_defaults_values(self):
        p = load_scenario({}, paper_defaults=True)
        assert p.beta1 == 56.23
        assert p.beta3 == -7497.33
        assert p.alpha_db == -1.1
        assert p.n_ar_dbm == -100.0
        assert p.n_at_dbm == -100.0
        assert p.n_cov_dbm == -70.0
        assert p.v0 == 4.5 and p.vst == 4.5 and p.vtr == 2.5
        assert p.r0 == 50.0 and p.rst == 50.0 and p.rtr == 10.0
        assert p.k_symbols == 100

    def test_paper_defaults_flag_inside_document(self):
        p = load_scenario({"paper_defaults": True, "ps_dbm": 5.0})
        assert p.ps_dbm == 5.0
        assert p.beta1 == 56.23

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_paper_defaults_key_must_be_a_boolean(self, flag):
        # "false" is a truthy string: it must not load the published values
        with pytest.raises(ConfigError, match="paper_defaults must be true or false") as ei:
            load_scenario({"paper_defaults": flag})
        assert ei.value.fields == ("paper_defaults",)

    def test_empty_document_lists_all_missing_keys(self):
        with pytest.raises(ConfigError) as ei:
            load_scenario({})
        missing = set(ei.value.fields)
        assert "beta1" in missing and "k_symbols" in missing
        # every mandatory key is named
        assert missing == set(PAPER_DEFAULTS) - {"pilot_fraction"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as ei:
            load_scenario({"paper_defaults": True, "beta2": 1.0})
        assert "beta2" in ei.value.fields

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigError) as ei:
            load_scenario({"paper_defaults": True, "beta1": "56.23"})
        assert "beta1" in ei.value.fields
        # a value of the wrong type is named with every other bad value
        with pytest.raises(ConfigError) as ei:
            load_scenario({"paper_defaults": True, "beta1": "56.23", "k_symbols": "a",
                           "r0": 0.5})
        assert set(ei.value.fields) == {"beta1", "k_symbols", "r0"}

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError):
            load_scenario({"paper_defaults": True, "v0": True})

    def test_integer_fields_reject_fractions(self):
        with pytest.raises(ConfigError) as ei:
            load_scenario({"paper_defaults": True, "n_samples": 75.5})
        assert "n_samples" in ei.value.fields

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_integer_fields_reject_non_finite(self, value):
        with pytest.raises(ConfigError) as ei:
            load_scenario({"paper_defaults": True, "k_symbols": value})
        assert tuple(ei.value.fields) == ("k_symbols",)

    def test_integer_beyond_the_float_range_is_rejected(self):
        # JSON integers have no size limit; float() of this one overflows
        with pytest.raises(ConfigError) as ei:
            load_scenario({"paper_defaults": True, "ps_dbm": 10 ** 400})
        assert tuple(ei.value.fields) == ("ps_dbm",)

    def test_pilot_fraction_even_odd(self):
        ok = load_scenario({"paper_defaults": True, "pilot_fraction": 0.3})
        assert ok.k_train == 30
        with pytest.raises(ConfigError) as ei:
            load_scenario({"paper_defaults": True, "pilot_fraction": 0.33})
        assert "pilot_fraction" in ei.value.fields
        # k_train = 2 is even but leaves one pilot per bit value, too few to estimate
        with pytest.raises(ConfigError) as ei:
            load_scenario({"paper_defaults": True, "pilot_fraction": 0.02})
        assert "pilot_fraction" in ei.value.fields

    def test_deterministic(self):
        doc = {"paper_defaults": True, "ps_dbm": -3.0}
        assert load_scenario(dict(doc)) == load_scenario(dict(doc))

    def test_read_scenario_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"paper_defaults": true, "ps_dbm": 7.0}')
        p = read_scenario(str(path))
        assert p.ps_dbm == 7.0

    def test_read_scenario_bad_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("not json")
        with pytest.raises(ConfigError):
            read_scenario(str(path))


class TestSystemParams:
    def test_invariants_enforced(self, paper_params):
        from dataclasses import replace
        for field, bad in (
            ("n_samples", 0), ("k_symbols", 0), ("r0", 0.0), ("v0", -1.0),
            ("pilot_fraction", 1.0), ("pilot_fraction", -0.1),
            # the one type rule judges a replace() as it judges a load
            ("ps_dbm", None), ("beta1", "56"), ("ps_dbm", 10 ** 400), ("beta3", 10 ** 400),
            ("ps_dbm", True), ("pilot_fraction", np.bool_(False)), ("k_symbols", 100.0),
        ):
            with pytest.raises(ConfigError) as ei:
                replace(paper_params, **{field: bad})
            assert field in ei.value.fields

    def test_derived_linear_quantities(self, paper_params):
        assert paper_params.ps == pytest.approx(dbm_to_watts(paper_params.ps_dbm))
        assert paper_params.n_ar == pytest.approx(1e-13, rel=1e-12, abs=0.0)
        assert paper_params.n_cov == pytest.approx(1e-10, rel=1e-12, abs=0.0)
        assert paper_params.alpha_amp == pytest.approx(10 ** (-1.1 / 20), rel=1e-12)

    @pytest.mark.parametrize("name, convert, source", [
        ("ps", dbm_to_watts, "ps_dbm"),
        ("n_ar", dbm_to_watts, "n_ar_dbm"),
        ("n_at", dbm_to_watts, "n_at_dbm"),
        ("n_cov", dbm_to_watts, "n_cov_dbm"),
        ("alpha_amp", db_to_amplitude_gain, "alpha_db"),
    ])
    def test_cached_powers(self, paper_params, name, convert, source):
        """Each derived power is computed once per instance, equals its dB
        conversion bit for bit, is computed afresh for a replaced field, and
        survives pickling (the process pool ships params that way)."""
        p = replace(paper_params, **{source: -20.5})
        value = getattr(p, name)
        assert value == convert(-20.5)
        assert getattr(p, name) is value   # cached, not recomputed
        q = replace(p, **{source: -33.0})
        assert getattr(q, name) == convert(-33.0) != value
        assert getattr(p, name) == value
        for params in (p, replace(p)):    # pickled with and without the cache
            back = pickle.loads(pickle.dumps(params))
            assert back == params and getattr(back, name) == getattr(params, name)

    def test_immutable(self, paper_params):
        with pytest.raises(Exception):
            paper_params.beta1 = 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_beta1_must_be_positive(self, paper_params, bad):
        from dataclasses import replace
        with pytest.raises(ConfigError) as ei:
            replace(paper_params, beta1=bad)
        assert ei.value.fields == ("beta1",)

    @pytest.mark.parametrize("field", ["ps_dbm", "n_ar_dbm", "n_at_dbm", "n_cov_dbm"])
    def test_powers_bounded_above(self, paper_params, field):
        from dataclasses import replace
        assert getattr(replace(paper_params, **{field: MAX_DBM}), field) == MAX_DBM
        # 1e5 dBm once overflowed in dbm_to_watts at first use
        for bad in (math.nextafter(MAX_DBM, math.inf), 1e5):
            with pytest.raises(ConfigError) as ei:
                replace(paper_params, **{field: bad})
            assert tuple(ei.value.fields) == (field,)
            assert f"{field} <= {MAX_DBM:g}" in str(ei.value)

    def test_powers_have_no_lower_bound(self, paper_params):
        from dataclasses import replace
        # -300 dBm is the noise floor of criterion 6's noise-free run; -4000 dBm
        # is 0 W, the exact noise-free limit
        for dbm in (-300.0, -4000.0):
            quiet = replace(paper_params, n_ar_dbm=dbm, n_at_dbm=dbm, n_cov_dbm=dbm,
                            ps_dbm=dbm)
            assert math.isfinite(quiet.n_ar) and math.isfinite(quiet.ps)

    def test_passive_tag_gain_bounded(self, paper_params):
        from dataclasses import replace
        assert replace(paper_params, alpha_db=MAX_ALPHA_DB).alpha_amp == 1.0
        with pytest.raises(ConfigError) as ei:
            replace(paper_params, alpha_db=1e5)
        assert tuple(ei.value.fields) == ("alpha_db",)

    def test_tag_gain_bounded_below(self, paper_params):
        from dataclasses import replace
        assert (replace(paper_params, alpha_db=MIN_ALPHA_DB).alpha_amp
                == pytest.approx(1e-15, rel=1e-6, abs=0.0))
        # -4000 dB once underflowed to a zero tag gain, and verify divided by it
        for bad in (math.nextafter(MIN_ALPHA_DB, -math.inf), -4000.0):
            with pytest.raises(ConfigError) as ei:
                replace(paper_params, alpha_db=bad)
            assert tuple(ei.value.fields) == ("alpha_db",)
            assert f"alpha_db >= {MIN_ALPHA_DB:g}" in str(ei.value)

    @pytest.mark.parametrize("distance, exponent", [("r0", "v0"), ("rst", "vst"),
                                                    ("rtr", "vtr")])
    def test_path_gain_at_most_0_db(self, paper_params, distance, exponent):
        from dataclasses import replace
        at_bound = replace(paper_params, **{distance: MIN_DISTANCE_M})
        assert getattr(at_bound, distance) ** -getattr(at_bound, exponent) == 1.0
        # 1e-40 m once loaded, and r^-v = 1e180 overflowed in the closed forms
        for bad in (math.nextafter(MIN_DISTANCE_M, 0.0), 1e-40, -5.0):
            with pytest.raises(ConfigError) as ei:
                replace(paper_params, **{distance: bad})
            assert tuple(ei.value.fields) == (distance,)
            assert f"{distance} >= {MIN_DISTANCE_M:g}" in str(ei.value)

    def test_path_gain_at_least_minus_300_db(self, paper_params):
        # vtr = 2.5: rtr = 1e12 m is a gain of exactly -300 dB
        at_bound = replace(paper_params, rtr=1e12)
        assert at_bound.rtr ** -at_bound.vtr == pytest.approx(1e-30, rel=1e-6, abs=0.0)
        # at 1e200 m r^-v underflows to 0: no tag signal at all;
        # at the paper's rtr = 10 m, vtr = 31 is -310 dB
        for doc in ({"rtr": 1e13}, {"rtr": 1e200}, {"vtr": 31.0}):
            with pytest.raises(ConfigError) as ei:
                replace(paper_params, **doc)
            assert tuple(ei.value.fields) == ("rtr", "vtr")
            assert f"rtr^-vtr >= {MIN_PATH_GAIN_DB:g} dB" in str(ei.value)

    def test_frame_size_capped(self):
        base = {"paper_defaults": True, "pilot_fraction": 0.0}
        load_scenario({**base, "k_symbols": MAX_K_SYMBOLS, "n_samples": 10})
        load_scenario({**base, "k_symbols": 1, "n_samples": MAX_N_SAMPLES})
        for k, n, named in (
            (MAX_K_SYMBOLS + 1, 1, ("k_symbols",)),
            (1, MAX_N_SAMPLES + 1, ("n_samples",)),
            (10 ** 9, 10 ** 6, ("k_symbols", "n_samples")),
            (MAX_FRAME_SAMPLES // 100 + 1, 100, ("k_symbols", "n_samples")),
        ):
            with pytest.raises(ConfigError) as ei:
                load_scenario({**base, "k_symbols": k, "n_samples": n})
            assert set(ei.value.fields) == set(named)
            assert all(name in str(ei.value) for name in named)

    def test_k_train(self):
        p = load_scenario({"paper_defaults": True, "pilot_fraction": 0.2,
                           "k_symbols": 200})
        assert p.k_train == 40


_FLOAT_FIELDS = [f.name for f in fields(SystemParams)
                 if f.name not in ("n_samples", "k_symbols")]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", _FLOAT_FIELDS)
def test_non_finite_scalars_rejected_at_load(field, value):
    with pytest.raises(ConfigError) as ei:
        load_scenario({"paper_defaults": True, field: value})
    assert field in ei.value.fields
    assert field in str(ei.value)


_SCALARS = st.one_of(
    st.floats(),
    st.integers(-(10 ** 400), 10 ** 400),
    st.integers(-5, 2 * MAX_K_SYMBOLS),
    st.floats(-5000.0, 400.0),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)


_DOCS = st.dictionaries(st.sampled_from([f.name for f in fields(SystemParams)]),
                       st.one_of(_SCALARS, st.floats().map(np.float64),
                                 st.integers(-5, 5).map(np.int64)), max_size=5)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
def test_load_rejects_or_returns_finite_in_range_fields(doc):
    try:
        p = load_scenario({"paper_defaults": True, **doc})
    except ConfigError as exc:
        assert exc.fields
        return
    _assert_finite_in_range(p)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
def test_direct_construction_rejects_or_returns_finite_in_range_fields(doc):
    try:
        p = SystemParams(**{**PAPER_DEFAULTS, **doc})
    except ConfigError as exc:
        assert exc.fields
        return
    _assert_finite_in_range(p)


def _assert_finite_in_range(p):
    for name in _FLOAT_FIELDS:
        assert type(getattr(p, name)) is float and math.isfinite(getattr(p, name))
    for name in ("ps_dbm", "n_ar_dbm", "n_at_dbm", "n_cov_dbm"):
        assert getattr(p, name) <= MAX_DBM
    assert MIN_ALPHA_DB <= p.alpha_db <= MAX_ALPHA_DB
    for distance, exponent in (("r0", "v0"), ("rst", "vst"), ("rtr", "vtr")):
        assert getattr(p, distance) >= MIN_DISTANCE_M
        # 1 - 1e-12: r ** -v and the load check's v * log10(r) round apart
        assert 1e-30 * (1 - 1e-12) <= getattr(p, distance) ** -getattr(p, exponent) <= 1.0
    assert 1 <= p.k_symbols <= MAX_K_SYMBOLS and 1 <= p.n_samples <= MAX_N_SAMPLES
    assert p.k_symbols * p.n_samples <= MAX_FRAME_SAMPLES
    for linear in (p.ps, p.n_ar, p.n_at, p.n_cov, p.alpha_amp):
        assert math.isfinite(linear) and linear >= 0


# every call that takes a receiver mode, on a fixed channel
_MODE_CALLS = {
    "noise_power": lambda p, real, mode: noise_power(p, real.htr_abs2, 1, mode),
    "level_moments": lambda p, real, mode: level_moments(p, (real.p0, real.p1),
                                                         (p.n_ar, p.n_ar), mode),
    "hypothesis_moments": hypothesis_moments,
    "draw_energies": lambda p, real, mode: draw_energies(
        p, np.array([0, 1]), (real.p0, real.p1), (p.n_ar, p.n_ar), np.random.default_rng(0),
        mode),
    "generate_frame": lambda p, real, mode: generate_frame(
        p, real, np.zeros(p.k_symbols, dtype=np.int64), np.random.default_rng(0), mode),
}


@pytest.mark.parametrize("mode", ["LNA", "bogus"])
@pytest.mark.parametrize("call", list(_MODE_CALLS))
def test_one_rule_for_the_mode_name(paper_params, fixed_realization, call, mode):
    # the one rule of config.check_mode: no call reads "LNA" as either mode
    for good in MODES:
        _MODE_CALLS[call](paper_params, fixed_realization, good)
    with pytest.raises(ValueError, match="mode must be one of") as ei:
        _MODE_CALLS[call](paper_params, fixed_realization, mode)
    assert ei.value.fields == ("mode",)     # a ConfigError, as SweepSpec's "modes" rule

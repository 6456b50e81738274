import concurrent.futures
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import textwrap
import time
from dataclasses import fields

import numpy as np
import pytest

import ambclink
from ambclink.cli import (
    BER_CSV_HEADER,
    EXIT_CHECK_FAILURE,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    PILOT_CSV_HEADER,
    UNHASHED_OPTIONS,
    _parse_sweep,
    build_parser,
    main,
)
from ambclink.config import MAX_WORKERS
from ambclink.errors import ConfigError
from ambclink.montecarlo import (POOL_MIN_SAMPLES, SWEEP_BDPR, BerPoint,
                                 PilotPoint)

FAST = ["--seed", "4", "--workers", "1"]
SMALL_SWEEP = ["--sweep", "ps:0:10:10", "--frames", "1", "--realizations", "4"]


def _scenario_file(tmp_path, **overrides):
    doc = {"paper_defaults": True, "k_symbols": 40, "n_samples": 25,
           "pilot_fraction": 0.0}
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestBerSweep:
    def test_runs_and_writes_csv(self, tmp_path):
        out = str(tmp_path / "ber.csv")
        scenario = _scenario_file(tmp_path)
        rc = main(["ber-sweep", "--scenario", scenario, "--out", out,
                   *SMALL_SWEEP, *FAST])
        assert rc == EXIT_OK
        lines = _read(out).decode().splitlines()
        comments = [l for l in lines if l.startswith("# ")]
        assert any(l.startswith("# tool_version=") for l in comments)
        assert f"# numpy_version={np.__version__}" in comments
        assert any(l.startswith("# scenario_digest=") for l in comments)
        assert any(l.startswith("# master_seed=") for l in comments)
        header = next(l for l in lines if not l.startswith("#"))
        assert header == BER_CSV_HEADER
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 4  # 2 sweep values x 2 modes

    def test_rerun_byte_identical(self, tmp_path):
        scenario = _scenario_file(tmp_path)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (a, b):
            assert main(["ber-sweep", "--scenario", scenario, "--out", out,
                         *SMALL_SWEEP, *FAST]) == EXIT_OK
        assert _read(a) == _read(b)

    def test_calls_in_one_process_share_the_parser_and_no_options(self, tmp_path, capsys):
        # the parser is built once per process; options away from their
        # defaults, a usage error and --help in between leave the next parse as
        # it was
        scenario = _scenario_file(tmp_path, pilot_fraction=0.2)
        first, again = str(tmp_path / "first.csv"), str(tmp_path / "again.csv")
        base = ["ber-sweep", "--scenario", scenario, *FAST]
        assert main([*base, "--out", first, *SMALL_SWEEP]) == EXIT_OK
        assert main([*base, "--out", str(tmp_path / "pinned.csv"), "--sweep", "ps:0:10:10",
                     "--realizations", "4", "--bdpr", "-20", "--threshold-policy", "estimated",
                     "--frames", "2", "--modes", "lna"]) == EXIT_OK
        assert main([*base, "--out", str(tmp_path / "bdpr.csv"), "--sweep", "bdpr:-30:-10:20",
                     "--ps", "5", "--realizations", "3"]) == EXIT_OK
        for argv, code in (([*base, "--sweep", "ps:0:10:10", "--frames", "x"], 2),
                           (["ber-sweep", "--help"], 0)):
            with pytest.raises(SystemExit) as ei:
                main(argv)
            assert ei.value.code == code
        assert "--threshold-policy" in capsys.readouterr().out
        assert main([*base, "--out", again, *SMALL_SWEEP]) == EXIT_OK
        assert _read(again) == _read(first)
        assert build_parser() is build_parser()

    def test_worker_count_does_not_change_output(self, tmp_path):
        scenario = _scenario_file(tmp_path)
        a, b = str(tmp_path / "w1.csv"), str(tmp_path / "w3.csv")
        base = ["ber-sweep", "--scenario", scenario, *SMALL_SWEEP, "--seed", "4"]
        assert main([*base, "--workers", "1", "--out", a]) == EXIT_OK
        assert main([*base, "--workers", "3", "--out", b]) == EXIT_OK
        assert _read(a) == _read(b)

    def test_mode_order_does_not_change_rows(self, tmp_path):
        # frames, like channels, are seeded apart from the point and the mode
        scenario = _scenario_file(tmp_path, pilot_fraction=0.2)
        rows = []
        for modes in ("no_lna,lna", "lna,no_lna"):
            out = str(tmp_path / f"{modes}.csv")
            assert main(["ber-sweep", "--scenario", scenario, "--out", out, "--modes", modes,
                         "--threshold-policy", "estimated", *SMALL_SWEEP, *FAST]) == EXIT_OK
            rows.append(sorted(l for l in _read(out).decode().splitlines()
                               if not l.startswith("#")))
        assert rows[0] == rows[1]

    def test_estimated_policy_without_data_symbols_rejected(self, tmp_path, capsys):
        # K=10 at 95 % pilots rounds to 10 pilots, leaving no symbol to count
        scenario = _scenario_file(tmp_path, k_symbols=10, pilot_fraction=0.95)
        out = str(tmp_path / "x.csv")
        rc = main(["ber-sweep", "--scenario", scenario, "--out", out, "--sweep", "ps:0:10:10",
                   "--threshold-policy", "estimated", *FAST])
        assert rc == EXIT_VALIDATION
        assert "pilot_fraction" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_retired_policy_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["ber-sweep", "--paper-defaults", "--sweep", "ps:0:10:10",
                  "--out", str(tmp_path / "x.csv"), "--threshold-policy", "numeric_oracle"])
        assert ei.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_scenario_file_not_mutated(self, tmp_path):
        scenario = _scenario_file(tmp_path)
        before = hashlib.sha256(_read(scenario)).hexdigest()
        main(["ber-sweep", "--scenario", scenario,
              "--out", str(tmp_path / "x.csv"), *SMALL_SWEEP, *FAST])
        assert hashlib.sha256(_read(scenario)).hexdigest() == before

    def test_missing_scenario_flags(self, tmp_path):
        rc = main(["ber-sweep", "--sweep", "ps:0:10:10",
                   "--out", str(tmp_path / "x.csv"), *FAST])
        assert rc == EXIT_VALIDATION

    def test_bad_sweep_syntax(self, tmp_path):
        for bad in ("ps:0:10", "gain:0:10:5", "ps:10:0:5", "ps:a:b:c"):
            rc = main(["ber-sweep", "--paper-defaults", "--sweep", bad,
                       "--out", str(tmp_path / "x.csv"), *FAST])
            assert rc == EXIT_VALIDATION
        assert not os.path.exists(tmp_path / "x.csv")

    @pytest.mark.parametrize("sweep", ["ps:0:5:1e-12", "ps:0:1e300:1e-300",
                                       "ps:-1e308:1e308:1"])
    def test_oversized_grid_rejected_before_it_is_built(self, tmp_path, capsys, sweep):
        out = str(tmp_path / "ber.csv")
        t0 = time.monotonic()
        rc = main(["ber-sweep", "--scenario", _scenario_file(tmp_path), "--out", out,
                   "--sweep", sweep, *FAST])
        assert time.monotonic() - t0 < 1.0
        assert rc == EXIT_VALIDATION
        assert "--sweep" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_step_below_float_spacing_still_ends(self):
        # 1e17 + 2 rounds back to 1e17, so accumulating the step never advances;
        # by index the 513 points end, and their repeats name the sweep
        t0 = time.monotonic()
        assert _parse_sweep("bdpr:1e17:1e17:1") == (SWEEP_BDPR, (1e17,))
        with pytest.raises(ConfigError, match="closer than the 1e-9 grain") as raised:
            _parse_sweep("bdpr:1e17:1.0000000000000102e17:2")
        assert time.monotonic() - t0 < 1.0
        assert raised.value.fields == ("sweep",)

    def test_grid_slack_is_a_fraction_of_the_step(self):
        # the slack is a fraction of the step, so a step near 1e-9 takes no point past stop
        assert _parse_sweep("ps:0:5e-9:1e-9") == (
            "ps_dbm", (0.0, 1e-9, 2e-9, 3e-9, 4e-9, 5e-9))
        assert _parse_sweep("ps:0:0.3:0.1") == ("ps_dbm", (0.0, 0.1, 0.2, 0.3))

    def test_unwritable_output_is_io_error_without_partial_file(self, tmp_path):
        scenario = _scenario_file(tmp_path)
        out = str(tmp_path / "no" / "such" / "dir" / "x.csv")
        rc = main(["ber-sweep", "--scenario", scenario, "--out", out,
                   *SMALL_SWEEP, *FAST])
        assert rc == EXIT_IO
        assert not os.path.exists(out)

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_csv_takes_the_mode_open_gives(self, tmp_path):
        # 0o666 less the umask, as open() creates a file, not mkstemp's 0o600
        out = tmp_path / "ber.csv"
        umask = os.umask(0o022)
        try:
            rc = main(["ber-sweep", "--scenario", _scenario_file(tmp_path), "--out", str(out),
                       *SMALL_SWEEP, *FAST])
        finally:
            os.umask(umask)
        assert rc == EXIT_OK
        assert stat.S_IMODE(out.stat().st_mode) == 0o644

    def test_ps_override_with_bdpr_sweep(self, tmp_path):
        scenario = _scenario_file(tmp_path)
        out = str(tmp_path / "bdpr.csv")
        rc = main(["ber-sweep", "--scenario", scenario, "--out", out,
                   "--sweep", "bdpr:-30:-10:20", "--ps", "5", "--modes", "lna",
                   "--frames", "1", "--realizations", "4", *FAST])
        assert rc == EXIT_OK
        rows = [l for l in _read(out).decode().splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) == 2
        assert all(r.startswith("bdpr_db,") for r in rows)


class TestPilotSweep:
    def test_runs_and_writes_csv(self, tmp_path):
        scenario = _scenario_file(tmp_path, k_symbols=200, pilot_fraction=0.2)
        out = str(tmp_path / "pilot.csv")
        rc = main(["pilot-sweep", "--scenario", scenario, "--out", out,
                   "--fractions", "0.1,0.2", "--mode", "lna",
                   "--frames", "3", "--realizations", "2", *FAST])
        assert rc == EXIT_OK
        lines = _read(out).decode().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == PILOT_CSV_HEADER
        assert len([l for l in lines if not l.startswith("#")]) == 3

    def test_worker_count_does_not_change_output(self, tmp_path):
        scenario = _scenario_file(tmp_path, k_symbols=200)
        a, b = str(tmp_path / "w1.csv"), str(tmp_path / "w2.csv")
        base = ["pilot-sweep", "--scenario", scenario, "--fractions", "0.05,0.2",
                "--frames", "3", "--realizations", "3", "--seed", "4"]
        assert main([*base, "--workers", "1", "--out", a]) == EXIT_OK
        assert main([*base, "--workers", "2", "--out", b]) == EXIT_OK
        assert _read(a) == _read(b)

    def test_odd_pilot_count_rejected_before_work(self, tmp_path):
        scenario = _scenario_file(tmp_path, k_symbols=100)
        out = str(tmp_path / "pilot.csv")
        rc = main(["pilot-sweep", "--scenario", scenario, "--out", out,
                   "--fractions", "0.05,0.2", "--frames", "2",
                   "--realizations", "1", *FAST])
        assert rc == EXIT_VALIDATION
        assert not os.path.exists(out)


@pytest.mark.parametrize("command, bad_args, field", [
    ("ber-sweep", ["--realizations", "0"], "n_realizations"),
    ("ber-sweep", ["--frames", "0"], "n_frames"),
    ("ber-sweep", ["--modes", "lna,amp"], "modes"),
    ("pilot-sweep", ["--realizations", "0"], "n_realizations"),
    ("pilot-sweep", ["--frames", "0"], "n_frames"),
    ("pilot-sweep", ["--fractions", "0,0.2"], "pilot fractions"),
    ("ber-sweep", ["--threshold-policy", "estimated"], "pilot_fraction"),
    ("ber-sweep", ["--ps", "100000"], "ps_dbm"),
    ("pilot-sweep", ["--ps", "300.5"], "ps_dbm"),
    ("ber-sweep", ["--sweep", "ps:100:400:100"], "ps_dbm"),
    ("ber-sweep", ["--bdpr", "nan"], "bdpr"),
    ("ber-sweep", ["--bdpr", "inf"], "bdpr"),
    ("ber-sweep", ["--bdpr", "1e308"], "bdpr"),
    ("ber-sweep", ["--bdpr", "300"], "bdpr"),
    ("ber-sweep", ["--sweep", "bdpr:1e308:1e308:1"], "bdpr"),
    ("ber-sweep", ["--sweep", "bdpr:-30:-10:10", "--bdpr", "-20"], "bdpr"),
    ("ber-sweep", ["--sweep", "ps:200:200:1", "--bdpr", "200"], "bdpr"),
    ("ber-sweep", ["--sweep", "ps:250:250:1", "--bdpr", "170"], "bdpr"),
    ("ber-sweep", ["--sweep", "ps:300:300:1", "--bdpr", "150"], "bdpr"),
    ("ber-sweep", ["--sweep", "bdpr:-200:200:100", "--ps", "300"], "bdpr"),
    ("ber-sweep", ["--seed", "-1"], "seed"),
    ("pilot-sweep", ["--seed", "-1"], "seed"),
    ("ber-sweep", ["--workers", "0"], "workers"),
    ("ber-sweep", ["--workers", "-1"], "workers"),
    ("pilot-sweep", ["--workers", "0"], "workers"),
    ("pilot-sweep", ["--workers", "-1"], "workers"),
    ("ber-sweep", ["--modes", "lna,lna"], "modes"),
    ("pilot-sweep", ["--fractions", "0.1,0.1"], "pilot_fraction"),
    ("ber-sweep", ["--realizations", "1000000000"], "n_realizations"),
    ("pilot-sweep", ["--realizations", "1000000000"], "n_realizations"),
    ("ber-sweep", ["--frames", "1000000"], "n_frames"),
    ("pilot-sweep", ["--frames", "1000000000"], "n_frames"),
    ("pilot-sweep", ["--fractions", "0.05,0.05000000001"], "pilot_fraction"),
    ("ber-sweep", ["--sweep", "ps:0:2e-10:1e-10"], "--sweep"),
    ("ber-sweep", ["--sweep", "ps:0:1e-9:1e-10"], "--sweep"),
    ("ber-sweep", ["--workers", str(MAX_WORKERS + 1)], "workers"),
    ("ber-sweep", ["--workers", "100000"], "workers"),
    ("pilot-sweep", ["--workers", str(MAX_WORKERS + 1)], "workers"),
    ("pilot-sweep", ["--workers", "100000"], "workers"),
    ("ber-sweep", ["--ps", "5"], "--ps"),
], ids=["ber-realizations-0", "ber-frames-0", "ber-unknown-mode",
        "pilot-realizations-0", "pilot-frames-0", "pilot-fraction-0",
        "ber-estimated-without-pilots", "ber-ps-override-too-high",
        "pilot-ps-override-too-high", "ber-ps-grid-too-high", "ber-bdpr-nan",
        "ber-bdpr-inf", "ber-bdpr-overflow", "ber-bdpr-too-high",
        "ber-bdpr-grid-overflow", "ber-bdpr-pinned-in-bdpr-sweep",
        "ber-bdpr-200-at-ps-200", "ber-bdpr-170-at-ps-250", "ber-bdpr-150-at-ps-300",
        "ber-bdpr-sweep-at-ps-300", "ber-seed-negative", "pilot-seed-negative",
        "ber-workers-0", "ber-workers-negative", "pilot-workers-0",
        "pilot-workers-negative", "ber-modes-repeated", "pilot-fractions-repeated",
        "ber-realizations-over-cap", "pilot-realizations-over-cap",
        "ber-symbols-over-cap", "pilot-symbols-over-cap", "pilot-fractions-of-one-count",
        "ber-sweep-values-repeated", "ber-sweep-step-below-grain", "ber-workers-over-cap",
        "ber-workers-huge", "pilot-workers-over-cap", "pilot-workers-huge", "ber-ps-on-ps-sweep"])
def test_bad_counts_and_choices_exit_1_without_csv(tmp_path, capsys, monkeypatch, command,
                                                   bad_args, field):
    def no_draw(*args):
        raise AssertionError("channel drawn")

    def no_pool(*args, **kwargs):
        raise AssertionError("process pool built")
    monkeypatch.setattr(ambclink.montecarlo, "_block_draws", no_draw)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    scenario = _scenario_file(tmp_path, k_symbols=200)
    out = str(tmp_path / "x.csv")
    sweep = ["--sweep", "ps:0:10:10"] if command == "ber-sweep" else []
    # 1200 realizations at K = 200 and N = 25 draw above POOL_MIN_SAMPLES (both
    # modes, each counted, or 10 frames of 80 pilots), so a sweep judged late
    # opens a pool
    size = ["--realizations", "1200", "--workers", "2"]
    assert 1200 * min(2 * 200, 10 * 80) * 25 > POOL_MIN_SAMPLES
    rc = main([command, "--scenario", scenario, "--out", out, *sweep, *FAST, *size, *bad_args])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]   # no temp file


@pytest.mark.parametrize("command", ["ber-sweep", "pilot-sweep"])
def test_a_bad_out_fails_before_any_channel_is_drawn(tmp_path, capsys, monkeypatch, command):
    def no_draw(*args):
        raise AssertionError("channel drawn")
    monkeypatch.setattr(ambclink.montecarlo, "_block_draws", no_draw)
    scenario = _scenario_file(tmp_path, k_symbols=200)
    base = [command, "--scenario", scenario, *FAST,
            *(["--sweep", "ps:0:10:10"] if command == "ber-sweep" else [])]
    missing = str(tmp_path / "no" / "x.csv")
    assert main([*base, "--out", missing]) == EXIT_IO
    assert capsys.readouterr().err.startswith("I/O error: ")
    # the scenario loads first: a bad value in it is still a validation error
    assert main([*base, "--ps", "1e5", "--out", missing]) == EXIT_VALIDATION
    # a run that fails mid-sweep leaves no temp file behind
    with pytest.raises(AssertionError, match="channel drawn"):
        main([*base, "--out", str(tmp_path / "x.csv")])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


def test_a_pool_opens_no_more_processes_than_blocks(tmp_path, monkeypatch):
    # K = 200: blocks of at most 81 realizations, so 400 make five, and with
    # both modes at N = 75, each counted, they draw above POOL_MIN_SAMPLES:
    # --workers 8 needs five processes
    assert 2 * 400 * 200 * 75 > POOL_MIN_SAMPLES
    opened = []

    class InProcessPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    scenario = _scenario_file(tmp_path, k_symbols=200, n_samples=75)
    base = ["ber-sweep", "--scenario", scenario, "--sweep", "ps:0:10:10",
            "--modes", "lna,no_lna", "--realizations", "400", "--seed", "4"]
    a, b = str(tmp_path / "w1.csv"), str(tmp_path / "w8.csv")
    assert main([*base, "--workers", "1", "--out", a]) == EXIT_OK
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    assert main([*base, "--workers", "8", "--out", b]) == EXIT_OK
    assert opened == [5]
    assert _read(a) == _read(b)


@pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
def test_csv_is_byte_identical_either_side_of_the_pool_threshold(tmp_path, monkeypatch,
                                                                 above):
    # the README ps sweep's shape: both modes at K = 100 and N = 75 count
    # 7500 samples a realization each; at --workers 2 a pool opens only above
    # POOL_MIN_SAMPLES
    realizations = POOL_MIN_SAMPLES // (2 * 7500) + above
    opened = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers=max_workers)

    base = ["ber-sweep", "--paper-defaults", "--sweep", "ps:0:10:10",
            "--realizations", str(realizations), "--seed", "7"]
    a, b = str(tmp_path / "w1.csv"), str(tmp_path / "w2.csv")
    assert main([*base, "--workers", "1", "--out", a]) == EXIT_OK
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    assert main([*base, "--workers", "2", "--out", b]) == EXIT_OK
    assert opened == ([2] if above else [])
    assert _read(a) == _read(b)


@pytest.mark.parametrize("header, row_type", [(BER_CSV_HEADER, BerPoint),
                                              (PILOT_CSV_HEADER, PilotPoint)],
                         ids=["ber", "pilot"])
def test_csv_columns_are_the_leading_fields_of_the_row_type(header, row_type):
    # a row's cells are the fields its header names, which must be the row
    # type's leading fields in order: a field inserted out of place fails here
    columns = header.lower().split(",")
    assert columns == [f.name for f in fields(row_type)][:len(columns)]


# per command: a valid value of every hashed option, then another valid one
_DIGEST_OPTIONS = {
    "ber-sweep": {
        "sweep": ("ps:0:10:10", "ps:0:20:10"), "modes": ("no_lna,lna", "lna"),
        "threshold_policy": ("closed_form_true", "estimated"), "frames": ("1", "2"),
        "realizations": ("2", "3"), "bdpr": (None, "-20"), "ps": (None, "5"),
    },
    "pilot-sweep": {
        "fractions": ("0.1,0.2", "0.1,0.4"), "mode": ("lna", "no_lna"), "frames": ("2", "3"),
        "realizations": ("2", "3"), "ps": (None, "5"),
    },
}
# the other options an option's second value needs: --ps is rejected on a ps sweep
_DIGEST_CONTEXT = {("ber-sweep", "ps"): {"sweep": "bdpr:-30:-10:20"}}


@pytest.mark.parametrize("command", list(_DIGEST_OPTIONS))
def test_the_digest_covers_every_option(tmp_path, command):
    scenario = _scenario_file(tmp_path, pilot_fraction=0.2)
    options = _DIGEST_OPTIONS[command]

    def argv(out="x.csv", workers="1", **changes):
        values = {name: pair[0] for name, pair in options.items()} | changes
        flags = [x for name, value in values.items() if value is not None
                 for x in ("--" + name.replace("_", "-"), value)]
        return [command, "--scenario", scenario, "--seed", "4", "--workers", workers,
                "--out", str(tmp_path / out), *flags]

    def digest(**changes):
        args = argv(**changes)
        assert main(args) == EXIT_OK
        text = _read(args[args.index("--out") + 1]).decode()
        return re.search(r"^# scenario_digest=(\w+)$", text, re.M).group(1)

    hashed = set(vars(build_parser().parse_args(argv()))) - UNHASHED_OPTIONS
    assert hashed == set(options)
    base = digest()
    for name, (_, other) in options.items():
        context = _DIGEST_CONTEXT.get((command, name), {})
        assert digest(**context, **{name: other}) != (digest(**context) if context else base), name
    assert digest(out="elsewhere.csv", workers="2") == base


@pytest.mark.parametrize("ps, bdpr", [(300, 120), (250, 150), (200, 170)])
def test_high_power_bdpr_within_reach_runs(tmp_path, ps, bdpr):
    """The BDPR reach check rejects only where draws fail: these points, 20-30
    dB of BDPR below failing ones at the same Ps, pass it and run without
    failures."""
    out = str(tmp_path / "x.csv")
    rc = main(["ber-sweep", "--paper-defaults", "--sweep", f"ps:{ps}:{ps}:1",
               "--bdpr", str(bdpr), "--realizations", "20", "--out", out, *FAST])
    assert rc == EXIT_OK
    assert [row.split(b",")[-1] for row in _read(out).splitlines()[-2:]] == [b"0", b"0"]


@pytest.mark.parametrize("command", ["ber-sweep", "pilot-sweep", "verify"])
@pytest.mark.parametrize("doc, named", [
    ({"ps_dbm": 100000}, ("ps_dbm",)),
    ({"n_cov_dbm": 1e4}, ("n_cov_dbm",)),
    ({"k_symbols": 10 ** 9, "n_samples": 10 ** 6}, ("k_symbols", "n_samples")),
    ({"r0": 1e-40}, ("r0",)),
    ({"alpha_db": -4000}, ("alpha_db",)),
    ({"rtr": 1e200}, ("rtr",)),
], ids=["ps-dbm", "noise-dbm", "frame-size", "path-gain", "tag-gain-floor",
        "path-gain-underflow"])
def test_out_of_range_scenario_exits_1_naming_the_fields(tmp_path, capsys, command, doc,
                                                         named):
    scenario = _scenario_file(tmp_path, **{"k_symbols": 200, **doc})
    out = str(tmp_path / "x.csv")
    extra = {"ber-sweep": ["--sweep", "ps:0:10:10", "--out", out],
             "pilot-sweep": ["--out", out], "verify": []}[command]
    rc = main([command, "--scenario", scenario, "--seed", "4", *extra])
    captured = capsys.readouterr()
    assert rc == EXIT_VALIDATION
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert all(name in captured.err for name in named)
    assert captured.out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["ber-sweep", "pilot-sweep", "verify"])
def test_undecodable_scenario_file_exits_1_naming_it(tmp_path, capsys, command):
    scenario = tmp_path / "utf16.json"
    scenario.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x7B]))   # not UTF-8
    out = str(tmp_path / "x.csv")
    extra = {"ber-sweep": ["--sweep", "ps:0:10:10", "--out", out],
             "pilot-sweep": ["--out", out], "verify": []}[command]
    rc = main([command, "--scenario", str(scenario), "--seed", "4", *extra])
    captured = capsys.readouterr()
    assert rc == EXIT_VALIDATION
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert str(scenario) in captured.err
    assert not os.path.exists(out)


def test_string_paper_defaults_exits_1_naming_the_key(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"paper_defaults": "false"}))
    out = str(tmp_path / "x.csv")
    rc = main(["ber-sweep", "--scenario", str(scenario), "--sweep", "ps:0:0:1",
               "--realizations", "2", "--out", out])
    assert rc == EXIT_VALIDATION
    assert "paper_defaults" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_scipy_stays_off_the_sweep_path(tmp_path):
    """Importing the package and running BER and pilot sweeps load no scipy;
    only verify loads it, when it runs, and then only scipy.special. The K=200
    pilot sweep with 4 pilots meets moment sets whose two PDFs both underflow
    to 0 at the threshold. Nor does a sweep at --workers 2 load the process
    pool's modules unless it opens a pool: two tasks or more, drawing more
    than POOL_MIN_SAMPLES samples."""
    code = textwrap.dedent("""
        import json, sys
        import ambclink

        def loaded(package="scipy"):
            return any(name == package or name.startswith(package + ".")
                       for name in sys.modules)

        def pool_loaded():
            return loaded("concurrent.futures") or loaded("multiprocessing")

        assert not loaded("ambclink.verify"), "import ambclink"
        import ambclink.cli
        assert not loaded(), "import"
        assert not loaded("numpy.polynomial"), "import"
        assert not pool_loaded(), "import"
        ber = ["ber-sweep", "--paper-defaults", "--sweep", "ps:0:10:10", "--workers", "2",
               "--realizations", "2", "--out", "ber.csv"]
        assert ambclink.cli.main(ber) == 0
        assert ambclink.cli.main([*ber, "--threshold-policy", "estimated"]) == 0
        assert not loaded(), "ber-sweep"
        assert ambclink.cli.main(["pilot-sweep", "--paper-defaults", "--fractions",
                                  "0.2,0.4", "--frames", "2", "--realizations", "2",
                                  "--workers", "2", "--out", "pilot.csv"]) == 0
        with open("k200.json", "w") as fh:
            json.dump({"paper_defaults": True, "k_symbols": 200, "ps_dbm": 30}, fh)
        assert ambclink.cli.main(["pilot-sweep", "--scenario", "k200.json", "--fractions",
                                  "0.02", "--mode", "lna", "--realizations", "20",
                                  "--frames", "100", "--seed", "3", "--workers", "2",
                                  "--out", "k200.csv"]) == 0
        assert not loaded(), "pilot-sweep"
        assert not pool_loaded(), "single-task sweeps"
        # the README ps sweep: two blocks, under POOL_MIN_SAMPLES
        readme = ["ber-sweep", "--paper-defaults", "--sweep", "ps:-10:30:5", "--seed", "7",
                  "--workers", "2", "--out", "readme.csv"]
        assert ambclink.cli.main([*readme, "--realizations", "200"]) == 0
        assert not pool_loaded(), "README ber-sweep"
        # both modes at K = 100 and N = 75 count 7500 samples a realization each
        mc = ambclink.montecarlo
        above = mc.POOL_MIN_SAMPLES // (2 * 7500) + 1
        assert ambclink.cli.main([*readme, "--realizations", str(above)]) == 0
        assert loaded("concurrent.futures") and loaded("multiprocessing"), "pool"
        assert not loaded(), "pool"
        assert ambclink.cli.main(["verify", "--paper-defaults"]) == 0
        assert loaded("scipy.special"), "verify"
        assert not loaded("scipy.integrate"), "verify"
        assert not loaded("scipy.optimize"), "verify"
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ambclink.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "verify: all checks passed" in proc.stdout


def test_a_no_lna_sweep_runs_in_process_where_a_pool_loses(tmp_path):
    """One no-LNA point at K = 100 and N = 75 reads the N samples a symbol
    that an LNA point reads, and --workers 2 overtakes 1 between 1000 and
    1200 realizations: at 1000 a pool of 2 workers saves nothing, so
    --workers 2 runs in the calling process, loading no concurrent.futures,
    and writes the bytes of --workers 1."""
    code = textwrap.dedent("""
        import sys
        import ambclink.cli

        csv = []
        for workers in ("1", "2"):
            args = ["ber-sweep", "--paper-defaults", "--sweep", "ps:0:0:1", "--modes",
                    "no_lna", "--realizations", "1000", "--seed", "7",
                    "--workers", workers, "--out", f"w{workers}.csv"]
            assert ambclink.cli.main(args) == 0
            with open(f"w{workers}.csv", encoding="utf-8") as fh:
                csv.append(fh.read())
        assert csv[0] == csv[1]
        pool = [name for name in sys.modules
                if name.split(".")[0] in ("concurrent", "multiprocessing")]
        assert pool == [], pool
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ambclink.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


class TestVerify:
    def test_paper_defaults_pass(self, capsys):
        # sha256 of the check lines, all but the closing line with its time:
        # a change that must not move any verify result keeps them byte for
        # byte (x86-64 Linux, CPython 3.11, numpy 2.4.6, scipy 1.17.1)
        rc = main(["verify", "--paper-defaults", "--seed", "0"])
        *checks, last = capsys.readouterr().out.splitlines(keepends=True)
        assert rc == EXIT_OK
        assert last.startswith("verify: all checks passed")
        assert not any("FAIL" in line for line in checks)
        assert hashlib.sha256("".join(checks).encode()).hexdigest() == \
            "758d7840f102df89ab51074f3c14392a3242ae809908d58d10a2e7035f522dc3"

    def test_ps_override_reaches_the_checks(self, capsys):
        def moments_line(extra):
            main(["verify", "--paper-defaults", "--seed", "0", *extra])
            out = capsys.readouterr().out
            return next(l for l in out.splitlines() if l.startswith("moments_vs_montecarlo"))

        assert moments_line(["--ps", "30"]) != moments_line([])

    def test_ill_conditioned_deflection_seed_passes(self, capsys):
        # seed 51 draws a channel with |h1| close to |h0|: the composition's
        # mean difference has cond ~4e6, so its rounding error (7e-10) is far
        # above 1e-12 and only a cond-scaled tolerance accepts it
        rc = main(["verify", "--paper-defaults", "--seed", "51"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "FAIL" not in out

    @pytest.mark.parametrize("doc", [{"beta3": -1e-20}, {"alpha_db": -300.0}],
                             ids=["near-linear-lna", "weak-tag"])
    def test_derived_operating_points_stay_in_range(self, tmp_path, capsys, doc):
        # the sampler check derives Ps (compression) and the tag noise
        # (noise-limited) from the scenario; here one of them exceeds 300 dBm
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"paper_defaults": True, **doc}))
        rc = main(["verify", "--scenario", str(path), "--seed", "0"])
        captured = capsys.readouterr()
        assert rc == EXIT_OK, captured.err
        assert "all checks passed" in captured.out

    def test_zero_gain_rejected_at_load(self, tmp_path, capsys):
        path = tmp_path / "beta1.json"
        path.write_text(json.dumps({"paper_defaults": True, "beta1": 0.0}))
        rc = main(["verify", "--scenario", str(path), "--seed", "0"])
        captured = capsys.readouterr()
        assert rc == EXIT_VALIDATION
        assert captured.err.startswith("error: ") and "beta1" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("bad_args, field", [(["--seed", "-1"], "seed")],
                             ids=["seed-negative"])
    def test_bad_seed_or_workers_rejected_before_any_check(self, capsys, monkeypatch,
                                                            bad_args, field):
        def no_check(*args, **kwargs):
            raise AssertionError("check ran")
        monkeypatch.setattr(ambclink.verify, "check_moments_vs_expansion", no_check)
        rc = main(["verify", "--paper-defaults", *bad_args])
        captured = capsys.readouterr()
        assert rc == EXIT_VALIDATION
        assert captured.err.startswith("error: ") and field in captured.err
        assert captured.out == ""

    def test_attenuating_front_end_fails_checks(self, tmp_path, capsys):
        # beta1 < 1 raises the input-referred front-end noise above the plain
        # receiver's, so the advantage/convergence check must fail
        scenario = _scenario_file(tmp_path, beta1=0.5, beta3=0.0,
                                  k_symbols=100, n_samples=75)
        rc = main(["verify", "--scenario", scenario, "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == EXIT_CHECK_FAILURE
        assert "FAIL" in out

    def test_workers_is_not_a_verify_option(self, capsys):
        # verify runs its checks serially in the calling process
        with pytest.raises(SystemExit):
            main(["verify", "--paper-defaults", "--workers", "2"])
        assert "--workers" in capsys.readouterr().err


class TestReadmeOutputs:
    """sha256 of the CSVs the README commands write, run through cli.main: the
    automated form of the byte-identity check a change that must not move any
    CSV cell is held to. The bytes carry the numpy version line and rest on
    numpy's random streams and the C library's erfc, exp, log and sqrt; the
    digests were taken on x86-64 Linux with CPython 3.11 and numpy 2.4.6."""

    @pytest.mark.parametrize("argv, digest", [
        (["ber-sweep", "--paper-defaults", "--sweep", "ps:-10:30:5", "--modes", "lna,no_lna",
          "--realizations", "200", "--seed", "7"],
         "01824c9a4620322f1f4e9a890c791bb77280e54872948c14cb0b3f1406f1620b"),
        (["ber-sweep", "--paper-defaults", "--sweep", "bdpr:-30:-10:10", "--ps", "5",
          "--modes", "lna", "--realizations", "200", "--seed", "7"],
         "fa1b28f828e11d825723775095b64de33f507556023b7dc9c53d6bdd73f51dcd"),
        (["pilot-sweep", "--scenario", "k200.json", "--fractions", "0.05,0.1,0.2,0.4",
          "--mode", "lna", "--frames", "50", "--realizations", "20", "--seed", "7"],
         "bf5b610a5ca1f9b200d35d1f02b2e3da5978673d8cb660d54364d52ef0101051"),
        (["ber-sweep", "--paper-defaults", "--sweep", "ps:0:20:10", "--threshold-policy",
          "estimated", "--frames", "5", "--realizations", "20", "--seed", "3"],
         "00b953b0099aea18a3cdfd1d945350ac7d7fd2dfb3c1e7ffe0b865bd1f9f66f3"),
    ], ids=["ber-ps", "ber-bdpr", "pilot-k200", "ber-estimated"])
    def test_csv_digest(self, tmp_path, monkeypatch, argv, digest):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "k200.json").write_text(json.dumps({"paper_defaults": True,
                                                        "k_symbols": 200}))
        assert main([*argv, "--out", "out.csv"]) == EXIT_OK
        assert hashlib.sha256(_read("out.csv")).hexdigest() == digest

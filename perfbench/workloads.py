"""The benchmark's four workloads and the checks on their outputs.

Each workload has a `call(seed, workers)`, the single user-level call that is
timed, and a `parse(raw)` that turns its result into an `Output`: items
attempted and failed, the statistics compared against `reference.json`, the
sha256 of the output, and per-call problems.

Call sizes are fixed here and are smaller than the README commands they
follow, so that a run holds several calls. Fewer realizations repeat the same
per-frame work, but fixed costs per call weigh more: in `ber_ps_readme` the
argument parsing and CSV write, in `pilot_k200_w2` the process pool that
run_pilot_sweep opens for every fraction (see PilotK200).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import ambclink
import ambclink.cli  # noqa: F401  (binds ambclink.cli, looked up per call)

# Reference statistics: |z| above this fails. Calibrated so that the program
# at the seed commit passes on fresh seeds (see make_reference.py).
Z_MAX = 6.0
# Relative tolerance of the fixed-input closed-form curve.
FIXED_RTOL = 1e-9


def rep_seed(seed: int, index: int) -> int:
    """Master seed of call `index` in a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] >> 1)


@dataclass
class Output:
    attempted: int
    failed: int
    stats: dict
    digest: str
    problems: list = field(default_factory=list)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = ambclink.cli.main(argv)
    return status, buf.getvalue()


def _csv_rows(data: bytes):
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class _CsvWorkload:
    """A CLI command that writes one CSV."""

    workers = 1

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self.out = self.workdir / f"{self.name}.csv"

    def call(self, seed: int, workers: int):
        if self.out.exists():
            self.out.unlink()
        status, _ = _run_cli(self.argv(seed, workers))
        data = self.out.read_bytes() if self.out.exists() else b""
        return status, data

    def parse(self, raw) -> Output:
        status, data = raw
        problems = [] if status == 0 else [f"exit status {status}"]
        if not data:
            problems.append("no CSV written")
        attempted, failed, stats = self.read_rows(_csv_rows(data) if data else [], problems)
        return Output(attempted, failed, stats, _sha256(data), problems)


class BerPsReadme(_CsvWorkload):
    """README `ber-sweep`: BER vs ps, both modes, true closed-form threshold."""

    name = "ber_ps_readme"
    item = "frames"
    scenario = {"paper_defaults": True}
    realizations = 10
    values = tuple(float(v) for v in range(-10, 31, 5))
    modes = ("lna", "no_lna")

    def argv(self, seed, workers):
        return ["ber-sweep", "--paper-defaults", "--sweep", "ps:-10:30:5",
                "--modes", ",".join(self.modes), "--threshold-policy", "closed_form_true",
                "--realizations", str(self.realizations), "--seed", str(seed),
                "--workers", str(workers), "--out", str(self.out)]

    def size(self):
        k = ambclink.PAPER_DEFAULTS["k_symbols"]
        n = ambclink.PAPER_DEFAULTS["n_samples"]
        return f"K={k}, N={n}; {len(self.values)} points x {len(self.modes)} modes x {self.realizations} realizations"

    def read_rows(self, rows, problems):
        k = ambclink.PAPER_DEFAULTS["k_symbols"]
        expected = [(v, m) for v in self.values for m in self.modes]
        if [(float(r["value"]), r["mode"]) for r in rows] != expected:
            problems.append("rows are not the expected (ps, mode) grid")
        stats, failed = {}, 0
        for r in rows:
            failures, bits = int(r["failures"]), int(r["bits"])
            failed += failures
            if bits + failures * k != self.realizations * k:
                problems.append(f"row {r['value']} {r['mode']}: {bits} bits, {failures} failures")
            emp, cf = float(r["ber_empirical"]), float(r["ber_closed_form"])
            if not (0.0 <= emp <= 1.0 and 0.0 <= cf <= 0.5):
                problems.append(f"row {r['value']} {r['mode']}: BER out of range")
            key = f"{float(r['value']):g} {r['mode']}"
            stats[f"ber-cf {key}"] = emp - cf
            stats[f"cf {key}"] = cf
        return self.realizations * len(expected), failed, stats


class PilotK200(_CsvWorkload):
    """README `pilot-sweep`: threshold error vs pilot overhead, K=200, 2 workers.

    Each pool runs 200 frames (4 realizations x 50 frames), against the
    README's 1 000 (20 x 50). Opening and draining a pool costs about 25 ms
    whatever its frames, so the pool's share of the call is larger here than
    in the README run. On a 2-vCPU Xeon the pool overhead (wall time at 2
    workers minus half the serial wall time) measured 6 % of the call here,
    against about 1 % expected at the README size (4 pools x 25 ms in a
    10 s call). A change to the pool shows here about five times larger
    than a user of the README command would see it.
    """

    name = "pilot_k200_w2"
    item = "frames"
    workers = 2
    scenario = {"paper_defaults": True, "k_symbols": 200}
    fractions = (0.05, 0.1, 0.2, 0.4)
    realizations = 4
    frames = 50

    def __init__(self, workdir):
        super().__init__(workdir)
        self.scenario_path = self.workdir / "k200.json"
        self.scenario_path.write_text(json.dumps(self.scenario))

    def argv(self, seed, workers):
        return ["pilot-sweep", "--scenario", str(self.scenario_path),
                "--fractions", ",".join(map(str, self.fractions)), "--mode", "lna",
                "--frames", str(self.frames), "--realizations", str(self.realizations),
                "--seed", str(seed), "--workers", str(workers), "--out", str(self.out)]

    def size(self):
        n = ambclink.PAPER_DEFAULTS["n_samples"]
        return (f"K={self.scenario['k_symbols']}, N={n}; {len(self.fractions)} fractions x "
                f"{self.realizations} realizations x {self.frames} frames")

    def read_rows(self, rows, problems):
        per_point = self.realizations * self.frames
        if [float(r["pilot_fraction"]) for r in rows] != list(self.fractions):
            problems.append("rows are not the expected pilot fractions")
        stats, failed = {}, 0
        for r in rows:
            f, frames = float(r["pilot_fraction"]), int(r["frames"])
            failed += per_point - frames
            if int(r["k_train"]) != round(f * self.scenario["k_symbols"]):
                problems.append(f"fraction {f}: k_train {r['k_train']}")
            for col in ("R_mean", "R_median"):
                value = float(r[col])
                if not (math.isfinite(value) and value >= 0.0):
                    problems.append(f"fraction {f}: {col}={r[col]}")
                stats[f"{col} {f:g}"] = value
        return per_point * len(self.fractions), failed, stats


class ClosedFormCurve:
    """Fading-averaged closed-form BER vs ps on paired channel draws (criterion 6)."""

    name = "closed_form_curve"
    item = "closed-form evaluations"
    workers = 1
    scenario = {"paper_defaults": True}
    realizations = 200
    values = tuple(float(v) for v in range(-60, 31, 5))
    modes = ("lna", "no_lna")

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)

    def size(self):
        return (f"{len(self.values)} points x {len(self.modes)} modes x "
                f"{self.realizations} realizations")

    def call(self, seed: int, workers: int):
        # Same schedule as run_sweep: the channel seed of realization r omits
        # the point and the mode, so curves are paired across both.
        params = ambclink.load_scenario(dict(self.scenario))
        sums = {(v, m): 0.0 for v in self.values for m in self.modes}
        failed = 0
        for v in self.values:
            point = replace(params, ps_dbm=v)
            for r in range(self.realizations):
                rng = np.random.default_rng(np.random.SeedSequence((seed, r, 1)))
                real = ambclink.draw_channels(point, rng)
                for m in self.modes:
                    try:
                        moments = ambclink.hypothesis_moments(point, real, m)
                        threshold = ambclink.near_optimal_threshold(moments)
                        sums[(v, m)] += ambclink.ber_closed_form(moments, threshold)
                    except ambclink.AmbclinkError:
                        failed += 1
        return {k: s / self.realizations for k, s in sums.items()}, failed

    def parse(self, raw) -> Output:
        curve, failed = raw
        problems = [f"{failed} evaluations raised"] if failed else []
        stats = {}
        for (v, m), ber in curve.items():
            if not (math.isfinite(ber) and 0.0 <= ber <= 0.5):
                problems.append(f"ps {v:g} {m}: BER {ber}")
            stats[f"ber {v:g} {m}"] = ber
        digest = _sha256(json.dumps(sorted(stats.items())).encode())
        return Output(len(curve) * self.realizations, failed, stats, digest, problems)


class VerifyPaper:
    """`verify --paper-defaults`: every oracle cross-check.

    The README command takes verify's default seed, so every call checks the
    same inputs and --seed does not change them. With other verify seeds,
    `deflection_identities` fails on about one seed in eight (round-off up to
    6e-12 against its 1e-12 tolerance): a defect of the program, to be fixed
    there, that would make every run of this workload fail.
    """

    name = "verify_paper"
    item = "checks"
    workers = 1
    scenario = {"paper_defaults": True}
    _line = re.compile(r"^(\S+)\s+(PASS|FAIL)\s")

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)

    def size(self):
        return "7 checks, 2M Monte Carlo samples"

    def call(self, seed: int, workers: int):
        return _run_cli(["verify", "--paper-defaults"])

    def parse(self, raw) -> Output:
        status, text = raw
        lines = [ln for ln in text.splitlines() if self._line.match(ln)]
        failed = [ln.split()[0] for ln in lines if self._line.match(ln).group(2) == "FAIL"]
        problems = [f"check failed: {name}" for name in failed]
        if status != (2 if failed else 0):
            problems.append(f"exit status {status}")
        if not lines:
            problems.append("no check lines printed")
        digest = _sha256("\n".join(lines).encode())
        return Output(len(lines), len(failed), {}, digest, problems)


WORKLOADS = {w.name: w for w in (BerPsReadme, PilotK200, ClosedFormCurve, VerifyPaper)}


def statistical_checks(name, outputs, reference):
    """Mean of each reference statistic over the calls, against the seed
    commit's mean, in units of its standard error."""
    ref = reference.get(name)
    if not ref:
        return []
    checks = []
    n, n_ref = len(outputs), ref["calls"]
    for key, r in sorted(ref["stats"].items()):
        values = [o.stats.get(key, math.nan) for o in outputs]
        mean = float(np.mean(values))
        se = r["sd"] * math.sqrt(1.0 / n + 1.0 / n_ref)
        if se > 0:
            z = (mean - r["mean"]) / se
            ok = abs(z) <= Z_MAX
            detail = f"mean {mean:.6g} vs {r['mean']:.6g}, z={z:+.2f} (|z| <= {Z_MAX:g}, n={n})"
        else:
            ok = mean == r["mean"]
            detail = f"mean {mean:.6g} vs constant {r['mean']:.6g}"
        checks.append((f"stat {key}", bool(ok), detail))
    return checks


def fixed_check(workload, reference):
    """The output at a fixed input against the seed commit's, to FIXED_RTOL."""
    fixed = reference.get(workload.name, {}).get("fixed")
    if not fixed:
        return []
    out = workload.parse(workload.call(fixed["seed"], workload.workers))
    worst = 0.0
    for key, want in fixed["values"].items():
        got = out.stats.get(key, math.nan)
        err = abs(got - want) / max(abs(want), 1e-300)
        worst = max(worst, err) if math.isfinite(err) else math.inf
    return [(f"fixed seed {fixed['seed']}", worst <= FIXED_RTOL,
             f"max relative error {worst:.3e} (tol {FIXED_RTOL:g})")]


def determinism_check(workload, pairs):
    """Each (output at workers=1, output at the workload's workers), for one
    seed, byte-identical. With one worker this checks that a call repeats."""
    same = [serial == parallel for serial, parallel in pairs]
    label = (f"workers {workload.workers} vs 1 byte-identical" if workload.workers > 1
             else "repeated call byte-identical")
    return [(label, all(same), f"{sum(same)}/{len(same)} seeds")]


def load_reference(path: Path) -> dict:
    return json.loads(Path(path).read_text()) if Path(path).exists() else {}

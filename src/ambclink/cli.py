"""Batch command-line front end: sweeps, pilot studies, and the verify suite.

Output is CSV plot data plus a short human-readable summary on stdout.
Exit statuses: 0 success, 1 validation error, 2 check failure (a failed
verify check, or a closed form that fails during a run) or usage error (from
argparse: a bad --mode or --threshold-policy choice, a non-integer count, a
missing --out), 3 I/O error.

The parser is built once per process, on first use; `main` parses each argv
into a fresh Namespace, so it is re-entrant.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import replace
from functools import cache, partial
from operator import attrgetter

import numpy as np

from . import __version__
from .config import MODES, SystemParams, check_in, load_scenario, read_scenario
from .errors import AmbclinkError, ConfigError
from .montecarlo import (
    POLICIES,
    SWEEP_BDPR,
    SWEEP_PS,
    SweepSpec,
    run_pilot_sweep,
    run_sweep,
)
from .verify import run_all_checks

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILURE = 2
EXIT_IO = 3

MAX_SWEEP_POINTS = 1000

BER_CSV_HEADER = ("sweep_var,value,mode,threshold_policy,ber_empirical,"
                  "ber_ci_halfwidth,ber_closed_form,threshold_mean,errors,bits,failures")
PILOT_CSV_HEADER = "pilot_fraction,k_train,R_mean,R_median,R_p90,frames"
# parsed options the digest leaves out: the payload hashes the loaded scenario
# and the seed on their own, and the worker count and output path cannot
# change the CSV
UNHASHED_OPTIONS = {"command", "func", "scenario", "paper_defaults", "seed", "workers", "out"}


def _load_params(args) -> SystemParams:
    """The scenario of every command, with the --ps override applied."""
    if args.scenario:
        params = read_scenario(args.scenario, paper_defaults=args.paper_defaults)
    elif args.paper_defaults:
        params = load_scenario({}, paper_defaults=True)
    else:
        raise ConfigError("provide --scenario <path> or --paper-defaults", fields=("scenario",))
    return params if args.ps is None else replace(params, ps_dbm=args.ps)


def _parse_sweep(text: str):
    """Parse `var:start:stop:step` into (sweep_var, values)."""
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError(f"sweep must look like var:start:stop:step, got {text!r}",
                          fields=("sweep",))
    var, start, stop, step = parts
    names = {"ps": SWEEP_PS, "bdpr": SWEEP_BDPR}
    check_in(var, names, "sweep")
    try:
        start, stop, step = float(start), float(stop), float(step)
    except ValueError as exc:
        raise ConfigError(f"non-numeric sweep bounds in {text!r}", fields=("sweep",)) from exc
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ConfigError(f"--sweep bounds must be finite in {text!r}", fields=("sweep",))
    if step <= 0 or stop < start:
        raise ConfigError(f"need start <= stop and step > 0 in {text!r}", fields=("sweep",))
    # count the points first, with 1e-9 of a step as slack; the quotient may overflow to inf
    spans = (stop - start) / step + 1e-9
    if not spans < MAX_SWEEP_POINTS:
        raise ConfigError(f"--sweep {text!r} has more than {MAX_SWEEP_POINTS} points",
                          fields=("sweep",))
    # by index, not by accumulation: a step below the float spacing at start
    # would never advance
    values = tuple(round(start + i * step, 9) for i in range(math.floor(spans) + 1))
    if len(set(values)) < len(values):
        raise ConfigError(f"--sweep {text!r} has points closer than the 1e-9 grain they are "
                          "rounded to", fields=("sweep",))
    return names[var], values


def _csv_rows(header: str, points) -> list:
    """Each point's CSV row: the fields the header names (in lower case; they
    are the leading fields of the point's dataclass, in order), floats by
    repr and ints and strings by str."""
    cells = attrgetter(*header.lower().split(","))
    return [",".join([repr(float(x)) if isinstance(x, float) else str(x) for x in cells(p)])
            for p in points]


@contextlib.contextmanager
def _atomic_csv(path: str):
    """A text file that replaces `path` when the block ends without error: a
    temp file in the target directory, so a bad path fails before the
    block's work, renamed into place, or removed on any failure."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"{os.urandom(8).hex()}.csv.part")
    # created as open() creates a file, mode 0o666 less the umask (mkstemp's is 0o600)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):     # still there only after a failure
            os.unlink(tmp)


def _sweep_command(args, sweep, failure_noun: str) -> int:
    """Shared by ber-sweep and pilot-sweep: open the CSV's temp file (a bad
    --out fails there, before any work), run `sweep(args, params)` for
    (header, points), write the CSV atomically under the digest of scenario,
    options (all but UNHASHED_OPTIONS) and seed, and print one summary line."""
    t0 = time.monotonic()
    params = _load_params(args)
    flags = {k: v for k, v in vars(args).items() if k not in UNHASHED_OPTIONS}
    payload = json.dumps({"scenario": params.to_dict(), "flags": flags, "seed": args.seed},
                         sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    with _atomic_csv(args.out) as fh:
        header, points = sweep(args, params)
        for key, value in (("tool_version", __version__), ("numpy_version", np.__version__),
                           ("scenario_digest", digest), ("master_seed", args.seed)):
            fh.write(f"# {key}={value}\n")
        for row in [header, *_csv_rows(header, points)]:
            fh.write(row + "\n")
    print(f"{args.command}: {len(points)} points -> {args.out} ({time.monotonic() - t0:.1f}s, "
          f"{sum(p.failures for p in points)} {failure_noun} failures, "
          f"digest {digest[:12]})")
    return EXIT_OK


def _ber_sweep(args, params: SystemParams):
    sweep_var, values = _parse_sweep(args.sweep)
    if sweep_var == SWEEP_PS and args.ps is not None:
        raise ConfigError("--ps sets the Ps of a bdpr sweep, not of a ps sweep, whose points "
                          "set their own", fields=("ps",))
    spec = SweepSpec(scenario=params, sweep_var=sweep_var, values=values,
                     modes=tuple(m.strip() for m in args.modes.split(",")),
                     threshold_policy=args.threshold_policy, n_frames=args.frames,
                     n_realizations=args.realizations, master_seed=args.seed,
                     fixed_bdpr_db=args.bdpr)
    return BER_CSV_HEADER, run_sweep(spec, workers=args.workers)


def _pilot_sweep(args, params: SystemParams):
    try:
        fractions = tuple(float(f) for f in args.fractions.split(","))
    except ValueError as exc:
        raise ConfigError("--fractions must be comma-separated numbers, got pilot_fraction "
                          f"{args.fractions!r}", fields=("pilot_fraction",)) from exc
    return PILOT_CSV_HEADER, run_pilot_sweep(
        params, fractions, mode=args.mode, n_realizations=args.realizations,
        n_frames=args.frames, master_seed=args.seed, workers=args.workers)


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    params = _load_params(args)
    results = run_all_checks(params, seed=args.seed)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
        all_ok = all_ok and r.passed
    print(f"verify: {'all checks passed' if all_ok else 'CHECKS FAILED'} "
          f"({time.monotonic() - t0:.1f}s)")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILURE


@cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; callers must not mutate it.
    _sweep_command and cmd_verify are bound at that first build."""
    parser = argparse.ArgumentParser(
        prog="ambclink",
        description="Ambient backscatter link simulator and analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sweep=True):
        p.add_argument("--scenario", help="path to a JSON scenario file")
        p.add_argument("--paper-defaults", action="store_true",
                       help="use the published parameter set")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--ps", type=float, default=None,
                       help="override source power in dBm (not with a ps sweep)")
        if sweep:
            p.add_argument("--workers", type=int, default=1,
                           help="parallel workers (does not affect results)")
            p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("ber-sweep", help="BER versus a swept variable")
    common(p)
    p.add_argument("--sweep", required=True, help="var:start:stop:step (var: ps|bdpr)")
    p.add_argument("--modes", default=",".join(MODES), help="comma list of modes")
    p.add_argument("--threshold-policy", choices=POLICIES, default="closed_form_true")
    p.add_argument("--frames", type=int, default=1, help="frames per realization")
    p.add_argument("--realizations", type=int, default=100, help="channel draws per point")
    p.add_argument("--bdpr", type=float, default=None,
                   help="pin BDPR (dB) during a ps sweep")
    p.set_defaults(func=partial(_sweep_command, sweep=_ber_sweep, failure_noun="trial"))

    p = sub.add_parser("pilot-sweep", help="threshold error versus pilot overhead")
    common(p)
    p.add_argument("--fractions", default="0.05,0.1,0.2,0.4",
                   help="comma list of pilot fractions")
    p.add_argument("--mode", choices=MODES, default="lna")
    p.add_argument("--frames", type=int, default=10, help="frames per realization")
    p.add_argument("--realizations", type=int, default=50, help="channel draws")
    p.set_defaults(func=partial(_sweep_command, sweep=_pilot_sweep, failure_noun="frame"))

    p = sub.add_parser("verify", help="run all oracle cross-checks")
    common(p, sweep=False)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AmbclinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION if isinstance(exc, ConfigError) else EXIT_CHECK_FAILURE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

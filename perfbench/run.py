"""Benchmark of the ambclink link simulator.

    python3 perfbench/run.py --workload NAME [--seed 7] [--seconds 27] [--trace 0|1]

Run it from the root of a checkout: the package is imported from `src/`, and
without it the benchmark exits with status 2. Workloads are defined in
workloads.py: ber_ps_readme, pilot_k200_w2, closed_form_curve, verify_paper.

--trace 0 repeats the workload's user-level call, each time with a master
seed derived from --seed, until --seconds have passed (after one untimed
warm-up call), and between the calls times fresh interpreters that import
ambclink and load the scenario. It reports the end-to-end metrics: per-call
wall and CPU time and items completed per second (median over calls), peak
resident memory, and the set-up time (median over the interpreters). Times,
set-up included, are scaled to reference CPU speed by a probe timed around
each call (see on_fast_cpu); the unscaled times are printed beside them and
kept in the record.

--trace 1 runs a few calls untraced, the same calls serially with every
layer boundary traced (layers.py), the pool calls with the pool counted, and
one call under cProfile, and reports the per-layer metrics.

Both modes check the outputs (per-call checks, statistics against
reference.json, byte-identity across worker counts, the fixed-input curve)
and count failures in `failed`. Human-readable tables go to stdout, a full
record (calls, sha256s, checks, machine, baseline, profile) to
perfbench/out/, and the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import math
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import LAYERS, VERIFY_CHECKS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_CALLS = 5        # timed calls per run, even when --seconds runs out first
MIN_SETUPS = 5       # fresh interpreters timed for setup_s, likewise
SETUP_SHARE = 0.3    # share of --seconds spent timing set-up
PROBE_LOOPS = 20_000  # about 2 ms of scalar work per probe repetition
PROBE_REF_S = 0.002  # probe time on a CPU of reference speed
TRACE_CALLS = 3      # calls per traced run; counts are those of the first
PROFILE_TOP = 15

# Per-call metrics and the raw measurement each one scales to reference speed.
SCALED = {"wall_ref_s": "wall_s", "cpu_ref_s": "cpu_s", "items_per_ref_s": "items_per_s"}
END_TO_END = (
    ("wall_ref_s", "s", "lower"),
    ("cpu_ref_s", "s", "lower"),
    ("items_per_ref_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

CHECK_NAMES = tuple(check.removeprefix("check_") for check in VERIFY_CHECKS)
PER_LAYER = (
    ("frontend.calls", "count", "lower"),
    ("frontend.samples", "count", "lower"),
    ("frontend.lna.symbols_per_s", "1/s", "higher"),
    ("frontend.no_lna.symbols_per_s", "1/s", "higher"),
    ("analysis.calls", "count", "lower"),
    ("analysis.evals_per_s", "1/s", "higher"),
    ("analysis.calls_per_distinct", "ratio", "lower"),
    ("channel.calls", "count", "lower"),
    ("channel.draws_per_distinct", "ratio", "lower"),
    ("estimation.calls", "count", "lower"),
    ("estimation.failures", "count", "lower"),
    ("montecarlo.trials", "count", "higher"),
    ("montecarlo.pool.opened", "count", "lower"),
    ("montecarlo.pool.tasks", "count", "lower"),
    ("montecarlo.pool.task_bytes", "B", "lower"),
    ("montecarlo.pool.overhead_pct", "%", "lower"),
    ("oracles.calls", "count", "lower"),
    ("config.load_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    *((f"{layer}.self_pct", "%", "lower") for layer in LAYERS),
    *((f"verify.{check}.pct", "%", "lower") for check in CHECK_NAMES),
)

SETUP_CODE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import ambclink
ambclink.load_scenario(json.loads(sys.argv[2]))
print(time.perf_counter() - start)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _maxrss_kb(who) -> int:
    return resource.getrusage(who).ru_maxrss


def probe_s() -> float:
    """Best of three timings of a fixed scalar loop: the current speed of this CPU."""
    best = math.inf
    for _ in range(3):
        start, acc = time.perf_counter(), 0.0
        for i in range(PROBE_LOOPS):
            acc += math.sqrt(i + 1.0)
        best = min(best, time.perf_counter() - start)
    return best


def _probe_each(cpus) -> dict:
    """The probe on each of `cpus`, pinned to each in turn."""
    probes = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        probes[cpu] = probe_s()
    return probes


def on_fast_cpu(fn, pin: bool):
    """Run fn() and return (result, probe time of the CPUs it ran on).

    On shared virtual machines each CPU can turn 1.5-2 times slower for
    seconds to minutes, independently of the others, through load outside
    the container. So every CPU is probed first. With `pin`, fn() runs pinned
    to the fastest one, and the probe is the slower of that CPU's probes
    before and after; otherwise (a process pool needs every CPU) fn() runs
    unpinned and the probe is the slower of the mean probes before and after.
    A time times PROBE_REF_S / probe is that time at reference speed. The
    times of a pinned call are single-CPU figures: work the program spreads
    over threads of its own process would not be faster there.
    """
    cpus = os.sched_getaffinity(0)
    try:
        before = _probe_each(cpus)
        fastest = min(before, key=before.get)
        os.sched_setaffinity(0, {fastest} if pin else cpus)
        result = fn()
        if pin:
            return result, max(before[fastest], probe_s())
        return result, max(statistics.mean(before.values()),
                           statistics.mean(_probe_each(cpus).values()))
    finally:
        os.sched_setaffinity(0, cpus)


def timed_call(workload, seed, workers):
    cpu0, t0 = _cpu_s(), time.perf_counter()
    raw = workload.call(seed, workers)
    t1, cpu1 = time.perf_counter(), _cpu_s()
    return raw, t1 - t0, cpu1 - cpu0


def describe(values, better="lower"):
    """Median, and the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    row = {"median": statistics.median(ordered), "n": n, "tail": None, "tail_pct": None}
    if n >= 20:
        row["tail_pct"] = 100 * (n - 10) // n
        row["tail"] = ordered[n - 11] if better == "lower" else ordered[10]
    return row


def setup_seconds(scenario) -> float:
    result = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(scenario)],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
    return float(result.stdout.split()[-1])


def setup_sample(scenario) -> dict:
    value, probe = on_fast_cpu(lambda: setup_seconds(scenario), pin=True)
    return {"setup_s": value * PROBE_REF_S / probe, "setup_raw_s": value}


def machine_info() -> dict:
    import ambclink
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "ambclink": ambclink.__version__}


def run_checks(workload, outputs, reference, extra=()):
    import workloads
    checks = [(f"call {i}: {p}", False, "") for i, o in enumerate(outputs) for p in o.problems]
    checks.append((f"{len(outputs)} calls without problems",
                   not any(o.problems for o in outputs), ""))
    checks += workloads.statistical_checks(workload.name, outputs, reference)
    checks += list(extra)
    checks += workloads.fixed_check(workload, reference)
    return checks


def end_to_end(workload, seed, seconds, reference):
    """Timed calls for `seconds`, with set-up samples between them taking
    SETUP_SHARE of the time; medians over calls and over samples.

    Serial calls run pinned to the fastest CPU. A call with a process pool is
    not pinned: its workers need every CPU.
    """
    import workloads
    # The warm-up call runs the first call's seed at one worker, so that it
    # is also the serial side of the determinism check.
    serial = workload.parse(workload.call(workloads.rep_seed(seed, 0), 1))
    calls, outputs, setups = [], [], []
    kids_kb = None
    setup_spent = 0.0
    start = time.perf_counter()
    while len(calls) < MIN_CALLS or time.perf_counter() - start < seconds:
        call_seed = workloads.rep_seed(seed, len(calls))
        (raw, wall, cpu), probe = on_fast_cpu(
            lambda: timed_call(workload, call_seed, workload.workers),
            pin=workload.workers == 1)
        out = workload.parse(raw)
        outputs.append(out)
        call = {"seed": call_seed, "wall_s": wall, "cpu_s": cpu,
                "items_per_s": (out.attempted - out.failed) / wall, "probe_s": probe,
                "attempted": out.attempted, "failed": out.failed, "sha256": out.digest}
        scale = PROBE_REF_S / probe
        call.update({"wall_ref_s": wall * scale, "cpu_ref_s": cpu * scale,
                     "items_per_ref_s": call["items_per_s"] / scale})
        calls.append(call)
        if kids_kb is None:   # the pool's children, before any set-up child
            kids_kb = _maxrss_kb(resource.RUSAGE_CHILDREN)
        while setup_spent < SETUP_SHARE * (time.perf_counter() - start):
            t0 = time.perf_counter()
            setups.append(setup_sample(workload.scenario))
            setup_spent += time.perf_counter() - t0
    while len(setups) < MIN_SETUPS:
        setups.append(setup_sample(workload.scenario))
    # Peak RSS of this process plus that of the largest child of the first call.
    peak = (_maxrss_kb(resource.RUSAGE_SELF) + kids_kb) / 1024.0
    checks = run_checks(workload, outputs, reference, workloads.determinism_check(
        workload, [(serial.digest, outputs[0].digest)]))

    better = {name: b for name, _, b in END_TO_END}
    stats = {}
    for name, raw_name in SCALED.items():
        stats[name] = describe([c[name] for c in calls], better[name])
        stats[raw_name] = describe([c[raw_name] for c in calls], better[name])
    stats["peak_rss_mb"] = describe([peak])
    for name in ("setup_s", "setup_raw_s"):
        stats[name] = describe([s[name] for s in setups])
    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, unit, _ in END_TO_END}
    return metrics, stats, calls, outputs, checks, {}


def traced(workload, seed, reference):
    import workloads
    seeds = [workloads.rep_seed(seed, i) for i in range(TRACE_CALLS)]
    workload.call(seeds[0], 1)   # warm-up
    tracer = Tracer()

    def traced_call(call_seed):
        with tracer:
            return timed_call(workload, call_seed, 1)

    raws, untraced_walls, untraced_ref, traced_walls = [], [], [], []
    for s in seeds:   # alternate, so drift does not enter trace.overhead_s
        (_, wall, _), probe = on_fast_cpu(lambda: timed_call(workload, s, 1), True)
        untraced_walls.append(wall)
        untraced_ref.append(wall * PROBE_REF_S / probe)
        (raw, wall, _), _ = on_fast_cpu(lambda: traced_call(s), True)
        raws.append(raw)
        traced_walls.append(wall)
    outputs = [workload.parse(raw) for raw in raws]
    spans = tracer.span_records()

    # Pool calls, timed at reference speed like the serial ones, so that the
    # pool overhead is not a difference of CPU speeds.
    pool, pool_ref, extra = None, [], []
    if workload.workers > 1:
        digests = []
        for s in seeds:
            with Tracer(calls=False, pool=True) as pool_tracer:
                (raw, wall, _), probe = on_fast_cpu(
                    lambda: timed_call(workload, s, workload.workers), False)
            pool_ref.append(wall * PROBE_REF_S / probe)
            pool = pool_tracer.summary()["pool"] if pool is None else pool
            digests.append(workload.parse(raw).digest)
        extra = workloads.determinism_check(
            workload, [(o.digest, d) for o, d in zip(outputs, digests)])

    profile = cProfile.Profile()
    on_fast_cpu(lambda: profile.runcall(workload.call, seeds[0], 1), True)
    checks = run_checks(workload, outputs, reference, extra)

    calls = [{"seed": s, "untraced_wall_s": u, "traced_wall_s": t, "sha256": o.digest,
              "attempted": o.attempted, "failed": o.failed}
             for s, u, t, o in zip(seeds, untraced_walls, traced_walls, outputs)]
    metrics, table = layer_metrics(workload, tracer, outputs, untraced_walls,
                                   traced_walls, pool or {},
                                   pool_overhead(workload, untraced_ref, pool_ref))
    extras = {"layers": table, "profile": profile_top(profile), "spans": spans}
    return metrics, {}, calls, outputs, checks, extras


def pool_overhead(workload, serial_walls, pool_walls):
    """(Seconds, share of the pool call's wall time) by which the median pool
    call exceeds the median serial call divided by the workers; 0 without a
    pool."""
    if not pool_walls:
        return 0.0, 0.0
    pool_wall = statistics.median(pool_walls)
    overhead = pool_wall - statistics.median(serial_walls) / workload.workers
    return overhead, 100.0 * overhead / pool_wall


def layer_metrics(workload, tracer, outputs, untraced_walls, traced_walls, pool, overhead):
    """Per-layer metrics (BENCHMARK.json's per_layer) and the full table.

    Counts are those of the first traced call, so they repeat exactly for a
    given seed; times, shares and rates are over all traced calls.
    """
    s, first = tracer.summary(), tracer.summary(entries={0})
    total = sum(traced_walls)
    self_s, calls = s["self_s"], first["calls"]
    n_calls = len(traced_walls)
    overhead_s, overhead_pct = overhead

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    trials = outputs[0].attempted if workload.item == "frames" else 0
    values = {
        "frontend.calls": calls.get("frontend", 0),
        "frontend.samples": first["samples"],
        "frontend.lna.symbols_per_s": rate(s["mode_symbols"].get("lna", 0),
                                           s["mode_self_s"].get("lna", 0.0)),
        "frontend.no_lna.symbols_per_s": rate(s["mode_symbols"].get("no_lna", 0),
                                              s["mode_self_s"].get("no_lna", 0.0)),
        "analysis.calls": calls.get("analysis", 0),
        "analysis.evals_per_s": rate(s["evals"], self_s.get("analysis", 0.0)),
        "analysis.calls_per_distinct": rate(first["evals"], first["distinct_evals"]),
        "channel.calls": calls.get("channel", 0),
        "channel.draws_per_distinct": rate(first["draws"], first["distinct_draws"]),
        "estimation.calls": calls.get("estimation", 0),
        "estimation.failures": first["raised"].get("estimation", 0),
        "montecarlo.trials": trials,
        "montecarlo.pool.opened": pool.get("opened", 0),
        "montecarlo.pool.tasks": pool.get("tasks", 0),
        "montecarlo.pool.task_bytes": pool.get("task_bytes", 0),
        "montecarlo.pool.overhead_pct": overhead_pct,
        "oracles.calls": calls.get("oracles", 0),
        "config.load_s": self_s.get("config", 0.0) / n_calls,
        "trace.wall_s": statistics.median(traced_walls),
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
    }
    for layer in LAYERS:
        values[f"{layer}.self_pct"] = 100.0 * self_s.get(layer, 0.0) / total
    for check, name in zip(VERIFY_CHECKS, CHECK_NAMES):
        values[f"verify.{name}.pct"] = 100.0 * s["checks_s"].get(check, 0.0) / total
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

    # The shares above in seconds, plus the time spent outside any ambclink
    # call (the benchmark's own code).
    table = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    table["outside.self_s"] = total - s["root_s"]
    table["analysis.us_per_realization"] = (1e6 * self_s.get("analysis", 0.0) / s["evals"]
                                            if s["evals"] else None)
    table["montecarlo.pool.overhead_s"] = overhead_s
    for check, name in zip(VERIFY_CHECKS, CHECK_NAMES):
        table[f"verify.{name}.s"] = s["checks_s"].get(check, 0.0)
    table["traced_calls"] = n_calls
    table["traced_total_s"] = total
    return metrics, table


def profile_top(profile):
    buf = io.StringIO()
    stats = pstats.Stats(profile, stream=buf)
    rows = []
    for (path, line, func), (cc, nc, tt, ct, _) in sorted(
            stats.stats.items(), key=lambda kv: kv[1][2], reverse=True)[:PROFILE_TOP]:
        where = Path(path)
        try:
            where = where.relative_to(ROOT)
        except ValueError:
            where = Path(*where.parts[-2:]) if where.parts else where
        rows.append({"func": f"{where}:{line}({func})", "ncalls": nc,
                     "tottime_s": tt, "cumtime_s": ct})
    return rows


def _fmt(x):
    if x is None:
        return "-"
    if isinstance(x, int):
        return str(x)
    return f"{x:.6g}"


def report(workload, args, metrics, stats, checks, extras, baseline, attempted, failed):
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"({workload.size()})")
    if stats:
        units = {name: unit for name, unit, _ in END_TO_END}
        rows = [(name, unit) for name, unit, _ in END_TO_END]
        rows += [(raw, units[name]) for name, raw in SCALED.items()]
        rows.append(("setup_raw_s", "s"))
        print(f"{'metric':<16}{'median':>14}{'tail':>16}{'n':>6}  unit   baseline median")
        for name, unit in rows:
            row = stats[name]
            tail = (f"{_fmt(row['tail'])} p{row['tail_pct']}" if row["tail"] is not None
                    else "n<20")
            base = baseline.get(name, {}).get("median")
            print(f"{name:<16}{_fmt(row['median']):>14}{tail:>16}{row['n']:>6}  "
                  f"{unit:<6} {_fmt(base)}")
        print(f"items are {workload.item}; the last four rows are not scaled to "
              f"reference CPU speed; failed_frac {_fmt(failed / attempted)}")
    else:
        for name, unit, _ in PER_LAYER:
            print(f"{name:<34}{_fmt(metrics[name]['value']):>16}  {unit}")
        print("-- in seconds, over all traced calls --")
        for name, value in extras["layers"].items():
            print(f"{name:<34}{_fmt(value):>16}")
        print(f"-- cProfile, top {PROFILE_TOP} by own time, one serial call --")
        for row in extras["profile"]:
            print(f"{row['tottime_s']:10.4f} {row['cumtime_s']:10.4f} "
                  f"{row['ncalls']:>9}  {row['func']}")
    bad = [c for c in checks if not c[1]]
    print(f"checks: {len(checks) - len(bad)}/{len(checks)} passed")
    for name, _, detail in bad:
        print(f"  FAIL {name} {detail}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ambclink" / "__init__.py").is_file():
        print(f"error: no ambclink package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ambclink
    if Path(ambclink.__file__).resolve().parent != (SRC / "ambclink").resolve():
        print(f"error: imported ambclink from {ambclink.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = workloads.load_reference(HERE / "reference.json")
    baseline_path = HERE / "baseline.json"
    baseline = json.loads(baseline_path.read_text()) if baseline_path.exists() else {}

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.WORKLOADS[args.workload](Path(workdir))
        if args.trace:
            result = traced(workload, args.seed, reference)
        else:
            result = end_to_end(workload, args.seed, args.seconds, reference)
    metrics, stats, calls, outputs, checks, extras = result

    attempted = sum(o.attempted for o in outputs) + len(checks)
    failed = sum(o.failed for o in outputs) + sum(not ok for _, ok, _ in checks)
    correct = all(ok for _, ok, _ in checks)
    base = baseline.get("workloads", {}).get(workload.name, {})
    report(workload, args, metrics, stats, checks, extras, base, attempted, failed)

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    spans = extras.pop("spans", None)
    if spans is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": workload.size(), "item": workload.item,
        "machine": machine_info(), "baseline": {"commit": baseline.get("commit"),
                                                "machine": baseline.get("machine"),
                                                "metrics": base},
        "metrics": metrics, "stats": stats, "calls": calls,
        "failed_frac": failed / attempted,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        **extras,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

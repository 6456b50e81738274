"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

Checks that
- two traced calls of each workload with the same seed give the same counts
  (layer calls, samples, draws, evaluations, exceptions, pool counts);
- after tracing, every ambclink module namespace holds exactly the objects
  it held before;
- the metric names run.py prints are those BENCHMARK.json lists.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

COUNT_KEYS = ("calls", "samples", "mode_symbols", "draws", "distinct_draws",
              "evals", "distinct_evals", "raised")


def snapshot():
    return {ns.__name__: dict(vars(ns)) for ns in layers.ambclink_namespaces()}


def same_objects(before, after):
    """Names whose bound object changed, appeared or disappeared."""
    missing = object()
    changed = []
    for module, names in before.items():
        now = after.get(module, {})
        changed += [f"{module}.{n}" for n in names.keys() | now.keys()
                    if names.get(n, missing) is not now.get(n, missing)]
    return changed


def traced_counts(workload, seed):
    with layers.Tracer() as tracer:
        workload.call(seed, 1)
    counts = {k: tracer.summary()[k] for k in COUNT_KEYS}
    if workload.workers > 1:
        with layers.Tracer(calls=False, pool=True) as pool_tracer:
            workload.call(seed, workload.workers)
        counts["pool"] = pool_tracer.summary()["pool"]
    return counts


def main() -> int:
    results = []
    before = snapshot()
    with tempfile.TemporaryDirectory() as workdir:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(Path(workdir))
            seed = workloads.rep_seed(7, 0)
            first, second = traced_counts(workload, seed), traced_counts(workload, seed)
            results.append((f"{name}: counts repeat", first == second,
                            json.dumps(first, sort_keys=True)[:200]))
    changed = same_objects(before, snapshot())
    results.append(("module attributes restored", not changed, ", ".join(changed[:5])))

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        results.append((f"BENCHMARK.json {key} matches run.py", listed == list(names), ""))

    for label, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {label}  {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())

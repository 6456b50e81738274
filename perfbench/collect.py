"""Summarise finished runs: the spread of each end-to-end metric over seeds.

    python3 perfbench/collect.py [--write-baseline]

Reads perfbench/out/<workload>-seed<n>-trace0.json, and prints for each
workload and end-to-end metric the median over runs, the quartiles (Python's
statistics.quantiles, n=4), the spread (Q3 - Q1) / median against a third of
the metric's bound in BENCHMARK.json, and the largest |z| of the statistical
output checks. With --write-baseline the medians and quartiles, with the
machine they ran on and the commit checked out (`git rev-parse`), are stored
as perfbench/baseline.json; run.py prints them next to each result.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
Z = re.compile(r"z=([-+0-9.]+)")


def head_commit():
    """The checked-out commit, or None outside a git work tree."""
    try:
        result = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return result.stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = defaultdict(list)
    for path in sorted((HERE / "out").glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs[record["workload"]].append(record)

    baseline = {"commit": head_commit(), "machine": None, "workloads": {}}
    for workload, records in sorted(runs.items()):
        baseline["machine"] = records[0]["machine"]
        zs = [abs(float(m.group(1))) for r in records for c in r["checks"]
              for m in [Z.search(c["detail"])] if m]
        bad = sum(not r["checks"] or not all(c["ok"] for c in r["checks"]) for r in records)
        print(f"{workload}: {len(records)} runs, {bad} with failed checks, "
              f"max |z| {max(zs, default=0.0):.2f}")
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in records]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3, "runs": len(values)}
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            print(f"  {name:<12} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.4f}  bound/3 {bound / 3:.4f}  {flag}")
        baseline["workloads"][workload] = rows
    if args.write_baseline:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()

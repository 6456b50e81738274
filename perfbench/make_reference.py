"""Write reference.json: the statistics the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Runs each workload that has statistics REFERENCE_CALLS times, on master
seeds that no benchmark run derives from a small --seed, and stores the mean
and standard deviation of every statistic over the calls, plus the
closed-form curve at a fixed input. Run it only on a commit whose outputs
are known to be right; the stored file was made from the code of commit
598ce31.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

REFERENCE_SEED = 2_000_003
REFERENCE_CALLS = 200
FIXED_SEED = 5


def main():
    reference = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(Path(workdir))
            outputs = []
            for i in range(REFERENCE_CALLS):
                outputs.append(workload.parse(workload.call(
                    workloads.rep_seed(REFERENCE_SEED, i), workload.workers)))
                if not outputs[0].stats:
                    break
            if not outputs[0].stats:
                continue
            problems = [p for o in outputs for p in o.problems]
            if problems:
                raise SystemExit(f"{name}: outputs have problems: {problems[:3]}")
            entry = {"calls": REFERENCE_CALLS, "stats": {}}
            for key in outputs[0].stats:
                values = np.array([o.stats[key] for o in outputs])
                entry["stats"][key] = {"mean": float(values.mean()),
                                       "sd": float(values.std(ddof=1))}
            if name == "closed_form_curve":
                fixed = workload.parse(workload.call(FIXED_SEED, workload.workers))
                entry["fixed"] = {"seed": FIXED_SEED, "values": fixed.stats}
            reference[name] = entry
            print(f"{name}: {len(entry['stats'])} statistics over {REFERENCE_CALLS} calls",
                  file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""Regenerate targets.json: B(k) targets no brange slope reaches below REFERENCE_KMAX.

Run from the repository root:  python3 bench/derive_targets.py

The counts come from the independent oracle route (scaled integer
approximations and a Fenwick tree), not from sturmlab.
"""
import json

import oracle
import workloads

PER_SLOPE = 8


def main() -> None:
    table = {}
    for slope in workloads.brange_slopes():
        taken = set(oracle.better_counts(slope, workloads.REFERENCE_KMAX))
        table[slope] = [t for t in range(1, workloads.REFERENCE_KMAX) if t not in taken][:PER_SLOPE]
    lines = [f" {json.dumps(slope)}: {json.dumps(ts)}" for slope, ts in table.items()]
    workloads.TARGETS_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()

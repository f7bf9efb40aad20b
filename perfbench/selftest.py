"""Smoke test of the benchmark harness at tiny sizes.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json once untraced and once traced, with
5000 pairs and a 3-window grid, and checks that each run reports every
metric BENCHMARK.json names, with its unit, and that no operation failed.
Exits 0 when all runs pass, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(root / "src"))
    problems = []
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result, detail = run.run(name, seed=42, seconds=0, trace=trace, root=root, small=True)
            expected = {m["name"]: m["unit"] for m in bench[group]}
            reported = {k: v["unit"] for k, v in result["metrics"].items()}
            if reported != expected:
                problems.append(f"{name} trace={int(trace)}: metrics {reported} != {expected}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: {result['failed']} failed: {detail['failures']}")
            print(f"{name} trace={int(trace)}: {result['attempted']} ops, {result['failed']} failed", flush=True)
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own test: work counters repeat exactly for a fixed seed.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py [--seed N] [--seconds S] [WORKLOAD ...]

Runs each workload twice with ``--trace 1`` and the same seed, and fails
unless both runs are correct and every exact counter of the workload
(``layers.EXACT_COUNTERS``) is identical.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from layers import EXACT_COUNTERS


def traced_counters(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: traced run not correct")
    return {name: result["metrics"][name]["value"] for name in EXACT_COUNTERS[workload]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("workloads", nargs="*", default=list(EXACT_COUNTERS))
    args = parser.parse_args()
    failed = 0
    for workload in args.workloads:
        first = traced_counters(workload, args.seed, args.seconds)
        second = traced_counters(workload, args.seed, args.seconds)
        differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        failed += bool(differ)
        print(f"{workload}: {'FAIL' if differ else 'ok'} {first}"
              + (f" differ={differ}" if differ else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

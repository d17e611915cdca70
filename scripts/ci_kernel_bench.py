#!/usr/bin/env python
"""CI gate: the step-2 and step-3 extension kernels must stay fast and exact.

Step 2: runs the single-core scalar-vs-vector cell of the extension
kernel (``measure_kernel_cell`` from the parallel-scaling benchmark) on
the quick-scale skewed pair, and fails when

* the two kernels disagree on any lane (kept/cut flags, work counter,
  or any surviving lane's HSP box), or
* the vector kernel's best-of-N time is less than ``MIN_KERNEL_SPEEDUP``
  (3x) faster than the scalar kernel's.

Step 3: runs the gapped extensions of the quick EST pair (EST1 x EST2 at
the benches' quick scale: every HSP middle extended left and right, as
step 3 does) through the NumPy and the native C kernel, and fails when

* the native kernel did not load (no compiler, or a failed build), or
* the two kernels disagree on any lane (any result field, or the
  lane-row count), or
* the native kernel's best-of-N time is less than
  ``MIN_GAPPED_SPEEDUP`` (5x) faster than the NumPy kernel's.

The identity checks run *before* any timing number is trusted, so a
kernel that got fast by getting wrong cannot pass.  Timing uses
best-of-``--repeat`` to shrug off CI neighbour noise.

Exit status 0 on success; non-zero with a diagnostic otherwise.
Run from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from _shared import QUICK_SCALE  # noqa: E402
from bench_parallel_scaling import (  # noqa: E402
    MIN_KERNEL_SPEEDUP,
    make_skewed_pair,
    measure_kernel_cell,
    skewed_params,
)

from repro.align import gapped_native  # noqa: E402
from repro.align.evalue import karlin_params  # noqa: E402
from repro.align.gapped import batch_gapped_extend  # noqa: E402
from repro.core import OrisEngine, OrisParams  # noqa: E402
from repro.core.engine import WorkCounters  # noqa: E402
from repro.data import load_bank  # noqa: E402

#: The native step-3 kernel must beat the NumPy one by this factor.
MIN_GAPPED_SPEEDUP = 5.0

GAPPED_FIELDS = (
    "score", "consumed1", "consumed2", "matches", "mismatches",
    "gap_columns", "gap_openings", "min_dd", "max_dd", "steps",
)


def measure_gapped_cell(repeat: int) -> dict:
    """NumPy vs native step-3 kernel on the quick EST pair's extensions."""
    params = OrisParams()
    bank1, bank2 = load_bank("EST1", QUICK_SCALE), load_bank("EST2", QUICK_SCALE)
    engine = OrisEngine(params)
    index1, index2 = engine._build_indexes(bank1, bank2)
    threshold = engine._resolve_hsp_min_score(bank1, bank2, karlin_params(params.scoring))
    table = engine._ungapped_stage(index1, index2, threshold, WorkCounters())
    s1, e1, s2, _, _ = table.sorted_by_diagonal()
    mid1 = (s1 + e1) // 2
    mid2 = s2 + (mid1 - s1)
    k = mid1.shape[0]
    lanes = (
        bank1.seq, bank2.seq, np.concatenate((mid1, mid1)), np.concatenate((mid2, mid2)),
        np.repeat(np.array([-1, 1], np.int64), k), params.scoring, params.band_radius,
    )
    cell = {"lanes": 2 * k, "loaded": gapped_native.load() is not None}
    if not cell["loaded"]:
        return cell
    results, seconds = {}, {}
    for native in (False, True):
        results[native] = batch_gapped_extend(*lanes, native=native)
    cell["identical"] = all(
        np.array_equal(getattr(results[False], f), getattr(results[True], f))
        for f in GAPPED_FIELDS
    )
    cell["lane_rows"] = results[False].steps
    if not cell["identical"]:
        return cell
    for native in (False, True):
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            batch_gapped_extend(*lanes, native=native)
            best = min(best, time.perf_counter() - t0)
        seconds[native] = best
    cell["numpy_seconds"], cell["native_seconds"] = seconds[False], seconds[True]
    cell["speedup"] = seconds[False] / seconds[True]
    return cell


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=45,
        help="skewed-pair scale (45 = quick bench tier)",
    )
    parser.add_argument(
        "--repeat", type=int, default=5,
        help="timing repetitions per kernel (best-of)",
    )
    args = parser.parse_args(argv)

    bank1, bank2 = make_skewed_pair(args.repeats)
    cell = measure_kernel_cell(
        bank1, bank2, skewed_params(), repeat=args.repeat
    )
    print(
        f"step-2 kernel cell over {cell['pairs']:,} pairs: "
        f"scalar {cell['scalar_seconds'] * 1e3:.1f} ms, "
        f"vector {cell['vector_seconds'] * 1e3:.1f} ms "
        f"=> {cell['speedup']:.2f}x (bar {MIN_KERNEL_SPEEDUP:.0f}x)"
    )
    failures = []
    if not cell["identical"]:
        failures.append("kernel outputs differ: vector != scalar lane-for-lane")
    if cell["speedup"] < MIN_KERNEL_SPEEDUP:
        failures.append(
            f"vector kernel speedup {cell['speedup']:.2f}x "
            f"below the {MIN_KERNEL_SPEEDUP:.0f}x bar"
        )

    gapped = measure_gapped_cell(args.repeat)
    if not gapped["loaded"]:
        failures.append(
            "native gapped kernel did not load (no C compiler or a failed build)"
        )
    elif not gapped["identical"]:
        failures.append("gapped kernel outputs differ: native != NumPy lane-for-lane")
    else:
        print(
            f"step-3 kernel cell over {gapped['lanes']:,} lanes "
            f"({gapped['lane_rows']:,} lane-rows): "
            f"NumPy {gapped['numpy_seconds'] * 1e3:.1f} ms, "
            f"native {gapped['native_seconds'] * 1e3:.1f} ms "
            f"=> {gapped['speedup']:.1f}x (bar {MIN_GAPPED_SPEEDUP:.0f}x)"
        )
        if gapped["speedup"] < MIN_GAPPED_SPEEDUP:
            failures.append(
                f"native gapped kernel speedup {gapped['speedup']:.2f}x "
                f"below the {MIN_GAPPED_SPEEDUP:.0f}x bar"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("kernel bench gate passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

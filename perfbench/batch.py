"""Batch workloads: ``scoris-n compare`` of two generated banks.

Each comparison is a fresh process, so every one contributes a set-up
sample (launch to both banks ingested) and a wall sample (ingested to
m8 file written).
"""

from __future__ import annotations

import json
import os
import time

from checks import check_m8
from common import HERE, TreeMemory, child_env, median, percentile, python, read_ledgers, spawn
from layers import EXACT_COUNTERS, layer_metrics


def compare_once(spec: dict, work: str, tag: str, trace: bool) -> dict:
    """One ``compare`` process; returns its times, peak memory and output."""
    out = os.path.join(work, f"{tag}.m8")
    marker = os.path.join(work, f"{tag}.json")
    ledger_dir = None
    if trace:
        ledger_dir = os.path.join(work, f"{tag}.ledger")
        os.mkdir(ledger_dir)
    argv = [
        python(), os.path.join(HERE, "launch.py"), marker,
        "compare", spec["fasta1"], spec["fasta2"], "-o", out,
        "--workers", str(spec["workers"]),
    ]
    t0 = time.monotonic()
    proc = spawn(argv, child_env(ledger_dir), os.path.join(work, "compare.log"))
    memory = TreeMemory([proc.pid])
    try:
        code = proc.wait(timeout=170)
    finally:
        peak = memory.stop()
    run = {"code": code, "peak_rss_mb": peak, "text": ""}
    if code != 0:
        return run
    with open(marker, encoding="utf-8") as fh:
        stamps = json.load(fh)
    with open(out, encoding="ascii") as fh:
        run["text"] = fh.read()
    run["setup_s"] = stamps["ready"] - t0
    run["wall_s"] = stamps["done"] - stamps["ready"]
    if ledger_dir is not None:
        run["ledger"] = read_ledgers(ledger_dir)
    return run


def _problem(run: dict, reference: str | None) -> str | None:
    """Why a comparison failed, or None; checks its m8 output."""
    if run["code"] != 0:
        return f"compare exited {run['code']}"
    run["check"] = check = check_m8(run["text"])
    if not check["ok"]:
        return f"m8 check: {check['problems']}"
    if reference is not None and run["text"] != reference:
        return "output differs between comparisons of one input"
    return None


def run_batch(spec: dict, seconds: float, trace: bool, work: str) -> dict:
    """Repeat the comparison for ``seconds``; with ``trace``, alternate an
    untraced and a traced comparison and require identical output."""
    n_queries = spec["banks"]["bank1"]["sequences"]
    runs: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    reference: str | None = None
    min_rounds = 1 if trace else 2
    started = time.monotonic()
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            run = compare_once(spec, work, f"c{len(runs) + len(traced)}", is_traced)
            (traced if is_traced else runs).append(run)
            problem = _problem(run, reference)
            if problem is not None:
                failures.append(problem)
            elif reference is None:
                reference = run["text"]
        elapsed = time.monotonic() - started
        per_round = elapsed / len(runs)
        if len(runs) >= min_rounds and elapsed + per_round > seconds:
            break

    attempted = len(runs) + len(traced)
    good = [r for r in runs if r["code"] == 0]
    if not good:
        return {"attempted": attempted, "failures": failures, "metrics": {}}
    latencies_ms = [1000.0 * (r["setup_s"] + r["wall_s"]) for r in good]
    ok_runs = [r for r in good if r["check"]["ok"]]
    metrics = {
        "setup_s": median(r["setup_s"] for r in good),
        "wall_s": median(r["wall_s"] for r in good),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in good),
        # A batch request is one whole comparison; it also is how a change
        # to either bank takes effect, hence the mutation latency.
        "query_p50_ms": percentile(latencies_ms, 50),
        "query_p90_ms": percentile(latencies_ms, 90),
        "mutation_p50_ms": percentile(latencies_ms, 50),
        "mutation_p90_ms": percentile(latencies_ms, 90),
        # Query sequences of bank1 answered per second: end to end, and
        # with set-up excluded (the most a resident process could do).
        "goodput_qps": n_queries * len(ok_runs) / (sum(latencies_ms) / 1000.0),
        "max_qps": n_queries / median(r["wall_s"] for r in good),
        "ok_frac": 1.0 - len(failures) / attempted,  # at most one per comparison
    }
    result = {
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "outputs": {"records": good[0]["check"]["records"], "sha256": good[0]["check"]["sha256"],
                    "samples": len(good)},
    }
    if trace:
        traced_ok = [r for r in traced if r["code"] == 0]
        if traced_ok:
            result["layers"] = _traced_layers(traced_ok, good, failures)
    return result


def _traced_layers(traced: list[dict], untraced: list[dict], failures: list[str]) -> dict:
    per_run = [layer_metrics(r["ledger"], r["wall_s"]) for r in traced]
    for name in EXACT_COUNTERS["est-batch"]:
        if len({m[name] for m in per_run}) != 1:
            failures.append(f"work counter {name} differs between comparisons")
    layers = {name: median(m[name] for m in per_run) for name in per_run[0]}
    layers["bench.generator_lag_ms"] = 0.0
    layers["bench.tracing_overhead_frac"] = (
        median(r["wall_s"] for r in traced) / median(r["wall_s"] for r in untraced) - 1.0
    )
    return layers

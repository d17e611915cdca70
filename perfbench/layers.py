"""Per-layer metrics from a traced run's ledger and the daemons' ``stats``.

Times and counts are totals over the traced work unit: one comparison
for the batch workloads, the fixed open-loop request schedule for the
serve workloads.  Span times are summed over processes, so with several
workers they can exceed wall time.  ``*.ns_per_*``, ``*_frac``,
``*.share`` and ``*_yield`` are derived from the counted work.
"""

from __future__ import annotations

#: Work counters that repeat exactly for a fixed seed.  A fleet is sent
#: one query at a time, so no two share a micro-batch; a mutating
#: daemon's queries race its bank swaps, so there only the store's own
#: counters are.
STEP_COUNTERS = ("pairs.hit_pairs", "step2.lane_steps", "step2.hsps", "step3.extensions",
                 "step3.lane_rows", "step4.records")
EXACT_COUNTERS = {
    "est-batch": STEP_COUNTERS,
    "genome-batch": STEP_COUNTERS,
    "fleet-query": STEP_COUNTERS,
    "daemon-mutate": ("store.flushes", "store.compactions", "store.segments_max"),
}


def _span(ledger: dict, name: str) -> tuple[int, float]:
    calls, total = ledger["spans"].get(name, (0, 0.0))
    return int(calls), float(total)


def _mean_ms(ledger: dict, name: str) -> float:
    calls, total = _span(ledger, name)
    return 1000.0 * total / calls if calls else 0.0


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def _hist(metrics: list[dict], name: str) -> tuple[int, float]:
    count, total = 0, 0.0
    for snapshot in metrics:
        h = snapshot.get("histograms", {}).get(name)
        if h:
            count += int(h["count"])
            total += float(h["total"])
    return count, total


def _counter(metrics: list[dict], name: str) -> float:
    return float(sum(s.get("counters", {}).get(name, 0) for s in metrics))


def layer_metrics(
    ledger: dict,
    wall_s: float,
    stats: list[dict] | None = None,
    router_stats: dict | None = None,
    client_rtt_ms: float = 0.0,
) -> dict[str, float]:
    """``stats``: ``stats`` snapshots of every serving daemon (shards
    included); ``router_stats``: the fleet router's; ``client_rtt_ms``:
    mean send-to-answer time the load generator saw."""
    counts = ledger["counts"]
    stats = stats or []
    c = lambda name: float(counts.get(name, 0))  # noqa: E731

    gapped_s = _span(ledger, "step3.gapped")[1]
    extend_s = _span(ledger, "step2.extend")[1]
    batch_calls, batch_s = _span(ledger, "serve_engine.batch")
    m = {
        "step3.gapped_s": gapped_s,
        "step3.extensions": c("step3.extensions"),
        "step3.lane_rows": c("step3.lane_rows"),
        "step3.ns_per_lane_row": _ratio(gapped_s, c("step3.lane_rows"), 1e9),
        "step3.kept_frac": _ratio(c("step3.alignments"), c("step3.extensions")),
        # Share of the comparison (batch) or of the engine's batch time
        # (serve), the time a query waits on.
        "step3.share": _ratio(gapped_s, batch_s if batch_calls else wall_s),
        "step2.extend_s": extend_s,
        "pairs.hit_pairs": c("pairs.hit_pairs"),
        "step2.lane_steps": c("step2.lane_steps"),
        "step2.hsps": c("step2.hsps"),
        "step2.ns_per_lane_step": _ratio(extend_s, c("step2.lane_steps"), 1e9),
        "step2.hsp_yield": _ratio(c("step2.hsps"), c("pairs.hit_pairs")),
        "step4.records": c("step4.records"),
        "index.build_s": _span(ledger, "index.build")[1],
        "filters.mask_s": _span(ledger, "filters.mask")[1],
        "index.positions": c("index.positions"),
        "index.bytes": c("index.bytes"),
        "io.ingest_s": _span(ledger, "io.ingest")[1],
        "io.m8_write_s": _span(ledger, "io.m8_write")[1],
        "runtime.tasks": c("runtime.tasks"),
        "runtime.queue_wait_s": c("runtime.queue_wait_s"),
        "runtime.shm_bytes": c("runtime.shm_bytes"),
        "runtime.retries": c("runtime.retries"),
    }

    n_wait, wait_s = _hist(stats, "serve.request_wait_seconds")
    n_batches, batched = _hist(stats, "serve.batch_size")
    m["batcher.request_wait_ms"] = _ratio(wait_s, n_wait, 1000.0)
    m["batcher.batch_size_mean"] = _ratio(batched, n_batches)
    m["serve_engine.batch_ms"] = _mean_ms(ledger, "serve_engine.batch")
    m["serve_engine.finish_ms"] = (
        _mean_ms(ledger, "finish") if batch_calls else 0.0
    )
    every = stats + ([router_stats] if router_stats else [])
    m["admission.shed"] = _counter(every, "serve.requests_shed")

    routed = [router_stats] if router_stats else []
    n_gather, gather_ms = _hist(routed, "fleet.gather_wait_ms")
    m["fleet.gather_wait_ms"] = _ratio(gather_ms, n_gather)
    m["fleet.router_overhead_ms"] = (
        client_rtt_ms - m["fleet.gather_wait_ms"] if n_gather else 0.0
    )
    m["fleet.seam_dedups"] = _counter(routed, "fleet.seam_hits_deduped")

    m["store.add_ms"] = _mean_ms(ledger, "store.add")
    m["store.remove_ms"] = _mean_ms(ledger, "store.remove")
    m["store.flushes"] = c("store.flushes")
    m["store.compactions"] = c("store.compactions")
    m["store.segments_max"] = float(ledger["maxima"].get("store.segments_max", 0))
    m["store.swap_shm_bytes"] = c("store.swap_shm_bytes")
    return m

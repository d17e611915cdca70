"""Per-layer ledger for traced benchmark runs.

Wraps the public entry points of each ``repro`` layer from outside and
accumulates, per process, the time spent in each timed layer plus the
work counts the calls return.  Nothing in ``repro`` is edited: functions are replaced in every
loaded ``repro`` module that bound them, methods on their class.

Each process writes its ledger to ``<dir>/ledger-<pid>.json``.  Forked
workers inherit the wrappers and start an empty ledger; because they
leave through ``os._exit`` (no ``atexit``), they write after every
outermost call.  Other processes write at most every
``FLUSH_INTERVAL_S`` and at exit.

Loaded by ``sitecustomize`` when ``PERFBENCH_LEDGER_DIR`` is set.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import threading
import time

FLUSH_INTERVAL_S = 0.25

#: Layers whose time counts as a bank mutation; a shared-memory arena
#: published inside one of them is a subject swap, not a step-2 payload.
STORE_SPANS = ("store.add", "store.remove")


class Ledger:
    """Span totals and counters of one process."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.lock = threading.Lock()
        self.local = threading.local()
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total]
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.forked_child = False
        self.last_flush = 0.0

    def reset_in_child(self) -> None:
        self.lock = threading.Lock()
        self.local = threading.local()
        self.spans, self.counts, self.maxima = {}, {}, {}
        self.forked_child = True

    # -- recording ----------------------------------------------------- #

    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def inside(self, names: tuple[str, ...]) -> bool:
        return any(frame[0] in names for frame in self.stack())

    def enter(self, name: str) -> tuple[str, float]:
        frame = (name, time.perf_counter())
        self.stack().append(frame)
        return frame

    def leave(self, frame: tuple[str, float]) -> None:
        elapsed = time.perf_counter() - frame[1]
        self.stack().pop()
        with self.lock:
            entry = self.spans.setdefault(frame[0], [0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
        self.outermost_done()

    def outermost_done(self) -> None:
        if not self.stack():
            self.maybe_flush()

    def add(self, name: str, value: float) -> None:
        with self.lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def high(self, name: str, value: float) -> None:
        with self.lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    # -- output -------------------------------------------------------- #

    def maybe_flush(self) -> None:
        now = time.monotonic()
        if self.forked_child or now - self.last_flush >= FLUSH_INTERVAL_S:
            self.flush()

    def flush(self) -> None:
        with self.lock:
            snapshot = {
                "pid": os.getpid(),
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts),
                "maxima": dict(self.maxima),
            }
        path = os.path.join(self.directory, f"ledger-{os.getpid()}.json")
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(snapshot, fh)
            os.replace(tmp, path)
        except OSError:
            return  # the run's work dir is gone: nothing left to report to
        self.last_flush = time.monotonic()


def _timed(ledger: Ledger, name: str, fn, after=None):
    """Wrap *fn* in a span; ``after(result, args, kwargs)`` adds counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = ledger.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            ledger.leave(frame)
        if after is not None:
            after(result, args, kwargs)
        return result

    wrapper.__pb_original__ = fn
    return wrapper


def _counted(ledger: Ledger, fn, after):
    """Wrap *fn* untimed; ``after(result, args, kwargs)`` adds counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(result, args, kwargs)
        ledger.outermost_done()
        return result

    wrapper.__pb_original__ = fn
    return wrapper


def _counted_generator(ledger: Ledger, fn, per_item):
    """Wrap a generator function untimed; ``per_item(item)`` adds counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            per_item(item)
            yield item
        ledger.outermost_done()

    wrapper.__pb_original__ = fn
    return wrapper


def _rebind(original, wrapper) -> None:
    """Replace *original* in every loaded ``repro`` module that bound it."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_function(module, attr: str, make) -> None:
    original = getattr(module, attr)
    _rebind(original, make(original))


def _wrap_method(cls, attr: str, make) -> None:
    setattr(cls, attr, make(getattr(cls, attr)))


def install(directory: str) -> Ledger:
    """Import the ``repro`` layers and wrap their entry points."""
    import repro.align.records as records
    import repro.align.vector_kernel as vector_kernel
    import repro.cli  # noqa: F401 - binds the names the CLI calls
    import repro.core.gapped_stage as gapped_stage
    import repro.core.pairs as pairs
    import repro.core.parallel as parallel
    import repro.filters as filters
    import repro.index.seed_index as seed_index
    import repro.index.segments as segments
    import repro.io.m8 as m8
    import repro.io.validate as validate
    import repro.runtime.scheduler as scheduler
    import repro.runtime.shm as shm
    import repro.serve.daemon  # noqa: F401
    import repro.serve.engine as serve_engine
    import repro.serve.fleet.router  # noqa: F401

    ledger = Ledger(directory)
    os.register_at_fork(after_in_child=ledger.reset_in_child)
    atexit.register(ledger.flush)

    def span(name, after=None):
        return lambda fn: _timed(ledger, name, fn, after)

    def count(after):
        return lambda fn: _counted(ledger, fn, after)

    # io: FASTA ingest and m8 formatting.
    _wrap_function(validate, "load_bank", span("io.ingest"))
    _wrap_function(m8, "format_m8", span("io.m8_write"))

    # filters + index (step 1).
    _wrap_function(filters, "make_filter_mask", span("filters.mask"))

    def index_built(_result, args, _kwargs):
        index = args[0]
        ledger.add("index.positions", int(index.positions.size))
        ledger.add("index.bytes", int(index.nbytes()))

    _wrap_method(seed_index.CsrSeedIndex, "__init__", span("index.build", index_built))

    # core.pairs: hit-pair enumeration (a generator).
    _wrap_function(
        pairs,
        "iter_pair_chunks",
        lambda fn: _counted_generator(
            ledger, fn, lambda chunk: ledger.add("pairs.hit_pairs", int(chunk.n_pairs))
        ),
    )

    # align.vector_kernel: step-2 ungapped extension.
    def extended(stage, args, _kwargs):
        ledger.add("step2.lane_steps", int(stage.steps))
        ledger.add("step2.hsps", int(stage.start1.shape[0]))

    _wrap_function(vector_kernel, "extend_filter_vector", span("step2.extend", extended))

    # core.gapped_stage (+ align.gapped, core.containment inside it): step 3.
    def gapped_wrapper(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters = kwargs.get("counters")
            ext0 = counters.n_gapped_extensions if counters is not None else 0
            rows0 = counters.gapped_steps if counters is not None else 0
            frame = ledger.enter("step3.gapped")
            try:
                alignments = fn(*args, **kwargs)
            finally:
                ledger.leave(frame)
            if counters is not None:
                ledger.add("step3.extensions", counters.n_gapped_extensions - ext0)
                ledger.add("step3.lane_rows", counters.gapped_steps - rows0)
            ledger.add("step3.alignments", len(alignments))
            return alignments

        return wrapper

    _wrap_function(gapped_stage, "run_gapped_stage", gapped_wrapper)

    # align.records: step 4.
    _wrap_function(
        records,
        "sort_records",
        count(lambda out, _a, _k: ledger.add("step4.records", len(out))),
    )

    # Steps 3-4 on a merged HSP table (resilient runtime and serve engine).
    _wrap_function(parallel, "finish_comparison", span("finish"))

    # runtime: scheduler, shared-memory arenas.
    def scheduled(_result, args, _kwargs):
        sched = args[0]
        ledger.add("runtime.tasks", len(sched.tasks))
        metrics = sched.registry.as_dict()
        waits = metrics.get("histograms", {}).get("scheduler.queue_wait_seconds")
        if waits:
            ledger.add("runtime.queue_wait_s", float(waits["total"]))
        ledger.add(
            "runtime.retries",
            int(metrics.get("counters", {}).get("scheduler.retries", 0)),
        )

    _wrap_method(scheduler.TaskScheduler, "run", count(scheduled))

    def arena_made(_result, args, _kwargs):
        name = "store.swap_shm_bytes" if ledger.inside(STORE_SPANS) else "runtime.shm_bytes"
        ledger.add(name, int(args[0].nbytes))

    _wrap_method(shm.SharedArena, "__init__", count(arena_made))

    # serve: engine batches and bank mutations.
    _wrap_method(serve_engine.BatchEngine, "run_batch", span("serve_engine.batch"))
    _wrap_method(serve_engine.BatchEngine, "add_sequences", span("store.add"))
    _wrap_method(serve_engine.BatchEngine, "remove_sequences", span("store.remove"))

    def flushed(did, args, _kwargs):
        # The segment count peaks right after a flush, before any compaction.
        ledger.add("store.flushes", int(bool(did)))
        ledger.high("store.segments_max", args[0].n_segments)

    _wrap_method(segments.SegmentStore, "flush", count(flushed))
    _wrap_method(
        segments.SegmentStore,
        "compact",
        count(lambda _r, _a, _k: ledger.add("store.compactions", 1)),
    )
    return ledger

"""Serve workloads: a resident daemon or a sharded fleet under load.

The load generator is this one process.  Queries follow a fixed
open-loop schedule, sent over one connection: an answer that is late
holds back the queries due after it, as a queue would, but two queries
never share a micro-batch, so the work each one does is fixed.  A
mutating daemon's mutations are sent on a second connection, from a
second thread.  The closed-loop phase that follows uses one connection
too: more, on a host with two cores, would measure how the host
schedules the fleet's processes.  Each request's latency runs from when
it was due, so a stall also counts against the requests queued behind
it, and ``sent - due`` is the generator's own lag.  Shed, failed and timed-out requests are failures
and miss the latency limit.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import threading
import time

from checks import reference_m8
from common import (
    TreeMemory,
    child_env,
    median,
    percentile,
    python,
    read_ledgers,
    spawn,
    stop_process,
    wait_for_file,
)
from layers import layer_metrics

#: Answers slower than this miss the goodput count.
LATENCY_LIMIT_MS = 1000.0
#: Set-up samples per run (the last daemon started serves the load).  A
#: fleet's are also its mutation latencies (see ``run_serve``): with 11,
#: their 90th percentile is the second slowest start, not the slowest.
SETUP_SAMPLES = {"fleet": 11, "store": 3}
#: Answers per run compared byte for byte with a single-shot compare:
#: the first ``REFERENCE_SAMPLES`` queries in seed order, and further
#: ones (of the first ``REFERENCE_POOL``) until one answer has records.
REFERENCE_SAMPLES = 3
REFERENCE_POOL = 12
#: Sequences per ``add_sequences`` batch in the mutation stream; each
#: batch is removed again one sequence at a time.
MUTATION_BATCH = 4
#: Add batches in the closed-loop mutation phase (``burst_items``).
BURST_ADDS = 12
#: Where in each query period the two mutations of that period are due:
#: nearly every query is answered within the first half of its period,
#: and a mutation within a quarter of it.
MUTATION_PHASES = (0.55, 0.8)
#: Share of an untraced run spent in the open-loop phase.  A fleet's is
#: shorter, leaving time for its set-up samples.
OPEN_SHARE = {"fleet": 0.8, "store": 0.9}
#: Fewest queries the closed-loop phase that follows answers (whole
#: passes over the open-loop ones), enough for a steady throughput.
CLOSED_QUERIES = 30


# --------------------------------------------------------------------- #
# Daemons
# --------------------------------------------------------------------- #


class Service:
    """One started daemon (or fleet router) and its process tree."""

    def __init__(self, argv_for, work: str, tag: str, trace_dir: str | None) -> None:
        self.dir = os.path.join(work, tag)
        os.mkdir(self.dir)
        announce = os.path.join(self.dir, "announce.json")
        t0 = time.monotonic()
        self.proc = spawn(
            argv_for(self.dir) + ["--announce-file", announce],
            child_env(trace_dir),
            os.path.join(work, "serve.log"),
        )
        self.memory = TreeMemory([self.proc.pid])
        try:
            address = wait_for_file(announce, self.proc, timeout=120)
        except RuntimeError:
            self.stop()
            raise
        self.setup_s = time.monotonic() - t0
        self.address = (address["host"], int(address["port"]))
        self.peak_rss_mb = 0.0
        # One answered request before anything else: a daemon announces a
        # moment before it installs its SIGTERM handler, and a fleet router
        # stopped in that moment dies without stopping its shards.
        try:
            self.stats()
        except Exception:
            self.stop()
            raise

    def client(self):
        from repro.serve.client import OrisClient

        # No client-side retries: a shed request is a failure here.
        return OrisClient(*self.address, timeout=60.0, retries=0)

    def stats(self) -> dict:
        with self.client() as c:
            return c.stats()

    def shard_stats(self) -> list[dict]:
        """``stats`` of each fleet shard (found by its announce file)."""
        from repro.serve.client import OrisClient

        out = []
        for name in sorted(os.listdir(self.dir)):
            if name.startswith("shard") and name.endswith(".announce.json"):
                with open(os.path.join(self.dir, name), encoding="utf-8") as fh:
                    a = json.load(fh)
                with OrisClient(a["host"], int(a["port"]), retries=0) as c:
                    out.append(c.stats())
        return out

    def stop(self) -> int:
        code = stop_process(self.proc)
        self.peak_rss_mb = self.memory.stop()
        return code


def start_measured(argv_for, work: str, tag: str, trace_dir: str | None, samples: int):
    """Start the service ``samples`` times; keep the last one running."""
    setups = []
    for i in range(samples):
        service = Service(argv_for, work, f"{tag}{i}", trace_dir)
        setups.append(service.setup_s)
        if i < samples - 1:
            service.stop()
            shutil.rmtree(service.dir, ignore_errors=True)
    return service, setups


# --------------------------------------------------------------------- #
# Load generation
# --------------------------------------------------------------------- #


def drive(service: Service, items: list[dict], t0: float) -> list[dict]:
    """Send ``items`` (each with ``due`` seconds after ``t0`` and an ``op``
    taking a client) in order over one connection.  An item due ``None``
    is sent as soon as the one before it is answered."""
    from repro.serve.client import ServiceError
    from repro.serve.protocol import ProtocolError

    with service.client() as client:
        for item in items:
            due = time.monotonic() if item["due"] is None else t0 + item["due"]
            item["due_at"] = due
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            item["sent"] = time.monotonic()
            try:
                item["answer"] = item["op"](client)
                item["status"] = "ok"
            except ServiceError as exc:
                item["status"] = type(exc).__name__
            except (OSError, ProtocolError) as exc:
                item["status"] = type(exc).__name__
                client.close()
            item["done"] = time.monotonic()
            item["latency_ms"] = 1000.0 * (item["done"] - due)
    return items


def closed_loop(service: Service, queries) -> dict:
    """Answer the query stream over one connection, sending each query
    when the last one is answered: the stream over and over, at least
    ``CLOSED_QUERIES`` queries for a stable rate, and always whole
    passes, so that every seed weighs each query alike.  A query counts
    as ok only once it is answered; after a connection error the client
    reconnects for the next query."""
    from repro.serve.client import ServiceError
    from repro.serve.protocol import ProtocolError

    n = -(-CLOSED_QUERIES // len(queries)) * len(queries)
    tally = {"ok": 0, "failed": 0}
    t0 = time.monotonic()
    with service.client() as client:
        for i in range(n):
            try:
                client.query(*queries[i % len(queries)])
                tally["ok"] += 1
            except ServiceError:
                tally["failed"] += 1
            except (OSError, ProtocolError):
                tally["failed"] += 1
                client.close()
    return {**tally, "seconds": time.monotonic() - t0}


def query_items(queries, rate: float, seconds: float) -> list[dict]:
    """One query every ``1 / rate`` seconds, in stream order."""
    items = []
    for i in range(max(int(rate * seconds), 1)):
        name, seq = queries[i % len(queries)]
        items.append({
            "due": i / rate, "kind": "query", "name": name,
            "op": (lambda c, name=name, seq=seq: c.query(name, seq)),
        })
    return items


def mutation_adds(rate: float, seconds: float) -> int:
    """Add batches in the mutation stream beside a query stream of
    ``rate`` queries a second."""
    n_ops = len(MUTATION_PHASES) * max(int(rate * seconds), 1)
    return (n_ops - 1) // (MUTATION_BATCH + 1) + 1


def _cycle(batch, remove: bool) -> list[dict]:
    """Add ``batch``, then (with ``remove``) remove each of its sequences."""
    items = [{"kind": "add", "batch": batch, "due": None,
              "op": (lambda c, batch=batch: c.add_sequences(batch))}]
    if remove:
        items += [{"kind": "remove", "batch": batch, "due": None,
                   "op": (lambda c, names=[name]: c.remove_sequences(names))}
                  for name, _seq in batch]
    return items


def _batches(records) -> list:
    return [records[i:i + MUTATION_BATCH] for i in range(0, len(records), MUTATION_BATCH)]


def mutation_items(records, rate: float, seconds: float) -> list[dict]:
    """Cycles of one add of a ``MUTATION_BATCH``-sequence batch and one
    remove of each of its sequences; the stream ends on an add.  Two
    operations are due in each period of a query stream of ``rate``
    queries a second, at ``MUTATION_PHASES`` of the period, once that
    period's query is answered.

    The daemon runs mutations on connection threads beside the batcher
    thread, so an operation that overlaps a query shares the interpreter
    with it and its latency depends on that overlap.  Placed between
    queries, each kind costs what it costs."""
    batches = _batches(records)[:mutation_adds(rate, seconds)]
    items = [it for b, batch in enumerate(batches)
             for it in _cycle(batch, remove=b < len(batches) - 1)]
    per = len(MUTATION_PHASES)
    for i, item in enumerate(items):
        item["due"] = (i // per + MUTATION_PHASES[i % per]) / rate
    return items


def burst_items(records) -> list[dict]:
    """Whole add-and-remove cycles of ``records``, sent back to back.

    The store compacts on every add (``--store-max-segments 1``), so an
    add costs clearly more than a remove.  With one add to four removes
    the adds are the slowest fifth of the operations: the 90th
    percentile is about the median add, and the median lies well inside
    the removes, so neither falls on the border between two kinds.  Sent
    back to back, no operation starts on a daemon that has sat idle: on
    a shared host, how long an idle process takes to get going again
    varies from minute to minute, and it moved the paced stream's
    percentiles by a quarter from one run to the next."""
    return [it for batch in _batches(records) for it in _cycle(batch, remove=True)]


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #


def _latency_summary(items: list[dict]) -> dict:
    ok = [it for it in items if it.get("status") == "ok"]
    lat = [it["latency_ms"] for it in ok] or [0.0]
    return {
        "ok": ok,
        "p50": percentile(lat, 50),
        "p90": percentile(lat, 90),
        "in_limit": sum(1 for it in ok if it["latency_ms"] <= LATENCY_LIMIT_MS),
        "lag_ms": median(1000.0 * (it["sent"] - it["due_at"]) for it in items if "sent" in it),
        "rtt_ms": sum(1000.0 * (it["done"] - it["sent"]) for it in ok) / max(len(ok), 1),
    }


def _check_answers(answers: dict[str, str], queries: list[tuple[str, str]],
                   subject: str, work: str) -> tuple[list[str], dict[str, int]]:
    """Compare each sampled answer with a single-shot compare; returns the
    failures and the record count of each reference answer."""
    failures = []
    records = {}
    for name, seq in queries:
        if name not in answers:
            continue
        reference = reference_m8(name, seq, subject, work)
        records[name] = len(reference.splitlines())
        if answers[name] != reference:
            failures.append(f"answer for {name} differs from single-shot compare")
    if not any(records.values()):
        failures.append(f"no sampled reference answer has records: {records}")
    return failures, records


def _load_phase(spec: dict, service: Service, seconds: float) -> dict:
    """The fixed open-loop schedule of the workload over ``seconds``."""
    queries = spec["queries"]
    if spec["mode"] == "fleet":
        items = query_items(queries, spec["rate"], seconds)
        return {"queries": drive(service, items, time.monotonic() + 0.05),
                "mutations": []}
    q_items = query_items(queries, spec["rate"], seconds)
    m_items = mutation_items(spec["mutation_records"], spec["rate"], seconds)
    t0 = time.monotonic() + 0.05
    mutator = threading.Thread(target=drive, args=(service, m_items, t0))
    mutator.start()
    drive(service, q_items, t0)
    mutator.join()
    return {"queries": q_items, "mutations": m_items}


def _final_subject(spec: dict, phase: dict, work: str) -> str:
    """FASTA of the logical bank after the mutation stream: the seed bank
    plus the last added batch (every earlier batch was removed again)."""
    if not phase["mutations"]:
        return spec["subject"]
    path = os.path.join(work, "logical-subject.fa")
    shutil.copyfile(spec["subject"], path)
    with open(path, "a", encoding="ascii") as fh:
        for name, seq in phase["mutations"][-1]["batch"]:
            fh.write(f">{name}\n{seq}\n")
    return path


def _checked_answers(spec: dict, service: Service, phase: dict) -> dict[str, str]:
    """Answers to compare with a single-shot compare.  A fleet's come from
    the load itself (a query that failed there is already a failure); a
    mutating daemon's are asked once the mutation stream is over, since
    queries during it race the bank swaps."""
    picked: dict[str, str] = {}
    with contextlib.ExitStack() as stack:
        if spec["mode"] == "fleet":
            served = {it["name"]: it["answer"] for it in phase["queries"]
                      if it.get("status") == "ok"}
            ask = lambda name, _seq: served.get(name)  # noqa: E731
        else:
            ask = stack.enter_context(service.client()).query
        for name, seq in spec["queries"][:REFERENCE_POOL]:
            answer = ask(name, seq)
            if answer is not None:
                picked[name] = answer
            if len(picked) >= REFERENCE_SAMPLES and any(picked.values()):
                break
    return picked


def run_serve(spec: dict, seconds: float, trace: bool, work: str) -> dict:
    if trace:
        return _run_traced(spec, seconds, work)
    failures: list[str] = []
    # The first start reads the program from a cold page cache, which a
    # restart of a running deployment does not: it is not a sample.
    service, setups = start_measured(spec["argv_for"], work, "svc", None,
                                     SETUP_SAMPLES[spec["mode"]] + 1)
    setups = setups[1:]
    try:
        phase = _load_phase(spec, service, OPEN_SHARE[spec["mode"]] * seconds)
        closed = closed_loop(service, spec["queries"])
        # Peak memory is that of the query phases: back-to-back compactions
        # leave short-lived arrays that the sampler catches at random.
        service.memory.stop()
        burst = (drive(service, burst_items(spec["burst_records"]), time.monotonic())
                 if phase["mutations"] else [])
        answers = _checked_answers(spec, service, phase)
    finally:
        code = service.stop()
    if code != 0:
        failures.append(f"daemon exited {code} on SIGTERM")
    check_failures, checked = _check_answers(answers, spec["queries"],
                                             _final_subject(spec, phase, work), work)
    failures += check_failures

    q = _latency_summary(phase["queries"])
    attempted = len(phase["queries"]) + len(phase["mutations"]) + len(burst) + len(answers)
    ops = phase["queries"] + phase["mutations"]
    failures += [f"{it['kind']} {it['status']}" for it in ops + burst if it.get("status") != "ok"]
    window = max(it["done"] for it in ops) - min(it["due_at"] for it in ops)
    if burst:
        m = _latency_summary(burst)
        mutation = (m["p50"], m["p90"])
    else:
        # A fleet has no online mutation: a bank change takes effect by
        # re-planning and restarting it.
        mutation = (1000.0 * median(setups), 1000.0 * percentile(setups, 90))
    attempted += closed["ok"] + closed["failed"]
    failures += ["closed-loop query failed"] * closed["failed"]
    metrics = {
        "setup_s": median(setups),
        # The makespan of the fixed request schedule.
        "wall_s": window,
        "peak_rss_mb": service.peak_rss_mb,
        "query_p50_ms": q["p50"],
        "query_p90_ms": q["p90"],
        "goodput_qps": q["in_limit"] / window,
        "max_qps": closed["ok"] / closed["seconds"],
        "mutation_p50_ms": mutation[0],
        "mutation_p90_ms": mutation[1],
        "ok_frac": 1.0 - min(len(failures), attempted) / attempted,
    }
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "outputs": {"queries": len(phase["queries"]), "mutations": len(phase["mutations"]),
                    "burst_mutations": len(burst),
                    "generator_lag_ms": q["lag_ms"], "checked_answer_records": checked},
    }


def _run_traced(spec: dict, seconds: float, work: str) -> dict:
    """The schedule twice over half the time: on an untraced service, then
    on a traced one; the checked answers must be identical."""
    failures: list[str] = []
    ledger_dir = os.path.join(work, "ledger")
    os.mkdir(ledger_dir)
    phases = []
    for tag, trace_dir in (("plain", None), ("traced", ledger_dir)):
        service, _setups = start_measured(spec["argv_for"], work, tag, trace_dir, 1)
        try:
            phase = _load_phase(spec, service, seconds / 2)
            phase["answers"] = _checked_answers(spec, service, phase)
            phase["stats"] = service.stats()
            phase["shard_stats"] = service.shard_stats() if spec["mode"] == "fleet" else []
        finally:
            code = service.stop()
        if code != 0:
            failures.append(f"daemon exited {code} on SIGTERM")
        phases.append(phase)
    plain, traced = phases
    check_failures, checked = _check_answers(plain["answers"], spec["queries"],
                                             _final_subject(spec, plain, work), work)
    failures += check_failures
    if traced["answers"] != plain["answers"]:
        failures.append("traced answers differ from untraced answers")
    if spec["mode"] == "fleet":
        same = all(a.get("answer") == b.get("answer")
                   for a, b in zip(plain["queries"], traced["queries"]))
        if not same:
            failures.append("traced fleet answers differ from untraced answers")
    attempted = 0
    for phase in phases:
        ops = phase["queries"] + phase["mutations"]
        attempted += len(ops) + len(phase["answers"])
        failures += [f"{it['kind']} {it['status']}" for it in ops if it.get("status") != "ok"]

    q_plain, q_traced = _latency_summary(plain["queries"]), _latency_summary(traced["queries"])
    if spec["mode"] == "fleet":
        stats, router = traced["shard_stats"], traced["stats"]
    else:
        stats, router = [traced["stats"]], None
    layers = layer_metrics(read_ledgers(ledger_dir), 0.0, stats, router, q_traced["rtt_ms"])
    layers["bench.generator_lag_ms"] = q_traced["lag_ms"]
    layers["bench.tracing_overhead_frac"] = q_traced["p50"] / q_plain["p50"] - 1.0
    return {"attempted": attempted, "failures": failures, "metrics": {}, "layers": layers,
            "outputs": {"checked_answer_records": checked}}


def fleet_argv(subject: str) -> callable:
    def argv_for(directory: str) -> list[str]:
        return [python(), "-m", "repro.cli", "serve-fleet", subject, "--shards", "2",
                "--workers-per-shard", "1", "--max-query-nt", "4000", "--work-dir", directory]
    return argv_for


def store_argv(subject: str) -> callable:
    def argv_for(directory: str) -> list[str]:
        # One step-2 worker: with two, every query fanned out to 24 pipe
        # round trips and the latency percentiles swung by 30-45 % between
        # runs of one input.
        return [python(), "-m", "repro.cli", "serve", subject,
                "--store", os.path.join(directory, "store"), "--workers", "1",
                "--store-flush-nt", "1000", "--store-max-segments", "1",
                "--max-query-nt", "4000"]
    return argv_for

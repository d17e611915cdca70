"""ORIS benchmark: four workloads, an end-to-end scorecard, a per-layer ledger.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload est-batch --seed 1 --seconds 22 --trace 0

Workloads (banks from ``repro.data.load_bank(name, scale, seed)``):

* ``est-batch``     ``compare --workers 1`` of EST1 x EST5 (paper Table 2):
  dense homology, so step 3 (gapped extension) does most of the work.
* ``genome-batch``  ``compare --workers 1`` of H10 x BCT (Table 3): no
  homology, so steps 1-2 do the work and step 3 barely runs; the largest
  working set.  One worker, because a comparison fanned out over as many
  workers as the host has cores waits for the slowest of them, and any
  other process on the host then moves its time by a quarter.
* ``fleet-query``   ``serve-fleet`` with 2 shards over EST5, EST1 queries
  open-loop at a fixed rate of about half capacity on one connection,
  then closed-loop.
* ``daemon-mutate`` ``serve --store`` over EST5 with a small flush size,
  compacting on every add: EST1 queries open-loop on one connection,
  and add/remove batches of EST2 sequences on a second, each due
  between two queries; then closed-loop queries, and closed-loop
  add/remove cycles, whose latencies are its ``mutation_*``.

Every workload reports every end-to-end metric.  A batch request is one
whole comparison (``query_*``), and re-running it is how a bank change
takes effect there (``mutation_*``); ``goodput_qps`` and ``max_qps``
count bank1 sequences per second with and without set-up.  A fleet has
no online mutation: re-planning and restarting it (``setup_s``) is its
``mutation_*``.  ``wall_s`` of a serve workload is the makespan of its
fixed open-loop schedule.  ``ok_frac`` is one minus the share of failed,
shed or timed-out operations and failed output checks.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured with no tracing.  With ``--trace 1`` it carries the per-layer
metrics from a traced run (see ``layers.py``), which wraps the program's
layer entry points from outside (``hook/``); the traced output must equal
an untraced run's.  A line before it, starting ``# perfbench info``,
records the host, seed, scale and the size of every bank.  Multi-worker
and 2-shard times are measured on this host's core count (``nproc`` in
that line).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

WORKLOADS = ("est-batch", "genome-batch", "fleet-query", "daemon-mutate")

#: EST bank scale: large enough that one comparison runs for seconds.
EST_SCALE = 0.015
#: Query-bank and subject scale of the serve workloads.
SERVE_SCALE = 0.01
#: Genome scale: a comparison of H10 x BCT runs for about 4 s.
GENOME_SCALE = 0.015
#: Offered open-loop rates (requests per second), fixed so that runs of
#: different versions see the same load.  On a 2-vCPU x86-64 host, one
#: connection sending each query when the last one is answered got
#: 4.9-5.0 answers/s from the fleet and 5.2-5.8/s from the daemon: the
#: fleet is offered about half of that, the daemon about a quarter,
#: leaving room for the mutation stream (two operations per query period).
FLEET_RATE = 2.5
MUTATE_QUERY_RATE = 1.5


def _spec(workload: str, seed: int, seconds: float, work: str) -> dict:
    from inputs import shuffled, write_bank
    from serving import (BURST_ADDS, MUTATION_BATCH, OPEN_SHARE, fleet_argv, mutation_adds,
                         store_argv)

    if workload in ("est-batch", "genome-batch"):
        names, scale, workers = (
            (("EST1", "EST5"), EST_SCALE, 1) if workload == "est-batch"
            else (("H10", "BCT"), GENOME_SCALE, 1)
        )
        f1, i1 = write_bank(work, names[0], scale, seed)
        f2, i2 = write_bank(work, names[1], scale, seed)
        return {"mode": "batch", "fasta1": f1, "fasta2": f2, "workers": workers,
                "banks": {"bank1": {"name": names[0], **i1},
                          "bank2": {"name": names[1], **i2}}}
    fleet = workload == "fleet-query"
    rate = FLEET_RATE if fleet else MUTATE_QUERY_RATE
    open_s = OPEN_SHARE["fleet" if fleet else "store"] * seconds
    queries = shuffled("EST1", SERVE_SCALE, seed, int(rate * open_s) + 1)
    subject, si = write_bank(work, "EST5", SERVE_SCALE, seed)
    spec = {
        "mode": "fleet" if fleet else "store",
        "subject": subject,
        "queries": queries,
        "rate": rate,
        "banks": {"subject": {"name": "EST5", **si},
                  "queries": {"name": "EST1", "scale": SERVE_SCALE, "sequences": len(queries),
                              "nt": sum(len(q) for _n, q in queries)}},
    }
    if fleet:
        spec["argv_for"] = fleet_argv(subject)
        return spec
    n_records = mutation_adds(rate, open_s) * MUTATION_BATCH
    mutations = shuffled("EST2", SERVE_SCALE, seed, n_records + BURST_ADDS * MUTATION_BATCH)
    spec.update(mutation_records=mutations[:n_records], burst_records=mutations[n_records:],
                argv_for=store_argv(subject))
    spec["banks"]["mutations"] = {"name": "EST2", "scale": SERVE_SCALE,
                                  "sequences": len(mutations),
                                  "nt": sum(len(q) for _n, q in mutations)}
    return spec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("perfbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))

    from batch import run_batch
    from common import host_info
    from serving import run_serve

    work = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    try:
        spec = _spec(args.workload, args.seed, args.seconds, work)
        runner = run_batch if spec["mode"] == "batch" else run_serve
        result = runner(spec, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's work dir is still there

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "host": host_info(), "banks": spec["banks"], "outputs": result.get("outputs"),
            "failures": result["failures"][:10]}
    print("# perfbench info " + json.dumps(info, sort_keys=True))

    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    values = result.get("layers") if args.trace else result["metrics"]
    if not values or any(m["name"] not in values for m in wanted):
        print("perfbench: the run produced no complete result", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": int(result["attempted"]),
        "failed": min(len(result["failures"]), int(result["attempted"])),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

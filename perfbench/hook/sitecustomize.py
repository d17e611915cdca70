"""Installs the per-layer ledger in every Python process of a traced run.

This directory is put on ``PYTHONPATH`` only for traced runs, together
with ``PERFBENCH_LEDGER_DIR``; Python imports ``sitecustomize`` at start
up, so the benchmark's wrappers reach processes the program starts
itself (shard daemons of a fleet, forked step-2 workers).
"""

import os

if os.environ.get("PERFBENCH_LEDGER_DIR"):
    import pb_ledger

    pb_ledger.install(os.environ["PERFBENCH_LEDGER_DIR"])

"""Inputs made from the ``--seed`` argument.

Bank content is the synthesis ``repro.data.load_bank(name, scale)`` makes
with the library's default dataset seed, i.e. one fixed set of paper
banks, as the paper's tables use fixed banks.  ``--seed`` shuffles the
order of the sequences of every bank, of the query stream and of the
sequences the mutation stream adds and removes.  Content drawn per seed
would not do: from one seed to the next it moved the step-3 work of
EST1 x EST5 by up to 20 %, and the latency percentiles of the serve
workloads by half (a query with many homologs costs several times the
median one), spreads wider than any bound the benchmark could keep.

Banks are written to FASTA, so the program only ever receives files and
requests.
"""

from __future__ import annotations

import os
import zlib

import numpy as np


def shuffled(name: str, scale: float, seed: int, n: int | None = None) -> list[tuple[str, str]]:
    """The first ``n`` (default all) sequences of a paper bank, in a
    seeded order."""
    from repro.data import load_bank

    records = list(load_bank(name, scale).iter_records())[:n]
    order = np.random.default_rng([seed, zlib.crc32(name.encode())]).permutation(len(records))
    return [records[i] for i in order]


def write_bank(work: str, name: str, scale: float, seed: int) -> tuple[str, dict]:
    """Write one shuffled paper bank as FASTA; returns (path, info)."""
    from repro.data.datasets import DEFAULT_SEED
    from repro.io.fasta import write_fasta

    records = shuffled(name, scale, seed)
    path = os.path.join(work, f"{name}.fa")
    write_fasta(path, records)
    info = {"scale": scale, "dataset_seed": DEFAULT_SEED,
            "nt": sum(len(s) for _n, s in records), "sequences": len(records)}
    return path, info

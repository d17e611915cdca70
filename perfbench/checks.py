"""Output checks: m8 well-formedness and single-shot reference answers."""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

#: The CLI's default ``-e`` threshold, which every workload runs with.
MAX_EVALUE = 1e-3


def check_m8(text: str, max_evalue: float = MAX_EVALUE) -> dict:
    """Parse m8 text; it must be 12 typed columns, sorted by e-value, and
    carry only e-values at or under the threshold."""
    problems: list[str] = []
    last = -1.0
    lines = text.splitlines()
    for n, line in enumerate(lines, 1):
        cols = line.split("\t")
        if len(cols) != 12:
            problems.append(f"line {n}: {len(cols)} columns")
            continue
        try:
            [float(c) for c in cols[2:3] + cols[10:12]]
            [int(c) for c in cols[3:10]]
            evalue = float(cols[10])
        except ValueError:
            problems.append(f"line {n}: unparsable field")
            continue
        if evalue > max_evalue:
            problems.append(f"line {n}: e-value {evalue} over {max_evalue}")
        if evalue < last:
            problems.append(f"line {n}: not sorted by e-value")
        last = evalue
    return {
        "ok": not problems,
        "records": len(lines),
        "sha256": hashlib.sha256(text.encode("ascii")).hexdigest(),
        "problems": problems[:5],
    }


def reference_m8(name: str, sequence: str, subject_fasta: str, work: str) -> str:
    """A single-shot ``scoris-n compare`` of one query, run in-process."""
    import repro.cli

    query = os.path.join(work, "ref-query.fa")
    out = os.path.join(work, "ref-out.m8")
    with open(query, "w", encoding="ascii") as fh:
        fh.write(f">{name}\n{sequence}\n")
    with contextlib.redirect_stderr(io.StringIO()):
        code = repro.cli.run(["compare", query, subject_fasta, "-o", out])
    if code != 0:
        raise RuntimeError(f"reference compare exited {code}")
    with open(out, encoding="ascii") as fh:
        return fh.read()

"""Turning gapped alignments into ``-m 8`` records (paper step 4).

Step 4 "consists in producing an output file to display the results.  The
alignments are first sorted ... according to a chosen criteria, for example
the expected value attached to each alignment."  This module maps global
bank coordinates back to per-sequence coordinates, attaches e-values and
bit scores (sized by bank 1 and the subject sequence, per section 3.1),
applies the e-value threshold, and sorts.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..io.bank import Bank
from ..io.m8 import M8Record
from .evalue import KarlinAltschul
from .hsp import GappedAlignment

__all__ = ["alignments_to_m8", "sort_records"]


def alignments_to_m8(
    alignments: Iterable[GappedAlignment],
    bank1: Bank,
    bank2: Bank,
    stats: KarlinAltschul,
    max_evalue: float | None = None,
    minus_strand: bool = False,
    exclude_self: bool = False,
    subject_lengths: np.ndarray | None = None,
) -> list[M8Record]:
    """Convert alignments (global coordinates) into ``-m 8`` records.

    Parameters
    ----------
    alignments:
        Step-3 output in bank-global coordinates.
    bank1, bank2:
        The banks the coordinates refer to.  When ``minus_strand`` is True,
        ``bank2`` must be the *reverse-complemented* bank the search ran
        against; subject coordinates are mapped back to the plus-strand
        original and reported reversed (BLAST convention).
    stats:
        Karlin-Altschul parameters for e-values; the search space is
        ``len(bank1) x len(subject sequence)`` per section 3.1.
    max_evalue:
        Drop alignments above this threshold (the benches use the paper's
        ``-e 0.001``); ``None`` keeps everything.
    exclude_self:
        Drop trivial self-hits (same sequence name, identical plus-strand
        coordinates on both axes) -- the convenience for bank-vs-self
        comparisons such as EST clustering.
    subject_lengths:
        Optional per-sequence override of the subject length ``n`` used
        for e-values (indexed like ``bank2``'s sequences).  A fleet
        shard serving a *window* of a longer sequence passes the
        original full lengths here so its e-values match the monolithic
        comparison exactly.  Plus strand only: minus-strand coordinate
        mapping still needs the actual (reverse-complemented) lengths.
    """
    if subject_lengths is not None and minus_strand:
        raise ValueError("subject_lengths overrides are plus-strand only")
    alignments = list(alignments)
    if not alignments:
        return []
    m = bank1.size_nt
    # One vectorised coordinate lookup per bank (raises ValueError on a
    # position outside every sequence).
    q_seq, q_loc = bank1.locate_many([a.start1 for a in alignments])
    s_seq, s_loc = bank2.locate_many([a.start2 for a in alignments])
    lengths = bank2.lengths if subject_lengths is None else subject_lengths
    located = zip(
        q_seq.tolist(), q_loc.tolist(), s_seq.tolist(), s_loc.tolist(),
        np.asarray(lengths, dtype=np.int64)[s_seq].tolist(),
    )
    out: list[M8Record] = []
    for aln, (q_idx, q_local, s_idx, s_local, n) in zip(alignments, located):
        if (
            exclude_self
            and not minus_strand
            and bank1.names[q_idx] == bank2.names[s_idx]
            and q_local == s_local
            and aln.end1 - aln.start1 == aln.end2 - aln.start2
        ):
            continue
        q_len1 = aln.end1 - aln.start1
        s_len2 = aln.end2 - aln.start2
        evalue = stats.evalue(aln.score, m, n)
        if max_evalue is not None and evalue > max_evalue:
            continue
        q_start = q_local + 1
        q_end = q_local + q_len1
        if minus_strand:
            # Local coords are on the reverse-complemented subject; map back.
            s_start = n - s_local  # 1-based plus-strand coord of rc position
            s_end = n - (s_local + s_len2 - 1)
        else:
            s_start = s_local + 1
            s_end = s_local + s_len2
        out.append(
            M8Record(
                query_id=bank1.names[q_idx],
                subject_id=bank2.names[s_idx],
                pident=round(aln.pident, 2),
                length=aln.length,
                mismatches=aln.mismatches,
                gap_openings=aln.gap_openings,
                q_start=q_start,
                q_end=q_end,
                s_start=s_start,
                s_end=s_end,
                evalue=evalue,
                bit_score=round(stats.bit_score(aln.score), 1),
            )
        )
    return out


def sort_records(records: list[M8Record], key: str = "evalue") -> list[M8Record]:
    """Step-4 sort.  ``key`` is ``"evalue"`` (default), ``"score"``, or
    ``"coords"`` (query id, then coordinates -- convenient for diffing)."""
    if key == "evalue":
        return sorted(records, key=lambda r: (r.evalue, -r.bit_score, r.query_id))
    if key == "score":
        return sorted(records, key=lambda r: -r.bit_score)
    if key == "coords":
        return sorted(
            records,
            key=lambda r: (r.query_id, r.subject_id, r.q_start, r.s_start),
        )
    raise ValueError(f"unknown sort key {key!r}")

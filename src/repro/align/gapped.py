"""Gapped x-drop extension (paper section 2.3).

Step 3 builds gapped alignments "starting from the middle of an HSP and
performing an extension on both extremities by dynamic programming
techniques.  The extension is controlled by an XDROP value in order to stop
when the score of the alignment significantly decrease.  The final
alignment consists in merging the right and left gapped extensions."

Implementation notes
--------------------

* The DP is a *banded* extension: cells within ``band_radius`` diagonals of
  the anchor are computed, rows are processed one by one, and a lane stops
  when its best row score falls ``xdrop_gapped`` below its best score so
  far (or the whole band dies on separators).
* Gap costs are **linear** (``gap_linear`` per gap column).  The paper only
  says "dynamic programming techniques ... controlled by an XDROP value";
  it does not specify affine costs.  Linear costs admit an exact one-pass
  vectorised in-row relaxation (the running-max trick below), which keeps
  the pure-Python engine fast; the affine Gotoh recurrence is available in
  :mod:`repro.align.classic` for reference.  Both engines of this
  reproduction share this gapped stage, so engine-vs-engine comparisons
  are unaffected by the choice.
* Instead of storing a traceback, the kernel **propagates annotations**
  (matches, mismatches, gap columns, gap openings, diagonal extremes, last
  move) along the winning predecessor of every cell.  The ``-m 8`` record
  needs only these aggregates, so this trades a constant factor of arithmetic
  for O(band) memory and no per-lane backtrack loops.
* Everything is lane-parallel: :func:`batch_gapped_extend` advances many
  extensions at once, one vectorised row step at a time, exactly like the
  ungapped kernel.  A scalar reference implementation
  (:func:`gapped_extend_ref`) with the same semantics is the oracle for
  property tests.

Coordinates: an extension anchored at ``(p1, p2)`` going right consumes
``seq1[p1], seq1[p1]+1, ...``; going left it consumes ``seq1[p1-1],
seq1[p1-2], ...`` (and likewise for ``seq2``), so an HSP middle can be
extended both ways and merged without double-counting any column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..encoding import INVALID
from . import gapped_native
from .scoring import ScoringScheme

__all__ = [
    "GappedExtension",
    "gapped_extend_ref",
    "batch_gapped_extend",
    "BatchGappedResult",
    "DEFAULT_BAND_RADIUS",
]

#: Default band half-width (diagonals each side of the anchor diagonal).
DEFAULT_BAND_RADIUS: int = 16

#: Score used for "impossible" cells; small enough to never win, large
#: enough that repeated additions cannot wrap an int64.
_NEG = -(1 << 40)

#: Same sentinel for the int32 batch kernel.
_NEG32 = -(1 << 30)

# Move tags for the `lastmove` annotation.
_MOVE_NONE = 0
_MOVE_DIAG = 1
_MOVE_UP = 2  # consumes seq1 only (gap column in seq2)
_MOVE_LEFT = 3  # consumes seq2 only (gap column in seq1)


@dataclass(frozen=True, slots=True)
class GappedExtension:
    """Result of a one-sided gapped extension.

    ``consumed1``/``consumed2`` count the characters of each sequence
    covered by the best-scoring prefix of the extension; annotations cover
    exactly those columns.  ``min_dd``/``max_dd`` are the extreme *diagonal
    offsets* relative to the anchor diagonal (0 means no gap drift).
    """

    score: int
    consumed1: int
    consumed2: int
    matches: int
    mismatches: int
    gap_columns: int
    gap_openings: int
    min_dd: int
    max_dd: int


def _linear_gap(scoring: ScoringScheme) -> int:
    """Per-column linear gap penalty used by this kernel.

    Chosen as ``gap_open`` (default 5): between the affine cost of a
    1-column gap (7) and the marginal cost of extending one (2) under the
    BLASTN defaults.
    """
    return scoring.gap_open


def gapped_extend_ref(
    seq1: np.ndarray,
    seq2: np.ndarray,
    p1: int,
    p2: int,
    direction: int,
    scoring: ScoringScheme,
    band_radius: int = DEFAULT_BAND_RADIUS,
    max_rows: int = 1 << 20,
) -> GappedExtension:
    """Scalar reference banded x-drop extension (test oracle).

    ``direction`` is +1 (rightwards) or -1 (leftwards).
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    match, mismatch = scoring.match, scoring.mismatch
    gap = _linear_gap(scoring)
    xdrop = scoring.xdrop_gapped
    R = band_radius
    width = 2 * R + 1
    n1, n2 = seq1.shape[0], seq2.shape[0]

    def char1(i: int) -> int:
        idx = p1 + i if direction > 0 else p1 - 1 - i
        if 0 <= idx < n1:
            return int(seq1[idx])
        return INVALID

    def char2(j: int) -> int:
        idx = p2 + j if direction > 0 else p2 - 1 - j
        if 0 <= idx < n2:
            return int(seq2[idx])
        return INVALID

    # Cell annotations: (score, matches, mismatches, gapcols, gapopens,
    # minK, maxK, lastmove); band-relative column k encodes j = i + k - R.
    dead = (_NEG, 0, 0, 0, 0, R, R, _MOVE_NONE)
    prev = [dead] * width
    prev[R] = (0, 0, 0, 0, 0, R, R, _MOVE_NONE)
    best = (0, -1, R, (0, 0, 0, 0, R, R))  # score, i, k, annotations

    for i in range(max_rows):
        cur = [dead] * width
        row_best = _NEG
        a1 = char1(i)
        for k in range(width):
            j = i + k - R
            if j < 0:
                continue
            a2 = char2(j)
            # Diagonal move.
            cand = dead
            ps = prev[k][0]
            if ps > _NEG and a1 < INVALID and a2 < INVALID:
                if a1 == a2:
                    s = ps + match
                    cand = (s, prev[k][1] + 1, prev[k][2], prev[k][3],
                            prev[k][4], min(prev[k][5], k), max(prev[k][6], k),
                            _MOVE_DIAG)
                else:
                    s = ps - mismatch
                    cand = (s, prev[k][1], prev[k][2] + 1, prev[k][3],
                            prev[k][4], min(prev[k][5], k), max(prev[k][6], k),
                            _MOVE_DIAG)
            # Up move (consume seq1 only) from prev[k+1].
            if k + 1 < width and prev[k + 1][0] > _NEG and a1 < INVALID:
                p = prev[k + 1]
                s = p[0] - gap
                if s > cand[0]:
                    opens = p[4] + (0 if p[7] == _MOVE_UP else 1)
                    cand = (s, p[1], p[2], p[3] + 1, opens,
                            min(p[5], k), max(p[6], k), _MOVE_UP)
            # Left move (consume seq2 only) from cur[k-1].
            if k - 1 >= 0 and cur[k - 1][0] > _NEG and a2 < INVALID:
                p = cur[k - 1]
                s = p[0] - gap
                if s > cand[0]:
                    opens = p[4] + (0 if p[7] == _MOVE_LEFT else 1)
                    cand = (s, p[1], p[2], p[3] + 1, opens,
                            min(p[5], k), max(p[6], k), _MOVE_LEFT)
            cur[k] = cand
            if cand[0] > row_best:
                row_best = cand[0]
            if cand[0] > best[0]:
                best = (cand[0], i, k, cand[1:7])
        if row_best <= best[0] - xdrop or row_best <= _NEG:
            break
        # Classic x-drop cell pruning (Zhang et al.): cells more than xdrop
        # below the best score so far are dropped from the band.
        cur = [c if c[0] > best[0] - xdrop else dead for c in cur]
        prev = cur

    score, bi, bk, ann = best
    if bi < 0:
        return GappedExtension(0, 0, 0, 0, 0, 0, 0, 0, 0)
    consumed1 = bi + 1
    consumed2 = bi + bk - R + 1
    m, x, gc, go, mink, maxk = ann
    return GappedExtension(
        score=int(score),
        consumed1=int(consumed1),
        consumed2=int(consumed2),
        matches=int(m),
        mismatches=int(x),
        gap_columns=int(gc),
        gap_openings=int(go),
        min_dd=int(mink - R),
        max_dd=int(maxk - R),
    )


@dataclass(slots=True)
class BatchGappedResult:
    """Columnar results of :func:`batch_gapped_extend` (one row per lane)."""

    score: np.ndarray
    consumed1: np.ndarray
    consumed2: np.ndarray
    matches: np.ndarray
    mismatches: np.ndarray
    gap_columns: np.ndarray
    gap_openings: np.ndarray
    min_dd: np.ndarray
    max_dd: np.ndarray
    #: Total lane-row steps executed (work metric for benches).
    steps: int


def batch_gapped_extend(
    seq1: np.ndarray,
    seq2: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
    direction: int | np.ndarray,
    scoring: ScoringScheme,
    band_radius: int = DEFAULT_BAND_RADIUS,
    max_rows: int = 1 << 20,
    native: bool | None = None,
) -> BatchGappedResult:
    """Lane-parallel banded x-drop gapped extension.

    Same semantics as :func:`gapped_extend_ref`, advanced one row per
    vectorised step across all still-active lanes.  ``direction`` may be a
    scalar (+1/-1) or a per-lane array, so left and right extensions of a
    wave of HSPs run as one batch.

    The DP loop runs in the native C kernel of
    :mod:`repro.align.gapped_native` when it is available (``native=None``,
    the default) and in the NumPy kernel below otherwise; the two are
    exact twins, down to the ``steps`` count.  ``native=True`` requires the
    C kernel (``RuntimeError`` without it), ``native=False`` forces NumPy.

    NumPy kernel notes (it is memory-bandwidth bound, so the hot loop is
    written to minimise full-band passes):

    * all band state is int32; column gather indices advance by one
      in-place add per row;
    * gathers use ``ndarray.take(..., mode="clip")``: out-of-range indices
      clamp onto the separator byte guaranteed at both ends of a bank
      array;
    * substitution scores and invalid-character handling are folded into a
      single table gather (invalid pairings score ``-BIGPEN``, far below
      the x-drop floor, which replaces per-move validity masks);
    * dead cells carry the sentinel ``NEG``; instead of masking moves out
      of dead cells, every below-floor cell is clamped back to ``NEG`` at
      the end of the row (classic x-drop band pruning, also done by the
      scalar oracle), which bounds sentinel drift;
    * matches/mismatches are not tracked per cell; they are recovered
      algebraically at the end from (score, gap columns, consumed
      lengths); the remaining annotations follow winning predecessors via
      sparse scatter updates restricted to above-floor cells.
    """
    p1 = np.asarray(p1, dtype=np.int64)
    p2 = np.asarray(p2, dtype=np.int64)
    n = p1.shape[0]
    dirs = np.broadcast_to(np.asarray(direction, dtype=np.int64), (n,)).copy()
    if not np.isin(dirs, (-1, 1)).all():
        raise ValueError("direction must be +1 or -1 (scalar or per lane)")
    if band_radius < 0:
        raise ValueError("band_radius must be non-negative")
    match, mismatch = scoring.match, scoring.mismatch
    gap, xdrop = _linear_gap(scoring), scoring.xdrop_gapped
    R = band_radius

    # Outputs (empty-extension defaults).
    out = BatchGappedResult(
        score=np.zeros(n, dtype=np.int64),
        consumed1=np.zeros(n, dtype=np.int64),
        consumed2=np.zeros(n, dtype=np.int64),
        matches=np.zeros(n, dtype=np.int64),
        mismatches=np.zeros(n, dtype=np.int64),
        gap_columns=np.zeros(n, dtype=np.int64),
        gap_openings=np.zeros(n, dtype=np.int64),
        min_dd=np.zeros(n, dtype=np.int64),
        max_dd=np.zeros(n, dtype=np.int64),
        steps=0,
    )
    if n == 0:
        return out

    kernel = gapped_native.load() if native is not False else None
    if native and kernel is None:
        raise RuntimeError("the native gapped kernel is not available")
    args = (seq1, seq2, p1, p2, dirs, match, mismatch, gap, xdrop, R, max_rows)
    if kernel is not None:
        best_score, best_i, best_k, best_ann, steps = gapped_native.extend_lanes(
            kernel, *args
        )
    else:
        best_score, best_i, best_k, best_ann, steps = _numpy_lanes(*args)

    # Fill outputs from best-cell snapshots.  Matches/mismatches are
    # recovered from the identities (over the best path):
    #     consumed1 = m + x + gc_up          consumed2 = m + x + gc_left
    #     gc = gc_up + gc_left               score = match*m - mismatch*x
    #                                                - gap*gc
    # which give gc_up = (gc + consumed1 - consumed2) / 2 (exact integers),
    # m + x = consumed1 - gc_up, and then m from the score equation.
    has = best_i >= 0
    out.score[:] = best_score.astype(np.int64)
    out.consumed1[has] = best_i[has] + 1
    out.consumed2[has] = best_i[has] + best_k[has] - R + 1
    gc = best_ann[has, 0]
    gc_up = (gc + out.consumed1[has] - out.consumed2[has]) // 2
    aligned = out.consumed1[has] - gc_up  # m + x
    m = (out.score[has] + gap * gc + mismatch * aligned) // (match + mismatch)
    out.matches[has] = m
    out.mismatches[has] = aligned - m
    out.gap_columns[has] = gc
    out.gap_openings[has] = best_ann[has, 1]
    out.min_dd[has] = best_ann[has, 2] - R
    out.max_dd[has] = best_ann[has, 3] - R
    out.steps = steps
    return out


def _numpy_lanes(seq1, seq2, p1, p2, dirs, match, mismatch, gap, xdrop, R, max_rows):
    """NumPy DP loop of :func:`batch_gapped_extend`: best score, row, band
    column and annotations (gap columns, gap openings, min/max column) of
    every lane, plus the lane-row count."""
    n = p1.shape[0]
    match = np.int32(match)
    mismatch = np.int32(mismatch)
    gap = np.int32(gap)
    xdrop = np.int32(xdrop)
    width = 2 * R + 1
    NEG = np.int32(_NEG32)
    BIGPEN = np.int32(1 << 20)

    # Substitution table over character pairs (index = c1 << 3 | c2): the
    # match/mismatch score, or -BIGPEN when either character is invalid.
    subt = np.full(64, -BIGPEN, dtype=np.int32)
    for a in range(4):
        for b in range(4):
            subt[(a << 3) | b] = match if a == b else -mismatch
    # Per-character penalty used to kill up/left moves that would consume
    # an invalid character.
    chpen = np.zeros(8, dtype=np.int32)
    chpen[INVALID:] = -BIGPEN

    # Active-lane state.
    idx = np.arange(n, dtype=np.int64)
    adir = dirs.astype(np.int32)
    H = np.full((n, width), NEG, dtype=np.int32)
    H[:, R] = 0
    ann_gc = np.zeros((n, width), dtype=np.int32)  # gap columns on path
    ann_go = np.zeros((n, width), dtype=np.int32)  # gap openings on path
    ann_minK = np.full((n, width), R, dtype=np.int32)
    ann_maxK = np.full((n, width), R, dtype=np.int32)
    ann_lm = np.zeros((n, width), dtype=np.int8)  # last move tag

    best_score = np.zeros(n, dtype=np.int32)
    best_i = np.full(n, -1, dtype=np.int64)
    best_k = np.full(n, R, dtype=np.int64)
    best_ann = np.zeros((n, 4), dtype=np.int64)  # gc, go, minK, maxK

    # Incremental gather indices: char i of seq1 along the extension lives
    # at base1 + adir*i; seq2 column j at base2 + adir*j (j = i + k - R).
    base1 = np.where(adir > 0, p1, p1 - 1)
    i1 = base1.copy()  # row 0
    karr = np.arange(width, dtype=np.int64)
    base2 = np.where(adir > 0, p2, p2 - 1)
    j2 = base2[:, None] + dirs[:, None] * (karr - R)

    finished = np.zeros(n, dtype=bool)
    n_finished = 0
    steps = 0
    i = 0
    while idx.size and i < max_rows:
        steps += idx.size - n_finished
        floor = best_score[idx] - xdrop
        floor_col = floor[:, None]

        c1 = seq1.take(i1, mode="clip")
        c2 = seq2.take(j2, mode="clip")
        c1pen = chpen[c1]  # (lanes,) 0 or -BIGPEN
        c2pen = chpen[c2]  # (lanes, width)
        if i < R:
            # Columns with jrel = i + k - R < 0 have consumed no seq2 yet:
            # treat them as unmatchable (scalar oracle's `if j < 0`).
            c2pen[:, : R - i] = -BIGPEN

        # Diagonal candidate: one table gather folds match/mismatch and
        # invalid-character handling.
        diag = H + subt[(c1[:, None].astype(np.int16) << 3) | c2]

        # Up candidate (previous row, band column k+1); consuming seq1.
        up = np.empty_like(H)
        up[:, -1] = NEG
        np.subtract(H[:, 1:], gap, out=up[:, :-1])
        up += c1pen[:, None]

        take_up = (up > diag) & (up > floor_col)
        base = np.maximum(diag, up)

        if take_up.any():
            rows, cols = np.nonzero(take_up)
            src = cols + 1
            gc_v = ann_gc[rows, src] + 1
            go_v = ann_go[rows, src] + (ann_lm[rows, src] != _MOVE_UP)
            minK_v = np.minimum(ann_minK[rows, src], cols)
            maxK_v = np.maximum(ann_maxK[rows, src], cols)
            ann_lm.fill(_MOVE_DIAG)
            ann_gc[rows, cols] = gc_v
            ann_go[rows, cols] = go_v
            ann_minK[rows, cols] = minK_v
            ann_maxK[rows, cols] = maxK_v
            ann_lm[rows, cols] = _MOVE_UP
        else:
            ann_lm.fill(_MOVE_DIAG)

        # Left moves (consuming seq2): single-step relaxation to fixpoint.
        # Per-step relaxation cannot chain a gap run across a dead cell
        # (e.g. a sequence separator); rejecting below-floor candidates
        # bounds chains to xdrop/gap steps without changing results (such
        # cells are clamped to NEG at the end of the row anyway).
        Hn = base
        while True:
            cand = np.empty_like(Hn)
            cand[:, 0] = NEG
            np.subtract(Hn[:, :-1], gap, out=cand[:, 1:])
            cand += c2pen
            take_left = (cand > Hn) & (cand > floor_col)
            if not take_left.any():
                break
            rows, cols = np.nonzero(take_left)
            src = cols - 1
            ann_gc[rows, cols] = ann_gc[rows, src] + 1
            ann_go[rows, cols] = ann_go[rows, src] + (ann_lm[rows, src] != _MOVE_LEFT)
            ann_minK[rows, cols] = np.minimum(ann_minK[rows, src], cols)
            ann_maxK[rows, cols] = np.maximum(ann_maxK[rows, src], cols)
            ann_lm[rows, cols] = _MOVE_LEFT
            Hn = np.maximum(Hn, cand)
        H = Hn
        if i < R:
            # Columns that have consumed no seq2 character are dead (the
            # scalar oracle's `if j < 0` guard); this also blocks the
            # "start with a deletion" paths that up-moves alone would
            # otherwise create in these columns.
            H[:, : R - i] = NEG

        # Best tracking.
        row_arg = H.argmax(axis=1)
        row_best = np.take_along_axis(H, row_arg[:, None], axis=1)[:, 0]
        improved = row_best > best_score[idx]
        if improved.any():
            gi = idx[improved]
            la = np.nonzero(improved)[0]
            best_score[gi] = row_best[improved]
            best_i[gi] = i
            best_k[gi] = row_arg[improved]
            cols = row_arg[improved]
            best_ann[gi, 0] = ann_gc[la, cols]
            best_ann[gi, 1] = ann_go[la, cols]
            best_ann[gi, 2] = ann_minK[la, cols]
            best_ann[gi, 3] = ann_maxK[la, cols]
            floor = best_score[idx] - xdrop
            floor_col = floor[:, None]

        # X-drop cell pruning + lane retirement.  Compression (the
        # expensive multi-array gather) is batched until a third of the
        # lanes have finished.
        H = np.where(H > floor_col, H, NEG)
        newly_done = row_best <= floor
        if newly_done.any():
            finished |= newly_done
            n_finished = int(finished.sum())
            if 3 * n_finished >= idx.size:
                keep = ~finished
                idx = idx[keep]
                adir = adir[keep]
                i1 = i1[keep]
                j2 = j2[keep]
                H = H[keep]
                ann_gc = ann_gc[keep]
                ann_go = ann_go[keep]
                ann_minK = ann_minK[keep]
                ann_maxK = ann_maxK[keep]
                ann_lm = ann_lm[keep]
                finished = np.zeros(idx.size, dtype=bool)
                n_finished = 0

        # Advance the incremental gather indices to the next row.
        i1 = i1 + adir
        j2 += adir[:, None]
        i += 1

    return best_score, best_i, best_k, best_ann, steps

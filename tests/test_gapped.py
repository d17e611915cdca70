"""Tests for gapped x-drop extension (repro.align.gapped)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import gapped_native
from repro.align.gapped import (
    batch_gapped_extend,
    gapped_extend_ref,
)
from repro.align.scoring import ScoringScheme
from repro.data.synthetic import mutate, random_dna
from repro.io.bank import Bank


#: The batch kernel's DP loop implementations every batch test runs
#: (``native=`` values): NumPy always, the C kernel where it can be built.
IMPLS = (False, True) if gapped_native.load() is not None else (False,)


def banks_for(s1: str, s2: str):
    return Bank.from_strings([("a", s1)]), Bank.from_strings([("b", s2)])


def batch_tuple(res, i=0):
    return (
        int(res.score[i]),
        int(res.consumed1[i]),
        int(res.consumed2[i]),
        int(res.matches[i]),
        int(res.mismatches[i]),
        int(res.gap_columns[i]),
        int(res.gap_openings[i]),
        int(res.min_dd[i]),
        int(res.max_dd[i]),
    )


def ref_tuple(ref):
    return (
        ref.score,
        ref.consumed1,
        ref.consumed2,
        ref.matches,
        ref.mismatches,
        ref.gap_columns,
        ref.gap_openings,
        ref.min_dd,
        ref.max_dd,
    )


class TestScalarReference:
    def test_perfect_match_right(self, scoring):
        core = "ACGGTCAGTCAGGCATGCAT"
        b1, b2 = banks_for(core, core)
        ref = gapped_extend_ref(b1.seq, b2.seq, 1, 1, +1, scoring)
        assert ref.score == len(core)
        assert ref.consumed1 == ref.consumed2 == len(core)
        assert ref.matches == len(core)
        assert ref.gap_columns == 0

    def test_perfect_match_left(self, scoring):
        core = "ACGGTCAGTCAGGCATGCAT"
        b1, b2 = banks_for(core, core)
        end = 1 + len(core)
        ref = gapped_extend_ref(b1.seq, b2.seq, end, end, -1, scoring)
        assert ref.score == len(core)
        assert ref.consumed1 == len(core)

    def test_empty_extension_into_junk(self, rng, scoring):
        b1, b2 = banks_for("A" * 30, "C" * 30)
        ref = gapped_extend_ref(b1.seq, b2.seq, 1, 1, +1, scoring)
        assert ref.score == 0
        assert ref.consumed1 == 0 and ref.consumed2 == 0

    def test_single_gap_detected(self, rng, scoring):
        core = random_dna(rng, 60)
        gapped = core[:30] + core[33:]  # 3-nt deletion in seq2
        b1, b2 = banks_for(core, gapped)
        ref = gapped_extend_ref(b1.seq, b2.seq, 1, 1, +1, scoring)
        assert ref.gap_columns == 3
        # Under LINEAR gap costs a 3-column gap may legally split across
        # accidental matches at identical score, so openings is 1..3.
        assert 1 <= ref.gap_openings <= 3
        assert ref.min_dd == -3
        assert ref.score == 57 - ScoringScheme().gap_open * 3

    def test_never_crosses_separator(self, rng, scoring):
        b = Bank.from_strings([("a", random_dna(rng, 40)), ("b", random_dna(rng, 40))])
        core = b.sequence_str(0)
        other = Bank.from_strings([("c", core + core)])
        # extension along the identical prefix must stop at sequence end
        ref = gapped_extend_ref(b.seq, other.seq, 1, 1, +1, scoring)
        assert ref.consumed1 <= 40

    def test_direction_validation(self, scoring):
        b1, b2 = banks_for("ACGT", "ACGT")
        with pytest.raises(ValueError):
            gapped_extend_ref(b1.seq, b2.seq, 1, 1, 0, scoring)


class TestBatchAgainstScalar:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_homology_parity(self, seed):
        rng = np.random.default_rng(seed)
        core = random_dna(rng, 100)
        mut = mutate(rng, core, sub_rate=0.06, indel_rate=0.02)
        s1 = random_dna(rng, 25) + core + random_dna(rng, 25)
        s2 = random_dna(rng, 30) + mut + random_dna(rng, 20)
        b1, b2 = banks_for(s1, s2)
        sc = ScoringScheme()
        anchors = [
            (int(rng.integers(1, len(b1.seq) - 1)), int(rng.integers(1, len(b2.seq) - 1)), 1 if t % 2 else -1)
            for t in range(30)
        ]
        p1 = np.array([a[0] for a in anchors])
        p2 = np.array([a[1] for a in anchors])
        dirs = np.array([a[2] for a in anchors])
        for native in IMPLS:
            res = batch_gapped_extend(b1.seq, b2.seq, p1, p2, dirs, sc, native=native)
            for i, (q1, q2, d) in enumerate(anchors):
                ref = gapped_extend_ref(b1.seq, b2.seq, q1, q2, d, sc)
                assert batch_tuple(res, i) == ref_tuple(ref), (native, i, q1, q2, d)

    def test_scalar_direction_broadcast(self, rng, scoring):
        core = random_dna(rng, 50)
        b1, b2 = banks_for(core, core)
        for native in IMPLS:
            res = batch_gapped_extend(
                b1.seq, b2.seq, np.array([1, 5]), np.array([1, 5]), +1, scoring,
                native=native,
            )
            assert res.score.shape == (2,)

    def test_empty_batch(self, scoring):
        b1, b2 = banks_for("ACGT", "ACGT")
        z = np.empty(0, dtype=np.int64)
        for native in IMPLS:
            res = batch_gapped_extend(b1.seq, b2.seq, z, z, +1, scoring, native=native)
            assert res.score.shape == (0,)
            assert res.steps == 0

    def test_direction_validation(self, scoring):
        b1, b2 = banks_for("ACGT", "ACGT")
        for native in IMPLS:
            with pytest.raises(ValueError):
                batch_gapped_extend(
                    b1.seq, b2.seq, np.array([1]), np.array([1]), np.array([2]),
                    scoring, native=native,
                )

    def test_annotation_identities(self, rng, scoring):
        # matches + mismatches + gap_columns == consumed1 + gap_left etc.
        core = random_dna(rng, 80)
        mut = mutate(rng, core, sub_rate=0.05, indel_rate=0.02)
        b1, b2 = banks_for(core, mut)
        for native in IMPLS:
            res = batch_gapped_extend(
                b1.seq, b2.seq, np.array([1]), np.array([1]), +1, scoring,
                native=native,
            )
            m, x = int(res.matches[0]), int(res.mismatches[0])
            gc = int(res.gap_columns[0])
            c1, c2 = int(res.consumed1[0]), int(res.consumed2[0])
            # exact identities: columns consuming seq1 = m + x + gc_up
            gc_up = (gc + c1 - c2) // 2
            gc_left = gc - gc_up
            assert m + x + gc_up == c1
            assert m + x + gc_left == c2
            sc = scoring
            assert sc.match * m - sc.mismatch * x - sc.gap_open * gc == int(res.score[0])

    def test_band_limit_prevents_large_drift(self, rng):
        # A 40-nt insertion exceeds the default band: the extension must
        # stop rather than report a drifted alignment.
        sc = ScoringScheme()
        core = random_dna(rng, 60)
        s2 = core[:30] + random_dna(rng, 60) + core[30:]
        b1, b2 = banks_for(core, s2)
        for native in IMPLS:
            res = batch_gapped_extend(
                b1.seq, b2.seq, np.array([1]), np.array([1]), +1, sc, band_radius=8,
                native=native,
            )
            assert int(res.max_dd[0]) <= 8
            assert int(res.min_dd[0]) >= -8

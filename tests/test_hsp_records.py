"""Tests for HSP containers, containment catalogue, and -m8 conversion."""

import numpy as np
import pytest

from repro.align.evalue import karlin_params
from repro.align.hsp import HSP, GappedAlignment, HSPTable
from repro.align.records import alignments_to_m8, sort_records
from repro.align.scoring import DEFAULT_SCORING
from repro.core.containment import AlignmentCatalog
from repro.io.bank import Bank


def aln(**kw) -> GappedAlignment:
    base = dict(
        start1=10, end1=60, start2=110, end2=160, score=45,
        matches=48, mismatches=2, gap_columns=0, gap_openings=0,
        min_diag=100, max_diag=100,
    )
    base.update(kw)
    return GappedAlignment(**base)


class TestHSP:
    def test_diag(self):
        h = HSP(5, 15, 25, 35, 10)
        assert h.diag == 20
        assert h.length == 10

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HSP(0, 10, 0, 11, 5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            HSP(5, 5, 5, 5, 0)

    def test_overlaps_same_diag(self):
        a = HSP(0, 10, 5, 15, 10)
        b = HSP(5, 15, 10, 20, 10)
        c = HSP(20, 30, 25, 35, 10)
        d = HSP(0, 10, 6, 16, 10)  # different diagonal
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)
        assert not a.overlaps(d)


class TestHSPTable:
    def test_append_and_sort(self):
        t = HSPTable()
        t.append_chunk(
            np.array([10, 0, 5]),
            np.array([20, 10, 15]),
            np.array([30, 50, 5]),
            np.array([9, 9, 9]),
        )
        s1, e1, s2, sc, diag = t.sorted_by_diagonal()
        assert list(diag) == sorted(diag)
        assert len(t) == 3

    def test_diag_tie_broken_by_start1(self):
        t = HSPTable()
        t.append_chunk(
            np.array([50, 10]),
            np.array([60, 20]),
            np.array([70, 30]),
            np.array([9, 9]),
        )
        s1, _, _, _, diag = t.sorted_by_diagonal()
        assert list(diag) == [20, 20]
        assert list(s1) == [10, 50]

    def test_empty_table(self):
        t = HSPTable()
        s1, e1, s2, sc, diag = t.sorted_by_diagonal()
        assert s1.shape == (0,)
        assert t.to_hsps() == []

    def test_shape_validation(self):
        t = HSPTable()
        with pytest.raises(ValueError):
            t.append_chunk(np.array([1]), np.array([2, 3]), np.array([1]), np.array([1]))

    def test_to_hsps(self):
        t = HSPTable()
        t.append_chunk(np.array([1]), np.array([5]), np.array([11]), np.array([4]))
        (h,) = t.to_hsps()
        assert (h.start1, h.end1, h.start2, h.end2) == (1, 5, 11, 15)


class TestGappedAlignment:
    def test_derived_stats(self):
        a = aln(matches=40, mismatches=5, gap_columns=5)
        assert a.length == 50
        assert a.pident == pytest.approx(80.0)

    def test_contains_hsp(self):
        a = aln(min_diag=98, max_diag=102)
        assert a.contains_hsp(20, 40, 100)
        assert not a.contains_hsp(5, 40, 100)  # sticks out left
        assert not a.contains_hsp(20, 40, 97)  # diagonal outside range


class TestAlignmentCatalog:
    def test_add_and_cover(self):
        cat = AlignmentCatalog(band_radius=16)
        assert cat.add(aln())
        assert cat.covers_hsp(20, 50, 100)
        assert not cat.covers_hsp(20, 50, 150)

    def test_duplicate_box_dropped(self):
        cat = AlignmentCatalog(band_radius=16)
        assert cat.add(aln())
        assert not cat.add(aln(score=99))
        assert len(cat) == 1

    def test_probe_across_bucket_boundary(self):
        cat = AlignmentCatalog(band_radius=4)
        cat.add(aln(min_diag=7, max_diag=9))
        # diag 8 may hash to a neighbouring bucket of 7; must still hit
        assert cat.covers_hsp(20, 50, 8)

    def test_covers_alignment(self):
        cat = AlignmentCatalog(band_radius=16)
        cat.add(aln(start1=0, end1=100, start2=100, end2=200, min_diag=98, max_diag=104))
        inner = aln(start1=10, end1=50, start2=110, end2=150, min_diag=100, max_diag=101)
        outer = aln(start1=0, end1=120, start2=100, end2=220, min_diag=98, max_diag=104)
        assert cat.covers_alignment(inner)
        assert not cat.covers_alignment(outer)

    def test_negative_diagonals(self):
        cat = AlignmentCatalog(band_radius=16)
        cat.add(aln(start1=200, end1=260, start2=10, end2=70, min_diag=-190, max_diag=-188))
        assert cat.covers_hsp(210, 240, -189)


class TestRecordsConversion:
    def setup_method(self):
        self.b1 = Bank.from_strings([("q", "ACGT" * 50)])
        self.b2 = Bank.from_strings([("s", "ACGT" * 50)])
        self.ka = karlin_params(DEFAULT_SCORING)

    def test_plus_strand_coordinates(self):
        a = aln(start1=11, end1=41, start2=21, end2=51, score=30,
                matches=30, mismatches=0, min_diag=10, max_diag=10)
        (rec,) = alignments_to_m8([a], self.b1, self.b2, self.ka)
        # global 11 = local 10 = 1-based 11
        assert (rec.q_start, rec.q_end) == (11, 40)
        assert (rec.s_start, rec.s_end) == (21, 50)
        assert rec.pident == pytest.approx(100.0)
        assert not rec.minus_strand

    def test_evalue_threshold_filters(self):
        weak = aln(score=12, matches=12, mismatches=0, start1=11, end1=23,
                   start2=11, end2=23)
        recs = alignments_to_m8([weak], self.b1, self.b2, self.ka, max_evalue=1e-6)
        assert recs == []

    def test_minus_strand_mapping(self):
        rc = self.b2.reverse_complemented()
        a = aln(start1=11, end1=21, start2=11, end2=21, score=10,
                matches=10, mismatches=0, min_diag=0, max_diag=0)
        (rec,) = alignments_to_m8([a], self.b1, rc, self.ka, minus_strand=True)
        n = self.b2.sequence_length(0)
        assert rec.minus_strand
        assert rec.s_start == n - 10  # local 10 on rc -> n-10 1-based
        assert rec.s_end == rec.s_start - 9

    def test_invalid_positions_raise(self):
        on_separator = aln(start1=0, end1=10, start2=11, end2=21, score=10,
                           matches=10, mismatches=0)
        with pytest.raises(ValueError):
            alignments_to_m8([on_separator], self.b1, self.b2, self.ka)
        past_end = aln(start1=11, end1=21, start2=10_000, end2=10_010, score=10,
                       matches=10, mismatches=0)
        with pytest.raises(ValueError):
            alignments_to_m8([past_end], self.b1, self.b2, self.ka)

    def test_multi_sequence_coordinates(self):
        b1 = Bank.from_strings([("q0", "ACGT" * 10), ("q1", "ACGT" * 20)])
        b2 = Bank.from_strings([("s0", "ACGT" * 15), ("s1", "ACGT" * 25)])
        got = []
        for qi, si in ((1, 0), (0, 1), (1, 1)):
            start1 = int(b1.starts[qi]) + 4
            start2 = int(b2.starts[si]) + 8
            got.append(aln(start1=start1, end1=start1 + 12, start2=start2,
                           end2=start2 + 12, score=12, matches=12, mismatches=0))
        recs = alignments_to_m8(got, b1, b2, self.ka, max_evalue=None)
        assert [(r.query_id, r.subject_id, r.q_start, r.s_start, r.s_end)
                for r in recs] == [
            ("q1", "s0", 5, 9, 20), ("q0", "s1", 5, 9, 20), ("q1", "s1", 5, 9, 20)
        ]
        lengths = np.array([1000, 2000])
        recs_n = alignments_to_m8(got, b1, b2, self.ka, max_evalue=None,
                                  subject_lengths=lengths)
        assert recs_n[0].evalue < recs_n[1].evalue  # s0 searched as 1000 nt
        assert alignments_to_m8([], b1, b2, self.ka) == []

    def test_sort_records_keys(self):
        a = aln(score=50, matches=50, mismatches=0, start1=11, end1=61,
                start2=11, end2=61)
        b = aln(score=20, matches=20, mismatches=0, start1=71, end1=91,
                start2=71, end2=91, min_diag=0, max_diag=0)
        recs = alignments_to_m8([b, a], self.b1, self.b2, self.ka, max_evalue=None)
        by_e = sort_records(recs, "evalue")
        assert by_e[0].bit_score >= by_e[1].bit_score
        by_c = sort_records(recs, "coords")
        assert by_c[0].q_start <= by_c[1].q_start
        with pytest.raises(ValueError):
            sort_records(recs, "nope")

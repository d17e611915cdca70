"""Tests for the BLASTN-like and BLAT-like baselines."""

import numpy as np
import pytest

from repro.baselines import BlastnEngine, BlastnParams, BlatEngine, BlatParams
from repro.core import OrisEngine, OrisParams
from repro.data.synthetic import mutate, random_dna
from repro.eval import compare_outputs
from repro.io.bank import Bank


def record_keys(result):
    return set(
        (r.query_id, r.subject_id, r.q_start, r.q_end, r.s_start, r.s_end)
        for r in result.records
    )


class TestBlastnBaseline:
    def test_finds_implanted_homology(self, rng):
        core = random_dna(rng, 150)
        b1 = Bank.from_strings([("q", random_dna(rng, 40) + core)])
        b2 = Bank.from_strings([("s", core + random_dna(rng, 60))])
        res = BlastnEngine(BlastnParams()).compare(b1, b2)
        assert len(res.records) >= 1
        assert res.records[0].length >= 140

    def test_agrees_with_oris(self, est_pair):
        oris = OrisEngine(OrisParams()).compare(*est_pair)
        blast = BlastnEngine(BlastnParams()).compare(*est_pair)
        rep = compare_outputs(oris.records, blast.records)
        # the engines share scoring/extension machinery: sensitivity gap
        # must be tiny both ways (paper reports a few percent vs real NCBI)
        assert rep.scoris_miss_pct < 5.0
        assert rep.blast_miss_pct < 5.0

    def test_query_batching_invariance(self, est_pair):
        per_query = BlastnEngine(BlastnParams(query_batch_nt=1)).compare(*est_pair)
        big_batch = BlastnEngine(BlastnParams(query_batch_nt=10**9)).compare(*est_pair)
        a, b = record_keys(per_query), record_keys(big_batch)
        # batching changes scan partitioning, not which HSPs exist
        assert len(a ^ b) <= max(2, len(a) // 50)

    def test_more_batches_more_scan_work(self, est_pair):
        import time

        b1, b2 = est_pair
        t0 = time.perf_counter()
        BlastnEngine(BlastnParams(query_batch_nt=1)).compare(b1, b2)
        t_many = time.perf_counter() - t0
        t0 = time.perf_counter()
        BlastnEngine(BlastnParams(query_batch_nt=10**9)).compare(b1, b2)
        t_one = time.perf_counter() - t0
        # one batch must be substantially cheaper than per-query batches
        assert t_one < t_many

    def test_scan_rounds_survive_step3(self, est_pair, monkeypatch):
        """Step 3 adds its wave to the scan rounds already counted."""
        import repro.baselines.blastn as blastn

        rounds_before_step3 = []
        real = blastn.run_gapped_stage

        def spy(*args, **kwargs):
            rounds_before_step3.append(kwargs["counters"].n_waves)
            return real(*args, **kwargs)

        monkeypatch.setattr(blastn, "run_gapped_stage", spy)
        res = BlastnEngine(BlastnParams()).compare(*est_pair)
        (scan_rounds,) = rounds_before_step3
        assert scan_rounds >= 1
        assert res.counters.n_waves == scan_rounds + 1

    def test_two_hit_mode_reduces_extensions(self, est_pair):
        one = BlastnEngine(BlastnParams()).compare(*est_pair)
        two = BlastnEngine(BlastnParams(two_hit=True)).compare(*est_pair)
        assert two.counters.ungapped_steps <= one.counters.ungapped_steps

    def test_two_hit_retains_strong_alignments(self, rng):
        core = random_dna(rng, 300)
        b1 = Bank.from_strings([("q", core)])
        b2 = Bank.from_strings([("s", mutate(rng, core, sub_rate=0.02, indel_rate=0.0))])
        res = BlastnEngine(BlastnParams(two_hit=True)).compare(b1, b2)
        assert len(res.records) >= 1

    def test_no_homology(self, rng):
        b1 = Bank.from_strings([("q", random_dna(rng, 1500))])
        b2 = Bank.from_strings([("s", random_dna(np.random.default_rng(5), 1500))])
        res = BlastnEngine(BlastnParams()).compare(b1, b2)
        assert res.records == []

    def test_minus_strand(self, rng):
        from repro.encoding import decode, encode, reverse_complement

        core = random_dna(rng, 200)
        rc = decode(reverse_complement(encode(core)))
        b1 = Bank.from_strings([("q", core)])
        b2 = Bank.from_strings([("s", rc)])
        plus = BlastnEngine(BlastnParams(strand="plus")).compare(b1, b2)
        both = BlastnEngine(BlastnParams(strand="both")).compare(b1, b2)
        assert len(plus.records) == 0
        assert len(both.records) >= 1
        assert both.records[0].minus_strand

    def test_params_validation(self):
        with pytest.raises(ValueError):
            BlastnParams(strand="minus")
        with pytest.raises(ValueError):
            BlastnParams(query_batch_nt=0)

    def test_per_diagonal_skip_counts(self, est_pair):
        res = BlastnEngine(BlastnParams()).compare(*est_pair)
        # EST homology guarantees redundant hits were skipped
        assert res.counters.n_cut > 0


class TestBlatBaseline:
    def test_finds_exact_homology(self, rng):
        core = random_dna(rng, 200)
        b1 = Bank.from_strings([("q", random_dna(rng, 30) + core)])
        b2 = Bank.from_strings([("s", core + random_dna(rng, 30))])
        res = BlatEngine(BlatParams()).compare(b1, b2)
        assert len(res.records) >= 1

    def test_database_index_is_sparse(self, est_pair):
        from repro.index import CsrSeedIndex

        _, b2 = est_pair
        full = CsrSeedIndex(b2, 11)
        sparse = CsrSeedIndex(b2, 11, stride=11)
        assert sparse.n_indexed <= full.n_indexed // 10

    def test_less_sensitive_than_oris_on_diverged(self, rng):
        # Non-overlapping db words lose diverged matches (documented BLAT
        # trade-off); on heavily mutated homology ORIS >= BLAT coverage.
        total_oris = 0
        total_blat = 0
        for t in range(5):
            r = np.random.default_rng(100 + t)
            core = random_dna(r, 500)
            mut = mutate(r, core, sub_rate=0.10, indel_rate=0.0)
            b1 = Bank.from_strings([("q", core)])
            b2 = Bank.from_strings([("s", mut)])
            total_oris += sum(
                x.length for x in OrisEngine(OrisParams()).compare(b1, b2).records
            )
            total_blat += sum(
                x.length for x in BlatEngine(BlatParams()).compare(b1, b2).records
            )
        assert total_blat <= total_oris

    def test_no_homology(self, rng):
        b1 = Bank.from_strings([("q", random_dna(rng, 1000))])
        b2 = Bank.from_strings([("s", random_dna(np.random.default_rng(9), 1000))])
        assert BlatEngine(BlatParams()).compare(b1, b2).records == []

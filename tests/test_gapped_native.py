"""The native step-3 kernel (repro.align.gapped_native + gapped_kernel.c).

The C kernel must be an exact twin of the NumPy kernel: every result
field and the lane-row count, on every input.  Both are also checked
against the scalar oracle :func:`gapped_extend_ref` where the oracle
defines the same DP (see ``test_differential_sweep``).
"""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import gapped_native
from repro.align.gapped import batch_gapped_extend, gapped_extend_ref
from repro.align.hsp import HSPTable
from repro.align.scoring import ScoringScheme
from repro.cli import run
from repro.core import OrisEngine, OrisParams
from repro.core.engine import WorkCounters
from repro.core.gapped_stage import run_gapped_stage
from repro.data.synthetic import mutate, random_dna
from repro.io.bank import Bank
from repro.obs import MetricsRegistry

FIELDS = (
    "score", "consumed1", "consumed2", "matches", "mismatches",
    "gap_columns", "gap_openings", "min_dd", "max_dd",
)

needs_native = pytest.mark.skipif(
    gapped_native.load() is None, reason="native gapped kernel unavailable"
)


def lanes(res):
    """Every result field of every lane, plus the lane-row count."""
    return [getattr(res, f).tolist() for f in FIELDS], res.steps


@st.composite
def extension_cases(draw, max_len=140, max_lanes=12):
    """Banks with homology, INVALID runs and separators, plus anchors that
    include position 0, the last position and positions past the end."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    core = random_dna(rng, int(rng.integers(10, max_len)))
    mut = mutate(rng, core, sub_rate=float(rng.uniform(0, 0.2)),
                 indel_rate=float(rng.uniform(0, 0.08)))
    seqs1 = [random_dna(rng, int(rng.integers(0, 20))) + core
             + random_dna(rng, int(rng.integers(0, 20)))]
    seqs2 = [random_dna(rng, int(rng.integers(0, 20))) + mut]
    if draw(st.booleans()):  # a run of ambiguity codes inside the homology
        at = int(rng.integers(0, len(seqs1[0])))
        seqs1[0] = seqs1[0][:at] + "N" * int(rng.integers(1, 6)) + seqs1[0][at:]
    if draw(st.booleans()):  # a second sequence: an inner separator
        seqs2.append(random_dna(rng, int(rng.integers(1, 40))) + core[:30])
    b1 = Bank.from_strings([(f"a{i}", s) for i, s in enumerate(seqs1)])
    b2 = Bank.from_strings([(f"b{i}", s) for i, s in enumerate(seqs2)])
    n1, n2 = len(b1.seq), len(b2.seq)
    n = draw(st.integers(0, max_lanes))
    edges1 = [0, 1, n1 - 1, n1, n1 + 3]
    edges2 = [0, 1, n2 - 1, n2, n2 + 3]
    p1 = [int(rng.choice(edges1)) if rng.random() < 0.3 else int(rng.integers(0, n1))
          for _ in range(n)]
    p2 = [int(rng.choice(edges2)) if rng.random() < 0.3 else int(rng.integers(0, n2))
          for _ in range(n)]
    dirs = [int(d) for d in rng.choice([-1, 1], n)]
    scoring = ScoringScheme(
        match=draw(st.integers(1, 4)),
        mismatch=draw(st.integers(1, 8)),
        gap_open=draw(st.integers(1, 8)),
        xdrop_gapped=draw(st.integers(1, 60)),
    )
    band = draw(st.integers(1, 32))
    max_rows = draw(st.sampled_from([1 << 20, 1 << 20, 0, 1, 5, 40]))
    return b1, b2, np.array(p1, np.int64), np.array(p2, np.int64), \
        np.array(dirs, np.int64), scoring, band, max_rows


@needs_native
class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(extension_cases())
    def test_differential_sweep(self, case):
        """native == NumPy (all fields + steps) == scalar oracle.

        The oracle skips band columns that have consumed no seq2 yet
        (``j < 0``) entirely, while the batch kernels compute them and
        mask them after the row's left moves; so the batch kernels can
        open an alignment with a deletion followed by an insertion, which
        beats a first-column mismatch exactly when ``2 * gap < mismatch``.
        The oracle comparison therefore covers ``2 * gap >= mismatch``
        (the default scheme among them); native == NumPy holds everywhere.
        """
        b1, b2, p1, p2, dirs, sc, band, max_rows = case
        args = (b1.seq, b2.seq, p1, p2, dirs, sc, band, max_rows)
        numpy_res = batch_gapped_extend(*args, native=False)
        native_res = batch_gapped_extend(*args, native=True)
        assert lanes(native_res) == lanes(numpy_res)
        if 2 * sc.gap_open < sc.mismatch:
            return
        fields, _ = lanes(native_res)
        for i in range(p1.shape[0]):
            ref = gapped_extend_ref(
                b1.seq, b2.seq, int(p1[i]), int(p2[i]), int(dirs[i]), sc,
                band, max_rows,
            )
            assert [f[i] for f in fields] == [getattr(ref, f) for f in FIELDS], i

    @settings(max_examples=40, deadline=None)
    @given(extension_cases(max_len=400, max_lanes=64))
    def test_wide_batches_match_numpy(self, case):
        b1, b2, p1, p2, dirs, sc, band, max_rows = case
        args = (b1.seq, b2.seq, p1, p2, dirs, sc, band, max_rows)
        assert lanes(batch_gapped_extend(*args, native=True)) == lanes(
            batch_gapped_extend(*args, native=False)
        )

    def test_empty_sequence_array_rejected(self, scoring):
        empty = np.empty(0, dtype=np.int8)
        one = np.array([0])
        for native in (False, True):
            with pytest.raises(IndexError):
                batch_gapped_extend(empty, empty, one, one, +1, scoring, native=native)

    def test_empty_batch(self, scoring):
        b = Bank.from_strings([("a", "ACGTACGT")])
        z = np.empty(0, dtype=np.int64)
        res = batch_gapped_extend(b.seq, b.seq, z, z, +1, scoring, native=True)
        assert lanes(res) == ([[]] * len(FIELDS), 0)


def stage_case(seed=3, n_cores=4):
    """Banks with implanted homologies and their step-2 HSP table."""
    rng = np.random.default_rng(seed)
    parts1, parts2 = [], []
    for _ in range(n_cores):
        core = random_dna(rng, 120)
        parts1.append(random_dna(rng, 60) + core)
        parts2.append(random_dna(rng, 40) + mutate(rng, core, 0.03, 0.002))
    b1 = Bank.from_strings([("q", "".join(parts1))])
    b2 = Bank.from_strings([("s", "".join(parts2))])
    engine = OrisEngine(OrisParams())
    i1, i2 = engine._build_indexes(b1, b2)
    from repro.align.evalue import karlin_params

    threshold = engine._resolve_hsp_min_score(b1, b2, karlin_params(ScoringScheme()))
    return b1, b2, engine._ungapped_stage(i1, i2, threshold, WorkCounters())


def run_stage(b1, b2, table):
    counters, registry = WorkCounters(), MetricsRegistry()
    out = run_gapped_stage(
        b1, b2, table, ScoringScheme(), 16, counters=counters, registry=registry
    )
    return out, counters, registry


class TestStageUnderBothKernels:
    @needs_native
    def test_stage_output_identical(self, monkeypatch):
        b1, b2, table = stage_case()
        assert len(table) > 0
        native, c_native, r_native = run_stage(b1, b2, table)
        monkeypatch.setattr(gapped_native, "load", lambda: None)
        numpy_out, c_numpy, r_numpy = run_stage(b1, b2, table)
        assert native == numpy_out and len(native) > 0
        assert c_native.gapped_steps == c_numpy.gapped_steps > 0
        assert c_native.n_gapped_extensions == c_numpy.n_gapped_extensions
        assert r_native.value("step3.native_kernel") == 1.0
        assert r_numpy.value("step3.native_kernel") == 0.0

    def test_gauge_recorded_without_hsps(self):
        b = Bank.from_strings([("a", "ACGTACGTACGT")])
        registry = MetricsRegistry()
        run_gapped_stage(b, b, HSPTable(), ScoringScheme(), 16, WorkCounters(),
                         registry=registry)
        assert "step3.native_kernel" in registry


class TestKernelResolution:
    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_native_kernel_active_with_compiler(self):
        """With a compiler on PATH, a silent fallback to NumPy is a bug."""
        assert gapped_native.load() is not None
        b1, b2, table = stage_case(seed=5, n_cores=2)
        _, _, registry = run_stage(b1, b2, table)
        assert registry.value("step3.native_kernel") == 1.0

    @needs_native
    def test_truncated_cached_library_is_rebuilt(self, tmp_path):
        good = gapped_native.library_path()
        target = gapped_native.library_path(tmp_path)
        target.write_bytes(good.read_bytes()[:256])
        kernel = gapped_native.resolve(tmp_path)
        assert kernel is not None
        assert target.stat().st_size > 256
        assert [p.name for p in tmp_path.iterdir()] == [target.name]
        b = Bank.from_strings([("a", "ACGTTGCAACGTAGCT" * 4)])
        p = np.array([1, 30], np.int64)
        d = np.array([1, -1], np.int64)
        got = gapped_native.extend_lanes(kernel, b.seq, b.seq, p, p, d, 1, 3, 5, 24, 16,
                                         1 << 20)
        numpy_res = batch_gapped_extend(b.seq, b.seq, p, p, d, ScoringScheme(),
                                        native=False)
        assert got[4] == numpy_res.steps
        assert got[0].tolist() == numpy_res.score.tolist()

    @needs_native
    def test_concurrent_builders_leave_one_whole_library(self, tmp_path):
        """Builders racing on a cold cache (a fleet's shards) all load."""
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(gapped_native.resolve, tmp_path) for _ in range(3)]
            kernels = [f.result(timeout=120) for f in futures]
        assert all(k is not None for k in kernels)
        target = gapped_native.library_path(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [target.name]

    def test_no_compiler_falls_back(self, tmp_path, monkeypatch):
        monkeypatch.setattr("shutil.which", lambda _name: None)
        assert gapped_native.resolve(tmp_path) is None
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_cache_falls_back(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        assert gapped_native.resolve(blocker / "cache") is None

    def test_native_required_but_missing(self, monkeypatch, scoring):
        monkeypatch.setattr(gapped_native, "load", lambda: None)
        b = Bank.from_strings([("a", "ACGTACGT")])
        one = np.array([1])
        with pytest.raises(RuntimeError):
            batch_gapped_extend(b.seq, b.seq, one, one, +1, scoring, native=True)
        res = batch_gapped_extend(b.seq, b.seq, one, one, +1, scoring)
        assert int(res.score[0]) == 8

    def test_library_name_keys_source_flags_and_machine(self, monkeypatch):
        base = gapped_native.library_path()
        monkeypatch.setattr(gapped_native, "FLAGS", ("-O3", "-shared", "-fPIC"))
        assert gapped_native.library_path() != base
        monkeypatch.setattr(gapped_native, "FLAGS", ("-O2", "-shared", "-fPIC"))
        monkeypatch.setattr("platform.machine", lambda: "other")
        assert gapped_native.library_path() != base


class TestKernelVisible:
    def test_compare_stats_name_the_kernel(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        core = random_dna(rng, 300)
        q, s = tmp_path / "q.fa", tmp_path / "s.fa"
        q.write_text(f">q1\n{core}\n")
        s.write_text(f">s1\n{random_dna(rng, 500) + core + random_dna(rng, 500)}\n")
        assert run([str(q), str(s), "-o", str(tmp_path / "o.m8"), "--stats"]) == 0
        name = "native" if gapped_native.load() is not None else "numpy"
        assert f"# step3 kernel: {name}" in capsys.readouterr().err

    def test_query_service_resolves_kernel_at_start(self):
        from repro.serve.engine import BatchEngine

        bank2 = Bank.from_strings([("s", random_dna(np.random.default_rng(2), 400))])
        engine = BatchEngine(bank2, OrisParams(), n_workers=1)
        try:
            expected = float(gapped_native.load() is not None)
            assert engine.registry.value("step3.native_kernel", None) == expected
        finally:
            engine.close()

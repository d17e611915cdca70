"""Build, cache and load the native step-3 kernel (``gapped_kernel.c``).

The C kernel is an exact twin of the NumPy lane-parallel kernel in
:mod:`repro.align.gapped` (see the header of the C file for the
contract).  It needs nothing but a C compiler: the source ships with the
package and is compiled on first use with ``cc -O2 -shared -fPIC``, then
loaded through :mod:`ctypes`.

* **Cache.**  The shared library lives in this package's ``__pycache__``
  under a name keyed by the sha256 of the source, the compiler flags and
  ``platform.machine()``, so an edited kernel or another architecture
  never loads a stale build.  A build is written to a unique temporary
  name and moved into place with :func:`os.replace`, so processes that
  build at the same moment (the shards of a fleet) never see a torn file.
* **Fallback.**  A cached library that fails to load is rebuilt once.
  With no compiler on ``PATH``, a failed build or an unwritable cache
  directory, :func:`load` returns ``None`` and step 3 runs the NumPy
  kernel, with identical output.  The ``step3.native_kernel`` gauge
  (1 or 0) records which kernel ran.
* **Load points.**  Batch comparisons resolve the kernel at their first
  step-3 call; the query service resolves it while starting, before it
  announces itself, so a first build never lands in query latency.
"""

from __future__ import annotations

import ctypes
import os
import threading
from pathlib import Path

import numpy as np

__all__ = ["load", "extend_lanes"]

SOURCE = Path(__file__).with_name("gapped_kernel.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
FLAGS = ("-O2", "-shared", "-fPIC")
_BUILD_TIMEOUT_S = 120

_lock = threading.Lock()
_resolved = False
_kernel = None


def library_path(cache_dir: Path | None = None) -> Path:
    """Where the library for this source, these flags and this machine lives."""
    # Imported here, like the build's modules below: only resolution needs
    # them, and it runs at step 3 (or service start-up), not at import.
    import hashlib
    import platform

    key = hashlib.sha256()
    key.update(SOURCE.read_bytes())
    key.update(" ".join(FLAGS).encode())
    key.update(platform.machine().encode())
    return (cache_dir or CACHE_DIR) / f"gapped_kernel-{key.hexdigest()[:16]}.so"


def _build(target: Path) -> bool:
    """Compile the kernel into ``target`` atomically; False on any failure."""
    import shutil
    import subprocess
    import tempfile

    cc = shutil.which("cc")
    if cc is None:
        return False
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp",
                                   dir=target.parent)
        os.close(fd)
    except OSError:
        return False
    try:
        done = subprocess.run(
            [cc, *FLAGS, "-o", tmp, str(SOURCE)],
            stdin=subprocess.DEVNULL, capture_output=True,
            timeout=_BUILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            return False
        os.replace(tmp, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: Path):
    """The kernel entry point of the library at ``path``, or None."""
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    fn = lib.gapped_extend_lanes
    i64p = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    u8p = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    i32 = ctypes.c_int32
    i64 = ctypes.c_int64
    fn.argtypes = [
        u8p, i64, u8p, i64,  # seq1, n1, seq2, n2
        i64p, i64p, i64p, i64,  # p1, p2, dirs, lanes
        i32, i32, i32, i32,  # match, mismatch, gap, xdrop
        i32, i64,  # band radius, max rows
        np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS"),  # best score
        i64p, i64p, i64p,  # best row, best column, best annotations
    ]
    fn.restype = i64
    return fn


def resolve(cache_dir: Path | None = None):
    """Load the cached kernel, building it when absent or unloadable."""
    try:
        path = library_path(cache_dir)
    except OSError:  # source not installed
        return None
    if path.exists():
        fn = _open(path)
        if fn is not None:
            return fn
    if not _build(path):
        return None
    return _open(path)


def load():
    """The process-wide native kernel (resolved once), or None."""
    global _resolved, _kernel
    if not _resolved:
        with _lock:
            if not _resolved:
                _kernel = resolve()
                _resolved = True
    return _kernel


def _codes(seq: np.ndarray) -> np.ndarray:
    """A bank's int8 code array as the kernel's bytes (no copy for banks)."""
    seq = np.ascontiguousarray(seq)
    if seq.dtype.itemsize == 1:
        return seq.view(np.uint8)
    return seq.astype(np.uint8)


def extend_lanes(kernel, seq1, seq2, p1, p2, dirs, match, mismatch, gap,
                 xdrop, band_radius, max_rows):
    """Run ``kernel`` over all lanes; returns the best-cell arrays and steps
    in the layout of the NumPy kernel."""
    n = p1.shape[0]
    best_score = np.empty(n, dtype=np.int32)
    best_i = np.empty(n, dtype=np.int64)
    best_k = np.empty(n, dtype=np.int64)
    best_ann = np.empty((n, 4), dtype=np.int64)
    s1, s2 = _codes(seq1), _codes(seq2)
    if s1.size == 0 or s2.size == 0:  # the kernel clamps reads into each array
        raise IndexError("cannot extend into an empty sequence array")
    steps = kernel(
        s1, s1.shape[0], s2, s2.shape[0],
        np.ascontiguousarray(p1), np.ascontiguousarray(p2),
        np.ascontiguousarray(dirs), n,
        match, mismatch, gap, xdrop, band_radius, max_rows,
        best_score, best_i, best_k, best_ann,
    )
    if steps < 0:
        raise MemoryError("native gapped kernel could not allocate its band")
    return best_score, best_i, best_k, best_ann, int(steps)

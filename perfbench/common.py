"""Shared helpers: statistics, process-tree memory, child processes, ledgers."""

from __future__ import annotations

import contextlib
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
HOOK = os.path.join(HERE, "hook")


def host_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def child_env(trace_dir: str | None = None) -> dict:
    """Environment for program processes; *trace_dir* turns the ledger on."""
    env = dict(os.environ)
    env.pop("PERFBENCH_LEDGER_DIR", None)
    paths = [SRC]
    if trace_dir is not None:
        paths.append(HOOK)
        env["PERFBENCH_LEDGER_DIR"] = trace_dir
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


# --------------------------------------------------------------------- #
# Process tree memory
# --------------------------------------------------------------------- #


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat, "rb") as fh:
                data = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        tail = data[data.rfind(b")") + 2:].split()
        kids.setdefault(int(tail[1]), []).append(int(stat.split("/")[2]))
    return kids


def _pss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup", "rb") as fh:
            for line in fh:
                if line.startswith(b"Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass  # the process has exited
    return 0


class TreeMemory:
    """Samples the memory of every process under some roots.

    The peak is the largest sum, over the processes alive at one sample,
    of their proportional set size (``Pss``: shared pages split between
    the processes mapping them, so forked workers and shared-memory
    arenas are not counted twice), sampled every ``interval`` seconds
    until :meth:`stop`.
    """

    def __init__(self, roots: list[int], interval: float = 0.1) -> None:
        self.roots = list(roots)
        self.interval = interval
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        kids = _children_map()
        todo, total = list(self.roots), 0
        while todo:
            pid = todo.pop()
            total += _pss_kib(pid)
            todo.extend(kids.get(pid, ()))
        self.peak_kib = max(self.peak_kib, total)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval)

    def stop(self) -> float:
        """Stop sampling; returns the peak in MiB."""
        self._stop.set()
        self._thread.join()
        return self.peak_kib / 1024.0


# --------------------------------------------------------------------- #
# Child processes
# --------------------------------------------------------------------- #


def spawn(argv: list[str], env: dict, log_path: str) -> subprocess.Popen:
    with open(log_path, "ab") as log:
        return subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=log, env=env, cwd=ROOT,
            start_new_session=True,
        )


def _started(pid: int) -> int | None:
    """Start time of a live (not zombie) process, None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
    except OSError:
        return None
    return None if fields[0] == b"Z" else int(fields[19])


def _descendants(root: int) -> dict[int, int | None]:
    """Every process under ``root`` now, with its start time."""
    kids = _children_map()
    found, todo = {}, list(kids.get(root, ()))
    while todo:
        pid = todo.pop()
        found[pid] = _started(pid)
        todo.extend(kids.get(pid, ()))
    return found


def stop_process(proc: subprocess.Popen, timeout: float = 20.0) -> int:
    """SIGTERM (the program's drain path), then SIGKILL the whole group,
    and every process that was under it in a session of its own (fleet
    shards), should the drain have left any; waits until all are gone."""
    tree = _descendants(proc.pid)
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # stragglers of its session
    except (ProcessLookupError, PermissionError):
        pass
    code = proc.wait()
    left = {pid: t for pid, t in tree.items() if t is not None and _started(pid) == t}
    for pid in left:
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while any(_started(pid) == t for pid, t in left.items()) and time.monotonic() < deadline:
        time.sleep(0.01)
    return code


def wait_for_file(path: str, proc: subprocess.Popen, timeout: float) -> dict:
    """Poll for a JSON announce file written by *proc*."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"process exited with {proc.returncode} before ready")
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            if data.get("pid") == proc.pid or "pid" not in data:
                return data
        except (OSError, ValueError):
            pass
        time.sleep(0.005)
    raise RuntimeError(f"{path} not written within {timeout}s")


def python() -> str:
    return sys.executable or "python3"


# --------------------------------------------------------------------- #
# Ledgers written by hook/pb_ledger.py
# --------------------------------------------------------------------- #


def read_ledgers(directory: str) -> dict:
    """Sum every process's ledger: spans (calls, total), counts, maxima."""
    spans: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    maxima: dict[str, float] = {}
    for path in sorted(glob.glob(os.path.join(directory, "ledger-*.json"))):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        for name, (calls, total) in data["spans"].items():
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += total
        for name, value in data["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in data["maxima"].items():
            maxima[name] = max(maxima.get(name, value), value)
    return {"spans": spans, "counts": counts, "maxima": maxima}

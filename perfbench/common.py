"""Shared pieces of the benchmark: percentiles, provenance, child processes.

Nothing here imports ``repro``; the workload modules do, after
:func:`use_checkout_sources` has put the checkout's ``src/`` first on
``sys.path``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import platform
import queue
import signal
import subprocess
import sys
import threading
import time

#: Root of the checkout the benchmark runs from (``perfbench/..``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The program under test is built from these sources, never an install.
SRC = os.path.join(ROOT, "src")
#: Everything a run writes (spans, temp checkpoints, full results).
OUT = os.path.join(ROOT, ".perfbench_out")

#: Percentiles a ``_tail`` metric may use, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)
#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a valid result."""


def use_checkout_sources() -> None:
    """Import ``repro`` from the checkout's ``src/`` or fail loudly."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(
            f"no program sources at {SRC}: run from the root of a repro "
            "checkout"
        )
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for child processes: checkout sources, unbuffered."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ----------------------------------------------------------------------
# Percentiles.
# ----------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: always one of the measured samples."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of *n* samples lie above the nearest-rank *p*-th."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond
    it among *n* samples (``None`` when even the lowest has too few)."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def summarize(values, tail_p: float | None = None) -> dict:
    """Median (and the fixed tail percentile) of *values*, with counts.

    The tail percentile is fixed per metric by the workload, from the
    sample count its schedule gives on the parent commit.  A run whose
    count no longer leaves ``MIN_BEYOND`` samples beyond it reports the
    highest ladder percentile that does, flagged ``tail_fallback``, and
    a run too short for any ladder percentile reports its maximum.
    """
    values = list(values)
    out = {"n": len(values), "p50": percentile(values, 50.0)}
    if tail_p is not None:
        p = tail_p
        if samples_beyond(len(values), p) < MIN_BEYOND:
            p = tail_percentile(len(values)) or 100.0
            out["tail_fallback"] = True
        out.update(tail=percentile(values, p), tail_p=p,
                   n_beyond=samples_beyond(len(values), p))
    return out


# ----------------------------------------------------------------------
# Provenance.
# ----------------------------------------------------------------------


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable (git failed)"
    return out.stdout.strip()


def source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` (path and bytes), so a result
    names the exact program it measured even outside git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def cpu_calibration_ms(reps: int = 3) -> float:
    """Median time of a fixed pure-Python loop: how fast this host ran
    during the run.  Shared hosts drift; read CPU-bound figures with it."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        times.append(1e3 * (time.perf_counter() - start))
    return sorted(times)[reps // 2]


def provenance(seed: int, workload: str, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_note": (
            "without numba, kernel=native runs the array kernel"
        ),
        "cpu_calibration_ms": cpu_calibration_ms(),
    }


# ----------------------------------------------------------------------
# Child processes and /proc readings.
# ----------------------------------------------------------------------


class Child:
    """A child process whose stdout is drained into a line queue."""

    def __init__(self, argv: list[str], log_path: str) -> None:
        self.spawned_at = time.perf_counter()
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self._log,
        )
        self.lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for raw in self.proc.stdout:
            self.lines.put(raw.decode("utf-8", "replace").rstrip("\n"))
        self.lines.put(None)

    def readline_matching(self, prefix: str, timeout: float) -> str:
        """The first stdout line containing *prefix*."""
        deadline = time.monotonic() + timeout
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"child printed no {prefix!r} line in time")
            try:
                line = self.lines.get(timeout=left)
            except queue.Empty:
                continue
            if line is None:
                raise BenchError(
                    f"child exited (code {self.proc.wait()}) before "
                    f"printing {prefix!r}"
                )
            if prefix in line:
                return line

    def send_line(self, text: str) -> None:
        self.proc.stdin.write((text + "\n").encode())
        self.proc.stdin.flush()

    def kill_tree(self, timeout: float = 10.0) -> None:
        """Error path: SIGKILL the child and its descendants (a router's
        forked partitions), reap the child, and wait until every
        descendant is gone."""
        pids = process_tree(self.proc.pid)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.wait(timeout)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and any(
            os.path.exists(f"/proc/{pid}") for pid in pids[1:]
        ):
            time.sleep(0.05)

    def wait(self, timeout: float) -> int:
        """Wait for exit; kill after *timeout*.  Always reaps."""
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()
        finally:
            for stream in (self.proc.stdin, self.proc.stdout):
                try:
                    stream.close()
                except OSError:
                    pass
            self._reader.join(5.0)
            self._log.close()


def process_tree(pid: int) -> list[int]:
    """*pid* and its descendants (read from ``/proc``)."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def peak_rss_mb(pids) -> float:
    """Sum of ``VmHWM`` (peak resident set) over *pids*, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def cpu_seconds(pids) -> float:
    """User + system CPU seconds consumed so far by *pids*."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / ticks


def write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=str)

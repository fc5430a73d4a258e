"""Start, reach and stop the shipped CLI as the system under test."""

from __future__ import annotations

import contextlib
import os
import sys
import time

from common import OUT, BenchError, Child

#: Seconds a child gets to print its address / accept a handshake / exit.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0


def spawn_cli(cli_args: list[str], log_path: str,
              spans_dir: str | None = None) -> Child:
    """``python3 -m repro <cli_args>``, or the traced launcher when
    *spans_dir* is given (same CLI, wrappers installed first)."""
    if spans_dir is None:
        argv = [sys.executable, "-m", "repro", *cli_args]
    else:
        launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "launch.py")
        argv = [sys.executable, launcher, "--spans-dir", spans_dir, "--",
                *cli_args]
    return Child(argv, log_path)


def connect(child: Child):
    """Wait for the child's address, then handshake.

    Returns ``(client, address, setup_seconds)`` where setup runs from the
    spawn to the first handshake that succeeds.
    """
    from repro.errors import IngestError
    from repro.live import LiveClient

    line = child.readline_matching("listening on", START_TIMEOUT)
    host, _, port = line.rsplit(" ", 1)[1].rpartition(":")
    address = (host, int(port))
    deadline = time.monotonic() + START_TIMEOUT
    while True:
        try:
            client = LiveClient(address)
        except (IngestError, OSError):
            if time.monotonic() > deadline:
                raise BenchError(f"no handshake with {address}") from None
            time.sleep(0.005)
            continue
        return client, address, time.perf_counter() - child.spawned_at


def shutdown(child: Child, client) -> int:
    """Ask the child to exit over the wire and reap it."""
    try:
        client.shutdown()
    finally:
        client.close()
    code = child.wait(STOP_TIMEOUT)
    if code != 0:
        raise BenchError(f"system under test exited with code {code}")
    return code


@contextlib.contextmanager
def running(child: Child):
    """Kill the system under test and its descendants if the body fails,
    so no process outlives a failed run."""
    try:
        yield child
    except BaseException:
        child.kill_tree()
        raise


def measure_setup(cli_args_for, reps: int, log_dir: str, spans_dir=None):
    """Spawn the CLI *reps* times; keep the last one running.

    ``cli_args_for(rep)`` gives each spawn its arguments.  Only the last
    spawn is traced.  Returns ``(child, client, address, setup_times)``.
    """
    times = []
    for rep in range(reps):
        last = rep == reps - 1
        child = spawn_cli(cli_args_for(rep),
                          os.path.join(log_dir, f"sut-{rep}.log"),
                          spans_dir if last else None)
        with running(child):
            client, address, seconds = connect(child)
        times.append(seconds)
        if last:
            return child, client, address, times
        shutdown(child, client)
    raise BenchError("measure_setup needs reps >= 1")


def run_dir(workload: str, seed: int, traced: bool) -> str:
    """A fresh per-run output directory inside the checkout."""
    path = os.path.join(
        OUT, f"{workload}-seed{seed}-{'traced' if traced else 'plain'}"
        f"-{os.getpid()}-{time.monotonic_ns()}"
    )
    os.makedirs(path)
    return path

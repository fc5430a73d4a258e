"""Load generation: open-loop schedules with due-time accounting.

An open loop sends operation *k* at ``start + offset + k * period``
whatever the system does; a stalled reply delays later sends, and each
operation's latency is measured from when it was **due**, so the stall is
charged to every operation that waited behind it.  The clock and sleep
are injectable so the accounting can be tested with a scripted stall.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


@dataclass
class OpSample:
    """Timing of one scheduled operation (seconds, perf_counter clock)."""

    k: int
    due: float
    sent: float
    done: float
    ok: bool
    error: str | None = None
    result: object = None
    marks: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        """From due time to completion: includes any wait to be sent."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """How far behind schedule the generator sent it."""
        return self.sent - self.due


def run_open_loop(op, start: float, period: float, n_ops: int | None = None,
                  offset: float = 0.0, stop: threading.Event | None = None,
                  clock=time.perf_counter, sleep=time.sleep) -> list[OpSample]:
    """Run ``op(k, sample)`` on a fixed schedule; return one sample per op.

    Stops after *n_ops* operations, or once *stop* is set (checked before
    each send).  ``op`` may record intermediate timestamps in
    ``sample.marks``; an exception marks the sample failed and the loop
    goes on (a refused request is a failure, not the end of the run).
    """
    samples: list[OpSample] = []
    k = 0
    while n_ops is None or k < n_ops:
        if stop is not None and stop.is_set():
            break
        due = start + offset + k * period
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        sample = OpSample(k=k, due=due, sent=now, done=now, ok=True)
        try:
            sample.result = op(k, sample)
        except Exception as exc:  # noqa: BLE001 — counted as a failed op
            sample.ok = False
            sample.error = f"{type(exc).__name__}: {exc}"
        sample.done = clock()
        samples.append(sample)
        k += 1
    return samples


class Monitor:
    """A second connection reading on its own open-loop schedule."""

    def __init__(self, read, start: float, period: float,
                 offset: float) -> None:
        self._read = read
        self._start, self._period, self._offset = start, period, offset
        self._stop = threading.Event()
        self.samples: list[OpSample] = []
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        self.samples = run_open_loop(
            self._read, self._start, self._period, offset=self._offset,
            stop=self._stop,
        )

    def start(self) -> "Monitor":
        self._thread.start()
        return self

    def stop(self, timeout: float = 60.0) -> list[OpSample]:
        self._stop.set()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("monitor did not stop")
        return self.samples

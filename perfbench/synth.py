"""Workload inputs, generated from the workload seed only.

* :class:`TandemSource` — an endless synthetic stream of fully measured
  tasks through a FIFO tandem of three queues (queue 0 is the entry
  pseudo-queue, as everywhere in ``repro``).
* :func:`webapp_batches` — the paper's Section 5.2 web-application trace,
  censored with ``TaskSampling(0.25)`` and chopped into the in-order
  replay schedule ``repro ingest`` ships.
* :class:`Readiness` — replays a call sequence into in-process streams
  to find which call made each window's population final, the reference
  moment of the publish-lag metric.  Runs outside every timed region.
"""

from __future__ import annotations

import numpy as np

#: Real queues of the synthetic tandem (the stream adds queue 0).
TANDEM_QUEUES = 3


class TandemSource:
    """Deterministic synthetic tandem-queue measurement records.

    Entries are evenly spaced by *spacing* (exactly ``1 / spacing`` tasks
    per clock unit).  Service times are exponential with *service_mean*
    at every queue, FIFO, so every queue's counter order is task order.
    Every arrival and the final departure are measured.
    """

    def __init__(self, seed: int, spacing: float,
                 service_mean: float = 0.5) -> None:
        self._rng = np.random.default_rng(seed)
        self.spacing = float(spacing)
        self.service_mean = float(service_mean)
        self.next_task = 0
        self._last_departure = [0.0] * TANDEM_QUEUES
        #: Entry of the newest task generated so far.
        self.last_entry = float("-inf")

    def next_batch(self, n_tasks: int) -> tuple[float, list[dict]]:
        """The next *n_tasks* tasks' records, task-major, and the
        watermark an honest reporter advances to before shipping them
        (the batch's first entry: nothing in it or later is older)."""
        entries = [(self.next_task + i) * self.spacing
                   for i in range(n_tasks)]
        services = self._rng.exponential(
            self.service_mean, (n_tasks, TANDEM_QUEUES)
        )
        records: list[dict] = []
        for i, entry in enumerate(entries):
            task = self.next_task + i
            records.append({"task": task, "seq": 0, "queue": 0,
                            "counter": task})
            arrival = entry
            for q in range(TANDEM_QUEUES):
                start = max(arrival, self._last_departure[q])
                departure = start + float(services[i, q])
                self._last_departure[q] = departure
                record = {"task": task, "seq": q + 1, "queue": q + 1,
                          "counter": task, "arrival": arrival}
                if q == TANDEM_QUEUES - 1:
                    record["departure"] = departure
                    record["last"] = True
                records.append(record)
                arrival = departure
        self.next_task += n_tasks
        self.last_entry = entries[-1]
        return entries[0], records


def webapp_batches(seed: int, n_batches: int, batch_tasks: int,
                   observe: float, requests_per_clock: float):
    """``(trace, [(watermark, records), ...])`` for the webapp workload."""
    from repro.live.records import replay_batches
    from repro.observation import TaskSampling
    from repro.webapp import WebAppConfig, generate_webapp_trace

    n_requests = n_batches * batch_tasks
    sim = generate_webapp_trace(
        WebAppConfig(n_requests=n_requests,
                     duration=n_requests / requests_per_clock),
        random_state=seed,
    )
    trace = TaskSampling(fraction=observe).observe(
        sim.events, random_state=seed + 1
    )
    return trace, replay_batches(trace, batch_tasks=batch_tasks)


class Readiness:
    """Which call makes each window's population final.

    Mirrors the service's scheduling rule (``horizon >= t0 + window``, or
    any ``t0 < horizon`` once sealed) on in-process streams.  Calls are
    ``("watermark", t)``, ``("ingest", records)`` or ``("seal",)``; with
    several partitions, records are placed and their entry slots rebased
    the way the router does it.
    """

    def __init__(self, n_queues: int, window: float, step: float,
                 n_partitions: int = 1, block: int = 32) -> None:
        from repro.live.stream import LiveTraceStream

        self.window, self.step = window, step
        self.n_partitions, self.block = n_partitions, block
        self._streams = [
            LiveTraceStream(n_queues, max_pending=10**9, retain=window)
            for _ in range(n_partitions)
        ]
        self._owner: dict[int, int] = {}
        self._next = [0] * n_partitions

    def feed(self, call) -> list[tuple[int, int]]:
        """Apply one call; return the ``(partition, window index)`` keys
        whose population it made final."""
        from repro.live.router import entry_partition, rebase_slot

        if call[0] == "watermark":
            for s in self._streams:
                s.advance_watermark(call[1])
        elif call[0] == "seal":
            for s in self._streams:
                s.seal()
        else:
            groups: dict[int, list] = {}
            for r in call[1]:
                if r["seq"] == 0:
                    self._owner[r["task"]] = entry_partition(
                        r["counter"], self.n_partitions, self.block
                    )
                    r = dict(r, counter=rebase_slot(
                        r["counter"], self.n_partitions, self.block
                    ))
                groups.setdefault(self._owner[r["task"]], []).append(r)
            for p, recs in groups.items():
                self._streams[p].ingest(recs)
        final = []
        for p, s in enumerate(self._streams):
            horizon = s.horizon
            while True:
                t0 = self._next[p] * self.step
                if horizon <= 0.0 or t0 >= horizon:
                    break
                if not s.sealed and horizon < t0 + self.window:
                    break
                final.append((p, self._next[p]))
                self._next[p] += 1
            # Keep the replay bounded: hand out and fold away everything
            # no later window can reach (never changes the horizon).
            s.poll(self._next[p] * self.step)
            s.compact(before=self._next[p] * self.step)
        return final


def ingest_frame_bytes(batches) -> int:
    """Bytes of the pickled ``ingest`` frames the batches travel in —
    computed from the frame format, not captured off the socket."""
    import pickle

    return sum(
        len(pickle.dumps(("ingest", list(records)),
                         protocol=pickle.HIGHEST_PROTOCOL))
        for _, records in batches
    )

"""Measurement records: the wire unit between a monitored system and
:class:`~repro.live.stream.LiveTraceStream`.

A record (:func:`~repro.events.serialization.measurement_record`) is one
event's measurement: identity (``task``/``seq``), queue, the queue's
event-**counter** value at its arrival — the paper's assumption about
what instrumented queues expose, and exactly the information that pins
the frozen per-queue order without revealing censored times — plus the
measured times where they exist (``arrival`` ``None`` when censored;
``departure`` only on a task's last event).

This module converts between records and :class:`~repro.observation.ObservedTrace`:

* :func:`trace_to_records` flattens a censored trace into records — what a
  replay client (``repro ingest``) ships, and the reference for what a real
  reporting agent would emit;
* :class:`IncrementalAssembler` is the inverse, and the live stream's one
  store of finalized tasks: complete tasks' records become columns in
  O(task) as they finalize (inner departures from the
  ``a_e = d_{pi(e)}`` identity), and the trace is built from the columns
  by sorting — rows by task id, each queue's frozen order by its event
  counters — whatever order the task ids finalize in;
* :func:`assemble_trace` is the same store used once, over a given set of
  complete tasks.

Round-trip contract (pinned by ``tests/live/test_records.py``): for any
task subset of a task-id-major trace, ``assemble_trace(records)`` is
**bitwise identical** to ``subset_trace`` of the original — which is what
makes live window estimates bitwise comparable to the replay path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IngestError
from repro.events import EventSet
from repro.events.serialization import measurement_record
from repro.events.subset import SubsetIndex
from repro.observation import ObservedTrace


def trace_to_records(trace: ObservedTrace) -> list[dict]:
    """Flatten a censored trace into measurement records (task-major order).

    Censored positions become ``arrival=None``; inner departures are never
    shipped (they equal the successor's arrival); a task's last record is
    flagged ``last`` and carries its departure only when independently
    measured.
    """
    skeleton = trace.skeleton
    counters = skeleton.queue_positions()
    records: list[dict] = []
    for task_id in skeleton.task_ids:
        events = skeleton.events_of_task(task_id)
        for e in events:
            e = int(e)
            last = skeleton.pi_inv[e] == -1
            if skeleton.seq[e] == 0:
                arrival: float | None = 0.0
            elif trace.arrival_observed[e]:
                arrival = float(skeleton.arrival[e])
            else:
                arrival = None
            departure = (
                float(skeleton.departure[e])
                if last and trace.departure_observed[e]
                else None
            )
            records.append(
                measurement_record(
                    task=task_id,
                    seq=int(skeleton.seq[e]),
                    queue=int(skeleton.queue[e]),
                    counter=int(counters[e]),
                    state=int(skeleton.state[e]),
                    arrival=arrival,
                    departure=departure,
                    last=bool(last),
                )
            )
    return records


def replay_batches(
    trace: ObservedTrace, batch_tasks: int = 32
) -> list[tuple[float, list[dict]]]:
    """Chop a recorded censored trace into in-order ingestion batches.

    Tasks are grouped in (estimated) entry order, ``batch_tasks`` per
    batch; each batch is paired with the watermark an honest reporter
    would advance to before shipping it — the entry estimate of the
    batch's first task, which every measurement in this and later batches
    is no older than.  Replaying the batches in order therefore produces
    zero stragglers: the ``repro ingest`` client, the live-serving
    example, and the benchmark all ship exactly this schedule.
    """
    from repro.online.windowed import _entry_time_estimates

    entries = _entry_time_estimates(trace)
    by_task: dict[int, list[dict]] = {}
    for record in trace_to_records(trace):
        by_task.setdefault(record["task"], []).append(record)
    order = sorted(entries, key=lambda t: entries[t])
    batches = []
    for start in range(0, len(order), int(batch_tasks)):
        chunk = order[start:start + int(batch_tasks)]
        batch: list[dict] = []
        for task in chunk:
            batch.extend(by_task[task])
        batches.append((float(entries[chunk[0]]), batch))
    return batches


def record_times(record: dict) -> list[float]:
    """Every measured clock time a record carries (may be empty)."""
    out = []
    if record["arrival"] is not None and record["seq"] != 0:
        out.append(float(record["arrival"]))
    if record["departure"] is not None:
        out.append(float(record["departure"]))
    return out


def assemble_trace(task_records: list[list[dict]], n_queues: int) -> ObservedTrace:
    """Build an observed trace from the records of complete tasks.

    A one-shot :class:`IncrementalAssembler`: every task is appended, then
    the trace is built once.

    Parameters
    ----------
    task_records:
        One list of records per task, each covering the task's events
        ``seq 0 .. k`` exactly, in any order (the stream's completeness
        gate guarantees this).  Tasks may come in any order too; the
        result is bitwise the :func:`~repro.events.subset.subset_trace`
        restriction of the originating task-id-major trace.
    n_queues:
        Queue count of the monitored network (so a trace prefix that has
        not yet visited the last queue still matches the full topology).
    """
    store = IncrementalAssembler(n_queues)
    for recs in task_records:
        top = max(r["queue"] for r in recs)
        if top >= n_queues:
            raise IngestError(
                f"records reference queue {top} but the stream was "
                f"declared with n_queues={n_queues}"
            )
        store.append(sorted(recs, key=lambda r: r["seq"]))
    return store.build()[0]


class IncrementalAssembler:
    """The columnar store of finalized tasks, and the trace built from it.

    Appending a complete task writes its rows — task, seq, queue, state,
    event counter, times and observation masks — in finalize order, in
    O(task) and without revisiting history; inner departures come from
    the ``a_e = d_{pi(e)}`` identity.  :meth:`build` turns the rows into
    an :class:`~repro.observation.ObservedTrace` (plus its
    :class:`~repro.events.subset.SubsetIndex`) with two stable sorts: by
    task id for the task-id-major row layout, then by (queue, counter)
    for every queue's frozen order.  The build is cached per
    :attr:`version`, so window accesses between appends are free.

    Equality contract (pinned by the conformance suite's equivalence
    oracle): the built trace is **bitwise** the
    :func:`~repro.events.subset.subset_trace` restriction of the
    originating task-id-major trace to the tasks held, whatever order
    their ids finalize in.

    :attr:`ascending` says whether every appended task id exceeded all
    earlier ones — true whenever entry counters are monotone in task id,
    i.e. for every recorded or honestly instrumented source.  Only then
    are the oldest-finalized tasks, which :meth:`evict` drops, also the
    lowest ids, and so the built rows' prefix.
    """

    _MIN_CAPACITY = 1024
    #: One buffer per column, keyed as in :meth:`snapshot_state`.
    _DTYPES = {
        "task": np.int64, "seq": np.int64, "queue": np.int64,
        "state": np.int64, "counter": np.int64, "arrival": float,
        "departure": float, "arr_obs": bool, "dep_obs": bool,
    }

    def __init__(self, n_queues: int) -> None:
        if n_queues < 2:
            raise IngestError("n_queues must include queue 0 plus real queues")
        self.n_queues = int(n_queues)
        self._n = 0
        self._task_sizes: list[int] = []  # events per task, finalize order
        self._cols = {
            name: np.empty(self._MIN_CAPACITY, dtype=dtype)
            for name, dtype in self._DTYPES.items()
        }
        # Per queue, the counters its held rows claim (the conflict check).
        self._claimed: list[set[int]] = [set() for _ in range(self.n_queues)]
        self._max_task: int | None = None
        self.ascending = True
        #: Bumped on every append/evict; the build cache keys on it.
        self.version = 0
        self._built_version = -1
        self._built: tuple[ObservedTrace, SubsetIndex] | None = None

    @property
    def n_events(self) -> int:
        """Rows currently held (the retained history)."""
        return self._n

    @property
    def n_tasks(self) -> int:
        """Tasks currently held."""
        return len(self._task_sizes)

    @property
    def task_ids(self) -> np.ndarray:
        """Ids of the tasks held, ascending."""
        return np.unique(self._cols["task"][: self._n])

    def _move(self, start: int, cap: int) -> None:
        """Move rows ``start:`` to the front of fresh *cap*-row buffers."""
        for name, old in self._cols.items():
            buf = np.empty(cap, dtype=old.dtype)
            buf[: self._n - start] = old[start: self._n]
            self._cols[name] = buf
        self._n -= start

    def append(self, records: list[dict]) -> None:
        """Append one complete task's seq-ordered records; O(task).

        Raises
        ------
        IngestError
            If two events claim the same counter at one queue.  Checked
            before any mutation, so a raise leaves the store consistent.
        """
        fresh: set[tuple[int, int]] = set()
        for r in records:
            q, c = int(r["queue"]), int(r["counter"])
            if c in self._claimed[q] or (q, c) in fresh:
                raise IngestError(
                    f"conflicting event counters at queue {q}: two events "
                    "claim the same arrival position"
                )
            fresh.add((q, c))
        task, k = int(records[0]["task"]), len(records)
        size = self._cols["task"].size
        if self._n + k > size:
            self._move(0, max(self._n + k, 2 * size))
        # Scalar writes: a task is a handful of rows, too few for slice
        # assignment from lists to pay off.
        cols = self._cols
        for i, r in enumerate(records):
            row = self._n + i
            cols["task"][row] = task
            cols["seq"][row] = r["seq"]
            cols["queue"][row] = r["queue"]
            cols["state"][row] = r["state"]
            cols["counter"][row] = r["counter"]
            # The seq-0 convention: the entry event arrives at 0.0, measured.
            arrival = 0.0 if i == 0 else r["arrival"]
            cols["arrival"][row] = np.nan if arrival is None else arrival
            cols["arr_obs"][row] = arrival is not None
            # Inner departures: the a_e = d_{pi(e)} identity.
            departure = records[i + 1]["arrival"] if i + 1 < k else r["departure"]
            cols["departure"][row] = np.nan if departure is None else departure
            cols["dep_obs"][row] = i + 1 == k and departure is not None
        for q, c in fresh:
            self._claimed[q].add(c)
        self._n += k
        self._task_sizes.append(k)
        if self._max_task is not None and task <= self._max_task:
            self.ascending = False
        else:
            self._max_task = task
        self.version += 1

    def prefix_events(self, n_tasks: int) -> int:
        """Rows occupied by the oldest-finalized *n_tasks* tasks."""
        return sum(self._task_sizes[:n_tasks])

    def evict(self, n_tasks: int) -> int:
        """Drop the oldest-finalized *n_tasks* tasks; returns rows removed.

        They occupy the rows' prefix, so eviction is one buffer shift plus
        releasing their counter claims — O(retained), paid once per
        compaction, not per access.
        """
        if n_tasks <= 0:
            return 0
        if n_tasks > len(self._task_sizes):
            raise IngestError(
                f"cannot evict {n_tasks} tasks; only "
                f"{len(self._task_sizes)} are held"
            )
        m = self.prefix_events(n_tasks)
        queues, counters = self._cols["queue"][:m], self._cols["counter"][:m]
        for q in range(self.n_queues):
            self._claimed[q].difference_update(counters[queues == q].tolist())
        self._move(m, max(self._n - m, self._MIN_CAPACITY))
        del self._task_sizes[:n_tasks]
        self.version += 1
        return m

    def build(self) -> tuple[ObservedTrace, SubsetIndex]:
        """The trace (plus its subset index) over the held rows.

        Cached per :attr:`version`; repeated window accesses between
        appends are free.  The trace owns copies of the columns, so
        inference can never corrupt the store.
        """
        if self._n == 0:
            raise IngestError("no complete tasks to assemble a trace from")
        if self._built_version != self.version:
            # Stable sorts: a task's rows keep their seq order, and the
            # counters one queue's rows claim are unique.
            rows = np.argsort(self._cols["task"][: self._n], kind="stable")
            col = {name: buf[rows] for name, buf in self._cols.items()}
            by_queue = np.lexsort((col["counter"], col["queue"]))
            bounds = np.searchsorted(
                col["queue"][by_queue], np.arange(self.n_queues + 1)
            )
            skeleton = EventSet(
                task=col["task"],
                seq=col["seq"],
                queue=col["queue"],
                arrival=col["arrival"],
                departure=col["departure"],
                n_queues=self.n_queues,
                state=col["state"],
                queue_order=[
                    by_queue[bounds[q]: bounds[q + 1]]
                    for q in range(self.n_queues)
                ],
            )
            trace = ObservedTrace(
                skeleton=skeleton,
                arrival_observed=col["arr_obs"],
                departure_observed=col["dep_obs"],
            )
            self._built = (trace, SubsetIndex(skeleton))
            self._built_version = self.version
        return self._built

    def snapshot_state(self) -> dict:
        """The held rows as plain arrays (what a stream snapshot carries)."""
        state = {name: buf[: self._n].copy() for name, buf in self._cols.items()}
        state["task_sizes"] = list(self._task_sizes)
        state["max_task"] = self._max_task
        state["ascending"] = self.ascending
        return state

    @classmethod
    def from_state(cls, n_queues: int, state: dict) -> "IncrementalAssembler":
        """Rebuild a store from :meth:`snapshot_state` output.

        Raises
        ------
        IngestError
            ``corrupt snapshot`` when the task sizes do not cover the
            columns or two rows claim one (queue, counter).
        """
        store = cls(n_queues)
        cols = {
            name: np.array(state[name], dtype=dtype)
            for name, dtype in cls._DTYPES.items()
        }
        sizes = [int(k) for k in state["task_sizes"]]
        n = sum(sizes)
        if min(sizes, default=1) < 1 or any(c.shape != (n,) for c in cols.values()):
            raise IngestError(
                "corrupt snapshot: the task sizes do not cover the columns"
            )
        for q in range(store.n_queues):
            claimed = cols["counter"][cols["queue"] == q].tolist()
            store._claimed[q] = set(claimed)
            if len(store._claimed[q]) != len(claimed):
                raise IngestError(
                    "corrupt snapshot: two rows claim one (queue, counter) "
                    f"at queue {q}"
                )
        store._cols, store._n, store._task_sizes = cols, n, sizes
        store._max_task = state["max_task"]
        store.ascending = bool(state["ascending"])
        return store

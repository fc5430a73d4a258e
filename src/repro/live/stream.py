"""A :class:`~repro.online.streaming.TraceStream` fed by live ingestion.

:class:`LiveTraceStream` is the live counterpart of
:class:`~repro.online.streaming.ReplayTraceStream`: instead of replaying a
recorded trace it accumulates measurement records
(:mod:`repro.live.records`) as an instrumented system emits them, and
reveals tasks to the estimator only once their entry estimates can never
change again.  Three mechanisms make that honest under real traffic:

**Out-of-order buffer.**  Records land in any order; a task is held until
all of its events (``seq 0 .. k``, the ``last`` flag closing the range)
have arrived, and the assembled trace only ever contains the *contiguous
prefix* of queue-0 counters — a task whose entry counter is 7 cannot be
assembled while counter 6 is still in flight, because its position in the
entry order (which entry-time interpolation depends on) would be wrong.

**Watermark + lateness bound.**  The watermark is the stream's "no
measurement older than this is still coming" promise, advanced by the
reporting side (:meth:`advance_watermark`) and to infinity by
:meth:`seal`.  Records are admitted while their measured times are no
older than ``watermark - lateness``; anything older is a straggler —
counted, dropped, and its task purged (a partial task can never be
assembled).  Task reveal additionally waits for the watermark to pass the
task's entry estimate, so the horizon advances watermark-monotonically.

**Bounded-queue backpressure.**  At most ``max_pending`` records may sit
unassembled; ingestion beyond that raises
:class:`~repro.errors.IngestError` so a fast producer blocks/retries
instead of growing the buffer without bound.

**One columnar store + prefix compaction.**  Finalized tasks live in
one place, an :class:`~repro.live.records.IncrementalAssembler`:
finalizing a task appends its columns in O(task), and a window access
builds the trace from the retained columns with two sorts (rows by task
id, each queue's frozen order by event counter), cached until the store
changes — never a Python re-walk of history, and the same path whatever
order task ids finalize in.  With a ``retain`` horizon set,
:meth:`compact` folds tasks that are polled and older than every
reachable window into a :class:`CompactionSummary` (per-queue event
counts and service-time sufficient statistics) and evicts their rows, so
RSS, per-window trace cost, and the checkpointed columns are all bounded
by the retention horizon instead of growing with stream age.
Re-delivered records of compacted tasks count as duplicates, which is
sound because compaction runs only while task ids ascend in entry order;
a source whose ids do not keeps every task.

Equivalence contract (pinned by ``tests/live/test_stream.py`` and the
acceptance suite): ingesting a recorded task-id-major trace in order,
with no stragglers, and sealing yields a stream whose reveals, horizon,
and window sub-traces are **bitwise identical** to
:class:`~repro.online.streaming.ReplayTraceStream` over the same trace —
so live window estimates match the replay/windowed path exactly at the
same seed.

Finality argument (why a revealed entry estimate never changes): entry
times are interpolated by position between *anchors* — tasks whose first
real arrival was measured; anchor times are non-decreasing along the
entry order.  Within the contiguous assembled prefix every anchor is
known, interpolation between two anchors touches only those two anchors,
and later tasks only ever append positions after the prefix — so every
estimate at a position no later than the prefix's last anchor is final.
Positions beyond the last anchor would be clamped to it, a value a future
anchor *could* change, so they are revealed only by :meth:`seal`, which
is also when the clamp semantics become bitwise those of the replay
source.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro import telemetry
from repro.errors import IngestError, InvalidEventSetError
from repro.events.serialization import validate_measurement_record
from repro.events.subset import SubsetIndex, subset_trace
from repro.live.records import IncrementalAssembler, record_times
from repro.observation import ObservedTrace
from repro.online.streaming import TraceStream

_MEMORY_CONTAINERS = (
    "buffered_records", "retained_tasks", "retained_events",
    "reveal_positions", "ready_entries", "slot_entries", "resolved_slots",
    "dropped_tasks", "compacted_tasks", "compacted_events",
)


def _bind_stream_gauges(stream: "LiveTraceStream") -> None:
    """Bind the buffer gauges to *stream* (weakref-held, newest wins)."""
    telemetry.bind(stream, "repro_stream_watermark", attrgetter("watermark"))
    telemetry.bind(stream, "repro_stream_horizon", attrgetter("_horizon"))
    for key in _MEMORY_CONTAINERS:
        telemetry.bind(
            stream, "repro_stream_memory",
            lambda live, key=key: live.memory_stats()[key], container=key,
        )


def validate_stream_params(n_queues, lateness, max_pending, retain) -> None:
    """The live stream's parameter contract, shared by
    :class:`LiveTraceStream` and :class:`~repro.live.service.ServiceConfig`.
    Each message starts with the parameter it rejects."""
    if n_queues is None or n_queues < 2:
        raise IngestError(f"n_queues must include queue 0 plus real queues, got {n_queues}")
    if lateness < 0.0:
        raise IngestError(f"lateness must be >= 0, got {lateness}")
    if max_pending < 1:
        raise IngestError(f"max_pending must be >= 1, got {max_pending}")
    if retain is not None and retain < 0.0:
        raise IngestError(f"retain must be >= 0 or None, got {retain}")


@dataclass
class CompactionSummary:
    """What compaction keeps of the tasks it folds away.

    Enough to answer the monitoring questions the raw records answered —
    how much traffic each queue carried and its measured service-time
    moments — without the records themselves.  Sufficient statistics are
    over *measured* services only (``departure - max(arrival, d_rho)``
    where all inputs were observed); censored positions contribute to
    the event counts but not the moments.  Stream-level straggler /
    duplicate / late tallies are monotone counters on the stream itself
    and survive compaction untouched.
    """

    n_queues: int
    n_tasks: int = 0
    n_events: int = 0
    first_entry: float = float("inf")
    last_entry: float = -float("inf")
    events_per_queue: list[int] = field(default_factory=list)
    observed_services_per_queue: list[int] = field(default_factory=list)
    service_time_sum: list[float] = field(default_factory=list)
    service_time_sumsq: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name in (
            "events_per_queue", "observed_services_per_queue",
            "service_time_sum", "service_time_sumsq",
        ):
            if not getattr(self, name):
                zero = 0 if "events" in name or "observed" in name else 0.0
                setattr(self, name, [zero] * self.n_queues)

    def mean_service(self, q: int) -> float:
        """Measured mean service time at queue *q* over compacted tasks."""
        n = self.observed_services_per_queue[q]
        return float("nan") if n == 0 else self.service_time_sum[q] / n

    def to_dict(self) -> dict:
        return {
            "n_queues": self.n_queues,
            "n_tasks": self.n_tasks,
            "n_events": self.n_events,
            "first_entry": self.first_entry,
            "last_entry": self.last_entry,
            "events_per_queue": list(self.events_per_queue),
            "observed_services_per_queue": list(
                self.observed_services_per_queue
            ),
            "service_time_sum": list(self.service_time_sum),
            "service_time_sumsq": list(self.service_time_sumsq),
        }

    @classmethod
    def from_dict(cls, state: dict) -> "CompactionSummary":
        return cls(**state)


class LiveTraceStream(TraceStream):
    """An incrementally revealed trace fed by :meth:`ingest`.

    Parameters
    ----------
    n_queues:
        Queue count of the monitored network (queue 0 is the entry queue,
        as everywhere in this package).
    lateness:
        Grace interval behind the watermark within which measurements are
        still admitted (counted as *late*); anything older is a straggler
        and is dropped together with its task.
    max_pending:
        Bound on buffered (not yet assembled) records — the backpressure
        threshold.
    retain:
        History retention horizon: how far behind the watermark
        finalized tasks are kept once polled.  ``None`` (default) keeps
        everything — the sealed-batch behavior.  With a value set,
        :meth:`compact` folds tasks whose entry is older than both
        ``watermark - retain`` and the caller's reachability bound into
        a :class:`CompactionSummary` and evicts their rows, bounding
        memory and checkpoint size for an always-on stream.  Compaction
        needs task ids that ascend in entry order; once an id finalizes
        below an earlier one, every task is kept from then on.
    """

    #: Every count the stream reports, named once (see
    #: :class:`repro.telemetry.Counts`): ``health`` key and attribute ->
    #: metric series.  The attributes are the only place these are kept;
    #: a snapshot carries them, so a restored stream resumes its series.
    COUNTS = telemetry.Counts(
        n_revealed="repro_stream_tasks_revealed_total",
        n_pending=None,
        n_admitted="repro_stream_records_admitted_total",
        n_duplicates="repro_stream_records_duplicate_total",
        n_late="repro_stream_records_late_total",
        n_stragglers="repro_stream_records_straggler_total",
        n_dropped_tasks="repro_stream_tasks_dropped_total",
        n_retained_tasks=None,
        n_compacted_tasks="repro_stream_tasks_compacted_total",
        n_compacted_events="repro_stream_events_compacted_total",
    )

    def __init__(
        self,
        n_queues: int,
        lateness: float = 0.0,
        max_pending: int = 100_000,
        retain: float | None = None,
    ) -> None:
        validate_stream_params(n_queues, lateness, max_pending, retain)
        self.n_queues = int(n_queues)
        self.lateness = float(lateness)
        self.max_pending = int(max_pending)
        self.retain = None if retain is None else float(retain)
        self._lock = threading.RLock()
        self._progress = threading.Condition(self._lock)
        # Out-of-order buffer: task -> seq -> record, plus the expected
        # event count once the `last` record has arrived.
        self._buffer: dict[int, dict[int, dict]] = {}
        self._expected: dict[int, int] = {}
        self._n_buffered = 0
        # Queue-0 counter bookkeeping: slot -> task, and the resolved
        # ("final" / "dropped") prefix the assembled trace is built from.
        self._slot_task: dict[int, int] = {}
        self._resolved: dict[int, str] = {}
        self._next_slot = 0
        self._final_slots: dict[int, int] = {}  # retained task -> entry slot
        self._dropped_tasks: set[int] = set()
        # Watermark state.
        self._watermark = -np.inf
        self._sealed = False
        # The one store of finalized (retained) tasks: their assembled
        # columns, from which the trace is built and cached per version.
        self._assembler = IncrementalAssembler(self.n_queues)
        # Compaction state: reveal positions folded away so far (one per
        # evicted task), the highest evicted task id (the duplicate
        # cutoff for re-deliveries), the entry slots swept, and the
        # running summary.
        self._compacted_upto = 0
        self._compacted_hwm: int | None = None
        self._compacted_slot_upto = 0
        self._summary: CompactionSummary | None = None
        self.n_compacted_events = 0
        # Reveal state.  Entry estimation works on two append-only
        # columns maintained at finalize time — the task sequence in
        # entry order and each task's anchor (its first real arrival,
        # when measured; nan otherwise) — so per-batch reveal work is one
        # C-speed interpolation, not a Python trace rebuild.  The
        # interpolation is the same ``np.interp`` call (same positions,
        # same anchors) `_entry_time_estimates` makes over the assembled
        # trace, so revealed values stay bitwise the replay source's.
        # Compaction trims the columns' prefix (tracked by the offsets
        # below); the trim keeps the left interpolation anchor, so
        # future values stay bitwise the untrimmed ones.
        self._reveal_tasks: list[int] = []
        self._reveal_anchors: list[float] = []
        self._reveal_offset = 0  # trimmed reveal-column positions
        self._entry_values: np.ndarray | None = None
        self._ready: list[tuple[int, float]] = []
        self._ready_offset = 0  # trimmed (compacted) ready positions
        self._ready_upto = 0  # entry-prefix positions already revealed
        self._cursor = 0
        self._horizon = 0.0  # last revealed entry (survives trimming)
        # Admission counts (see COUNTS).
        self.n_admitted = 0
        self.n_duplicates = 0
        self.n_late = 0
        self.n_stragglers = 0
        self.n_dropped_tasks = 0
        self.COUNTS.bind(self)
        _bind_stream_gauges(self)

    # ------------------------------------------------------------------
    # Ingestion API.
    # ------------------------------------------------------------------

    def ingest(self, records: list[dict]) -> dict:
        """Admit a batch of measurement records; returns admission counts.

        Idempotent under at-least-once delivery: records for tasks already
        assembled (or already in the buffer) are counted as duplicates and
        ignored, so a client may safely retry a batch after a timeout or a
        server restart.

        Raises
        ------
        IngestError
            If the stream is sealed, if admitting the batch would exceed
            ``max_pending`` buffered records (backpressure — retry after
            the assembler drains), or if a record is malformed or
            conflicts with an already admitted one.
        """
        reg = telemetry.get_registry()
        reg.counter("repro_stream_ingest_batches_total").inc()
        if not reg.enabled:
            return self._ingest_locked(records)
        t_start = time.perf_counter()
        try:
            return self._ingest_locked(records)
        finally:
            reg.histogram("repro_stream_ingest_batch_seconds").observe(
                time.perf_counter() - t_start
            )

    def _ingest_locked(self, records: list[dict]) -> dict:
        summary = {
            "admitted": 0, "duplicates": 0, "late": 0,
            "stragglers": 0, "dropped_tasks": 0,
        }
        with self._lock:
            if self._sealed:
                raise IngestError("the stream is sealed; no more records")
            # Validate the whole batch first: a malformed record admits
            # nothing, so the caller's record count stays exact.
            batch = []
            for i, raw in enumerate(records):
                try:
                    record = validate_measurement_record(raw)
                except InvalidEventSetError as exc:
                    raise IngestError(f"record {i}: {exc}") from None
                if record["queue"] >= self.n_queues:
                    raise IngestError(
                        f"record {i} (task {record['task']}) references "
                        f"queue {record['queue']} but the stream serves "
                        f"n_queues={self.n_queues}"
                    )
                batch.append(record)
            try:
                for record in batch:
                    self._admit(record, summary)
            finally:
                # Assemble even when the batch aborted mid-way (e.g. on
                # backpressure): records admitted before the error must
                # still drain the buffer, or a full buffer could never
                # empty and retries would livelock.  Resolved entry slots
                # (a dropped task's late seq-0 record) count as progress
                # too — they can unblock the whole prefix.
                if (
                    summary["admitted"]
                    or summary["dropped_tasks"]
                    or summary.get("resolved_slots")
                ):
                    self._advance_prefix()
                    self._advance_reveal()
                    self._progress.notify_all()
            return summary

    def _admit(self, record: dict, summary: dict) -> None:
        task = record["task"]
        if task in self._dropped_tasks:
            summary["stragglers"] += 1
            self.n_stragglers += 1
            if record["seq"] == 0:
                # The task was dropped before its entry record arrived;
                # resolve the slot now or the prefix would stall on the
                # hole forever (no seal on an always-on stream).
                if self._resolved.setdefault(record["counter"], "dropped") == "dropped":
                    summary["resolved_slots"] = summary.get("resolved_slots", 0) + 1
            return
        if task in self._final_slots or (
            task in self._buffer and record["seq"] in self._buffer[task]
        ):
            summary["duplicates"] += 1
            self.n_duplicates += 1
            return
        if (
            self._compacted_hwm is not None
            and task <= self._compacted_hwm
            and task not in self._buffer
        ):
            # At or below the compaction high-water mark this can only be
            # a re-delivery: task ids are monotone in entry order on the
            # compaction path, and compaction only ever evicts a fully
            # finalized prefix — every genuinely new task sits above the
            # mark.  (Late records of long-dropped tasks whose drop entry
            # was itself compacted land here too; they are equally dead.)
            summary["duplicates"] += 1
            self.n_duplicates += 1
            return
        times = record_times(record)
        cutoff = self._watermark - self.lateness
        if any(t < cutoff for t in times):
            if self._would_complete(task, record):
                # Assemble-then-check: the record is older than the
                # cutoff, but it is the task's *final* missing piece — a
                # fully buffered task one step from assembly must not be
                # purged at the boundary.  Admit it as late; the task
                # finalizes in this very batch.
                summary["late"] += 1
                self.n_late += 1
            else:
                # Straggler: too old to ever be admitted, and the task
                # stays incomplete — it can no longer be assembled, so
                # purge everything it buffered.
                summary["stragglers"] += 1
                self.n_stragglers += 1
                self._drop_task(task, summary)
                return
        elif any(t < self._watermark for t in times):
            summary["late"] += 1
            self.n_late += 1
        if task not in self._buffer and self._n_buffered >= self.max_pending:
            # Backpressure applies to records *opening* tasks; records
            # completing already-buffered tasks are always admitted (they
            # are what lets the assembler drain the buffer at all).
            raise IngestError(
                f"ingest buffer full ({self.max_pending} pending records); "
                "backpressure — retry once the assembler drains"
            )
        per_task = self._buffer.setdefault(task, {})
        if record["last"]:
            expected = record["seq"] + 1
            prior = self._expected.get(task)
            if prior is not None and prior != expected:
                raise IngestError(
                    f"task {task}: conflicting `last` records claim "
                    f"{prior} and {expected} events"
                )
            # Retro-check records that landed before the `last` one did:
            # with every buffered seq proven < expected, a count match is
            # a completeness proof (keys are unique), so an out-of-order
            # seq-gap task can never pass the gate and poison assembly.
            stale = sorted(s for s in per_task if s >= expected)
            if stale:
                raise IngestError(
                    f"task {task}: buffered records at seq {stale} lie "
                    f"beyond the declared last event (seq {expected - 1})"
                )
            self._expected[task] = expected
        expected = self._expected.get(task)
        if expected is not None and record["seq"] >= expected:
            raise IngestError(
                f"task {task}: record seq {record['seq']} beyond the "
                f"declared last event (seq {expected - 1})"
            )
        if record["seq"] == 0:
            slot = record["counter"]
            owner = self._slot_task.get(slot)
            if owner is not None and owner != task:
                raise IngestError(
                    f"entry counter {slot} claimed by tasks {owner} and "
                    f"{task}: the reporting side is emitting corrupt counters"
                )
            self._slot_task[slot] = task
        per_task[record["seq"]] = record
        self._n_buffered += 1
        self.n_admitted += 1
        summary["admitted"] += 1

    def _would_complete(self, task: int, record: dict) -> bool:
        """Whether admitting *record* completes *task* (every event
        buffered, event count known) — the straggler purge's
        assemble-then-check gate."""
        per = self._buffer.get(task)
        expected = self._expected.get(task)
        if record["last"]:
            claimed = record["seq"] + 1
            if expected is not None and expected != claimed:
                return False  # conflicting `last` claims; not completable
            expected = claimed
        if expected is None:
            return False  # event count unknown: cannot be the last piece
        if per is None:
            # No buffered siblings: complete only as a single-event task.
            return expected == 1 and record["seq"] == 0
        if record["seq"] >= expected or any(s >= expected for s in per):
            return False  # seq beyond the declared range: malformed
        return record["seq"] not in per and len(per) + 1 == expected

    def _drop_task(self, task: int, summary: dict) -> None:
        """Purge a task that can no longer be assembled."""
        dropped = self._buffer.pop(task, {})
        self._n_buffered -= len(dropped)
        self._expected.pop(task, None)
        self._dropped_tasks.add(task)
        self.n_dropped_tasks += 1
        summary["dropped_tasks"] += 1
        # The task's entry slot is its buffered seq-0 record's counter —
        # a slot only ever enters _slot_task at seq-0 admission, so there
        # is nothing to resolve when that record has not arrived yet (the
        # dropped-task branch of _admit resolves it on late arrival).
        seq0 = dropped.get(0)
        if seq0 is not None:
            self._resolved[seq0["counter"]] = "dropped"

    def advance_watermark(self, t: float) -> float:
        """Promise that no measurement older than *t* is still coming.

        Monotone (an older watermark is ignored); advancing it both arms
        the straggler cutoff for future records and lets reveals catch up
        to tasks whose entry estimates it passed.  Returns the watermark
        now in force.
        """
        with self._lock:
            t = float(t)
            if t > self._watermark:
                self._watermark = t
                self._advance_reveal()
                self._progress.notify_all()
            return self._watermark

    def seal(self) -> dict:
        """End of input: finalize everything that can be, drop the rest.

        Sets the watermark to infinity, drops still-incomplete buffered
        tasks (counted), resolves their entry slots, and reveals every
        assembled task — from here the stream behaves exactly like a
        :class:`~repro.online.streaming.ReplayTraceStream` over the
        assembled trace.  Idempotent.
        """
        with self._lock:
            if self._sealed:
                return {"dropped_tasks": 0}
            self._sealed = True
            self._watermark = np.inf
            summary = {"dropped_tasks": 0}
            for task in list(self._buffer):
                # Complete tasks merely blocked behind a hole in the entry
                # prefix are kept — resolving the holes below lets them
                # assemble; only genuinely partial tasks are unbuildable.
                if not self._task_complete(task):
                    self._drop_task(task, summary)
            # Entry slots below the highest known one whose seq-0 record
            # never arrived can no longer be filled: resolve them as
            # dropped so complete tasks behind the hole still assemble.
            if self._slot_task:
                for slot in range(self._next_slot, max(self._slot_task)):
                    if slot not in self._slot_task and slot not in self._resolved:
                        self._resolved[slot] = "dropped"
                        self.n_dropped_tasks += 1
                        summary["dropped_tasks"] += 1
            self._advance_prefix()
            self._advance_reveal()
            self._progress.notify_all()
            return summary

    @property
    def sealed(self) -> bool:
        """Whether :meth:`seal` has been called."""
        return self._sealed

    @property
    def watermark(self) -> float:
        """The watermark currently in force."""
        return self._watermark

    @property
    def n_pending(self) -> int:
        """Records buffered but not yet assembled (the backpressure gauge)."""
        with self._lock:
            return self._n_buffered

    def health(self) -> dict:
        """The stream's section of a ``health`` record."""
        return {
            "watermark": float(self.watermark),
            "sealed": self.sealed,
            **self.COUNTS.read(self),
        }

    def wait_for_progress(self, timeout: float | None = None) -> None:
        """Block until ingestion/watermark/seal makes progress (or timeout)."""
        with self._progress:
            self._progress.wait(timeout)

    # ------------------------------------------------------------------
    # Assembly: completeness -> contiguous prefix -> reveal.
    # ------------------------------------------------------------------

    def _task_complete(self, task: int) -> bool:
        expected = self._expected.get(task)
        if expected is None:
            return False
        return len(self._buffer.get(task, ())) == expected

    def _advance_prefix(self) -> None:
        """Resolve queue-0 slots in order; assemble completed tasks."""
        while True:
            slot = self._next_slot
            if self._resolved.get(slot) == "dropped":
                self._next_slot += 1
                continue
            task = self._slot_task.get(slot)
            if task is None or not self._task_complete(task):
                return
            records = self._buffer.pop(task)
            self._n_buffered -= len(records)
            self._expected.pop(task)
            ordered = [records[s] for s in sorted(records)]
            self._final_slots[task] = slot
            self._resolved[slot] = "final"
            self._next_slot += 1
            self._assembler.append(ordered)
            self._append_reveal_columns(task, ordered)

    def _built(self) -> tuple[ObservedTrace, SubsetIndex]:
        """The trace (and its subset index) over the retained tasks."""
        if self._assembler.n_events == 0:
            raise IngestError(
                "no task has been fully ingested yet; the stream has no "
                "trace to expose"
            )
        return self._assembler.build()

    def _append_reveal_columns(self, task: int, ordered: list[dict]) -> None:
        """Extend the entry-order reveal columns for one finalized task.

        The anchor is the task's first real arrival when it was measured
        — exactly the events `_entry_time_estimates` anchors interpolation
        on (a queue-0 event's successor arrival equals the entry time by
        the ``a_e = d_{pi(e)}`` identity).
        """
        anchor = np.nan
        if len(ordered) > 1 and ordered[1]["arrival"] is not None:
            anchor = float(ordered[1]["arrival"])
        self._reveal_tasks.append(int(task))
        self._reveal_anchors.append(anchor)
        self._entry_values = None  # interpolation inputs grew

    def _advance_reveal(self) -> None:
        """Append newly *final* entry estimates to the reveal list."""
        total = self._reveal_offset + len(self._reveal_tasks)
        if self._ready_upto >= total:
            return
        anchors = np.asarray(self._reveal_anchors, dtype=float)
        known = np.flatnonzero(~np.isnan(anchors))
        if known.size == 0:
            return
        if self._entry_values is None or self._entry_values.size != anchors.size:
            # The same interpolation `_entry_time_estimates` runs over the
            # assembled trace: positions in entry order, anchored where
            # the first real arrival was observed — bitwise identical.
            # After compaction the positions are shifted by the trimmed
            # prefix; integer-valued positions subtract exactly in
            # floating point and the trim keeps the left anchor, so the
            # interpolated values stay bitwise the untrimmed ones.
            positions = np.arange(anchors.size, dtype=float)
            self._entry_values = np.interp(
                positions, positions[known], anchors[known]
            )
        if self._sealed:
            final_upto = total  # clamp semantics are final now
        else:
            final_upto = self._reveal_offset + int(known.max()) + 1
        for pos in range(self._ready_upto, final_upto):
            entry = float(self._entry_values[pos - self._reveal_offset])
            if not self._sealed and entry > self._watermark:
                final_upto = pos
                break
            self._ready.append(
                (self._reveal_tasks[pos - self._reveal_offset], entry)
            )
            self._horizon = entry
        self._ready_upto = max(self._ready_upto, final_upto)

    # ------------------------------------------------------------------
    # TraceStream contract.
    # ------------------------------------------------------------------

    @property
    def trace(self) -> ObservedTrace:
        with self._lock:
            return self._built()[0]

    @property
    def horizon(self) -> float:
        with self._lock:
            return self._horizon

    @property
    def n_revealed(self) -> int:
        """Tasks handed out by :meth:`poll` so far (compacted included)."""
        with self._lock:
            return self._cursor

    def poll(self, until: float) -> list[tuple[int, float]]:
        with self._lock:
            out: list[tuple[int, float]] = []
            total = self._ready_offset + len(self._ready)
            while (
                self._cursor < total
                and self._ready[self._cursor - self._ready_offset][1] < until
            ):
                out.append(self._ready[self._cursor - self._ready_offset])
                self._cursor += 1
        return out

    def subset(self, task_ids) -> ObservedTrace:
        with self._lock:
            trace, index = self._built()
            if self._compacted_hwm is not None:
                gone = sorted(
                    t
                    for t in {int(t) for t in task_ids}
                    if t <= self._compacted_hwm and t not in self._final_slots
                )
                if gone:
                    raise IngestError(
                        f"tasks {gone} were compacted past the retention "
                        f"horizon (retain={self.retain}); windows may only "
                        "subset tasks inside the retained tail"
                    )
            return subset_trace(trace, task_ids, index=index)

    def exhausted(self) -> bool:
        with self._lock:
            return (
                self._sealed
                and self._cursor >= self._ready_offset + len(self._ready)
                and not self._buffer
            )

    # ------------------------------------------------------------------
    # Prefix compaction.
    # ------------------------------------------------------------------

    @property
    def n_compacted_tasks(self) -> int:
        """Tasks folded into the compaction summary so far."""
        return self._compacted_upto

    @property
    def n_retained_tasks(self) -> int:
        """Finalized tasks whose columns are still held."""
        with self._lock:
            return self._assembler.n_tasks

    @property
    def compaction(self) -> CompactionSummary | None:
        """Aggregate statistics of compacted tasks (None before any)."""
        with self._lock:
            return self._summary

    def compact(self, before: float | None = None) -> dict:
        """Fold away polled tasks no reachable window can touch again.

        A task is evictable when it has been *polled* (the estimator saw
        it), its entry estimate is older than ``watermark - retain``, and
        — when *before* is given (the streaming estimator passes its next
        window start) — older than *before* too.  Evictable tasks form a
        prefix of the finalize order; their per-queue event counts and
        measured service-time moments are folded into
        :attr:`compaction`, and their rows leave the assembled columns
        (and therefore every future checkpoint).  The newest finalized
        task is always retained so the stream keeps a valid trace.

        No-op without a ``retain`` horizon, and once task ids have
        finalized out of ascending order (the re-delivery cutoff, a task
        id high-water mark, would be unsound; every task is kept).
        Returns ``{"compacted_tasks": k, "compacted_events": m}`` for
        this call.
        """
        with self._lock:
            out = {"compacted_tasks": 0, "compacted_events": 0}
            if self.retain is None or not self._assembler.ascending:
                return out
            limit = self._watermark - self.retain
            if before is not None:
                limit = min(limit, float(before))
            total_final = self._reveal_offset + len(self._reveal_tasks)
            # Walk the evictable prefix: polled, older than the limit,
            # and never the newest finalized task.
            p = self._compacted_upto
            stop = min(self._cursor, total_final - 1)
            while (
                p < stop and self._ready[p - self._ready_offset][1] < limit
            ):
                p += 1
            k = p - self._compacted_upto
            if k == 0:
                return out
            m = self._assembler.prefix_events(k)
            self._fold_summary(self._built()[0], k, m, p)
            evicted = [
                self._reveal_tasks[pos - self._reveal_offset]
                for pos in range(self._compacted_upto, p)
            ]
            for task in evicted:
                slot = self._final_slots.pop(task)
                self._slot_task.pop(slot, None)
                self._resolved.pop(slot, None)
            self._compacted_hwm = evicted[-1]
            # Sweep every entry slot below the first retained finalized
            # task's: each is an evicted task's or a dropped hole no
            # legitimate record can revisit (re-deliveries die at the
            # high-water mark above).
            next_task = self._reveal_tasks[p - self._reveal_offset]
            slot_upto = self._final_slots[next_task]
            for slot in range(self._compacted_slot_upto, slot_upto):
                self._slot_task.pop(slot, None)
                self._resolved.pop(slot, None)
            self._compacted_slot_upto = max(self._compacted_slot_upto, slot_upto)
            hwm = self._compacted_hwm
            self._dropped_tasks = {t for t in self._dropped_tasks if t > hwm}
            self._assembler.evict(k)
            self._compacted_upto = p
            self.n_compacted_events += m
            # Trim the ready list to the folded prefix (poll never
            # revisits positions below the cursor, and compaction only
            # ever folds polled ones).
            del self._ready[: p - self._ready_offset]
            self._ready_offset = p
            # Trim the reveal columns — but never past the last known
            # anchor at or below the revealed frontier: it is the left
            # interpolation anchor of every future reveal, and dropping
            # it would change (break finality of) future entry values.
            anchors = np.asarray(self._reveal_anchors, dtype=float)
            known = np.flatnonzero(~np.isnan(anchors)) + self._reveal_offset
            eligible = known[known <= self._ready_upto]
            trim_to = min(int(eligible.max()), p) if eligible.size else 0
            if trim_to > self._reveal_offset:
                cut = trim_to - self._reveal_offset
                del self._reveal_tasks[:cut]
                del self._reveal_anchors[:cut]
                self._reveal_offset = trim_to
                self._entry_values = None
            return {"compacted_tasks": k, "compacted_events": m}

    def _fold_summary(
        self, trace: ObservedTrace, k: int, m: int, p_end: int
    ) -> None:
        """Accumulate the first *m* rows (*k* tasks) into the summary."""
        sk = trace.skeleton
        services = sk.service_times()[:m]
        queues = sk.queue[:m]
        valid = ~np.isnan(services)
        counts = np.bincount(queues, minlength=self.n_queues)
        n_obs = np.bincount(queues[valid], minlength=self.n_queues)
        s_sum = np.bincount(
            queues[valid], weights=services[valid], minlength=self.n_queues
        )
        s_sq = np.bincount(
            queues[valid], weights=services[valid] ** 2,
            minlength=self.n_queues,
        )
        if self._summary is None:
            self._summary = CompactionSummary(n_queues=self.n_queues)
        s = self._summary
        s.n_tasks += k
        s.n_events += m
        first = self._ready[self._compacted_upto - self._ready_offset][1]
        last = self._ready[p_end - 1 - self._ready_offset][1]
        s.first_entry = min(s.first_entry, first)
        s.last_entry = max(s.last_entry, last)
        for q in range(self.n_queues):
            s.events_per_queue[q] += int(counts[q])
            s.observed_services_per_queue[q] += int(n_obs[q])
            s.service_time_sum[q] += float(s_sum[q])
            s.service_time_sumsq[q] += float(s_sq[q])

    def memory_stats(self) -> dict:
        """Sizes of every growable container (the soak test's RSS proxy).

        With a retention horizon and an advancing watermark each of these
        is bounded; without one, ``retained_tasks`` / ``retained_events``
        / ``ready_entries`` grow with the stream — exactly the unbounded
        history this PR's compaction exists to cut.
        """
        with self._lock:
            return {
                "buffered_records": self._n_buffered,
                "retained_tasks": self._assembler.n_tasks,
                "retained_events": self._assembler.n_events,
                "reveal_positions": len(self._reveal_tasks),
                "ready_entries": len(self._ready),
                "slot_entries": len(self._slot_task),
                "resolved_slots": len(self._resolved),
                "dropped_tasks": len(self._dropped_tasks),
                "compacted_tasks": self._compacted_upto,
                "compacted_events": self.n_compacted_events,
            }

    # ------------------------------------------------------------------
    # Checkpointing.
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Everything needed to rebuild this stream after a restart.

        Plain picklable containers and arrays only.  The snapshot
        carries the assembled columns, and the trace built from them is
        the same deterministic function of the columns after a restore,
        which is what makes restored window estimates bitwise identical.
        With compaction the columns hold only the retained tail (the
        compacted prefix ships as its summary plus the trimmed reveal
        columns), so the snapshot is bounded by the retention horizon
        instead of stream age.
        """
        with self._lock:
            return {
                "version": 3,
                "n_queues": self.n_queues,
                "lateness": self.lateness,
                "max_pending": self.max_pending,
                "retain": self.retain,
                "watermark": float(self._watermark),
                "sealed": self._sealed,
                "buffer": {t: dict(v) for t, v in self._buffer.items()},
                "expected": dict(self._expected),
                "slot_task": dict(self._slot_task),
                "resolved": dict(self._resolved),
                "next_slot": self._next_slot,
                "columns": self._assembler.snapshot_state(),
                "dropped_tasks": sorted(self._dropped_tasks),
                "n_polled": self._cursor,
                "reveal_offset": self._reveal_offset,
                "reveal_tasks": list(self._reveal_tasks),
                "reveal_anchors": list(self._reveal_anchors),
                "ready_offset": self._ready_offset,
                "ready": list(self._ready),
                "ready_upto": self._ready_upto,
                "horizon": self._horizon,
                "compacted_upto": self._compacted_upto,
                "compacted_hwm": self._compacted_hwm,
                "compacted_slot_upto": self._compacted_slot_upto,
                "n_compacted_events": self.n_compacted_events,
                "compaction_summary": (
                    None if self._summary is None else self._summary.to_dict()
                ),
                "counters": {
                    "n_admitted": self.n_admitted,
                    "n_duplicates": self.n_duplicates,
                    "n_late": self.n_late,
                    "n_stragglers": self.n_stragglers,
                    "n_dropped_tasks": self.n_dropped_tasks,
                },
            }

    @classmethod
    def from_state(cls, state: dict) -> "LiveTraceStream":
        """Rebuild a stream from :meth:`snapshot_state` output.

        The assembled columns and reveal state are restored verbatim,
        and the poll cursor returns to where the snapshot left it — so
        the next :meth:`poll` hands the estimator exactly the tasks it
        had not yet consumed.  Only the current snapshot version (3) is
        accepted.
        """
        version = state.get("version")
        if version != 3:
            raise IngestError(
                f"unrecognized stream snapshot version: {version!r}"
            )
        try:
            return cls._restore(state)
        except KeyError as exc:
            raise IngestError(
                f"corrupt snapshot: missing field {exc.args[0]!r}"
            ) from None

    @classmethod
    def _restore(cls, state: dict) -> "LiveTraceStream":
        stream = cls(
            n_queues=state["n_queues"],
            lateness=state["lateness"],
            max_pending=state["max_pending"],
            retain=state["retain"],
        )
        stream._watermark = state["watermark"]
        stream._sealed = state["sealed"]
        stream._buffer = {
            int(t): {int(s): r for s, r in v.items()}
            for t, v in state["buffer"].items()
        }
        stream._n_buffered = sum(len(v) for v in stream._buffer.values())
        stream._expected = {int(t): int(n) for t, n in state["expected"].items()}
        stream._slot_task = {int(s): int(t) for s, t in state["slot_task"].items()}
        stream._resolved = {int(s): v for s, v in state["resolved"].items()}
        stream._next_slot = int(state["next_slot"])
        stream._assembler = IncrementalAssembler.from_state(
            stream.n_queues, state["columns"]
        )
        stream._dropped_tasks = set(state["dropped_tasks"])
        for name, value in state["counters"].items():
            setattr(stream, name, int(value))
        stream._final_slots = {
            task: slot
            for slot, task in stream._slot_task.items()
            if stream._resolved.get(slot) == "final"
        }
        n_polled = int(state["n_polled"])
        stream._reveal_offset = int(state["reveal_offset"])
        stream._reveal_tasks = [int(t) for t in state["reveal_tasks"]]
        stream._reveal_anchors = [float(a) for a in state["reveal_anchors"]]
        stream._ready_offset = int(state["ready_offset"])
        stream._ready = [(int(t), float(e)) for t, e in state["ready"]]
        stream._ready_upto = int(state["ready_upto"])
        stream._horizon = float(state["horizon"])
        stream._compacted_upto = int(state["compacted_upto"])
        hwm = state["compacted_hwm"]
        stream._compacted_hwm = None if hwm is None else int(hwm)
        stream._compacted_slot_upto = int(state["compacted_slot_upto"])
        stream.n_compacted_events = int(state["n_compacted_events"])
        summary = state["compaction_summary"]
        if summary is not None:
            stream._summary = CompactionSummary.from_dict(summary)
        # Integrity: every retained (non-compacted) reveal position must
        # be backed by its task's rows.
        start = stream._compacted_upto - stream._reveal_offset
        retained = np.asarray(stream._reveal_tasks[start:], dtype=np.int64)
        if not np.isin(retained, stream._assembler.task_ids).all():
            raise IngestError(
                "corrupt snapshot: revealed tasks have no rows in the "
                "assembled columns"
            )
        stream._advance_reveal()
        if n_polled > stream._ready_offset + len(stream._ready):
            raise IngestError(
                f"corrupt snapshot: {n_polled} tasks were polled but only "
                f"{stream._ready_offset + len(stream._ready)} are revealable "
                "from the snapshot"
            )
        stream._cursor = n_polled
        return stream

"""Million-record soak: acceptance for the unbounded-history bugfix.

One always-on stream ingests ~1M synthetic measurement records (a
3-queue tandem shape, one task every ``DT`` clock units) with a
retention horizon set, driving the exact per-batch cycle a live
deployment runs: ingest -> watermark -> poll -> trace access ->
compact.  The assertions are the PR's acceptance criteria:

* **flat per-batch latency** — the steady-state tail is no slower than
  the early batches (no O(history) trend in assembly or reveal);
* **bounded memory** — every growable container plateaus at the
  retention horizon's size, independent of how many tasks flowed
  through;
* **bounded checkpoints** — snapshot size plateaus instead of growing
  with stream age;
* **bitwise windows** — sampled windows subset from the stream's
  columnar store are bitwise `subset_trace` of the generated source
  trace.

Scale with ``REPRO_SOAK_TASKS`` (3 records per task; the default is a
million-record stream).
"""

import os
import pickle
import time

import numpy as np
import pytest

from repro.events import EventSet
from repro.events.subset import subset_trace
from repro.live import LiveTraceStream
from repro.observation import ObservedTrace

pytestmark = pytest.mark.slow

N_TASKS = int(os.environ.get("REPRO_SOAK_TASKS", "334000"))
BATCH = 1000  # tasks per ingest batch
DT = 0.01  # entry spacing: one batch spans 10 clock units
RETAIN = 50.0  # retention horizon ~= 5000 tasks


def make_batch(start_task: int, t0: float) -> list[dict]:
    records = []
    for i in range(BATCH):
        task = start_task + i
        entry = t0 + i * DT
        records.append(
            {"task": task, "seq": 0, "queue": 0, "counter": task}
        )
        records.append(
            {"task": task, "seq": 1, "queue": 1, "counter": task,
             "arrival": entry}
        )
        records.append(
            {"task": task, "seq": 2, "queue": 2, "counter": task,
             "arrival": entry + 0.4, "departure": entry + 0.9,
             "last": True}
        )
    return records


def source_trace(records: list[dict]) -> ObservedTrace:
    """The generator's own trace of task-major *records*: every arrival
    measured, inner departures equal to the next event's arrival, only
    last departures measured, and every queue in counter (= task) order."""
    task = np.array([r["task"] for r in records])
    queue = np.array([r["queue"] for r in records])
    arrival = np.array([r.get("arrival", 0.0) for r in records])
    last = np.array([r.get("last", False) for r in records])
    departure = np.where(
        last, [r.get("departure", np.nan) for r in records],
        np.roll(arrival, -1),
    )
    skeleton = EventSet(
        task=task,
        seq=np.array([r["seq"] for r in records]),
        queue=queue,
        arrival=arrival,
        departure=departure,
        n_queues=3,
        queue_order=[np.flatnonzero(queue == q) for q in range(3)],
    )
    return ObservedTrace(
        skeleton=skeleton,
        arrival_observed=np.ones(task.size, dtype=bool),
        departure_observed=last,
    )


def assert_window_bitwise(got, ref):
    np.testing.assert_array_equal(got.skeleton.task, ref.skeleton.task)
    np.testing.assert_array_equal(got.skeleton.arrival, ref.skeleton.arrival)
    np.testing.assert_array_equal(
        got.skeleton.departure, ref.skeleton.departure
    )
    np.testing.assert_array_equal(got.arrival_observed, ref.arrival_observed)
    np.testing.assert_array_equal(
        got.departure_observed, ref.departure_observed
    )
    for q in range(got.skeleton.n_queues):
        np.testing.assert_array_equal(
            got.skeleton.queue_order(q), ref.skeleton.queue_order(q)
        )


def test_million_record_stream_stays_flat_and_bounded():
    stream = LiveTraceStream(n_queues=3, retain=RETAIN)
    n_batches = N_TASKS // BATCH
    assert n_batches >= 20, "set REPRO_SOAK_TASKS to at least 20000"
    sample_every = max(10, n_batches // 4)
    batch_seconds = []
    snapshot_sizes = []
    recent_polled: list[tuple[int, float]] = []
    recent_records: list[dict] = []
    t = 0.0
    for b in range(n_batches):
        records = make_batch(b * BATCH, t)
        recent_records = recent_records[-BATCH * 3:] + records
        start = time.perf_counter()
        stream.ingest(records)
        t += BATCH * DT
        stream.advance_watermark(t)
        polled = stream.poll(t)
        stream.trace  # the per-window assembly access
        stream.compact()
        batch_seconds.append(time.perf_counter() - start)
        recent_polled = (recent_polled + polled)[-200:]
        if (b + 1) % sample_every == 0:
            snapshot_sizes.append(
                len(pickle.dumps(stream.snapshot_state()))
            )
            # Bitwise windows: a recent window subset from the stream
            # vs. the same window of the generated source trace.
            held = set(stream.trace.skeleton.task_ids)
            tasks = [task for task, _ in recent_polled if task in held]
            assert len(tasks) >= 100  # recency keeps them retained
            got = stream.subset(tasks)
            source = source_trace(recent_records)
            assert_window_bitwise(got, subset_trace(source, tasks))
    # Flat latency: the steady-state tail is no slower than the early
    # (post-warmup) batches — an O(history) regression would make the
    # tail grow with every batch, far past any constant factor.
    warm = batch_seconds[max(2, n_batches // 10): n_batches // 4]
    tail = batch_seconds[-(n_batches // 4):]
    assert float(np.median(tail)) < 4.0 * float(np.median(warm))
    # Bounded memory: every container plateaus near the horizon size.
    horizon_tasks = RETAIN / DT + BATCH
    stats = stream.memory_stats()
    assert stats["buffered_records"] == 0
    assert stats["retained_tasks"] <= 2 * horizon_tasks
    assert stats["retained_events"] <= 6 * horizon_tasks
    assert stats["reveal_positions"] <= 2 * horizon_tasks
    assert stats["ready_entries"] <= 2 * horizon_tasks
    assert stats["slot_entries"] <= 2 * horizon_tasks
    assert stats["resolved_slots"] <= 2 * horizon_tasks
    assert n_batches * BATCH - stream.n_compacted_tasks <= 2 * horizon_tasks
    # Bounded checkpoints: snapshot size plateaued, not grew with age.
    assert snapshot_sizes[-1] < 1.5 * snapshot_sizes[0]

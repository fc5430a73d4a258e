"""Tests for the live trace stream (repro.live.stream).

The acceptance contract lives in ``TestLiveEquivalence``: a recorded
trace ingested in order with no stragglers, then sealed, drives the
streaming estimator to window estimates **bitwise identical** to the
replay / windowed path at the same seed, for any shard-worker count.
"""

import numpy as np
import pytest

from repro.errors import IngestError
from repro.live import LiveTraceStream, replay_batches, trace_to_records
from repro.network import build_tandem_network
from repro.observation import TaskSampling
from repro.online import ReplayTraceStream, StreamingEstimator, WindowedEstimator
from repro.online.windowed import _entry_time_estimates
from repro.simulate import simulate_network


def make_trace(n_tasks=200, seed=11, fraction=0.3, obs_seed=1):
    net = build_tandem_network(4.0, [6.0, 8.0])
    sim = simulate_network(net, n_tasks, random_state=seed)
    trace = TaskSampling(fraction=fraction).observe(sim.events, random_state=obs_seed)
    horizon = float(np.nanmax(sim.events.departure))
    return trace, horizon


def ingested(trace, **kwargs):
    """A live stream with the whole recorded trace ingested and sealed."""
    stream = LiveTraceStream(n_queues=trace.skeleton.n_queues, **kwargs)
    stream.ingest(trace_to_records(trace))
    stream.seal()
    return stream


def assert_windows_equal(ref, got):
    assert len(ref) == len(got)
    for a, b in zip(ref, got):
        assert (a.t_start, a.t_end) == (b.t_start, b.t_end)
        assert (a.n_tasks, a.n_observed_tasks) == (b.n_tasks, b.n_observed_tasks)
        if a.rates is None:
            assert b.rates is None
        else:
            np.testing.assert_array_equal(a.rates, b.rates)


class TestIngestion:
    def test_validation(self):
        with pytest.raises(IngestError, match="n_queues"):
            LiveTraceStream(n_queues=1)
        with pytest.raises(IngestError, match="lateness"):
            LiveTraceStream(n_queues=3, lateness=-1.0)
        with pytest.raises(IngestError, match="max_pending"):
            LiveTraceStream(n_queues=3, max_pending=0)
        stream = LiveTraceStream(n_queues=3)
        with pytest.raises(IngestError, match="missing fields"):
            stream.ingest([{"task": 0}])
        with pytest.raises(IngestError, match="queue 7"):
            stream.ingest([
                {"task": 0, "seq": 1, "queue": 7, "counter": 0}
            ])
        with pytest.raises(IngestError, match="no task has been fully ingested"):
            stream.trace

    def test_duplicates_are_idempotent(self):
        trace, _ = make_trace(n_tasks=60)
        records = trace_to_records(trace)
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        first = stream.ingest(records)
        again = stream.ingest(records)
        assert first["admitted"] == len(records)
        assert again["admitted"] == 0
        assert again["duplicates"] == len(records)
        stream.seal()
        assert stream.trace.skeleton.n_tasks == trace.skeleton.n_tasks

    def test_conflicting_records_are_rejected_loudly(self):
        stream = LiveTraceStream(n_queues=3)
        base = [
            {"task": 0, "seq": 0, "queue": 0, "counter": 0, "arrival": 0.0},
            {"task": 0, "seq": 1, "queue": 1, "counter": 0, "arrival": 1.0,
             "last": True},
        ]
        stream.ingest(base)
        with pytest.raises(IngestError, match="conflicting `last`"):
            stream.ingest([
                {"task": 1, "seq": 1, "queue": 1, "counter": 1, "last": True},
                {"task": 1, "seq": 2, "queue": 2, "counter": 0, "last": True},
            ])
        with pytest.raises(IngestError, match="beyond the declared last"):
            stream.ingest([
                {"task": 2, "seq": 1, "queue": 1, "counter": 2, "last": True},
                {"task": 2, "seq": 2, "queue": 2, "counter": 1},
            ])
        with pytest.raises(IngestError, match="counter 0 claimed"):
            stream.ingest([
                {"task": 3, "seq": 0, "queue": 0, "counter": 0},
            ])

    def test_sealed_stream_refuses_records(self):
        trace, _ = make_trace(n_tasks=60)
        stream = ingested(trace)
        with pytest.raises(IngestError, match="sealed"):
            stream.ingest(trace_to_records(trace)[:1])
        assert stream.seal() == {"dropped_tasks": 0}  # idempotent

    def test_backpressure_bounds_the_buffer(self):
        trace, _ = make_trace(n_tasks=80)
        # Hold back every seq-0 record so nothing can finalize: the buffer
        # fills with unassemblable tasks until the bound pushes back.
        records = [r for r in trace_to_records(trace) if r["seq"] != 0]
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues, max_pending=50)
        with pytest.raises(IngestError, match="backpressure"):
            stream.ingest(records)
        assert stream.n_pending == 50
        # Records *completing* buffered tasks are always admitted — they
        # are how the assembler drains — so shipping the withheld seq-0
        # records of the buffered tasks frees the buffer again.
        buffered = set(stream._buffer)
        seq0 = [
            r for r in trace_to_records(trace)
            if r["seq"] == 0 and r["task"] in buffered
        ]
        stream.ingest(seq0)
        assert stream.n_pending < 50
        stream.ingest(records[-4:])  # new tasks accepted again

    def test_backpressure_batches_still_drain_what_they_admitted(self):
        """Regression: a batch aborted by backpressure must still assemble
        the completion records it admitted before the error — otherwise a
        full buffer could never empty and retries would livelock."""
        trace, _ = make_trace(n_tasks=80)
        records = trace_to_records(trace)  # task-major: tasks complete in order
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues, max_pending=4)
        # Every prefix of the task-major record stream completes tasks as
        # it goes, so each aborted batch finalizes (drains) some tasks
        # even though it also hits the bound; retrying from the start must
        # therefore terminate.
        for _ in range(len(records)):
            try:
                stream.ingest(records)
                break
            except IngestError as exc:
                assert "backpressure" in str(exc)
        else:
            raise AssertionError("backpressure retries made no progress")
        stream.seal()
        assert stream.trace.skeleton.n_tasks == trace.skeleton.n_tasks

    def test_out_of_order_seq_gap_cannot_poison_assembly(self):
        """Regression: records at seqs beyond a later-arriving `last` must
        be rejected when `last` lands, not pass the completeness gate by
        count and blow up (unrecoverably) inside trace assembly."""
        stream = LiveTraceStream(n_queues=4)
        stream.ingest([
            {"task": 0, "seq": 0, "queue": 0, "counter": 0, "arrival": 0.0},
            {"task": 0, "seq": 3, "queue": 3, "counter": 0, "arrival": 4.0},
        ])
        with pytest.raises(IngestError, match=r"seq \[3\] lie beyond"):
            stream.ingest([
                {"task": 0, "seq": 2, "queue": 2, "counter": 0,
                 "arrival": 3.0, "last": True},
            ])
        # The stream stays serviceable for well-formed tasks.
        stream.ingest([
            {"task": 1, "seq": 0, "queue": 0, "counter": 1, "arrival": 0.0},
            {"task": 1, "seq": 1, "queue": 1, "counter": 0, "arrival": 1.0,
             "departure": 2.0, "last": True},
        ])

    def test_negative_queue_is_rejected_at_validation(self):
        stream = LiveTraceStream(n_queues=3)
        with pytest.raises(IngestError, match="queue must be >= 0"):
            stream.ingest([
                {"task": 0, "seq": 1, "queue": -1, "counter": 0}
            ])

    def test_stragglers_are_counted_and_their_tasks_dropped(self):
        trace, horizon = make_trace(n_tasks=80)
        by_task = {}
        for r in trace_to_records(trace):
            by_task.setdefault(r["task"], []).append(r)
        entries = _entry_time_estimates(trace)
        order = sorted(entries, key=lambda t: entries[t])
        # The victim must carry measured times — only a measurement can be
        # older than the watermark (structure-only records carry no clock).
        from repro.live.records import record_times

        victim = next(
            t for t in order[3:]
            if any(record_times(r) for r in by_task[t])
        )
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        for task in order:
            if task != victim:
                stream.ingest(by_task[task])
        stream.advance_watermark(horizon + 1.0)
        late = stream.ingest(by_task[victim])
        assert late["stragglers"] >= 1
        assert late["dropped_tasks"] == 1
        # Records admitted before the straggler arrived (the time-less
        # seq-0 structure record) are purged with the task.
        assert victim not in stream._buffer
        assert stream.n_dropped_tasks == 1
        stream.seal()
        revealed = {task for task, _ in stream.poll(float("inf"))}
        assert victim not in revealed
        assert len(revealed) == trace.skeleton.n_tasks - 1

    def test_late_entry_record_of_a_dropped_task_resolves_its_slot(self):
        """Regression: when a task is straggler-dropped before its seq-0
        record arrived, that record's later arrival must resolve the
        entry slot — otherwise the prefix stalls on the hole forever on
        an always-on (never sealed) stream."""
        trace, horizon = make_trace(n_tasks=60)
        by_task = {}
        for r in trace_to_records(trace):
            by_task.setdefault(r["task"], []).append(r)
        entries = _entry_time_estimates(trace)
        order = sorted(entries, key=lambda t: entries[t])
        from repro.live.records import record_times

        victim = next(
            t for t in order[2:-2]
            if any(record_times(r) for r in by_task[t])
        )
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        # Everyone but the victim lands normally; the victim's entry slot
        # is a hole that blocks finalization of every later task.
        for task in order:
            if task != victim:
                stream.ingest(by_task[task])
        stream.advance_watermark(horizon + 1.0)
        stalled_at = len(stream.poll(float("inf")))
        assert stalled_at < len(order) - 1  # the hole blocks the prefix
        # Now the victim's timed records arrive — stragglers, so the task
        # is dropped before its seq-0 record was ever seen — and its
        # seq-0 record arrives last, which must resolve the hole.
        timed_first = sorted(
            by_task[victim], key=lambda r: (r["seq"] == 0, r["seq"])
        )
        stream.ingest(timed_first)
        assert stream.n_dropped_tasks == 1
        # The hole resolved: reveals advance past the stall without any
        # seal (an always-on stream never seals) ...
        assert len(stream.poll(float("inf"))) > 0
        # ... and sealing confirms nothing but the victim was lost.
        stream.seal()
        revealed = {task for task, _ in stream.poll(float("inf"))}
        assert victim not in revealed
        assert stream.n_revealed == len(order) - 1

    def test_fully_buffered_task_is_saved_at_the_straggler_boundary(self):
        """Regression: the straggler purge must assemble-then-check — a
        record older than the cutoff that is the task's final missing
        piece completes a fully buffered task, so dropping the task would
        lose data the stream already holds in full."""
        stream = LiveTraceStream(n_queues=3)
        stream.ingest([
            {"task": 0, "seq": 0, "queue": 0, "counter": 0},
            {"task": 0, "seq": 1, "queue": 1, "arrival": 1.0, "counter": 0,
             "departure": 2.0, "last": True},
        ])
        stream.ingest([
            {"task": 1, "seq": 0, "queue": 0, "counter": 1},
            {"task": 1, "seq": 1, "queue": 1, "arrival": 3.0, "counter": 1},
        ])
        stream.advance_watermark(100.0)  # far past every measured time
        summary = stream.ingest([
            {"task": 1, "seq": 2, "queue": 2, "arrival": 4.0, "counter": 0,
             "departure": 5.0, "last": True},
        ])
        assert summary["late"] == 1
        assert summary["stragglers"] == 0
        assert summary["dropped_tasks"] == 0
        stream.seal()
        assert {t for t, _ in stream.poll(float("inf"))} == {0, 1}

    def test_incomplete_straggler_task_is_still_dropped(self):
        """The boundary save applies only to completing records: an old
        record that leaves the task incomplete still purges it."""
        stream = LiveTraceStream(n_queues=3)
        stream.ingest([
            {"task": 0, "seq": 0, "queue": 0, "counter": 0},
        ])
        stream.advance_watermark(100.0)
        summary = stream.ingest([
            {"task": 0, "seq": 1, "queue": 1, "arrival": 1.0, "counter": 0},
        ])
        assert summary["stragglers"] == 1
        assert summary["dropped_tasks"] == 1
        assert stream.n_dropped_tasks == 1

    def test_lateness_bound_admits_and_counts_late_records(self):
        trace, horizon = make_trace(n_tasks=60)
        stream = LiveTraceStream(
            n_queues=trace.skeleton.n_queues, lateness=2 * horizon
        )
        stream.advance_watermark(horizon)  # everything is now "late"
        summary = stream.ingest(trace_to_records(trace))
        assert summary["stragglers"] == 0
        assert summary["late"] > 0
        assert stream.n_late == summary["late"]
        stream.seal()
        assert stream.trace.skeleton.n_tasks == trace.skeleton.n_tasks

    def test_seal_drops_incomplete_tasks_and_unblocks_the_prefix(self):
        trace, _ = make_trace(n_tasks=60)
        by_task = {}
        for r in trace_to_records(trace):
            by_task.setdefault(r["task"], []).append(r)
        entries = _entry_time_estimates(trace)
        order = sorted(entries, key=lambda t: entries[t])
        hole = order[2]
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        for task in order:
            records = by_task[task]
            if task == hole:
                records = records[:-1]  # final record never arrives
            stream.ingest(records)
        # The hole blocks the prefix: nothing past it is revealed yet.
        assert stream.trace.skeleton.n_tasks == 2
        summary = stream.seal()
        assert summary["dropped_tasks"] == 1
        revealed = {task for task, _ in stream.poll(float("inf"))}
        assert hole not in revealed
        assert len(revealed) == len(order) - 1
        assert stream.exhausted()


class TestWatermarkReveal:
    def test_horizon_advances_with_the_watermark(self):
        trace, horizon = make_trace()
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        stream.ingest(trace_to_records(trace))
        assert stream.horizon == 0.0  # nothing revealed before a watermark
        stream.advance_watermark(horizon / 3)
        mid = stream.horizon
        assert 0.0 < mid <= horizon / 3
        # Watermarks are monotone; an older one is a no-op.
        assert stream.advance_watermark(horizon / 6) == horizon / 3
        assert stream.horizon == mid
        stream.advance_watermark(horizon)
        assert stream.horizon >= mid
        ref_horizon = ReplayTraceStream(trace).horizon
        stream.seal()
        assert stream.horizon == ref_horizon

    def test_revealed_entries_are_final(self):
        """An entry estimate handed out early is bitwise the one the
        fully ingested stream would compute — reveals never rewrite."""
        trace, horizon = make_trace()
        batches = replay_batches(trace, batch_tasks=8)
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        early: list = []
        for watermark, batch in batches:
            stream.advance_watermark(watermark)
            stream.ingest(batch)
            early.extend(stream.poll(stream.horizon + 1.0))
        stream.seal()
        early.extend(stream.poll(float("inf")))
        reference = ReplayTraceStream(trace).poll(float("inf"))
        assert early == reference


class TestLiveEquivalence:
    """Acceptance: live == replay == windowed, bitwise, at any worker count."""

    def test_poll_and_subset_match_replay_bitwise(self):
        trace, horizon = make_trace()
        live = ingested(trace)
        replay = ReplayTraceStream(trace)
        assert live.poll(horizon / 3) == replay.poll(horizon / 3)
        tasks = [task for task, _ in replay.poll(horizon / 2)]
        live.poll(horizon / 2)
        a = replay.subset(tasks)
        b = live.subset(tasks)
        np.testing.assert_array_equal(a.skeleton.arrival, b.skeleton.arrival)
        np.testing.assert_array_equal(a.arrival_observed, b.arrival_observed)
        for q in range(a.skeleton.n_queues):
            np.testing.assert_array_equal(
                a.skeleton.queue_order(q), b.skeleton.queue_order(q)
            )

    def test_windows_match_windowed_estimator_bitwise(self):
        trace, horizon = make_trace(n_tasks=300, fraction=0.25)
        window = horizon / 5
        ref = WindowedEstimator(
            trace, window=window, stem_iterations=12, random_state=2
        ).run()
        got = StreamingEstimator(
            ingested(trace), window=window, stem_iterations=12,
            random_state=2, repartition="cold",
        ).run()
        assert_windows_equal(ref, got)
        assert any(w.ok for w in got)

    def test_sharded_windows_match_at_any_worker_count(self):
        trace, horizon = make_trace(n_tasks=300, fraction=0.25)
        window = horizon / 4
        ref = WindowedEstimator(
            trace, window=window, stem_iterations=10, random_state=5, shards=2
        ).run()
        for workers in (1, 2):
            got = StreamingEstimator(
                ingested(trace), window=window, stem_iterations=10,
                random_state=5, shards=2, shard_workers=workers,
                repartition="cold",
            ).run()
            assert_windows_equal(ref, got)

    def test_out_of_order_ingestion_converges_to_the_same_stream(self):
        trace, horizon = make_trace()
        records = trace_to_records(trace)
        rng = np.random.default_rng(3)
        shuffled = [records[i] for i in rng.permutation(len(records))]
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        for start in range(0, len(shuffled), 50):
            stream.ingest(shuffled[start:start + 50])
        stream.seal()
        assert stream.poll(float("inf")) == ReplayTraceStream(trace).poll(
            float("inf")
        )


class TestSnapshot:
    def test_snapshot_round_trips_mid_stream(self):
        trace, horizon = make_trace()
        batches = replay_batches(trace, batch_tasks=16)
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        cut = len(batches) // 2
        for watermark, batch in batches[:cut]:
            stream.advance_watermark(watermark)
            stream.ingest(batch)
        polled = stream.poll(stream.horizon / 2)
        restored = LiveTraceStream.from_state(stream.snapshot_state())
        assert restored.n_revealed == stream.n_revealed
        assert restored.horizon == stream.horizon
        assert restored.watermark == stream.watermark
        # Both continue identically through the tail.
        for s in (stream, restored):
            for watermark, batch in batches[cut:]:
                s.advance_watermark(watermark)
                s.ingest(batch)
            s.seal()
        assert stream.poll(float("inf")) == restored.poll(float("inf"))
        assert polled + stream.poll(float("inf")) == polled  # both drained

    def test_corrupt_snapshot_is_rejected(self):
        trace, _ = make_trace(n_tasks=60)
        stream = ingested(trace)
        stream.poll(float("inf"))
        state = stream.snapshot_state()
        state["final_records"] = {}
        state["slot_task"] = {}
        state["resolved"] = {}
        with pytest.raises(IngestError, match="corrupt snapshot"):
            LiveTraceStream.from_state(state)

    def test_unknown_snapshot_versions_are_rejected(self):
        trace, _ = make_trace(n_tasks=60)
        state = ingested(trace).snapshot_state()
        state["version"] = 99
        with pytest.raises(IngestError, match="snapshot version"):
            LiveTraceStream.from_state(state)

    def test_version1_snapshots_are_rejected(self):
        """Snapshots written before compaction existed (version 1), or a
        current one missing a field, fail with IngestError — never a
        KeyError, and never a silently recomputed reveal state."""
        trace, _ = make_trace(n_tasks=60)
        stream = ingested(trace)
        stream.poll(float("inf"))
        state = stream.snapshot_state()
        v1_keys = (
            "n_queues", "lateness", "max_pending", "watermark", "sealed",
            "buffer", "expected", "slot_task", "resolved", "next_slot",
            "final_records", "dropped_tasks", "n_polled", "counters",
        )
        with pytest.raises(IngestError, match="snapshot version: 1"):
            LiveTraceStream.from_state(
                {"version": 1, **{k: state[k] for k in v1_keys}}
            )
        for key in ("retain", "reveal_offset", "counters"):
            partial = {k: v for k, v in state.items() if k != key}
            with pytest.raises(IngestError, match=f"missing field '{key}'"):
                LiveTraceStream.from_state(partial)


class TestCompaction:
    def test_validation(self):
        with pytest.raises(IngestError, match="retain"):
            LiveTraceStream(n_queues=3, retain=-1.0)

    def test_compact_without_retain_is_a_noop(self):
        trace, horizon = make_trace(n_tasks=60)
        stream = ingested(trace)
        stream.poll(float("inf"))
        assert stream.compact() == {
            "compacted_tasks": 0, "compacted_events": 0,
        }
        assert stream.n_compacted_tasks == 0
        assert stream.compaction is None

    def test_compaction_preserves_future_reveals_bitwise(self):
        """The acceptance property: a compacting stream reveals exactly
        the sequence its non-compacting twin reveals."""
        trace, horizon = make_trace(n_tasks=200)
        batches = replay_batches(trace, batch_tasks=10)
        plain = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        compacting = LiveTraceStream(
            n_queues=trace.skeleton.n_queues, retain=horizon / 8
        )
        polls: dict = {id(plain): [], id(compacting): []}
        for stream in (plain, compacting):
            for watermark, batch in batches:
                stream.advance_watermark(watermark)
                stream.ingest(batch)
                polls[id(stream)].extend(stream.poll(stream.horizon + 1.0))
                stream.compact()
            stream.seal()
            polls[id(stream)].extend(stream.poll(float("inf")))
        assert polls[id(plain)] == polls[id(compacting)]
        assert compacting.n_compacted_tasks > 0
        assert (
            compacting.n_retained_tasks + compacting.n_compacted_tasks
            == trace.skeleton.n_tasks
        )
        stats = compacting.memory_stats()
        assert stats["retained_tasks"] < trace.skeleton.n_tasks
        assert stats["ready_entries"] < len(polls[id(plain)])

    def test_summary_accumulates_the_folded_statistics(self):
        trace, horizon = make_trace(n_tasks=200)
        stream = LiveTraceStream(
            n_queues=trace.skeleton.n_queues, retain=horizon / 10
        )
        for watermark, batch in replay_batches(trace, batch_tasks=10):
            stream.advance_watermark(watermark)
            stream.ingest(batch)
            stream.poll(stream.horizon + 1.0)
            stream.compact()
        summary = stream.compaction
        assert summary is not None
        assert summary.n_tasks == stream.n_compacted_tasks
        assert summary.n_events == stream.n_compacted_events
        assert sum(summary.events_per_queue) == summary.n_events
        assert summary.first_entry <= summary.last_entry <= horizon
        measured = [
            q for q in range(stream.n_queues)
            if summary.observed_services_per_queue[q]
        ]
        assert measured  # a 30%-observed trace folds some measured services
        for q in measured:
            assert np.isfinite(summary.mean_service(q))
            assert summary.mean_service(q) > 0.0
        # The dict round trip is exact (what the snapshot stores).
        from repro.live import CompactionSummary

        clone = CompactionSummary.from_dict(summary.to_dict())
        assert clone.to_dict() == summary.to_dict()

    def test_windows_cannot_touch_compacted_tasks(self):
        trace, horizon = make_trace(n_tasks=120)
        stream = LiveTraceStream(
            n_queues=trace.skeleton.n_queues, retain=horizon / 20
        )
        stream.ingest(trace_to_records(trace))
        stream.advance_watermark(horizon + 1.0)
        polled = stream.poll(float("inf"))
        stream.compact()
        assert stream.n_compacted_tasks > 0
        gone = polled[0][0]  # the oldest polled task was folded first
        with pytest.raises(IngestError, match="retention horizon"):
            stream.subset([gone])
        # Retained tasks still subset fine.
        retained = sorted(stream._final_records)
        assert set(stream.subset(retained).skeleton.task_ids) == set(retained)

    def test_redelivery_of_a_compacted_task_counts_as_duplicate(self):
        trace, horizon = make_trace(n_tasks=120)
        by_task: dict = {}
        for r in trace_to_records(trace):
            by_task.setdefault(r["task"], []).append(r)
        stream = LiveTraceStream(
            n_queues=trace.skeleton.n_queues, retain=horizon / 20
        )
        stream.ingest(trace_to_records(trace))
        stream.advance_watermark(horizon + 1.0)
        polled = stream.poll(float("inf"))
        stream.compact()
        gone = polled[0][0]
        summary = stream.ingest(by_task[gone])  # an at-least-once retry
        assert summary["duplicates"] == len(by_task[gone])
        assert summary["admitted"] == 0

    def test_snapshot_round_trips_after_compaction(self):
        trace, horizon = make_trace()
        batches = replay_batches(trace, batch_tasks=16)
        stream = LiveTraceStream(
            n_queues=trace.skeleton.n_queues, retain=horizon / 8
        )
        cut = len(batches) // 2
        for watermark, batch in batches[:cut]:
            stream.advance_watermark(watermark)
            stream.ingest(batch)
            stream.poll(stream.horizon + 1.0)
            stream.compact()
        assert stream.n_compacted_tasks > 0
        restored = LiveTraceStream.from_state(stream.snapshot_state())
        assert restored.n_revealed == stream.n_revealed
        assert restored.n_compacted_tasks == stream.n_compacted_tasks
        assert restored.compaction.to_dict() == stream.compaction.to_dict()
        assert restored.memory_stats() == stream.memory_stats()
        # Both continue identically through the tail.
        for s in (stream, restored):
            for watermark, batch in batches[cut:]:
                s.advance_watermark(watermark)
                s.ingest(batch)
            s.seal()
        assert stream.poll(float("inf")) == restored.poll(float("inf"))

    def test_compaction_bounds_the_snapshot(self):
        """The checkpoint record log is the retained tail: a compacted
        stream's snapshot is strictly smaller than its twin's."""
        import pickle

        trace, horizon = make_trace(n_tasks=200)
        plain = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        compacting = LiveTraceStream(
            n_queues=trace.skeleton.n_queues, retain=horizon / 20
        )
        for stream in (plain, compacting):
            stream.ingest(trace_to_records(trace))
            stream.advance_watermark(horizon + 1.0)
            stream.poll(float("inf"))
            stream.compact()
        small = len(pickle.dumps(compacting.snapshot_state()))
        large = len(pickle.dumps(plain.snapshot_state()))
        assert compacting.n_compacted_tasks > 0
        assert small < large / 2

    def test_newest_finalized_task_is_always_retained(self):
        trace, horizon = make_trace(n_tasks=60)
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues, retain=0.0)
        stream.ingest(trace_to_records(trace))
        stream.advance_watermark(horizon + 1.0)
        stream.poll(float("inf"))
        stream.compact()
        assert stream.n_retained_tasks >= 1
        stream.trace  # still a valid (non-empty) trace

"""Tests for measurement records and trace assembly (repro.live.records)."""

import numpy as np
import pytest

from repro.errors import IngestError, InvalidEventSetError
from repro.events.serialization import (
    measurement_record,
    validate_measurement_record,
)
from repro.events.subset import subset_trace
from repro.live.records import (
    IncrementalAssembler,
    assemble_trace,
    record_times,
    replay_batches,
    trace_to_records,
)
from repro.network import build_tandem_network
from repro.observation import TaskSampling
from repro.simulate import simulate_network


@pytest.fixture(scope="module")
def trace():
    net = build_tandem_network(4.0, [6.0, 8.0])
    sim = simulate_network(net, n_tasks=120, random_state=7)
    return TaskSampling(fraction=0.3).observe(sim.events, random_state=2)


def group_by_task(records):
    by_task = {}
    for r in records:
        by_task.setdefault(r["task"], []).append(r)
    return by_task


def assert_traces_bitwise(a, b):
    np.testing.assert_array_equal(a.skeleton.task, b.skeleton.task)
    np.testing.assert_array_equal(a.skeleton.seq, b.skeleton.seq)
    np.testing.assert_array_equal(a.skeleton.queue, b.skeleton.queue)
    np.testing.assert_array_equal(a.skeleton.state, b.skeleton.state)
    np.testing.assert_array_equal(a.skeleton.arrival, b.skeleton.arrival)
    np.testing.assert_array_equal(a.skeleton.departure, b.skeleton.departure)
    np.testing.assert_array_equal(a.arrival_observed, b.arrival_observed)
    np.testing.assert_array_equal(a.departure_observed, b.departure_observed)
    assert a.skeleton.n_queues == b.skeleton.n_queues
    for q in range(a.skeleton.n_queues):
        np.testing.assert_array_equal(
            a.skeleton.queue_order(q), b.skeleton.queue_order(q)
        )


class TestMeasurementRecord:
    def test_constructor_normalizes_and_validates(self):
        r = measurement_record(task=3, seq=1, queue=2, counter=5, arrival=1.5)
        assert r["arrival"] == 1.5 and r["departure"] is None and not r["last"]
        with pytest.raises(InvalidEventSetError, match="seq"):
            measurement_record(task=0, seq=-1, queue=1, counter=0)
        with pytest.raises(InvalidEventSetError, match="counter"):
            measurement_record(task=0, seq=1, queue=1, counter=-1)
        with pytest.raises(InvalidEventSetError, match="initial event"):
            measurement_record(task=0, seq=0, queue=1, counter=0)
        with pytest.raises(InvalidEventSetError, match="last event"):
            measurement_record(task=0, seq=1, queue=1, counter=0, departure=2.0)

    def test_validate_rejects_malformed_input(self):
        with pytest.raises(InvalidEventSetError, match="dicts"):
            validate_measurement_record(("task", 0))
        with pytest.raises(InvalidEventSetError, match="missing fields"):
            validate_measurement_record({"task": 0, "seq": 1})
        with pytest.raises(InvalidEventSetError, match="malformed"):
            validate_measurement_record(
                {"task": 0, "seq": 1, "queue": 1, "counter": 0,
                 "arrival": "not-a-time"}
            )

    def test_record_times_collects_measured_clocks_only(self):
        seq0 = measurement_record(task=0, seq=0, queue=0, counter=0, arrival=0.0)
        assert record_times(seq0) == []  # the conventional 0.0 is not a measurement
        inner = measurement_record(task=0, seq=1, queue=1, counter=0, arrival=3.5)
        assert record_times(inner) == [3.5]
        final = measurement_record(
            task=0, seq=2, queue=2, counter=0, arrival=4.0, departure=5.0,
            last=True,
        )
        assert record_times(final) == [4.0, 5.0]


class TestRoundTrip:
    def test_full_trace_round_trips_bitwise(self, trace):
        records = trace_to_records(trace)
        assert len(records) == trace.skeleton.n_events
        rebuilt = assemble_trace(
            list(group_by_task(records).values()),
            n_queues=trace.skeleton.n_queues,
        )
        assert_traces_bitwise(trace, rebuilt)

    def test_task_subset_matches_subset_trace_bitwise(self, trace):
        by_task = group_by_task(trace_to_records(trace))
        chosen = sorted(by_task)[10:40]
        rebuilt = assemble_trace(
            [by_task[t] for t in chosen], n_queues=trace.skeleton.n_queues
        )
        assert_traces_bitwise(subset_trace(trace, chosen), rebuilt)

    def test_shuffled_records_assemble_identically(self, trace):
        records = trace_to_records(trace)
        rng = np.random.default_rng(0)
        shuffled = [records[i] for i in rng.permutation(len(records))]
        rebuilt = assemble_trace(
            list(group_by_task(shuffled).values()),
            n_queues=trace.skeleton.n_queues,
        )
        assert_traces_bitwise(trace, rebuilt)

    def test_assembly_validation(self, trace):
        by_task = group_by_task(trace_to_records(trace))
        with pytest.raises(IngestError, match="no complete tasks"):
            assemble_trace([], n_queues=3)
        first = sorted(by_task)[0]
        with pytest.raises(IngestError, match="n_queues"):
            assemble_trace([by_task[first]], n_queues=1)
        impostor = [dict(r, task=10_000) for r in by_task[first]]
        with pytest.raises(IngestError, match="conflicting event counters"):
            assemble_trace([by_task[first], impostor], n_queues=3)

    def test_replay_batches_cover_everything_in_entry_order(self, trace):
        batches = replay_batches(trace, batch_tasks=16)
        watermarks = [w for w, _ in batches]
        assert watermarks == sorted(watermarks)
        n_records = sum(len(b) for _, b in batches)
        assert n_records == trace.skeleton.n_events
        # Every measurement in a batch is no older than its watermark.
        for watermark, batch in batches:
            for record in batch:
                for t in record_times(record):
                    assert t >= watermark


class TestIncrementalAssembler:
    def test_ids_order_flag_and_eviction(self, trace):
        """The store keeps rows in finalize order: ``ascending`` tracks
        whether ids rose, eviction drops the oldest-finalized tasks and
        releases their counter claims, and the build stays task-id-major."""
        by_task = group_by_task(trace_to_records(trace))
        tasks = sorted(by_task)[:6]
        store = IncrementalAssembler(trace.skeleton.n_queues)
        for t in tasks[:4]:
            store.append(by_task[t])
        assert store.ascending
        store.append(by_task[tasks[5]])
        store.append(by_task[tasks[4]])  # an id below one already held
        assert not store.ascending
        assert store.n_tasks == 6
        evicted = store.evict(2)
        assert evicted == len(by_task[tasks[0]]) + len(by_task[tasks[1]])
        assert store.n_tasks == 4
        assert store.task_ids.tolist() == tasks[2:]
        assert_traces_bitwise(
            store.build()[0], subset_trace(trace, tasks[2:])
        )
        # The evicted tasks' (queue, counter) claims are free again.
        store.append(by_task[tasks[0]])
        with pytest.raises(IngestError, match="conflicting event counters"):
            store.append(by_task[tasks[2]])

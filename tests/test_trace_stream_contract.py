"""The TraceStream conformance suite.

PR 4 defined the :class:`~repro.online.streaming.TraceStream` contract
informally (the replay source "defines the semantics").  This suite pins
it as tests, parametrized over every implementation — currently
:class:`~repro.online.streaming.ReplayTraceStream` and
:class:`~repro.live.stream.LiveTraceStream` — so a future source cannot
drift from what the streaming estimator assumes:

* **poll monotonicity** — reveals are in non-decreasing entry order,
  strictly below the requested bound, never repeated, and the reveal
  sequence is independent of how the polls are chopped;
* **horizon semantics** — the horizon is the largest revealed-able entry
  estimate, and the full reveal set is exactly the task universe;
* **subset stability** — subsetting revealed tasks is deterministic,
  bitwise equal to :func:`~repro.events.subset.subset_trace` over the
  stream's backing trace, and stable under repetition;
* **assembly equivalence** — a live stream's trace, built from its
  columnar store, is bitwise :func:`~repro.events.subset.subset_trace`
  of the source trace over the tasks it holds, under every ingestion
  pattern (one shot, batched, shuffled, task ids out of entry order)
  and across prefix compaction.
"""

import numpy as np
import pytest

from repro.events import EventSet
from repro.events.subset import subset_trace
from repro.live import LiveTraceStream, replay_batches, trace_to_records
from repro.network import build_tandem_network
from repro.observation import ObservedTrace, TaskSampling
from repro.online import ReplayTraceStream
from repro.simulate import simulate_network

STREAM_KINDS = ("replay", "live")


@pytest.fixture(scope="module")
def recorded():
    net = build_tandem_network(4.0, [6.0, 8.0])
    sim = simulate_network(net, n_tasks=180, random_state=9)
    trace = TaskSampling(fraction=0.3).observe(sim.events, random_state=2)
    horizon = float(np.nanmax(sim.events.departure))
    return trace, horizon


def make_stream(kind, trace):
    if kind == "replay":
        return ReplayTraceStream(trace)
    stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
    stream.ingest(trace_to_records(trace))
    stream.seal()
    return stream


@pytest.mark.parametrize("kind", STREAM_KINDS)
class TestPollMonotonicity:
    def test_reveals_are_ordered_bounded_and_unrepeated(self, kind, recorded):
        trace, horizon = recorded
        stream = make_stream(kind, trace)
        assert stream.n_revealed == 0
        first = stream.poll(horizon / 4)
        entries = [entry for _, entry in first]
        assert entries == sorted(entries)
        assert all(entry < horizon / 4 for entry in entries)
        assert stream.poll(horizon / 4) == []  # no re-reveals
        assert stream.n_revealed == len(first)
        second = stream.poll(horizon / 2)
        assert all(horizon / 4 <= entry < horizon / 2 for _, entry in second)

    def test_reveal_sequence_is_independent_of_poll_chopping(self, kind, recorded):
        trace, horizon = recorded
        one_shot = make_stream(kind, trace).poll(float("inf"))
        chopped_stream = make_stream(kind, trace)
        chopped: list = []
        for bound in np.linspace(horizon / 7, horizon, 7):
            chopped.extend(chopped_stream.poll(float(bound)))
        chopped.extend(chopped_stream.poll(float("inf")))
        assert chopped == one_shot

    def test_task_ids_are_unique(self, kind, recorded):
        trace, _ = recorded
        revealed = make_stream(kind, trace).poll(float("inf"))
        tasks = [task for task, _ in revealed]
        assert len(tasks) == len(set(tasks))


@pytest.mark.parametrize("kind", STREAM_KINDS)
class TestHorizonSemantics:
    def test_horizon_is_the_largest_revealable_entry(self, kind, recorded):
        trace, _ = recorded
        stream = make_stream(kind, trace)
        revealed = stream.poll(float("inf"))
        assert stream.horizon == max(entry for _, entry in revealed)

    def test_full_reveal_covers_the_task_universe(self, kind, recorded):
        trace, _ = recorded
        stream = make_stream(kind, trace)
        assert not stream.exhausted()
        revealed = stream.poll(float("inf"))
        assert stream.exhausted()
        assert {task for task, _ in revealed} == set(
            stream.trace.skeleton.task_ids
        )

    def test_polling_up_to_the_horizon_leaves_only_boundary_tasks(
        self, kind, recorded
    ):
        trace, _ = recorded
        stream = make_stream(kind, trace)
        horizon = make_stream(kind, trace).horizon
        below = stream.poll(horizon)
        rest = stream.poll(float("inf"))
        assert all(entry < horizon for _, entry in below)
        assert all(entry == horizon for _, entry in rest)
        assert rest  # the horizon task itself is revealed only past it


@pytest.mark.parametrize("kind", STREAM_KINDS)
class TestSubsetStability:
    def test_subset_matches_subset_trace_bitwise(self, kind, recorded):
        trace, horizon = recorded
        stream = make_stream(kind, trace)
        tasks = [task for task, _ in stream.poll(horizon / 2)]
        got = stream.subset(tasks)
        ref = subset_trace(stream.trace, tasks)
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

    def test_repeated_subsets_are_identical(self, kind, recorded):
        trace, horizon = recorded
        stream = make_stream(kind, trace)
        tasks = [task for task, _ in stream.poll(horizon / 3)]
        a = stream.subset(tasks)
        b = stream.subset(tasks)
        np.testing.assert_array_equal(a.skeleton.arrival, b.skeleton.arrival)
        np.testing.assert_array_equal(a.skeleton.task, b.skeleton.task)

    def test_subsets_only_cover_revealed_tasks(self, kind, recorded):
        """Subsetting never exposes more than was polled: the estimator
        sees what an online deployment could know, nothing else."""
        trace, horizon = recorded
        stream = make_stream(kind, trace)
        polled = [task for task, _ in stream.poll(horizon / 2)]
        window = stream.subset(polled[:10])
        assert set(window.skeleton.task_ids) == set(polled[:10])


def assert_traces_bitwise(got, ref):
    np.testing.assert_array_equal(got.skeleton.task, ref.skeleton.task)
    np.testing.assert_array_equal(got.skeleton.seq, ref.skeleton.seq)
    np.testing.assert_array_equal(got.skeleton.queue, ref.skeleton.queue)
    np.testing.assert_array_equal(got.skeleton.state, ref.skeleton.state)
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


def relabeled(trace, perm):
    """*trace* with task *t* renamed ``perm[t]``, still task-id-major:
    rows re-sorted by (task, seq), masks permuted with them, and every
    queue's frozen order (unchanged as a sequence of events) remapped to
    the new row numbers."""
    sk = trace.skeleton
    task = perm[sk.task]
    rows = np.lexsort((sk.seq, task))
    new_row = np.empty_like(rows)
    new_row[rows] = np.arange(rows.size)
    skeleton = EventSet(
        task=task[rows],
        seq=sk.seq[rows],
        queue=sk.queue[rows],
        arrival=sk.arrival[rows],
        departure=sk.departure[rows],
        n_queues=sk.n_queues,
        state=sk.state[rows],
        queue_order=[new_row[sk.queue_order(q)] for q in range(sk.n_queues)],
    )
    return ObservedTrace(
        skeleton=skeleton,
        arrival_observed=trace.arrival_observed[rows],
        departure_observed=trace.departure_observed[rows],
    )


class TestAssemblyEquivalenceOracle:
    """The stream's trace, built from its columnar store, is bitwise the
    source trace restricted to the tasks the stream holds — the oracle is
    `subset_trace` of the recorded trace, never the stream's own data."""

    @pytest.mark.parametrize(
        "pattern", ("one_shot", "batched", "shuffled", "relabeled")
    )
    def test_incremental_assembly_matches_the_rebuild(self, pattern, recorded):
        trace, horizon = recorded
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        records = trace_to_records(trace)
        source = trace
        if pattern == "one_shot":
            stream.ingest(records)
        elif pattern == "batched":
            for watermark, batch in replay_batches(trace, batch_tasks=16):
                stream.advance_watermark(watermark)
                stream.ingest(batch)
        elif pattern == "shuffled":
            rng = np.random.default_rng(7)
            shuffled = [records[i] for i in rng.permutation(len(records))]
            for start in range(0, len(shuffled), 64):
                stream.ingest(shuffled[start:start + 64])
        else:
            # Task ids that do not follow entry order: ids finalize out
            # of ascending order, and the built rows must still come out
            # task-id-major.  Compaction's re-delivery cutoff is a task-id
            # high-water mark, so the same schedule that compacts
            # ascending ids (the compacted-tail test below) keeps every
            # task here.
            perm = np.random.default_rng(5).permutation(
                int(trace.skeleton.task.max()) + 1
            )
            stream = LiveTraceStream(
                n_queues=trace.skeleton.n_queues, retain=horizon / 6
            )
            for watermark, batch in replay_batches(trace, batch_tasks=12):
                stream.advance_watermark(watermark)
                stream.ingest(
                    [dict(r, task=int(perm[r["task"]])) for r in batch]
                )
                stream.poll(stream.horizon + 1.0)
                stream.compact()
            source = relabeled(trace, perm)
        stream.seal()
        assert stream.n_compacted_tasks == 0
        assert stream.n_retained_tasks == trace.skeleton.n_tasks
        assert_traces_bitwise(
            stream.trace, subset_trace(source, source.skeleton.task_ids)
        )

    def test_compacted_tail_assembly_matches_the_rebuild(self, recorded):
        """After every compaction step the retained tail's trace is still
        bitwise the source trace restricted to the retained tasks."""
        trace, horizon = recorded
        stream = LiveTraceStream(
            n_queues=trace.skeleton.n_queues, retain=horizon / 6
        )
        for watermark, batch in replay_batches(trace, batch_tasks=12):
            stream.advance_watermark(watermark)
            stream.ingest(batch)
            stream.poll(stream.horizon + 1.0)
            stream.compact()
            if stream.n_retained_tasks:
                retained = stream.trace.skeleton.task_ids
                assert_traces_bitwise(
                    stream.trace, subset_trace(trace, retained)
                )
        assert stream.n_compacted_tasks > 0

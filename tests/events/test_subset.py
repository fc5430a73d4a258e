"""Tests for task-subset extraction."""

import numpy as np
import pytest

from repro.errors import InvalidEventSetError
from repro.events.subset import subset_tasks, subset_trace
from repro.observation import TaskSampling


class TestSubsetTasks:
    def test_preserves_times_and_structure(self, tandem_sim):
        ev = tandem_sim.events
        chosen = ev.task_ids[:10]
        subset, kept = subset_tasks(ev, chosen)
        assert subset.n_tasks == 10
        np.testing.assert_allclose(subset.arrival, ev.arrival[kept])
        subset.validate()

    def test_queue_order_is_restriction(self, tandem_sim):
        ev = tandem_sim.events
        chosen = set(ev.task_ids[::3])
        subset, kept = subset_tasks(ev, chosen)
        for q in range(ev.n_queues):
            original = [int(e) for e in ev.queue_order(q) if int(ev.task[e]) in chosen]
            mapped = [int(kept[i]) for i in subset.queue_order(q)]
            assert original == mapped

    def test_task_ids_preserved(self, tandem_sim):
        ev = tandem_sim.events
        chosen = [5, 17, 42]
        subset, _ = subset_tasks(ev, chosen)
        assert subset.task_ids == chosen

    def test_rejects_empty(self, tandem_sim):
        with pytest.raises(InvalidEventSetError):
            subset_tasks(tandem_sim.events, [])

    def test_rejects_unknown_task(self, tandem_sim):
        with pytest.raises(InvalidEventSetError):
            subset_tasks(tandem_sim.events, [10**9])

    def test_statistics_consistent(self, tandem_sim):
        ev = tandem_sim.events
        subset, kept = subset_tasks(ev, ev.task_ids)
        # Full subset == original.
        np.testing.assert_allclose(
            subset.mean_service_by_queue(), ev.mean_service_by_queue()
        )


class TestSubsetTrace:
    def test_masks_follow(self, tandem_sim):
        trace = TaskSampling(fraction=0.3).observe(tandem_sim.events, random_state=0)
        chosen = tandem_sim.events.task_ids[:20]
        sub = subset_trace(trace, chosen)
        assert sub.skeleton.n_tasks == 20
        # Observed fraction roughly preserved.
        assert 0.0 <= sub.observed_fraction() <= 1.0
        # Latent positions still nan.
        lat = sub.latent_arrival_events
        assert np.all(np.isnan(sub.skeleton.arrival[lat]))

    def test_subset_inferencable(self, tandem_sim):
        """A subset trace runs through the full inference stack."""
        from repro.inference import run_stem

        trace = TaskSampling(fraction=0.3).observe(tandem_sim.events, random_state=1)
        sub = subset_trace(trace, tandem_sim.events.task_ids[:60])
        stem = run_stem(sub, n_iterations=25, random_state=2, init_method="heuristic")
        assert np.all(np.isfinite(stem.rates))


class TestSubsetIndex:
    """The O(window) repeated-subsetting fast path of the online estimators."""

    def test_bitwise_identical_to_subset_tasks(self, tandem_sim):
        from repro.events.subset import SubsetIndex

        ev = tandem_sim.events
        index = SubsetIndex(ev)
        rng = np.random.default_rng(3)
        for _ in range(5):
            size = int(rng.integers(1, ev.n_tasks))
            chosen = rng.choice(ev.task_ids, size=size, replace=False).tolist()
            fast, kept_fast = index.subset_tasks(chosen)
            slow, kept_slow = subset_tasks(ev, chosen)
            np.testing.assert_array_equal(kept_fast, kept_slow)
            for name in ("task", "seq", "queue", "arrival", "departure",
                         "state", "rho", "rho_inv", "pi", "pi_inv"):
                np.testing.assert_array_equal(
                    getattr(fast, name), getattr(slow, name), err_msg=name
                )
            for q in range(ev.n_queues):
                np.testing.assert_array_equal(
                    fast.queue_order(q), slow.queue_order(q)
                )

    def test_indexed_subset_trace_matches(self, tandem_sim):
        from repro.events.subset import SubsetIndex

        trace = TaskSampling(fraction=0.3).observe(tandem_sim.events, random_state=0)
        index = SubsetIndex(trace.skeleton)
        chosen = tandem_sim.events.task_ids[10:40]
        fast = subset_trace(trace, chosen, index=index)
        slow = subset_trace(trace, chosen)
        np.testing.assert_array_equal(fast.arrival_observed, slow.arrival_observed)
        np.testing.assert_array_equal(fast.departure_observed, slow.departure_observed)
        np.testing.assert_array_equal(fast.skeleton.arrival, slow.skeleton.arrival)

    def test_rejects_empty(self, tandem_sim):
        from repro.events.subset import SubsetIndex

        with pytest.raises(InvalidEventSetError):
            SubsetIndex(tandem_sim.events).subset_tasks([])

    def test_rejects_structurally_mutated_event_set(self, tandem_sim):
        """A path-MH queue reassignment invalidates the cached positions;
        the index must refuse rather than return a silently wrong order."""
        from repro.events.subset import SubsetIndex

        ev = tandem_sim.events.copy()
        index = SubsetIndex(ev)
        movable = int(np.flatnonzero(ev.seq == 1)[0])
        target = 2 if ev.queue[movable] != 2 else 1
        ev.reassign_queue(movable, target)
        with pytest.raises(InvalidEventSetError, match="stale"):
            index.subset_tasks(ev.task_ids[:5])

    def test_subset_trace_rejects_foreign_index(self, tandem_sim, three_tier_sim):
        from repro.events.subset import SubsetIndex

        trace = TaskSampling(fraction=0.3).observe(tandem_sim.events, random_state=0)
        foreign = SubsetIndex(three_tier_sim.events)
        with pytest.raises(InvalidEventSetError, match="different event set"):
            subset_trace(trace, tandem_sim.events.task_ids[:5], index=foreign)

"""Hypothesis property tests for task subsets.

Windowed and streaming estimation rest on two structural facts this
suite pins over randomized traces:

* ``subset_tasks`` keeps each queue's frozen order restricted to the
  chosen tasks;
* subsets snapshot the *current* structure (``structure_version``
  semantics: they start their own version counter at 0) and share no
  mutable state with the original.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.events import EventSet, subset_tasks
from repro.network import build_tandem_network
from repro.simulate import simulate_network


def _simulated_events(n_tasks: int, n_stations: int, seed: int) -> EventSet:
    net = build_tandem_network(4.0, [6.0 + i for i in range(n_stations)])
    return simulate_network(net, n_tasks, random_state=seed).events


trace_strategy = st.tuples(
    st.integers(min_value=3, max_value=14),   # tasks
    st.integers(min_value=2, max_value=3),    # tandem stations
    st.integers(min_value=0, max_value=10_000),  # simulator seed
)


class TestPartitionRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(trace_strategy)
    def test_subset_preserves_per_queue_order_restriction(self, drawn):
        n_tasks, n_stations, seed = drawn
        events = _simulated_events(n_tasks, n_stations, seed)
        chosen = set(events.task_ids[::2])
        subset, kept = subset_tasks(events, chosen)
        for q in range(events.n_queues):
            original = [
                int(e)
                for e in events.queue_order(q)
                if int(events.task[e]) in chosen
            ]
            mapped = [int(kept[i]) for i in subset.queue_order(q)]
            assert original == mapped

    @settings(max_examples=15, deadline=None)
    @given(trace_strategy)
    def test_structure_version_semantics(self, drawn):
        """Subsets snapshot the current structure at version 0, and mutating
        a subset never touches the original (and vice versa)."""
        n_tasks, n_stations, seed = drawn
        events = _simulated_events(n_tasks, n_stations, seed)
        # Mutate the original's structure first (a path-MH style move).
        movable = [
            int(e)
            for e in range(events.n_events)
            if events.seq[e] != 0 and events.n_queues > 2
        ]
        if movable and events.n_queues > 2:
            e = movable[0]
            target = 1 + (int(events.queue[e])) % (events.n_queues - 1)
            if target != int(events.queue[e]):
                events.reassign_queue(e, target)
                assert events.structure_version == 1
        subset, kept = subset_tasks(events, events.task_ids)
        assert subset.structure_version == 0
        # The subset reflects the post-mutation queue memberships ...
        np.testing.assert_array_equal(subset.queue[np.argsort(kept)],
                                      events.queue[np.sort(kept)])
        # ... and shares no mutable state with the original.
        before = events.arrival.copy()
        subset.arrival[:] = -1.0
        np.testing.assert_array_equal(events.arrival, before)

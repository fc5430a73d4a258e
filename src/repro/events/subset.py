"""Extracting task subsets of an event set.

Windowed and online estimation re-run inference on the tasks inside a
time window.  This module restricts an event set (possibly censored,
with nan times) to a task subset while preserving the frozen per-queue
arrival order — the information that survives censoring.

Note the approximation inherent in windowing: dropping out-of-window
tasks removes their events from the within-queue predecessor chains, so
waiting caused by cross-window neighbors is attributed differently than
in the full trace.  This is the standard trade-off of windowed analysis;
edge effects shrink as the window grows.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import InvalidEventSetError
from repro.events.event_set import EventSet
from repro.observation.observed import ObservedTrace


def _kept_rows(events: EventSet, task_ids: Iterable[int]) -> np.ndarray:
    """Sorted original event rows of the selected tasks."""
    wanted = sorted(set(int(t) for t in task_ids))
    if not wanted:
        raise InvalidEventSetError("cannot build an empty task subset")
    rows = []
    missing = []
    for t in wanted:
        try:
            rows.append(events.events_of_task(t))
        except InvalidEventSetError:
            missing.append(t)
    if missing:
        raise InvalidEventSetError(
            f"task ids {missing} are not in this event set; if the set is "
            "a stream's retained tail, they were compacted past the "
            "retention horizon"
        )
    kept = np.concatenate(rows)
    kept.sort()
    return kept


def _build_subset(
    events: EventSet, kept: np.ndarray, queue_order: list[np.ndarray]
) -> EventSet:
    """The shared construction tail: restrict every column to *kept*."""
    return EventSet(
        task=events.task[kept],
        seq=events.seq[kept],
        queue=events.queue[kept],
        arrival=events.arrival[kept],
        departure=events.departure[kept],
        n_queues=events.n_queues,
        state=events.state[kept],
        queue_order=queue_order,
    )


def subset_tasks(events: EventSet, task_ids: Iterable[int]) -> tuple[EventSet, np.ndarray]:
    """Restrict *events* to the given tasks.

    Returns
    -------
    (subset, kept)
        *subset* is a new event set containing exactly the selected tasks
        (original task ids preserved), with the per-queue order equal to
        the original order restricted to kept events.  *kept* maps subset
        row -> original event index.
    """
    kept = _kept_rows(events, task_ids)
    index_of = {int(e): i for i, e in enumerate(kept)}
    queue_order = []
    for q in range(events.n_queues):
        original = events.queue_order(q)
        queue_order.append(
            np.array([index_of[int(e)] for e in original if int(e) in index_of],
                     dtype=np.int64)
        )
    return _build_subset(events, kept, queue_order), kept


class SubsetIndex:
    """Precomputed positions for *repeated* task-subsetting of one event set.

    :func:`subset_tasks` walks every queue's full frozen order per call —
    an O(total events) cost that windowed and streaming estimation would
    otherwise pay again for every window, even though consecutive windows
    differ only by the tasks that arrived and aged out at the edges.
    This index extracts each event's position inside its queue's order
    once; a subset's restricted orders are then recovered by sorting only
    the *kept* events by their cached positions, making every window
    O(window), independent of the trace length behind it.

    The output is bitwise identical to :func:`subset_tasks`
    (``tests/events/test_subset.py`` pins this), so the two paths are
    interchangeable.
    """

    def __init__(self, events: EventSet) -> None:
        #: The event set this index was built over (identity matters:
        #: positions are meaningless against any other set).
        self.events = events
        self._structure_version = events.structure_version
        self._pos_in_queue = np.empty(events.n_events, dtype=np.int64)
        for q in range(events.n_queues):
            order = events.queue_order(q)
            self._pos_in_queue[order] = np.arange(order.size)

    def subset_tasks(self, task_ids: Iterable[int]) -> tuple[EventSet, np.ndarray]:
        """:func:`subset_tasks` against the indexed event set, in O(subset)."""
        events = self.events
        if events.structure_version != self._structure_version:
            raise InvalidEventSetError(
                "the indexed event set was structurally mutated (queue "
                "reassignment) after this SubsetIndex was built; rebuild "
                "the index — its cached queue positions are stale"
            )
        kept = _kept_rows(events, task_ids)
        kept_queue = events.queue[kept]
        queue_order = []
        for q in range(events.n_queues):
            members = np.flatnonzero(kept_queue == q)
            members = members[
                np.argsort(self._pos_in_queue[kept[members]], kind="stable")
            ]
            queue_order.append(members.astype(np.int64))
        return _build_subset(events, kept, queue_order), kept


def subset_trace(
    trace: ObservedTrace,
    task_ids: Iterable[int],
    index: SubsetIndex | None = None,
) -> ObservedTrace:
    """Restrict an observed trace to the given tasks.

    With *index* (a :class:`SubsetIndex` over ``trace.skeleton``) the
    restriction runs in O(subset) instead of O(trace) — the windowed and
    streaming estimators' age-out/arrival hot path; results are bitwise
    identical either way.
    """
    if index is not None:
        if index.events is not trace.skeleton:
            raise InvalidEventSetError(
                "the SubsetIndex was built over a different event set than "
                "this trace's skeleton; its kept-row indices would silently "
                "mis-slice the observation masks"
            )
        skeleton, kept = index.subset_tasks(task_ids)
    else:
        skeleton, kept = subset_tasks(trace.skeleton, task_ids)
    return ObservedTrace(
        skeleton=skeleton,
        arrival_observed=trace.arrival_observed[kept],
        departure_observed=trace.departure_observed[kept],
    )

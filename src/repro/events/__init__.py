"""Event-graph data structures (paper Section 2).

An **event** is one queue visit: a task arrives at a queue, waits, receives
service, departs.  The paper represents a whole trace as a set of events
``e = (k_e, sigma_e, q_e, a_e, d_e)`` wired together by two predecessor
pointers — the within-queue predecessor ``rho(e)`` and the within-task
predecessor ``pi(e)`` — plus the deterministic FIFO constraints

    a_e = d_{pi(e)}                and          d_e = s_e + max(a_e, d_{rho(e)}).

:class:`~repro.events.event_set.EventSet` stores a trace in
struct-of-arrays form (NumPy arrays for times, integer arrays for
pointers), exposing exactly the neighborhood lookups the Gibbs sampler
needs in O(1) and whole-trace quantities (service, waiting, response times,
joint density of Eq. 1) as vectorized reductions.
"""

from repro.events.event_set import EventSet
from repro.events.subset import (
    SubsetIndex,
    subset_tasks,
    subset_trace,
)
from repro.events.serialization import (
    event_set_from_records,
    event_set_to_records,
    load_jsonl,
    measurement_record,
    save_jsonl,
    validate_measurement_record,
)

__all__ = [
    "EventSet",
    "SubsetIndex",
    "subset_tasks",
    "subset_trace",
    "event_set_to_records",
    "event_set_from_records",
    "save_jsonl",
    "load_jsonl",
    "measurement_record",
    "validate_measurement_record",
]

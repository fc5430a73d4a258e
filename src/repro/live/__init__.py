"""Live ingestion + serving: the streaming estimator as an always-on service.

The source paper infers the queueing behavior of a *running* system from
partial observations — which only pays off when the estimator runs beside
that system continuously.  This package closes that loop on top of the
streaming estimators of :mod:`repro.online`:

* :mod:`repro.live.records` — measurement records: one event's identity,
  its queue's event-counter value (what pins the frozen order), and any
  measured times; plus the record↔trace converters.
* :mod:`repro.live.stream` — :class:`LiveTraceStream`, a
  :class:`~repro.online.streaming.TraceStream` fed by an ingest API: an
  out-of-order buffer, watermark-based horizon advancement with a
  configurable lateness bound (stragglers are counted and dropped), and
  bounded-queue backpressure.
* :mod:`repro.live.server` — :class:`LiveServer`/:class:`LiveClient`, a
  threaded TCP ingestion + query protocol reusing the length-prefixed
  frame and HMAC handshake machinery of
  :mod:`repro.inference.transport`.
* :mod:`repro.live.service` — :class:`EstimatorService`, the supervisor
  that drives a :class:`~repro.online.streaming.StreamingEstimator` as
  the stream's horizon advances, publishes every window estimate with
  anomaly flags, and checkpoints so a restarted service resumes bitwise;
  and :class:`ServiceConfig`, the one validated configuration a service
  (or every partition of a router) is built from.

Equivalence contract: a recorded trace ingested in order with no
stragglers yields window estimates **bitwise identical** to the
replay/windowed path at the same seed — ``tests/live/`` pins it,
together with checkpoint→restart→resume bitwise reproduction of frozen
windows.
"""

from repro.live.records import (
    IncrementalAssembler,
    assemble_trace,
    replay_batches,
    trace_to_records,
)
from repro.live.router import (
    DEFAULT_BLOCK,
    IngestRouter,
    entry_partition,
    rebase_slot,
)
from repro.live.server import DEFAULT_AUTHKEY, LiveClient, LiveServer
from repro.live.service import (
    EstimatorService,
    ServiceConfig,
    estimate_to_record,
)
from repro.live.stream import CompactionSummary, LiveTraceStream

__all__ = [
    "LiveTraceStream",
    "CompactionSummary",
    "IncrementalAssembler",
    "LiveServer",
    "LiveClient",
    "EstimatorService",
    "ServiceConfig",
    "IngestRouter",
    "DEFAULT_BLOCK",
    "entry_partition",
    "rebase_slot",
    "estimate_to_record",
    "trace_to_records",
    "assemble_trace",
    "replay_batches",
    "DEFAULT_AUTHKEY",
]

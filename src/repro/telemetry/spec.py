"""The documented metric surface.

``SPEC`` is the single source of truth for every metric the repro tier
emits: name -> (kind, layer, help).  The README "Observability" table is
generated from (and tested against) this mapping, and
``tests/test_telemetry.py`` asserts that every name emitted anywhere in
the codebase appears here exactly once -- adding a metric without
documenting it, or documenting one that nothing emits, fails the suite.

Counters end in ``_total`` (Prometheus v0 convention); histograms carry
``_seconds`` / ``_bytes`` style unit suffixes where applicable.  A help
text naming a health key marks a series read from its owner's attribute
(see ``repro.telemetry.Counts``): in-process it follows the newest owner.
"""

from __future__ import annotations

KINDS = ("counter", "gauge", "histogram")
LAYERS = ("stream", "estimator", "kernel", "service", "wire", "router")

#: name -> (kind, layer, help)
SPEC: dict[str, tuple[str, str, str]] = {
    # -- live stream ----------------------------------------------------
    "repro_stream_records_admitted_total": (
        "counter", "stream",
        "Measurement records admitted into the live stream buffer "
        "(health n_admitted; restored from a checkpoint)."),
    "repro_stream_records_duplicate_total": (
        "counter", "stream",
        "Records dropped because their (task, seq) slot was already filled "
        "(health n_duplicates; restored from a checkpoint)."),
    "repro_stream_records_late_total": (
        "counter", "stream",
        "Records admitted behind the watermark: within the lateness bound, or "
        "the last missing piece of a buffered task (health n_late; restored "
        "from a checkpoint)."),
    "repro_stream_records_straggler_total": (
        "counter", "stream",
        "Records older than the watermark minus the lateness bound, or for an "
        "already dropped task, dropped with their task (health n_stragglers; "
        "restored from a checkpoint)."),
    "repro_stream_tasks_dropped_total": (
        "counter", "stream",
        "Tasks that can never be assembled: purged stragglers, plus tasks and "
        "entry slots still incomplete at seal (health n_dropped_tasks; "
        "restored from a checkpoint)."),
    "repro_stream_tasks_revealed_total": (
        "counter", "stream",
        "Tasks handed to the estimator by poll() (health n_revealed; restored "
        "from a checkpoint)."),
    "repro_stream_tasks_compacted_total": (
        "counter", "stream",
        "Aged-out tasks folded into compaction summaries and evicted (health "
        "n_compacted_tasks; restored from a checkpoint)."),
    "repro_stream_events_compacted_total": (
        "counter", "stream",
        "Events folded into compaction summaries and evicted (health "
        "n_compacted_events; restored from a checkpoint)."),
    "repro_stream_ingest_batches_total": (
        "counter", "stream",
        "ingest() batches admitted over all transports."),
    "repro_stream_ingest_batch_seconds": (
        "histogram", "stream",
        "Wall time spent admitting one ingest() batch."),
    "repro_stream_watermark": (
        "gauge", "stream",
        "Current reveal watermark on the trace clock."),
    "repro_stream_horizon": (
        "gauge", "stream",
        "Newest event timestamp seen on the stream (trace clock)."),
    "repro_stream_memory": (
        "gauge", "stream",
        "Live container sizes from memory_stats(); one series per container label."),
    # -- streaming estimators ------------------------------------------
    "repro_window_phase_seconds": (
        "histogram", "estimator",
        "Per-window pipeline phase latency; phase label is one of poll, subset, "
        "partition, burn-in, sweeps, m-step, reweight, publish, checkpoint."),
    "repro_windows_processed_total": (
        "counter", "estimator",
        "Windows that produced a rate estimate."),
    "repro_windows_skipped_total": (
        "counter", "estimator",
        "Windows skipped for insufficient observed tasks."),
    "repro_windows_failed_total": (
        "counter", "estimator",
        "Windows that exhausted worker-relaunch retries and published a failure."),
    "repro_worker_relaunches_total": (
        "counter", "estimator",
        "Warm shard worker pool relaunches after a worker death, since the "
        "estimator was built (health estimator.n_worker_relaunches)."),
    "repro_smc_ess": (
        "gauge", "estimator",
        "Effective sample size of the SMC particle population after the last reweight."),
    "repro_smc_rejuvenations_total": (
        "counter", "estimator",
        "ESS-triggered systematic resample + Gibbs rejuvenation passes (health "
        "estimator.n_rejuvenations; restored from a checkpoint)."),
    # -- sweep kernels --------------------------------------------------
    "repro_kernel_sweeps_total": (
        "counter", "kernel",
        "Full Gibbs sweeps executed by the array/native kernel."),
    "repro_kernel_sweep_seconds": (
        "histogram", "kernel",
        "Wall time per full kernel sweep."),
    "repro_kernel_moves_total": (
        "counter", "kernel",
        "Single-variable moves resampled across all sweeps."),
    "repro_kernel_batch_size": (
        "histogram", "kernel",
        "Conflict-free move batch sizes planned at kernel construction."),
    "repro_kernel_native_available": (
        "gauge", "kernel",
        "1 when the numba-compiled native branch is active, 0 on the numpy fallback."),
    # -- estimator service ----------------------------------------------
    "repro_service_windows_published_total": (
        "counter", "service",
        "Window estimates in the published series, including windows restored "
        "from a checkpoint (health windows_published)."),
    "repro_service_anomalies_total": (
        "counter", "service",
        "Anomaly flags raised by the publish-path detector, including flags "
        "re-detected over restored windows (health anomalies)."),
    "repro_service_publish_seconds": (
        "histogram", "service",
        "Monotonic latency from window pickup to publish completion."),
    "repro_service_checkpoint_seconds": (
        "histogram", "service",
        "Wall time writing one checkpoint snapshot."),
    "repro_service_checkpoint_bytes": (
        "gauge", "service",
        "Size of the last checkpoint this process wrote, in bytes; 0 before "
        "the first (health checkpoint_bytes)."),
    "repro_service_records_seen_total": (
        "counter", "service",
        "Measurement records accepted by EstimatorService.ingest(), resumed "
        "from a checkpoint's ingest clock (health n_records_seen)."),
    # -- wire layer ------------------------------------------------------
    "repro_server_requests_total": (
        "counter", "wire",
        "Framed-HMAC requests dispatched, labelled by command."),
    "repro_server_request_seconds": (
        "histogram", "wire",
        "Wall time handling one wire request."),
    "repro_server_dispatch_errors_total": (
        "counter", "wire",
        "Unexpected exceptions inside command dispatch (health "
        "server.n_dispatch_errors)."),
    "repro_server_rejected_connections_total": (
        "counter", "wire",
        "Connections rejected at the authentication handshake (health "
        "server.n_rejected)."),
    # -- ingest router ---------------------------------------------------
    "repro_router_records_routed_total": (
        "counter", "router",
        "Records forwarded to a partition, parked ones once they leave the park "
        "(health router.n_records_routed)."),
    "repro_router_unroutable_total": (
        "counter", "router",
        "Parked records dropped at seal because their task's entry record never "
        "arrived (health router.n_unroutable)."),
    "repro_router_parked_records": (
        "gauge", "router",
        "Records parked until their task's entry record names an owner partition "
        "(health router.n_parked)."),
    "repro_router_spool_records": (
        "gauge", "router",
        "Records held in per-partition replay spools (health router.spool_records)."),
    "repro_router_spool_evicted_total": (
        "counter", "router",
        "Spooled records evicted before replay by the spool bound (health "
        "router.n_spool_evicted)."),
    "repro_router_restarts_total": (
        "counter", "router",
        "Partition service restarts from checkpoint (health router.n_restarts)."),
}

#: Non-default bucket boundaries, for histograms that do not measure seconds.
BUCKETS: dict[str, tuple[float, ...]] = {
    "repro_kernel_batch_size": (
        1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
        256.0, 512.0, 1024.0, 4096.0, 16384.0),
}


def kind_of(name: str) -> str | None:
    entry = SPEC.get(name)
    return entry[0] if entry else None


def layer_of(name: str) -> str | None:
    entry = SPEC.get(name)
    return entry[1] if entry else None


def help_of(name: str) -> str:
    entry = SPEC.get(name)
    return entry[2] if entry else ""

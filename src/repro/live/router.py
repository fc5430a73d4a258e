"""Shared-nothing multi-service ingest tier behind one address.

One :class:`~repro.live.service.EstimatorService` owns one assembler
lock, so ingest throughput tops out at a single process no matter how
many clients ship records.  :class:`IngestRouter` scales past that by
partitioning the ingest keyspace across N independent service
*processes* — shared-nothing: each partition owns its own
:class:`~repro.live.stream.LiveTraceStream`, its own
:class:`~repro.online.streaming.StreamingEstimator`, and its own
checkpoint file — while clients keep seeing one
``LiveClient``-compatible address: the router implements the same
command surface the single service does, so ``LiveServer(router)``
serves the whole tier over the existing framed-HMAC protocol, and the
router itself speaks that same protocol down to every partition.

**Keyspace partitioning.**  The unit of placement is a *task*, keyed by
its entry slot (the queue-0 event counter, which is globally dense:
0, 1, 2, ...).  Slots are striped block-cyclically:
``partition = (slot // block) % N`` — entry-contiguous blocks: tasks
that enter the system together (and therefore interact in the
frozen queue orders) land on the same partition, while steady load still
rotates across all N at block granularity.  Because every partition's
sub-stream must itself present a dense entry prefix, the router rebases
each entry record's counter to the partition-local slot
(:func:`rebase_slot` — a pure function of the global slot, so no
cross-partition coordination and no reordering).  Inner-queue records
keep their global counters: a restriction of a per-queue total order is
still a total order, which is all assembly needs.  Records that arrive
before their task's entry record are parked in a bounded pending buffer
and flushed the moment the entry record names their owner.

**Fault tolerance.**  A supervisor thread probes every partition:
process liveness via the child handle, service health over the wire.  A
dead service process is restarted from its checkpoint and the router
replays its *spool* — a bounded per-partition log of acked ingest
batches, each held pickled and decoded only on replay, trimmed as
checkpoints land (each partition's health reports the cumulative
ingest count its newest on-disk snapshot covers, so the router drops
exactly the entries that are already durable).  Replayed
duplicates are dropped by the stream's at-least-once dedup, and the
restored estimator continues its per-window seed stream, so the windows
published after a crash are bitwise the windows the uninterrupted run
would have published.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from collections import deque
from operator import attrgetter

from repro import telemetry
from repro.errors import IngestError, ReproError
from repro.live.server import DEFAULT_AUTHKEY, LiveClient, LiveServer
from repro.live.service import (
    EstimatorService,
    ServiceConfig,
    flatten_health,
    render_metrics_report,
)
from repro.live.stream import LiveTraceStream
from repro.online import get_estimator
from repro.rng import as_seed_sequence

#: Entry slots per stripe block (see module docstring).  Tasks entering
#: within one block stay together on one partition.
DEFAULT_BLOCK = 32

#: Ingest-summary keys the router sums across partition replies.
_SUMMARY_KEYS = ("admitted", "duplicates", "late", "stragglers",
                 "dropped_tasks", "resolved_slots")


def entry_partition(slot: int, n_partitions: int, block: int) -> int:
    """Which partition owns global entry slot *slot* (block-cyclic)."""
    return (slot // block) % n_partitions


def rebase_slot(slot: int, n_partitions: int, block: int) -> int:
    """The partition-local entry slot for global slot *slot*.

    Within its owner partition, slots enumerate densely (0, 1, 2, ...)
    in global-slot order: stripe cycle ``slot // (block * n_partitions)``
    contributes one block of ``block`` consecutive local slots.
    """
    cycle, offset = divmod(slot, block * n_partitions)
    return cycle * block + offset % block


def _partition_service_main(config, seed, checkpoint_path, restore, authkey,
                            conn):
    """Child entry point: one partition's service (built from *config*
    with the partition's *seed*) and its server.

    Reports ``("ready", address)`` (or ``("error", message)``) over
    *conn*, then serves until a ``shutdown`` command arrives or the
    parent process disappears (an orphaned partition must not outlive
    its router).
    """
    # A forked child inherits the router's registry; the router's series
    # are the router's, so the partition reports only what it owns.
    telemetry.set_registry(telemetry.MetricsRegistry(telemetry.enabled()))
    try:
        if restore and checkpoint_path and os.path.exists(checkpoint_path):
            service = EstimatorService.from_checkpoint(checkpoint_path)
        else:
            service = config.build(checkpoint_path, random_state=seed)
        server = LiveServer(service, authkey=authkey)
    except Exception as exc:  # noqa: BLE001 — must cross the pipe
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    with service.start(), server:
        conn.send(("ready", server.address))
        conn.close()
        parent = multiprocessing.parent_process()
        while not server.wait_for_shutdown(0.5):
            if parent is not None and not parent.is_alive():
                break


class _PartitionHandle:
    """Router-side handle of one partition: process, client, spool."""

    def __init__(self, index, config, seed, checkpoint_path, authkey,
                 start_timeout) -> None:
        self.index = index
        self.config = config
        self.seed = seed
        self.checkpoint_path = checkpoint_path
        self.authkey = authkey
        self.start_timeout = float(start_timeout)
        self.lock = threading.RLock()
        self.process = None
        self.client: LiveClient | None = None
        self.address: tuple[str, int] | None = None
        #: Acked ingest batches not yet known to be covered by an on-disk
        #: checkpoint, as ``(service ingest clock after the ack, record
        #: count, pickled batch)``.  A pickled record costs ~34 B against
        #: ~240-310 B as a dict, and only a replay decodes it.
        self.spool: deque[tuple[int, int, bytes]] = deque()
        self.spool_records = 0
        self.n_restarts = 0
        self.n_spool_evicted = 0

    def spawn(self, restore: bool) -> None:
        """Start (or restart) the partition process and connect to it."""
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe()
        # NOT daemonic: multiprocessing terminates daemonic children when
        # the router's interpreter exits, possibly mid-checkpoint.  The
        # router stops its partitions itself, and an orphaned partition
        # exits through the parent-liveness watch in the child.
        proc = ctx.Process(
            target=_partition_service_main,
            args=(self.config, self.seed, self.checkpoint_path, restore,
                  self.authkey, child_conn),
            name=f"repro-partition-{self.index}",
        )
        proc.start()
        child_conn.close()
        deadline = time.monotonic() + self.start_timeout
        try:
            while True:
                if parent_conn.poll(0.05):
                    try:
                        kind, payload = parent_conn.recv()
                    except EOFError:
                        proc.join(1.0)
                        raise IngestError(
                            f"partition {self.index} service died before "
                            f"reporting an address (exit code "
                            f"{proc.exitcode})"
                        ) from None
                    break
                if not proc.is_alive():
                    proc.join()
                    raise IngestError(
                        f"partition {self.index} service exited with code "
                        f"{proc.exitcode} before reporting an address "
                        "(crash during startup)"
                    )
                if time.monotonic() > deadline:
                    proc.terminate()
                    raise IngestError(
                        f"partition {self.index} service did not come up "
                        f"within {self.start_timeout:.0f}s"
                    )
        finally:
            parent_conn.close()
        if kind != "ready":
            proc.join(1.0)
            raise IngestError(
                f"partition {self.index} service failed to start: {payload}"
            )
        self.process = proc
        self.address = payload
        self.client = LiveClient(self.address, authkey=self.authkey)

    def stop(self, graceful: bool = True) -> None:
        """Shut the partition down; idempotent, never raises."""
        client, self.client = self.client, None
        if client is not None:
            if graceful:
                try:
                    client.shutdown()
                except (IngestError, OSError):
                    pass
            client.close()
        proc, self.process = self.process, None
        if proc is not None:
            proc.join(5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(5.0)

    def trim_spool(self, covered: int) -> None:
        """Drop spool entries an on-disk checkpoint already covers."""
        while self.spool and self.spool[0][0] <= covered:
            _, n_records, _ = self.spool.popleft()
            self.spool_records -= n_records


class IngestRouter:
    """Partition live ingestion across N supervised service processes.

    Implements the same command surface as
    :class:`~repro.live.service.EstimatorService` (``ingest`` /
    ``advance_watermark`` / ``seal`` / ``estimates`` / ``anomalies`` /
    ``health``), so ``LiveServer(router)`` exposes the whole tier at one
    address and any ``LiveClient`` talks to it unchanged.

    Parameters
    ----------
    n_partitions:
        Independent service processes to run.
    config:
        Every partition's :class:`~repro.live.service.ServiceConfig`,
        already validated; each partition builds its service from it
        with its own child spawned from ``config.seed``, so a tier
        restarted with the same seed reproduces its estimates.
    block:
        Entry slots per stripe block (placement granularity).
    checkpoint_dir:
        Directory for per-partition checkpoint files
        (``partition-<i>.ckpt``); ``None`` disables checkpointing —
        a crashed partition then restarts empty and replays whatever the
        spool still holds.
    authkey:
        Shared HMAC secret for the router→service connections (give the
        front :class:`~repro.live.server.LiveServer` its own).
    max_spool_records:
        Per-partition replay-spool bound.  Entries evicted over the
        bound are counted (``n_spool_evicted`` in :meth:`health`): a
        crash after an eviction loses at most those records.
    max_pending_records:
        Bound on records parked while their task's entry record has not
        arrived; exceeding it is backpressure (an ``IngestError``).
    probe_interval:
        Seconds between supervisor liveness/health probes.
    start_timeout:
        Seconds a partition process gets to come up.
    """

    #: The router's own counts, named once (see
    #: :class:`repro.telemetry.Counts`); its ``health`` section reads them.
    COUNTS = telemetry.Counts(
        n_records_routed="repro_router_records_routed_total",
        n_parked=("repro_router_parked_records", attrgetter("_n_parked")),
        n_unroutable="repro_router_unroutable_total",
        n_restarts="repro_router_restarts_total",
        n_spool_evicted=(
            "repro_router_spool_evicted_total",
            lambda router: sum(h.n_spool_evicted for h in router._partitions),
        ),
        spool_records=(
            "repro_router_spool_records",
            lambda router: sum(h.spool_records for h in router._partitions),
        ),
    )

    def __init__(
        self,
        n_partitions: int,
        config: ServiceConfig,
        block: int = DEFAULT_BLOCK,
        checkpoint_dir: str | None = None,
        authkey: bytes = DEFAULT_AUTHKEY,
        max_spool_records: int = 100_000,
        max_pending_records: int = 100_000,
        probe_interval: float = 1.0,
        start_timeout: float = 60.0,
    ) -> None:
        if n_partitions < 1:
            raise IngestError(
                f"need at least one partition, got {n_partitions}"
            )
        if block < 1:
            raise IngestError(f"block must be >= 1, got {block}")
        # Its COUNTS merge the partitions' estimator sections.
        self._estimator_cls = get_estimator(config.estimator)
        self.n_partitions = int(n_partitions)
        self.block = int(block)
        self.checkpoint_dir = checkpoint_dir
        self.max_spool_records = int(max_spool_records)
        self.max_pending_records = int(max_pending_records)
        self.probe_interval = float(probe_interval)
        seeds = as_seed_sequence(config.seed).spawn(self.n_partitions)
        self._partitions: list[_PartitionHandle] = []
        for i in range(self.n_partitions):
            path = None
            if checkpoint_dir is not None:
                path = os.path.join(checkpoint_dir, f"partition-{i}.ckpt")
            self._partitions.append(
                _PartitionHandle(i, config, seeds[i], path, bytes(authkey),
                                 start_timeout)
            )
        # Routing state: which partition owns each task, plus records
        # parked until their task's entry record names an owner.
        self._route_lock = threading.Lock()
        self._owner: dict[int, int] = {}
        self._parked: dict[int, list[dict]] = {}
        self._n_parked = 0
        self._watermark = 0.0
        self._sealed = False
        self.n_records_routed = 0
        self.n_unroutable = 0
        self.n_restarts = 0
        self._stop = threading.Event()
        self._probe_thread: threading.Thread | None = None
        self._probe_error: str | None = None
        self._started = False
        self.COUNTS.bind(self)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> "IngestRouter":
        """Spawn every partition service and the supervisor (idempotent)."""
        if self._started:
            return self
        if self.checkpoint_dir is not None:
            os.makedirs(self.checkpoint_dir, exist_ok=True)
        started = []
        try:
            for handle in self._partitions:
                handle.spawn(restore=False)
                started.append(handle)
        except BaseException:
            for handle in started:
                handle.stop(graceful=False)
            raise
        self._started = True
        self._stop.clear()
        self._probe_thread = threading.Thread(
            target=self._probe_loop, name="repro-router-probe", daemon=True
        )
        self._probe_thread.start()
        return self

    def close(self) -> None:
        """Stop the supervisor and every partition service; idempotent."""
        self._stop.set()
        thread, self._probe_thread = self._probe_thread, None
        if thread is not None:
            thread.join(self.probe_interval + 5.0)
        for handle in self._partitions:
            with handle.lock:
                handle.stop()
        self._started = False

    def __enter__(self) -> "IngestRouter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Supervision: liveness probes, restart, spool trimming.
    # ------------------------------------------------------------------

    def _probe_loop(self) -> None:
        while not self._stop.wait(self.probe_interval):
            for p in range(self.n_partitions):
                if self._stop.is_set():
                    return
                handle = self._partitions[p]
                # Never block a probe behind an in-flight forward (or an
                # in-progress restart) — skip and re-probe next tick.
                if not handle.lock.acquire(blocking=False):
                    continue
                try:
                    self._probe_one(handle)
                except (IngestError, ReproError, OSError) as exc:
                    self._probe_error = f"partition {p}: {exc}"
                finally:
                    handle.lock.release()

    def _probe_one(self, handle: _PartitionHandle) -> None:
        if self._stop.is_set():
            return
        if (
            handle.process is None
            or not handle.process.is_alive()
            or handle.client is None
            or handle.client.dead is not None
        ):
            self._restore_partition(handle)
            return
        meta = handle.client.health()["service"]["checkpoint_meta"] or {}
        handle.trim_spool(int(meta.get("n_seen", 0)))

    def _restore_partition(self, handle: _PartitionHandle) -> None:
        """Restart a dead partition from its checkpoint, replay the spool.

        Caller holds ``handle.lock``.  The service resumes from its
        newest on-disk snapshot; every spooled batch the snapshot does
        not cover is re-shipped in order (duplicates are dropped by the
        stream), then the router's watermark — and seal, if the tier is
        sealed — is re-asserted, so the restored partition's windows
        continue bitwise where the uninterrupted run would have.
        """
        handle.n_restarts += 1
        self.n_restarts += 1
        handle.stop(graceful=False)
        handle.spawn(restore=True)
        try:
            meta = handle.client.health()["service"]["checkpoint_meta"]
            covered = int((meta or {}).get("n_seen", 0))
        except IngestError:
            covered = 0
        handle.trim_spool(covered)
        # Replay, re-tagging each batch with the restored service's own
        # ingest clock so future checkpoint coverage compares on one
        # timeline (the pre-crash clock may have counted retried batches
        # the restored clock never sees).
        replayed: deque[tuple[int, int, bytes]] = deque()
        for _, n_records, blob in handle.spool:
            summary = handle.client.ingest(pickle.loads(blob))
            replayed.append((int(summary.get("n_seen", 0)), n_records, blob))
        handle.spool = replayed
        if self._watermark > 0.0:
            handle.client.advance_watermark(self._watermark)
        if self._sealed:
            handle.client.seal()

    def _forward(self, p: int, method: str, *args):
        """One partition call with crash recovery: a dead connection (or
        process) triggers restore-from-checkpoint + spool replay, then one
        retry; a live service's own refusal (backpressure, bad arguments)
        propagates untouched."""
        handle = self._partitions[p]
        with handle.lock:
            for attempt in (0, 1):
                if (
                    handle.process is None
                    or not handle.process.is_alive()
                    or handle.client is None
                    or handle.client.dead is not None
                ):
                    self._restore_partition(handle)
                try:
                    return getattr(handle.client, method)(*args)
                except IngestError:
                    if handle.client is not None and handle.client.dead is None:
                        raise  # the service answered; its refusal stands
                    if attempt == 1:
                        raise

    # ------------------------------------------------------------------
    # Ingestion (the service-facing command surface).
    # ------------------------------------------------------------------

    def _route(self, records) -> dict[int, list[dict]]:
        """Group a batch by owner partition, rebasing entry slots."""
        groups: dict[int, list[dict]] = {}
        with self._route_lock:
            for record in records:
                try:
                    task = record["task"]
                    seq = record["seq"]
                except (TypeError, KeyError):
                    raise IngestError(
                        f"unroutable record (missing task/seq): {record!r}"
                    ) from None
                if seq == 0:
                    try:
                        slot = int(record["counter"])
                    except (KeyError, TypeError, ValueError):
                        raise IngestError(
                            f"entry record without a usable counter: "
                            f"{record!r}"
                        ) from None
                    p = entry_partition(slot, self.n_partitions, self.block)
                    rebased = dict(record)
                    rebased["counter"] = rebase_slot(
                        slot, self.n_partitions, self.block
                    )
                    # First claim wins; a conflicting duplicate still goes
                    # to the same partition, whose stream reports it.
                    self._owner.setdefault(task, p)
                    group = groups.setdefault(self._owner[task], [])
                    group.append(rebased)
                    parked = self._parked.pop(task, None)
                    if parked:
                        self._n_parked -= len(parked)
                        groups.setdefault(self._owner[task], []).extend(parked)
                else:
                    p = self._owner.get(task)
                    if p is None:
                        if self._n_parked >= self.max_pending_records:
                            raise IngestError(
                                f"{self._n_parked} records are parked "
                                "waiting for their tasks' entry records — "
                                "pending bound reached; ship entry records "
                                "(seq 0) first, or back off and retry"
                            )
                        self._parked.setdefault(task, []).append(record)
                        self._n_parked += 1
                    else:
                        groups.setdefault(p, []).append(record)
        return groups

    def ingest(self, records: list[dict]) -> dict:
        """Route a batch to its owner partitions; merge their summaries."""
        if self._sealed:
            raise IngestError("the tier is sealed; no further ingestion")
        groups = self._route(list(records))
        merged = dict.fromkeys(_SUMMARY_KEYS, 0)
        for p, batch in sorted(groups.items()):
            summary = self._forward(p, "ingest", batch)
            for key in _SUMMARY_KEYS:
                merged[key] += int(summary.get(key, 0))
            self._spool(self._partitions[p], batch,
                        int(summary.get("n_seen", 0)))
        with self._route_lock:
            self.n_records_routed += sum(len(b) for b in groups.values())
            merged["parked"] = self._n_parked
        return merged

    def _spool(self, handle: _PartitionHandle, batch, clock: int) -> None:
        """Record an acked batch for post-crash replay (bounded).

        The batch is held as one pickle of the router's own objects,
        never client bytes, and is never written to disk.
        """
        blob = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
        with handle.lock:
            handle.spool.append((clock, len(batch), blob))
            handle.spool_records += len(batch)
            while (
                handle.spool_records > self.max_spool_records
                and len(handle.spool) > 1
            ):
                _, evicted, _ = handle.spool.popleft()
                handle.spool_records -= evicted
                handle.n_spool_evicted += evicted

    def advance_watermark(self, t: float) -> float:
        """Advance every partition's watermark; returns the tier's
        watermark in force (the minimum across partitions)."""
        t = float(t)
        with self._route_lock:
            self._watermark = max(self._watermark, t)
        return min(
            float(self._forward(p, "advance_watermark", t))
            for p in range(self.n_partitions)
        )

    def seal(self) -> dict:
        """Seal every partition; parked records are dropped and counted."""
        with self._route_lock:
            dropped = self._n_parked
            self.n_unroutable += dropped
            self._parked.clear()
            self._n_parked = 0
            self._sealed = True
        merged: dict = {"unroutable_records": dropped}
        for p in range(self.n_partitions):
            summary = self._forward(p, "seal")
            for key, value in summary.items():
                if isinstance(value, (int, float)):
                    merged[key] = merged.get(key, 0) + value
        return merged

    # ------------------------------------------------------------------
    # Queries: fan out and merge.
    # ------------------------------------------------------------------

    def estimates(self, since: int = 0) -> list[dict]:
        """Every partition's published windows, merged.

        Records gain ``partition`` (owner) and ``partition_index`` (the
        owner's window index) and are ordered by ``(t_start,
        partition)``; ``index`` is the position in that merged order.
        Because partitions publish independently, a lagging partition's
        window can insert *before* already-seen entries — treat ``since``
        as a convenience over one snapshot and key exact bookkeeping on
        ``(partition, partition_index)``.
        """
        since = int(since)
        if since < 0:
            raise IngestError(
                f"since must be a nonnegative window index, got {since}"
            )
        merged: list[dict] = []
        for p in range(self.n_partitions):
            for record in self._forward(p, "estimates", 0):
                record = dict(record)
                record["partition"] = p
                record["partition_index"] = record.pop("index")
                merged.append(record)
        merged.sort(key=lambda r: (r["t_start"], r["partition"]))
        for i, record in enumerate(merged):
            record["index"] = i
        return merged[since:]

    def anomalies(self) -> list[dict]:
        """Every partition's anomaly reports, tagged and merged."""
        merged: list[dict] = []
        for p in range(self.n_partitions):
            for report in self._forward(p, "anomalies"):
                report = dict(report)
                report["partition"] = p
                merged.append(report)
        merged.sort(key=lambda r: (r["t_start"], r["partition"]))
        return merged

    def health(self) -> dict:
        """One merged health record: tier status, per-partition records,
        and the router's own vital signs.

        Each merged section is the sum of the partitions' nested
        sections over the owning component's ``COUNTS`` table — the
        same counts the partitions' ``metrics`` series read."""
        partitions: list[dict] = []
        for p in range(self.n_partitions):
            try:
                partitions.append(self._forward(p, "health"))
            except (IngestError, ReproError, OSError) as exc:
                partitions.append({"status": "unreachable",
                                   "error": str(exc)})
        # An unreachable partition's stub doubles as its service section.
        services = [h.get("service") or h for h in partitions]
        streams = [h.get("stream") for h in partitions]
        statuses = [s.get("status") for s in services]
        if "failed" in statuses:
            status = "failed"
        elif "unreachable" in statuses:
            status = "degraded"
        elif all(s == "finished" for s in statuses):
            status = "finished"
        elif len(set(statuses)) == 1:
            status = statuses[0]
        else:
            status = "serving"
        service = {
            "status": status,
            "error": next(
                (s["error"] for s in services if s.get("error")), None
            ),
            "horizon": max(
                (s.get("horizon", 0.0) for s in services), default=0.0
            ),
            **EstimatorService.COUNTS.total(services),
        }
        stream_section = {
            "watermark": min(
                (s["watermark"] for s in streams if s), default=0.0
            ),
            "sealed": all(s is not None and s["sealed"] for s in streams),
            **LiveTraceStream.COUNTS.total(streams),
        }
        with self._route_lock:
            router = {
                "n_partitions": self.n_partitions,
                "block": self.block,
                **self.COUNTS.read(self),
                "restarts_per_partition": [
                    h.n_restarts for h in self._partitions
                ],
                "probe_error": self._probe_error,
            }
        record = {
            "schema": 1,
            "service": service,
            "stream": stream_section,
            "estimator": self._estimator_cls.COUNTS.total(
                h.get("estimator") for h in partitions
            ),
            "router": router,
            "partitions": partitions,
        }
        return flatten_health(record)

    def metrics_report(self, fmt: str = "snapshot"):
        """Tier-wide telemetry: every partition's report tagged with a
        ``partition`` provenance label, merged with the router's own.
        A partition that stays unreachable after the usual one-retry
        recovery is skipped — its series resume at the next poll.
        """
        reports: list[dict] = [telemetry.report()]
        for p in range(self.n_partitions):
            try:
                report = self._forward(p, "metrics", "snapshot")
            except (IngestError, ReproError, OSError):
                continue
            report = dict(report)
            report["metrics"] = telemetry.label_metrics(
                report.get("metrics") or [], partition=str(p)
            )
            report["window_traces"] = telemetry.label_traces(
                report.get("window_traces") or [], partition=p
            )
            reports.append(report)
        return render_metrics_report(telemetry.merge_reports(reports), fmt)

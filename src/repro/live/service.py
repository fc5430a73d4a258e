"""The always-on estimation supervisor: stream in, window estimates out.

:class:`EstimatorService` closes the loop the paper's online story needs:
a supervisor thread watches a :class:`~repro.live.stream.LiveTraceStream`
and, every time the stream's horizon has advanced far enough that a
window's task population can no longer change, drives one
:meth:`~repro.online.streaming.StreamingEstimator.process_window` and
*publishes* the result — the per-window rate estimate plus the anomaly
flags a monitoring consumer actually wants — to a thread-safe store the
ingestion server exposes over its query commands.

Window scheduling mirrors the replay path exactly: window *i* starts at
``i * step`` and is processed once the stream's horizon reaches the
window's end (or the stream is sealed), in strict order.  Because the
streaming estimator spawns one seed child per window in that same order,
a window processed live is **bitwise** the window the replay path would
have produced — the acceptance contract of ``tests/live/test_service.py``.

Checkpoint/restore: after every ``checkpoint_every`` published windows
the service snapshots (atomically, via rename) the stream's record log,
the estimator's seed/bookkeeping state, and the published estimates.
:meth:`EstimatorService.from_checkpoint` rebuilds all three; the restored
service re-reveals from the record log, keeps every pre-crash estimate,
and processes the remaining windows bitwise as the uninterrupted run
would have — an ingestion client only needs to replay the tail recorded
after the snapshot (duplicates are ignored by the stream).  Snapshot
*capture* happens under the window lock but serialization and disk I/O
run on a background writer, so a slow checkpoint never blocks window
publishing; with a stream retention horizon (``LiveTraceStream(retain=
...)``) the record log in the snapshot is the retained tail only, so
checkpoint size is bounded by the horizon, not stream age.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import traceback
from dataclasses import replace
from operator import attrgetter

from repro import telemetry
from repro.errors import IngestError
from repro.live.stream import LiveTraceStream
from repro.online import EstimatorConfig, StreamEstimatorProtocol, get_estimator
from repro.online.anomaly import detect_anomalies
from repro.online.streaming import StreamEstimate
from repro.online.windowed import WindowEstimate

#: Service lifecycle states reported by :meth:`EstimatorService.health`.
SERVICE_STATES = ("idle", "serving", "finished", "stopped", "failed")

#: Published windows the anomaly detector looks back over when judging a
#: freshly published window.  Bounds per-publish work for an always-on
#: service (the detector's history is otherwise expanding); below this
#: many windows the flags are identical to whole-history detection.
ANOMALY_TAIL_WINDOWS = 64


#: Renderings accepted by the ``metrics`` wire command.
METRICS_FORMATS = ("snapshot", "json", "prometheus")


def render_metrics_report(report: dict, fmt: str):
    """Render a telemetry report for the wire: the structured snapshot
    itself, canonical JSON text, or Prometheus v0 text."""
    if fmt == "snapshot":
        return report
    if fmt == "json":
        return telemetry.render_json(report)
    if fmt == "prometheus":
        return telemetry.render_prometheus(report.get("metrics") or [])
    raise IngestError(
        f"unknown metrics format {fmt!r}; expected one of {METRICS_FORMATS}"
    )


def flatten_health(record: dict) -> dict:
    """Mirror a schema-1 health record's nested sections as flat keys.

    Compatibility shim for pre-schema consumers: every key of
    ``service`` and ``stream`` reappears at the top level, exactly as
    the flat records of earlier releases spelled them.  The ``workers``
    and ``server`` sections were already flat keys before.  The
    benchmark's ``perfbench/serve_webapp.py`` still reads the flat
    ``status`` and ``windows_published``; the shim goes once it reads
    ``health["service"]`` instead.
    """
    flat = dict(record)
    for section in ("service", "stream"):
        body = record.get(section)
        if isinstance(body, dict):
            for key, value in body.items():
                flat.setdefault(key, value)
    return flat


def estimate_to_record(estimate: WindowEstimate, index: int) -> dict:
    """Flatten a window estimate into a plain, wire-friendly dict."""
    return {
        "index": int(index),
        "t_start": float(estimate.t_start),
        "t_end": float(estimate.t_end),
        "n_tasks": int(estimate.n_tasks),
        "n_observed_tasks": int(estimate.n_observed_tasks),
        "rates": None if estimate.rates is None else [
            float(r) for r in estimate.rates
        ],
        "failure": estimate.failure,
        "n_shards": int(getattr(estimate, "n_shards", 1)),
        "n_warm_shards": int(getattr(estimate, "n_warm_shards", 0)),
        "n_migrated_shards": int(getattr(estimate, "n_migrated_shards", 0)),
    }


class EstimatorService:
    """Supervise a stream estimator over a live stream and publish its
    window estimates.

    Parameters
    ----------
    estimator:
        The estimator to drive — anything satisfying
        :class:`~repro.online.StreamEstimatorProtocol` (the registered
        flavors are StEM's
        :class:`~repro.online.streaming.StreamingEstimator` and the
        particle filter's :class:`~repro.online.smc.SMCEstimator`; the
        service never branches on which).  Its ``stream`` is normally a
        :class:`~repro.live.stream.LiveTraceStream` (anything satisfying
        the :class:`~repro.online.streaming.TraceStream` contract works —
        a replay source just finishes immediately after a seal-equivalent
        full reveal).
    checkpoint_path:
        Where to snapshot service state (``None`` disables checkpointing).
    checkpoint_every:
        Published windows between snapshots.
    poll_interval:
        Fallback wait (seconds) between scheduling checks when the stream
        offers no progress notification.
    anomaly_threshold:
        Robust z-score above which a published window is flagged (see
        :func:`~repro.online.anomaly.detect_anomalies`).
    """

    #: Every count the service reports, named once (see
    #: :class:`repro.telemetry.Counts`).  Published windows and the ingest
    #: clock come back from a checkpoint (anomalies are re-detected over
    #: them), so a restored service resumes these series.
    COUNTS = telemetry.Counts(
        windows_published=(
            "repro_service_windows_published_total",
            lambda service: len(service._published),
        ),
        anomalies=(
            "repro_service_anomalies_total",
            lambda service: len(service._anomalies),
        ),
        n_records_seen="repro_service_records_seen_total",
        checkpoint_bytes=(
            "repro_service_checkpoint_bytes",
            attrgetter("last_checkpoint_bytes"),
        ),
    )

    def __init__(
        self,
        estimator: StreamEstimatorProtocol,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 1,
        poll_interval: float = 0.25,
        anomaly_threshold: float = 4.0,
    ) -> None:
        if checkpoint_every < 1:
            raise IngestError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.estimator = estimator
        self.stream = estimator.stream
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = int(checkpoint_every)
        self.poll_interval = float(poll_interval)
        self.anomaly_threshold = float(anomaly_threshold)
        self._lock = threading.RLock()
        self._published: list[StreamEstimate] = []
        #: Wall-clock publish time per window — display/benchmark use only.
        #: NTP steps can move this clock, so latency metrics never derive
        #: from it; see :attr:`publish_latency`.
        self.published_at: list[float] = []
        #: Monotonic pickup-to-publish duration per window (nan for
        #: windows restored from a checkpoint).  Index-aligned with
        #: :attr:`published_at`.
        self.publish_latency: list[float] = []
        self._anomalies = []
        self._windows_since_checkpoint = 0
        # Serializes window processing against snapshot *capture*: a
        # snapshot taken mid-window could capture a spawned-but-uncounted
        # seed child, silently breaking the bitwise-restore guarantee.
        # Serialization and disk I/O happen off this lock (see
        # _write_snapshot), so a slow checkpoint write never stalls
        # window publishing.
        self._window_lock = threading.Lock()
        # Serializes checkpoint writers on the temp file and orders their
        # sequence numbers, so a stale snapshot never overwrites a newer
        # one on disk.
        self._ckpt_io_lock = threading.Lock()
        self._ckpt_seq = 0
        self._ckpt_written = 0
        self._ckpt_pending: tuple[int, dict] | None = None
        self._ckpt_cond = threading.Condition()
        self._ckpt_stop = threading.Event()
        self._ckpt_thread: threading.Thread | None = None
        self._ckpt_error: str | None = None
        #: Size in bytes of the last snapshot written (None before one).
        self.last_checkpoint_bytes: int | None = None
        #: What the newest snapshot **on disk** covers: the cumulative
        #: count of records successfully ingested before its capture, and
        #: the windows published by then.  A router uses the count as a
        #: logical clock to trim its replay spool — anything at or below
        #: ``n_seen`` is durable and need never be replayed.
        self.last_checkpoint_meta: dict | None = None
        #: Cumulative records accepted by :meth:`ingest` (successful calls
        #: only, so a router acking batches counts the same clock).
        self.n_records_seen = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._status = "idle"
        self._error: str | None = None
        self.COUNTS.bind(self)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> "EstimatorService":
        """Launch the supervisor thread (idempotent while running)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            self._stop.clear()
            self._status = "serving"
            self._thread = threading.Thread(
                target=self._loop, name="repro-estimator-service", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float | None = 30.0) -> None:
        """Stop the supervisor, final-checkpoint, and release the pool."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._ckpt_stop.set()
        with self._ckpt_cond:
            self._ckpt_cond.notify_all()
        writer = self._ckpt_thread
        if writer is not None:
            writer.join(timeout)
        with self._lock:
            if self._status == "serving":
                self._status = "stopped"

    def join(self, timeout: float | None = None) -> None:
        """Wait for the supervisor to finish draining a sealed stream."""
        thread = self._thread
        if thread is not None:
            thread.join(timeout)

    def __enter__(self) -> "EstimatorService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # The supervisor loop.
    # ------------------------------------------------------------------

    def _next_ready_start(self) -> float | None:
        """Start of the next window whose population is final, else None.

        The grid is the replay grid (window *i* at ``i * step`` while
        ``i * step < horizon``); an unsealed stream additionally holds a
        window back until the horizon clears its *end*, because tasks
        with entries inside a still-open window could yet be revealed.
        """
        est = self.estimator
        horizon = self.stream.horizon
        if horizon <= 0.0:
            return None
        t0 = est.n_windows_done * est.step
        if t0 >= horizon:
            return None
        sealed = getattr(self.stream, "sealed", True)
        if not sealed and horizon < t0 + est.window:
            return None
        return t0

    def _loop(self) -> None:
        try:
            while not self._stop.is_set():
                # Read `sealed` BEFORE scanning the grid: seal is monotone,
                # so a seal landing after this read only makes more windows
                # ready — caught next iteration.  Reading it after the scan
                # would race: a seal between the two could grow the grid
                # and still let this iteration declare "finished" with
                # windows left unprocessed.  (Streams without a seal
                # notion — a replay source — are treated as always-sealed,
                # same as in _next_ready_start.)
                sealed = getattr(self.stream, "sealed", True)
                t0 = self._next_ready_start()
                if t0 is not None:
                    est = self.estimator
                    started = time.monotonic()
                    with telemetry.window_trace(
                        est.n_windows_done, t0, t0 + est.window
                    ):
                        with self._window_lock:
                            estimate = est.process_window(t0)
                        with telemetry.phase("publish"):
                            self._publish(estimate, started=started)
                    continue
                if sealed:
                    with self._lock:
                        self._status = "finished"
                    break
                self._wait_for_progress()
        except Exception as exc:  # noqa: BLE001 — surfaced via health()
            with self._lock:
                self._status = "failed"
                self._error = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
        finally:
            try:
                self._checkpoint_now()
            finally:
                self.estimator.close()

    def _wait_for_progress(self) -> None:
        waiter = getattr(self.stream, "wait_for_progress", None)
        if waiter is not None:
            waiter(self.poll_interval)
        else:
            time.sleep(self.poll_interval)

    def _publish(self, estimate: StreamEstimate, started: float | None = None) -> None:
        latency = (
            float("nan") if started is None else time.monotonic() - started
        )
        with self._lock:
            self._published.append(estimate)
            self.published_at.append(time.time())
            self.publish_latency.append(latency)
            # Judge only the fresh window, against a bounded rolling tail:
            # older windows were judged when they were the fresh one (the
            # detector's per-window verdict depends only on its preceding
            # history, so accumulated flags never change retroactively).
            offset = max(0, len(self._published) - ANOMALY_TAIL_WINDOWS)
            newest = len(self._published) - 1 - offset
            for report in detect_anomalies(
                self._published[offset:], threshold=self.anomaly_threshold
            ):
                if report.window_index == newest:
                    self._anomalies.append(
                        replace(report, window_index=report.window_index + offset)
                    )
            self._windows_since_checkpoint += 1
            due = self._windows_since_checkpoint >= self.checkpoint_every
        if started is not None and telemetry.enabled():
            telemetry.histogram("repro_service_publish_seconds").observe(latency)
        if due:
            # Capture now, write in the background: publishing must not
            # wait on checkpoint I/O.
            self._checkpoint_now(wait=False)

    # ------------------------------------------------------------------
    # Query API (thread-safe; what the ingestion server exposes).
    # ------------------------------------------------------------------

    def estimates(self, since: int = 0) -> list[dict]:
        """Published window estimates from index *since* on, as records
        with their anomaly flags attached."""
        since = int(since)
        if since < 0:
            # A negative index would silently slice the tail while the
            # records still claim absolute window indices — reject it.
            raise IngestError(
                f"since must be a nonnegative window index, got {since}"
            )
        with self._lock:
            flagged = {(r.window_index, r.queue) for r in self._anomalies}
            out = []
            for i, w in enumerate(self._published[since:], start=since):
                record = estimate_to_record(w, i)
                record["anomalous_queues"] = sorted(
                    q for (idx, q) in flagged if idx == i
                )
                out.append(record)
            return out

    def anomalies(self) -> list[dict]:
        """Currently flagged (window, queue) anomaly reports."""
        with self._lock:
            return [
                {
                    "queue": r.queue,
                    "window_index": r.window_index,
                    "t_start": r.t_start,
                    "t_end": r.t_end,
                    "value": r.value,
                    "baseline": r.baseline,
                    "z_score": r.z_score,
                }
                for r in self._anomalies
            ]

    def windows(self) -> list[StreamEstimate]:
        """The raw published estimates (in-process consumers and tests)."""
        with self._lock:
            return list(self._published)

    def health(self) -> dict:
        """One versioned status record (the ``health`` command).

        Schema 1 nests the record into ``service`` / ``stream`` /
        ``workers`` / ``estimator`` sections (``stream`` and ``workers``
        are ``None`` when the service has no live stream / no worker
        pool; the wire server adds a ``server`` section).  Every count
        is read from its owner's ``COUNTS`` table, the same reads the
        ``metrics`` series make.  The flat pre-schema keys are still
        mirrored at the top level — see :func:`flatten_health`.
        """
        with self._lock:
            status = self._status
            error = self._error
        stream = self.stream
        estimator = self.estimator
        service = {
            "status": status,
            "error": error,
            "horizon": float(stream.horizon),
            "checkpointing": self.checkpoint_path is not None,
            "checkpoint_error": self._ckpt_error,
            "checkpoint_meta": self.last_checkpoint_meta,
            **self.COUNTS.read(self),
        }
        record = {
            "schema": 1,
            "service": service,
            "stream": (
                stream.health() if isinstance(stream, LiveTraceStream) else None
            ),
            # Shard-worker liveness (None when the estimator is unpooled):
            # a monitoring consumer sees a killed worker here before the
            # next window trips over it, and the relaunch tally after.
            "workers": estimator.pool_stats(),
            "estimator": estimator.COUNTS.read(estimator),
        }
        return flatten_health(record)

    def metrics_report(self, fmt: str = "snapshot"):
        """This process's telemetry (the ``metrics`` wire command).

        ``fmt="snapshot"`` returns the structured report dict (what the
        router merges and ``repro top`` consumes); ``"json"`` and
        ``"prometheus"`` return rendered text.
        """
        return render_metrics_report(telemetry.report(), fmt)

    # Ingestion passthroughs, so the server needs only this one object.

    def ingest(self, records: list[dict]) -> dict:
        """Admit measurement records into the live stream."""
        if not isinstance(self.stream, LiveTraceStream):
            raise IngestError("this service's stream does not accept ingestion")
        summary = self.stream.ingest(records)
        # Count only *after* the stream accepted the whole batch, so a
        # snapshot can never claim records the stream does not hold (the
        # safe direction: a snapshot between the ingest and this increment
        # merely makes a replayer re-send records the stream will drop as
        # duplicates).
        with self._lock:
            self.n_records_seen += len(records)
            # The clock rides the ack: a router tags its replay-spool
            # entries with it and compares against checkpoint coverage.
            summary["n_seen"] = self.n_records_seen
        return summary

    def advance_watermark(self, t: float) -> float:
        """Advance the live stream's watermark."""
        if not isinstance(self.stream, LiveTraceStream):
            raise IngestError("this service's stream has no watermark")
        return self.stream.advance_watermark(t)

    def seal(self) -> dict:
        """Seal the live stream (end of input)."""
        if not isinstance(self.stream, LiveTraceStream):
            raise IngestError("this service's stream cannot be sealed")
        return self.stream.seal()

    # ------------------------------------------------------------------
    # Checkpoint / restore.
    # ------------------------------------------------------------------

    def _build_snapshot(self) -> tuple[int, dict]:
        """Capture service state under the locks — no serialization, no
        I/O — and stamp it with a monotone sequence number."""
        with self._window_lock:  # never snapshot a half-processed window
            with self._lock:
                snapshot = {
                    "version": 1,
                    "stream": self.stream.snapshot_state(),
                    "estimator": self.estimator.state_dict(),
                    "published": list(self._published),
                    "service": {
                        "checkpoint_every": self.checkpoint_every,
                        "poll_interval": self.poll_interval,
                        "anomaly_threshold": self.anomaly_threshold,
                    },
                    "ingest": {"n_seen": self.n_records_seen},
                }
                self._windows_since_checkpoint = 0
                self._ckpt_seq += 1
                return self._ckpt_seq, snapshot

    def _write_snapshot(self, seq: int, snapshot: dict) -> None:
        """Serialize and atomically replace the checkpoint file.

        Runs off the window/publish locks, so window processing proceeds
        while the snapshot is on its way to disk.  Stale snapshots (a
        newer sequence already written) are dropped instead of clobbering
        fresher state.
        """
        with self._ckpt_io_lock:
            if seq <= self._ckpt_written:
                return
            with telemetry.phase("checkpoint"):
                t_start = time.perf_counter()
                payload = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
                tmp = f"{self.checkpoint_path}.tmp"
                with open(tmp, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, self.checkpoint_path)
                self._ckpt_written = seq
                self.last_checkpoint_bytes = len(payload)
                # Meta describes the snapshot that *reached disk* — never the
                # captured-but-unwritten one a crash would lose.
                self.last_checkpoint_meta = {
                    "n_seen": snapshot.get("ingest", {}).get("n_seen", 0),
                    "windows": len(snapshot.get("published", ())),
                }
            if telemetry.enabled():
                telemetry.histogram("repro_service_checkpoint_seconds").observe(
                    time.perf_counter() - t_start
                )

    def _checkpoint_now(self, wait: bool = True) -> None:
        if self.checkpoint_path is None:
            return
        if not isinstance(self.stream, LiveTraceStream):
            return
        seq, snapshot = self._build_snapshot()
        if wait:
            self._write_snapshot(seq, snapshot)
            return
        with self._ckpt_cond:
            self._ckpt_pending = (seq, snapshot)  # newest snapshot wins
            self._ensure_ckpt_writer()
            self._ckpt_cond.notify_all()

    def _ensure_ckpt_writer(self) -> None:
        if self._ckpt_thread is not None and self._ckpt_thread.is_alive():
            return
        self._ckpt_thread = threading.Thread(
            target=self._ckpt_loop,
            name="repro-estimator-checkpoint",
            daemon=True,
        )
        self._ckpt_thread.start()

    def _ckpt_loop(self) -> None:
        while True:
            with self._ckpt_cond:
                while (
                    self._ckpt_pending is None
                    and not self._ckpt_stop.is_set()
                ):
                    self._ckpt_cond.wait(0.25)
                pending, self._ckpt_pending = self._ckpt_pending, None
            if pending is None:  # stop requested and the queue is drained
                return
            try:
                self._write_snapshot(*pending)
            except Exception as exc:  # noqa: BLE001 — surfaced via health()
                with self._lock:
                    self._ckpt_error = "".join(
                        traceback.format_exception_only(type(exc), exc)
                    ).strip()

    def checkpoint(self) -> None:
        """Force a synchronous snapshot now (also runs on stop/finish)."""
        self._checkpoint_now()

    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        transport=None,
        checkpoint_path: str | None = None,
        **overrides,
    ) -> "EstimatorService":
        """Rebuild a service (stream + estimator + published estimates)
        from a snapshot written by :meth:`checkpoint`.

        The restored estimator continues the snapshot's per-window seed
        stream exactly, so windows processed after the restart are bitwise
        the ones the uninterrupted service would have published.  Pass
        *transport* to rebuild socket-backed shard workers; *overrides*
        replace stored service options (``checkpoint_every`` etc.).
        By default the restored service keeps checkpointing to *path*.
        """
        with open(path, "rb") as fh:
            snapshot = pickle.load(fh)
        if snapshot.get("version") != 1:
            raise IngestError(
                f"unrecognized checkpoint version in {path!r}: "
                f"{snapshot.get('version')!r}"
            )
        stream = LiveTraceStream.from_state(snapshot["stream"])
        est_state = snapshot["estimator"]
        # Dispatch on the estimator name the checkpoint carries.
        estimator_cls = get_estimator(est_state.get("estimator"))
        estimator = estimator_cls(
            stream,
            transport=transport,
            config=EstimatorConfig.from_state(est_state["config"]),
        )
        estimator.load_state_dict(est_state)
        options = dict(snapshot["service"])
        options.update(overrides)
        service = cls(
            estimator,
            checkpoint_path=path if checkpoint_path is None else checkpoint_path,
            **options,
        )
        service._published = list(snapshot["published"])
        service.n_records_seen = snapshot.get("ingest", {}).get("n_seen", 0)
        # The restored state *is* the newest on-disk snapshot.
        service.last_checkpoint_meta = {
            "n_seen": service.n_records_seen,
            "windows": len(service._published),
        }
        # Publish times and latencies are per process lifetime;
        # pre-restart windows get nan so both lists stay index-aligned
        # with the published windows.
        service.published_at = [float("nan")] * len(service._published)
        service.publish_latency = [float("nan")] * len(service._published)
        service._anomalies = detect_anomalies(
            service._published, threshold=service.anomaly_threshold
        )
        return service

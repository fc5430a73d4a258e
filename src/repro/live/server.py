"""Threaded ingestion + query server for the live estimation service.

One listener, many client connections, one wire format: every message is
a length-prefixed pickle frame over TCP, and every connection must pass
the same mutual HMAC handshake before any frame crosses — the framing and
handshake machinery is *shared* with the shard-worker transport
(:mod:`repro.inference.transport`), so a deployment that already ships
worker traffic over sockets speaks the ingestion protocol for free.

Protocol: the client sends ``(command, *args)`` tuples and receives
``("ok", result)`` or ``("error", message)``:

``("ingest", records)``
    Admit a batch of measurement records; result is the admission
    summary.  Backpressure surfaces as an ``error`` reply naming it —
    the client backs off and retries.
``("watermark", t)`` / ``("seal",)``
    Advance the stream's lateness promise / declare end of input.
``("estimates", since)`` / ``("anomalies",)`` / ``("health",)``
    Query the published window estimates (with anomaly flags), the
    current anomaly reports, or the service's health record.
``("shutdown",)``
    Ask the process hosting the server to exit its serve loop.

:class:`LiveClient` wraps the client side; ``repro ingest`` and the
examples use nothing else.
"""

from __future__ import annotations

import socket
import threading
import time

from repro import telemetry
from repro.errors import IngestError, ReproError
from repro.inference.transport import (
    SocketEndpoint,
    _master_handshake,
    _worker_handshake,
)

#: Development-only default shared secret.  Anything reachable from an
#: untrusted network MUST run with its own key (frames are pickles; the
#: handshake is what keeps unpickling attacker bytes impossible).
DEFAULT_AUTHKEY = b"repro-live-dev"

#: Commands a connection may issue, mapped to the service methods they call.
COMMANDS = (
    "ingest", "watermark", "seal", "estimates", "anomalies", "health",
    "metrics", "shutdown",
)


class LiveServer:
    """Serve a :class:`~repro.live.service.EstimatorService` over TCP.

    Parameters
    ----------
    service:
        The estimator service commands are dispatched to (it is *not*
        started or stopped by the server — the caller owns its lifecycle).
    host / port:
        Listen address; port 0 picks a free port (read :attr:`address`).
    authkey:
        Shared handshake secret; every client must present the same key.
    handshake_timeout:
        Seconds a dialing connection gets to complete the handshake, so a
        stuck or impostor peer cannot wedge its handler thread forever.
    """

    #: The server's own counts, named once (see
    #: :class:`repro.telemetry.Counts`); ``stats()`` is their section.
    COUNTS = telemetry.Counts(
        n_rejected="repro_server_rejected_connections_total",
        n_dispatch_errors="repro_server_dispatch_errors_total",
    )

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        authkey: bytes = DEFAULT_AUTHKEY,
        handshake_timeout: float = 10.0,
    ) -> None:
        self.service = service
        self.authkey = bytes(authkey)
        self.handshake_timeout = float(handshake_timeout)
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._shutdown_requested = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._handlers: list[threading.Thread] = []
        self._endpoints: set[SocketEndpoint] = set()
        self._lock = threading.Lock()
        #: Connections dropped for failing the handshake (misconfigured
        #: clients show up here instead of as silent hangs).
        self.n_rejected = 0
        #: Commands that raised something *other* than the protocol's
        #: expected error types.  Each one is a bug in the service, but it
        #: must surface as an ``("error", ...)`` reply plus this counter —
        #: never as a dead handler thread with the client wedged in recv.
        self.n_dispatch_errors = 0
        #: Human-readable description of the newest unexpected failure.
        self.last_dispatch_error: str | None = None
        self.COUNTS.bind(self)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> "LiveServer":
        """Begin accepting connections (idempotent while running)."""
        if self._accept_thread is None or not self._accept_thread.is_alive():
            self._stop.clear()
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-live-accept", daemon=True
            )
            self._accept_thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, drop every connection, join handler threads."""
        self._stop.set()
        if self._accept_thread is not None:
            self._accept_thread.join(5.0)
        with self._lock:
            endpoints = list(self._endpoints)
            handlers = list(self._handlers)
        for endpoint in endpoints:
            endpoint.close()
        for thread in handlers:
            thread.join(5.0)
        try:
            self._listener.close()
        except OSError:
            pass

    def wait_for_shutdown(self, timeout: float | None = None) -> bool:
        """Block until a client issues ``shutdown`` (True) or timeout."""
        return self._shutdown_requested.wait(timeout)

    def __enter__(self) -> "LiveServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="repro-live-conn", daemon=True,
            )
            with self._lock:
                # Prune finished handlers so an always-on server taking
                # short-lived connections does not accumulate dead Thread
                # objects for its whole lifetime.
                self._handlers = [t for t in self._handlers if t.is_alive()]
                self._handlers.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.settimeout(self.handshake_timeout)
        try:
            authenticated = _master_handshake(conn, self.authkey)
        except (EOFError, OSError):
            authenticated = False
        if not authenticated:
            with self._lock:
                self.n_rejected += 1
            try:
                conn.close()
            except OSError:
                pass
            return
        conn.settimeout(None)
        endpoint = SocketEndpoint(conn)
        with self._lock:
            self._endpoints.add(endpoint)
        try:
            while not self._stop.is_set():
                try:
                    message = endpoint.recv()
                except (EOFError, OSError):
                    return  # client hung up (or close() pulled the socket)
                reply = self._dispatch(message)
                try:
                    endpoint.send(reply)
                except OSError:
                    return  # client left without reading the reply
        finally:
            with self._lock:
                self._endpoints.discard(endpoint)
            endpoint.close()

    def _dispatch(self, message) -> tuple:
        if (
            not isinstance(message, tuple)
            or not message
            or message[0] not in COMMANDS
        ):
            return ("error", f"unknown command {message!r}; expected one of "
                             f"{COMMANDS}")
        command, *args = message
        reg = telemetry.get_registry()
        reg.counter("repro_server_requests_total", command=command).inc()
        if not reg.enabled:
            return self._dispatch_command(command, args)
        t_start = time.perf_counter()
        try:
            return self._dispatch_command(command, args)
        finally:
            reg.histogram("repro_server_request_seconds").observe(
                time.perf_counter() - t_start
            )

    def _dispatch_command(self, command: str, args: list) -> tuple:
        try:
            if command == "ingest":
                return ("ok", self.service.ingest(*args))
            if command == "watermark":
                return ("ok", self.service.advance_watermark(*args))
            if command == "seal":
                return ("ok", self.service.seal())
            if command == "estimates":
                return ("ok", self.service.estimates(*args))
            if command == "anomalies":
                return ("ok", self.service.anomalies())
            if command == "health":
                record = self.service.health()
                # Attach the wire layer's own vital signs: a monitoring
                # consumer polling health sees handshake rejections and
                # swallowed dispatch failures without a server-side log.
                record["server"] = self.stats()
                return ("ok", record)
            if command == "metrics":
                return ("ok", self.service.metrics_report(*args))
            if command == "shutdown":
                self._shutdown_requested.set()
                return ("ok", "shutting down")
            # A command listed in COMMANDS but not handled above is a
            # programming error; an error reply beats a surprise action.
            return ("error", f"command {command!r} has no handler")
        except ReproError as exc:
            return ("error", str(exc))
        except (TypeError, ValueError) as exc:
            return ("error", f"bad arguments for {command!r}: {exc}")
        except Exception as exc:  # noqa: BLE001 — reply, count, keep serving
            # Anything else is a service bug — but letting it unwind the
            # handler thread would leave the client blocked in recv()
            # until TCP keepalive fires, minutes later.  Reply, record it
            # (health() exposes the tally), and keep the connection alive.
            description = f"{type(exc).__name__}: {exc}"
            with self._lock:
                self.n_dispatch_errors += 1
                self.last_dispatch_error = f"{command}: {description}"
            return (
                "error",
                f"internal error handling {command!r}: {description}",
            )

    def stats(self) -> dict:
        """The server's own counters (merged into ``health`` replies)."""
        with self._lock:
            return {
                **self.COUNTS.read(self),
                "last_dispatch_error": self.last_dispatch_error,
            }


class LiveClient:
    """Client side of the ingestion/query protocol.

    Connects eagerly, handshakes, and exposes one method per command.
    Handshake failures raise a diagnosable
    :class:`~repro.errors.IngestError` ("wrong authkey" beats a hung
    socket); ``error`` replies raise :class:`IngestError` with the
    server's message.
    """

    def __init__(
        self,
        address: tuple[str, int],
        authkey: bytes = DEFAULT_AUTHKEY,
        timeout: float = 30.0,
    ) -> None:
        self.address = (address[0], int(address[1]))
        sock = socket.create_connection(self.address, timeout=timeout)
        try:
            accepted = _worker_handshake(sock, bytes(authkey))
        except (EOFError, OSError) as exc:
            sock.close()
            raise IngestError(
                f"server at {self.address} closed the connection during the "
                f"handshake ({exc}) — wrong authkey on one side, or the peer "
                "is not a repro-live server"
            ) from None
        if not accepted:
            sock.close()
            raise IngestError(
                f"handshake with {self.address} failed: wrong authkey, or "
                "the peer is not a repro-live server"
            )
        sock.settimeout(None)
        self._endpoint = SocketEndpoint(sock)
        self._lock = threading.Lock()
        #: Why this client is unusable (``None`` while healthy).  Once a
        #: connection has lost a reply or produced a frame that is not a
        #: ``(status, payload)`` pair, the request/reply pairing on the
        #: wire can no longer be trusted — a later call could read the
        #: stale reply of an earlier one — so the client stays dead and
        #: every subsequent call fails fast instead of desyncing quietly.
        self._dead: str | None = None

    @property
    def dead(self) -> str | None:
        """Why this client is permanently unusable (``None`` if healthy)."""
        return self._dead

    def _call(self, *message):
        with self._lock:
            if self._dead is not None:
                raise IngestError(
                    f"client for {self.address} is dead ({self._dead}); "
                    "open a new LiveClient"
                )
            try:
                self._endpoint.send(message)
                reply = self._endpoint.recv()
            except (EOFError, OSError) as exc:
                self._dead = f"connection lost mid-command: {exc}"
                raise IngestError(
                    f"connection to {self.address} lost mid-command ({exc})"
                ) from None
            if (
                not isinstance(reply, tuple)
                or len(reply) != 2
            ):
                self._dead = (
                    f"malformed reply to {message[0]!r}: {reply!r}"
                )
                self._endpoint.close()
                raise IngestError(
                    f"malformed reply from {self.address} to {message[0]!r}: "
                    f"expected a (status, payload) pair, got {reply!r} — "
                    "closing the connection (framing can no longer be trusted)"
                )
            status, payload = reply
        if status != "ok":
            raise IngestError(f"server refused {message[0]!r}: {payload}")
        return payload

    def ingest(self, records: list[dict]) -> dict:
        """Ship a batch of measurement records; returns admission counts."""
        return self._call("ingest", list(records))

    def advance_watermark(self, t: float) -> float:
        """Advance the server's watermark; returns the watermark in force."""
        return self._call("watermark", float(t))

    def seal(self) -> dict:
        """Declare end of input."""
        return self._call("seal")

    def estimates(self, since: int = 0) -> list[dict]:
        """Published window estimates (with anomaly flags) from *since* on."""
        return self._call("estimates", int(since))

    def anomalies(self) -> list[dict]:
        """Current anomaly reports."""
        return self._call("anomalies")

    def health(self) -> dict:
        """The service's health record."""
        return self._call("health")

    def metrics(self, fmt: str = "snapshot"):
        """The serving process's telemetry: a structured snapshot dict,
        or rendered ``"json"`` / ``"prometheus"`` text."""
        return self._call("metrics", str(fmt))

    def shutdown(self) -> None:
        """Ask the serving process to exit its serve loop."""
        self._call("shutdown")

    def close(self) -> None:
        """Close the connection; idempotent."""
        self._endpoint.close()

    def __enter__(self) -> "LiveClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

"""Tests for the live ingestion/query server (repro.live.server)."""

import socket
import time

import numpy as np
import pytest

from repro.errors import IngestError
from repro.live import (
    EstimatorService,
    LiveClient,
    LiveServer,
    LiveTraceStream,
    replay_batches,
)
from repro.network import build_tandem_network
from repro.observation import TaskSampling
from repro.online import StreamingEstimator, WindowedEstimator
from repro.simulate import simulate_network


def make_trace(n_tasks=150, seed=3, fraction=0.3):
    net = build_tandem_network(4.0, [6.0, 8.0])
    sim = simulate_network(net, n_tasks, random_state=seed)
    trace = TaskSampling(fraction=fraction).observe(sim.events, random_state=1)
    horizon = float(np.nanmax(sim.events.departure))
    return trace, horizon


def make_service(trace, horizon, windows=3, **est_kwargs):
    stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
    estimator = StreamingEstimator(
        stream, window=horizon / windows, stem_iterations=8, random_state=5,
        **est_kwargs,
    )
    return EstimatorService(estimator, poll_interval=0.02)


#: Calls of :func:`_tripwire`: a frame that reaches ``pickle.loads``
#: leaves its mark here.
_TRIPPED: list = []


def _tripwire(tag):
    _TRIPPED.append(tag)


class _Tripwire:
    """Unpickles as a call to :func:`_tripwire`."""

    def __reduce__(self):
        return (_tripwire, ("unpickled",))


def wait_until(client, statuses=("finished", "failed"), timeout=90.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        health = client.health()
        if health["status"] in statuses:
            return health
        time.sleep(0.02)
    raise AssertionError(f"service never reached {statuses}: {client.health()}")


class TestServerSmoke:
    def test_live_server_smoke_bitwise_vs_replay(self):
        """The CI smoke: start a server, ingest a short trace over the
        wire, and the published windows match the replay/windowed path
        bitwise at the same seed."""
        trace, horizon = make_trace()
        ref = WindowedEstimator(
            trace, window=horizon / 3, stem_iterations=8, random_state=5
        ).run()
        service = make_service(trace, horizon, windows=3)
        with service, LiveServer(service, authkey=b"smoke-key") as server:
            client = LiveClient(server.address, authkey=b"smoke-key")
            with client:
                for watermark, batch in replay_batches(trace):
                    client.advance_watermark(watermark)
                    client.ingest(batch)
                client.seal()
                health = wait_until(client)
                assert health["status"] == "finished", health["error"]
                published = client.estimates()
        assert len(published) == len(ref)
        assert any(w["rates"] is not None for w in published)
        for a, b in zip(ref, published):
            assert (a.t_start, a.t_end) == (b["t_start"], b["t_end"])
            assert a.n_tasks == b["n_tasks"]
            if a.rates is None:
                assert b["rates"] is None
            else:
                np.testing.assert_array_equal(
                    np.asarray(a.rates), np.asarray(b["rates"])
                )

    def test_health_and_estimates_since(self):
        trace, horizon = make_trace(n_tasks=100)
        service = make_service(trace, horizon, windows=2)
        with service, LiveServer(service, authkey=b"k") as server:
            with LiveClient(server.address, authkey=b"k") as client:
                health = client.health()
                assert health["status"] == "serving"
                assert health["sealed"] is False
                assert health["windows_published"] == 0
                for watermark, batch in replay_batches(trace):
                    client.advance_watermark(watermark)
                    client.ingest(batch)
                client.seal()
                health = wait_until(client)
                assert health["n_admitted"] == trace.skeleton.n_events
                assert health["sealed"] is True
                all_of_them = client.estimates()
                tail = client.estimates(since=1)
                assert all_of_them[1:] == tail
                assert client.anomalies() == []  # healthy two-window trace

    def test_multiple_clients_share_one_stream(self):
        trace, horizon = make_trace(n_tasks=100)
        service = make_service(trace, horizon, windows=2)
        batches = replay_batches(trace, batch_tasks=8)
        with service, LiveServer(service, authkey=b"k") as server:
            a = LiveClient(server.address, authkey=b"k")
            b = LiveClient(server.address, authkey=b"k")
            with a, b:
                for i, (watermark, batch) in enumerate(batches):
                    sender = a if i % 2 == 0 else b
                    sender.advance_watermark(watermark)
                    sender.ingest(batch)
                a.seal()
                health = wait_until(b)
                assert health["status"] == "finished", health["error"]
                assert health["n_admitted"] == trace.skeleton.n_events


class TestProtocolErrors:
    def test_wrong_authkey_raises_clearly_on_the_client(self):
        trace, horizon = make_trace(n_tasks=60)
        service = make_service(trace, horizon)
        with service, LiveServer(service, authkey=b"right") as server:
            with pytest.raises(IngestError, match="wrong authkey|handshake"):
                LiveClient(server.address, authkey=b"wrong")
            deadline = time.time() + 5.0
            while server.n_rejected == 0 and time.time() < deadline:
                time.sleep(0.01)
            assert server.n_rejected == 1
            # The real client still gets through afterwards.
            with LiveClient(server.address, authkey=b"right") as client:
                assert client.health()["status"] == "serving"

    def test_truncated_hello_is_rejected_without_wedging(self):
        trace, horizon = make_trace(n_tasks=60)
        service = make_service(trace, horizon)
        with service, LiveServer(service, authkey=b"k") as server:
            sock = socket.create_connection(server.address)
            sock.recv(64)      # server nonce
            sock.sendall(b"\x00" * 7)  # truncated digest+nonce
            sock.close()
            deadline = time.time() + 5.0
            while server.n_rejected == 0 and time.time() < deadline:
                time.sleep(0.01)
            assert server.n_rejected == 1
            with LiveClient(server.address, authkey=b"k") as client:
                assert client.health()["status"] == "serving"

    def test_connector_that_skips_the_handshake_is_never_unpickled(self):
        """A peer that sends a frame straight away, with no handshake, is
        dropped and counted before any byte of its frame is unpickled."""
        import pickle
        import struct

        trace, horizon = make_trace(n_tasks=60)
        service = make_service(trace, horizon)
        payload = pickle.dumps((_Tripwire(), "x" * 256))
        frame = struct.pack(">Q", len(payload)) + payload
        _TRIPPED.clear()
        with service, LiveServer(service, authkey=b"k") as server:
            sock = socket.create_connection(server.address)
            sock.settimeout(10.0)
            sock.sendall(frame)
            received = b""
            try:
                while chunk := sock.recv(4096):
                    received += chunk
            except ConnectionResetError:
                pass  # dropped with the rest of the frame unread
            sock.close()
            assert len(received) <= 32  # the server's nonce, no reply frame
            deadline = time.time() + 5.0
            while server.n_rejected == 0 and time.time() < deadline:
                time.sleep(0.01)
            assert server.n_rejected == 1
            assert _TRIPPED == []
            with LiveClient(server.address, authkey=b"k") as client:
                assert client.health()["status"] == "serving"

    def test_client_refuses_a_server_that_cannot_prove_the_key(self):
        """The dialing side checks the server's proof too: a peer that
        cannot compute it gets no frame, and the client names the cause."""
        import threading

        from repro.inference.transport import _recv_exact_from

        listener = socket.create_server(("127.0.0.1", 0))
        address = listener.getsockname()[:2]
        leaked = {}

        def rogue_server():
            conn, _ = listener.accept()
            conn.settimeout(10.0)
            conn.sendall(b"\x03" * 32)         # its nonce
            _recv_exact_from(conn, 64)         # the client's proof and nonce
            conn.sendall(b"\x00" * 32)         # a proof it cannot compute
            leaked["bytes"] = conn.recv(4096)  # the client must hang up
            conn.close()

        thread = threading.Thread(target=rogue_server, daemon=True)
        thread.start()
        try:
            with pytest.raises(
                IngestError, match="handshake with .* failed: wrong authkey"
            ):
                LiveClient(address, authkey=b"k")
            thread.join(10.0)
            assert not thread.is_alive()
            assert leaked["bytes"] == b""
        finally:
            listener.close()

    def test_unknown_command_and_bad_arguments_get_error_replies(self):
        trace, horizon = make_trace(n_tasks=60)
        service = make_service(trace, horizon)
        with service, LiveServer(service, authkey=b"k") as server:
            with LiveClient(server.address, authkey=b"k") as client:
                with pytest.raises(IngestError, match="unknown command"):
                    client._call("frobnicate")
                with pytest.raises(IngestError, match="bad arguments"):
                    client._call("estimates", "not-an-int", 2, 3)
                # Unconvertible values get an error reply, not a dead
                # handler thread.
                with pytest.raises(IngestError, match="bad arguments"):
                    client._call("watermark", "not-a-time")
                with pytest.raises(IngestError, match="bad arguments"):
                    client._call("estimates", "x")
                # The connection survives error replies.
                assert client.health()["status"] == "serving"

    def test_backpressure_surfaces_as_an_error_reply(self):
        trace, horizon = make_trace(n_tasks=80)
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues, max_pending=10)
        estimator = StreamingEstimator(
            stream, window=horizon, stem_iterations=5, random_state=0
        )
        service = EstimatorService(estimator, poll_interval=0.02)
        from repro.live import trace_to_records

        # Withhold seq-0 records: nothing can assemble, the buffer fills.
        stuck = [r for r in trace_to_records(trace) if r["seq"] != 0]
        with service, LiveServer(service, authkey=b"k") as server:
            with LiveClient(server.address, authkey=b"k") as client:
                with pytest.raises(IngestError, match="backpressure"):
                    client.ingest(stuck)
                assert client.health()["n_pending"] == 10

    def test_internal_error_gets_error_reply_not_dead_thread(self):
        """Regression: a service method raising something unexpected used
        to unwind the handler thread, leaving the client wedged in recv()
        forever.  It must come back as an ``("error", ...)`` reply, be
        counted, and leave the connection usable."""
        trace, horizon = make_trace(n_tasks=60)
        service = make_service(trace, horizon)
        with service, LiveServer(service, authkey=b"k") as server:
            with LiveClient(server.address, authkey=b"k") as client:
                def boom():
                    raise RuntimeError("wires crossed")
                service.anomalies = boom
                with pytest.raises(
                    IngestError, match="internal error.*RuntimeError"
                ):
                    client.anomalies()
                assert server.n_dispatch_errors == 1
                assert "RuntimeError: wires crossed" in server.last_dispatch_error
                # The connection survives, and health surfaces the tally
                # to a monitoring consumer with no server-side log.
                health = client.health()
                assert health["status"] == "serving"
                assert health["server"]["n_dispatch_errors"] == 1
                assert "RuntimeError" in health["server"]["last_dispatch_error"]

    def test_close_returns_promptly_with_idle_connected_client(self):
        """Regression: server shutdown used to wait out a 5s join per
        handler thread blocked in recv() on an idle connection, because a
        bare close() does not wake a reader on Linux.  The SHUT_RDWR in
        SocketEndpoint.close() must make close() prompt."""
        trace, horizon = make_trace(n_tasks=60)
        service = make_service(trace, horizon)
        with service:
            server = LiveServer(service, authkey=b"k").start()
            client = LiveClient(server.address, authkey=b"k")
            assert client.health()["status"] == "serving"
            t0 = time.monotonic()
            server.close()
            assert time.monotonic() - t0 < 4.0
            # The idle client sees the hangup as a clean IngestError ...
            with pytest.raises(IngestError, match="lost"):
                client.health()
            # ... and stays dead instead of desyncing on a retry.
            assert client.dead is not None
            client.close()

    def test_malformed_reply_kills_the_client_fast(self):
        """Regression: a reply that is not a (status, payload) pair used
        to crash the unpacking *outside* any protocol handling, leaving
        the connection half-desynced for the next call.  The client must
        raise IngestError, mark itself dead, and fail every later call
        fast without touching the wire."""
        import threading

        from repro.inference.transport import (
            SocketEndpoint,
            _master_handshake,
        )

        listener = socket.create_server(("127.0.0.1", 0))
        address = listener.getsockname()[:2]

        def crooked_server():
            conn, _ = listener.accept()
            assert _master_handshake(conn, b"k")
            endpoint = SocketEndpoint(conn)
            endpoint.recv()
            endpoint.send("definitely-not-a-pair")
            try:
                endpoint.recv()  # nothing else must arrive
            except (EOFError, OSError):
                pass
            endpoint.close()

        thread = threading.Thread(target=crooked_server, daemon=True)
        thread.start()
        try:
            client = LiveClient(address, authkey=b"k")
            with pytest.raises(IngestError, match="malformed reply"):
                client.health()
            assert "malformed" in client.dead
            # Later calls fail fast — no frame crosses the dead socket.
            with pytest.raises(IngestError, match="dead"):
                client.ingest([])
            thread.join(10.0)
            assert not thread.is_alive()
            client.close()
        finally:
            listener.close()

    def test_shutdown_command_wakes_the_serve_loop(self):
        trace, horizon = make_trace(n_tasks=60)
        service = make_service(trace, horizon)
        with service, LiveServer(service, authkey=b"k") as server:
            assert not server.wait_for_shutdown(timeout=0.0)
            with LiveClient(server.address, authkey=b"k") as client:
                client.shutdown()
            assert server.wait_for_shutdown(timeout=5.0)

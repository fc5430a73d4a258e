"""Length-prefixed pickle frames over an authenticated socket.

The live wire (:class:`~repro.live.server.LiveServer` and
:class:`~repro.live.server.LiveClient`) speaks a tiny request/reply
protocol over a duplex :class:`SocketEndpoint`: ``send(obj)``,
``recv() -> obj``, ``close()``.  Every frame is an 8-byte big-endian
length followed by a pickle, so no frame may cross before both sides
have proved knowledge of a shared key: :func:`_master_handshake` (the
accepting side) and :func:`_worker_handshake` (the dialing side)
exchange raw nonces and HMAC-SHA256 digests first.
"""

from __future__ import annotations

import hmac
import os
import pickle
import socket
import struct

#: Frame header: big-endian u64 payload length.
_HEADER = struct.Struct(">Q")

#: Byte length of handshake nonces and HMAC-SHA256 digests.
_NONCE_LEN = 32


def _recv_exact_from(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(min(n, 1 << 20))
        if not chunk:
            raise EOFError("socket closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _hmac_digest(authkey: bytes, label: bytes, nonce: bytes) -> bytes:
    return hmac.new(authkey, label + nonce, digestmod="sha256").digest()


def _master_handshake(sock: socket.socket, authkey: bytes) -> bool:
    """Mutually authenticate a dialing worker before any pickle crosses.

    Both directions matter: the master must not unpickle frames from an
    unauthenticated connector (``pickle.loads`` on attacker bytes is
    arbitrary code execution), and the worker must not accept a
    ``worker_main`` from a rogue master.  Raw fixed-length byte exchanges
    only — no pickle until both sides proved knowledge of the key.
    """
    m_nonce = os.urandom(_NONCE_LEN)
    sock.sendall(m_nonce)
    reply = _recv_exact_from(sock, 2 * _NONCE_LEN)
    digest, w_nonce = reply[:_NONCE_LEN], reply[_NONCE_LEN:]
    if not hmac.compare_digest(digest, _hmac_digest(authkey, b"worker", m_nonce)):
        return False
    sock.sendall(_hmac_digest(authkey, b"master", w_nonce))
    return True


def _worker_handshake(sock: socket.socket, authkey: bytes) -> bool:
    """The worker-side mirror of :func:`_master_handshake`."""
    m_nonce = _recv_exact_from(sock, _NONCE_LEN)
    w_nonce = os.urandom(_NONCE_LEN)
    sock.sendall(_hmac_digest(authkey, b"worker", m_nonce) + w_nonce)
    digest = _recv_exact_from(sock, _NONCE_LEN)
    return hmac.compare_digest(digest, _hmac_digest(authkey, b"master", w_nonce))


def _enable_keepalive(sock: socket.socket) -> None:
    """Detect silently dead peers (power loss, partition) on idle waits.

    An idle client connection may legitimately wait a long time between
    requests, so a timeout would be wrong; TCP keepalive probes instead
    turn a vanished peer into a connection reset, which surfaces through
    the endpoints as the :class:`EOFError`/:class:`OSError` the server and
    the client already handle.
    """
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    for opt, value in (
        ("TCP_KEEPIDLE", 60),   # first probe after 60s idle
        ("TCP_KEEPINTVL", 15),  # then every 15s
        ("TCP_KEEPCNT", 4),     # give up after 4 misses
    ):
        if hasattr(socket, opt):
            sock.setsockopt(socket.IPPROTO_TCP, getattr(socket, opt), value)


class SocketEndpoint:
    """Length-prefixed pickle frames over a stream socket.

    Mirrors the :class:`multiprocessing.connection.Connection` subset the
    wire protocol uses (``send``/``recv``/``close``), raising
    :class:`EOFError` on a peer that vanished mid-conversation — the
    signal the server and the client turn into a dropped connection.  Keepalive
    probes are enabled so a peer that dies without a FIN (machine loss,
    network partition) eventually errors out instead of wedging a
    blocking ``recv`` forever.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        try:
            _enable_keepalive(sock)
        except OSError:  # not a TCP socket (tests use socketpair) — fine
            pass

    def send(self, obj) -> None:
        """Pickle *obj* and write it as one ``[length][payload]`` frame.

        Header and payload go out in separate ``sendall`` calls so a
        multi-megabyte frame (a large ingest batch) is never copied a
        second time just to prepend eight bytes.
        """
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._sock.sendall(_HEADER.pack(len(data)))
        self._sock.sendall(data)

    def recv(self):
        """Read one frame and unpickle it; :class:`EOFError` if the peer closed.

        A frame that fails to unpickle (a peer running skewed package
        versions) also surfaces as :class:`EOFError`: the conversation is
        unusable either way, and the pools' dead-connection handling —
        close everything, raise :class:`~repro.errors.InferenceError` —
        is exactly the right response to both.
        """
        (length,) = _HEADER.unpack(self._recv_exact(_HEADER.size))
        data = self._recv_exact(length)
        try:
            return pickle.loads(data)
        except Exception as exc:  # noqa: BLE001 — any load failure kills the conversation
            raise EOFError(f"undecodable frame from peer: {exc}") from exc

    def _recv_exact(self, n: int) -> bytes:
        return _recv_exact_from(self._sock, n)

    def close(self) -> None:
        """Shut down and close the underlying socket; never raises.

        ``shutdown(SHUT_RDWR)`` comes first because a bare ``close()``
        does not reliably wake another thread blocked in ``recv`` on the
        same socket (Linux keeps the file description alive until its
        last user drops it, so the blocked reader sleeps on).  The
        shutdown sends the FIN and fails every pending ``recv`` with
        :class:`EOFError`/:class:`OSError` immediately — which is what
        lets a server drop an idle connection without waiting out a join
        timeout per handler thread.
        """
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected (peer closed first) — fine
        try:
            self._sock.close()
        except OSError:
            pass

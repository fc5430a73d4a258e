"""Tests for the socket frame endpoint under the live wire."""

import socket
import threading

import numpy as np
import pytest

from repro.inference.transport import SocketEndpoint


class TestEndpoints:
    def test_socket_endpoint_roundtrips_numpy_payloads(self):
        a, b = socket.socketpair()
        left, right = SocketEndpoint(a), SocketEndpoint(b)
        payload = {"x": np.arange(5000, dtype=np.int64), "y": ("nested", 1.5)}
        got = {}

        def reader():
            got["value"] = right.recv()

        t = threading.Thread(target=reader)
        t.start()
        left.send(payload)
        t.join(timeout=10.0)
        assert not t.is_alive()
        np.testing.assert_array_equal(got["value"]["x"], payload["x"])
        assert got["value"]["y"] == payload["y"]
        left.close()
        with pytest.raises(EOFError):
            right.recv()
        right.close()

    def test_undecodable_frame_surfaces_as_eoferror(self):
        """A frame that fails to unpickle (version-skewed peer) must hit
        the pools' dead-connection path, not escape as a raw exception."""
        import struct

        a, b = socket.socketpair()
        junk = b"\x80\x05not-a-pickle"
        a.sendall(struct.pack(">Q", len(junk)) + junk)
        endpoint = SocketEndpoint(b)
        with pytest.raises(EOFError, match="undecodable frame"):
            endpoint.recv()
        endpoint.close()
        a.close()

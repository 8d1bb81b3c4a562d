"""Wire-protocol framing over real socketpairs, including torn reads.

Satellite of the distributed plane: every framing property the cluster
relies on is pinned here — partial-read reassembly, crc detection of
bit flips, typed exception transport, and orderly-close semantics.
"""

import pickle
import socket
import struct
import threading

import pytest

from repro.dist import protocol
from repro.engine.faults import ShuffleFetchFailedError, WorkerLostError


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


def test_roundtrip_header_and_body(pair):
    a, b = pair
    body = bytes(range(256)) * 100
    protocol.send_frame(a, protocol.MSG_TASK, {"ns": 7, "x": [1, 2]}, body)
    kind, header, got = protocol.recv_frame(b)
    assert kind == protocol.MSG_TASK
    assert header == {"ns": 7, "x": [1, 2]}
    assert got == body


def test_empty_header_and_body(pair):
    a, b = pair
    protocol.send_frame(a, protocol.MSG_GOODBYE)
    kind, header, body = protocol.recv_frame(b)
    assert (kind, header, body) == (protocol.MSG_GOODBYE, {}, b"")


def test_multiple_frames_on_one_connection(pair):
    a, b = pair
    for i in range(5):
        protocol.send_frame(a, protocol.MSG_RESULT, {"i": i}, bytes([i]) * i)
    for i in range(5):
        kind, header, body = protocol.recv_frame(b)
        assert header["i"] == i
        assert body == bytes([i]) * i


def test_torn_writes_reassemble(pair):
    """A frame dribbled one byte at a time still decodes: recv_exactly
    must loop over arbitrarily small partial reads."""
    a, b = pair
    body = b"codec-payload" * 50
    protocol.send_frame(a, protocol.MSG_BLOCK, {"shuffle": 3}, body)
    # Re-send the identical wire bytes, one byte per send, from a thread.
    buffer = bytearray()
    a2, b2 = socket.socketpair()
    try:
        kind, header, got = protocol.recv_frame(b)
        assert got == body

        import io

        sink = io.BytesIO()

        class _Capture:
            def sendall(self, data):
                sink.write(data)

        protocol.send_frame(_Capture(), protocol.MSG_BLOCK, {"shuffle": 3}, body)
        wire = sink.getvalue()

        def dribble():
            for i in range(0, len(wire)):
                a2.sendall(wire[i : i + 1])

        t = threading.Thread(target=dribble)
        t.start()
        kind2, header2, got2 = protocol.recv_frame(b2)
        t.join()
        assert (kind2, header2, got2) == (kind, header, got)
    finally:
        a2.close()
        b2.close()
        del buffer


def test_eof_mid_frame_raises_connection_closed(pair):
    a, b = pair
    # Send only the length prefix plus half a frame, then close.
    a.sendall(struct.pack(">I", 1000) + b"x" * 10)
    a.close()
    with pytest.raises(protocol.ConnectionClosed):
        protocol.recv_frame(b)


def test_eof_on_frame_boundary_raises_connection_closed(pair):
    a, b = pair
    a.close()
    with pytest.raises(protocol.ConnectionClosed):
        protocol.recv_frame(b)


def test_oversized_length_prefix_is_refused(pair):
    a, b = pair
    a.sendall(struct.pack(">I", protocol.MAX_FRAME + 1))
    with pytest.raises(protocol.ProtocolError, match="exceeds cap"):
        protocol.recv_frame(b)


def test_bit_flip_is_caught_by_crc(pair):
    """The GPFB crc inside the frame catches in-flight corruption."""
    import io

    sink = io.BytesIO()

    class _Capture:
        def sendall(self, data):
            sink.write(data)

    protocol.send_frame(_Capture(), protocol.MSG_TASK, {"ns": 1}, b"payload")
    wire = bytearray(sink.getvalue())
    wire[-3] ^= 0x40  # flip one bit inside the payload
    a, b = pair
    a.sendall(bytes(wire))
    with pytest.raises(protocol.ProtocolError):
        protocol.recv_frame(b)


class TestErrorTransport:
    def test_typed_fault_survives_the_wire(self, pair):
        a, b = pair
        exc = WorkerLostError("w-3", ConnectionResetError("peer gone"))
        protocol.send_error(a, exc, "Traceback: ...")
        kind, header, _ = protocol.recv_frame(b)
        assert kind == protocol.MSG_ERROR
        decoded = protocol.decode_error(header)
        assert isinstance(decoded, WorkerLostError)
        assert decoded.worker == "w-3"
        assert decoded.remote_traceback == "Traceback: ..."

    def test_shuffle_fetch_failure_survives_the_wire(self, pair):
        a, b = pair
        protocol.send_error(a, ShuffleFetchFailedError(5, 2, "10.0.0.9:41000"))
        _, header, _ = protocol.recv_frame(b)
        decoded = protocol.decode_error(header)
        assert isinstance(decoded, ShuffleFetchFailedError)
        assert decoded.shuffle_id == 5
        assert decoded.map_partition == 2

    def test_unpicklable_exception_degrades_to_remote_error(self, pair):
        a, b = pair

        class Local(Exception):  # not importable on the "other side"
            def __reduce__(self):
                raise TypeError("nope")

        protocol.send_error(a, Local("boom"), "tb")
        _, header, _ = protocol.recv_frame(b)
        decoded = protocol.decode_error(header)
        assert isinstance(decoded, protocol.RemoteError)
        assert decoded.error_type == "Local"
        assert "boom" in str(decoded)
        assert decoded.remote_traceback == "tb"

    def test_remote_error_is_itself_picklable(self):
        err = protocol.RemoteError("ValueError", "bad", "tb")
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, protocol.RemoteError)
        assert clone.error_type == "ValueError"

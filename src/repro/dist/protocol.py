"""The worker-node wire protocol: length-prefixed GPFB frames.

Every message on a cluster socket is one frame::

    [u32 length, big-endian][GPFB payload]

where the payload reuses the engine's on-disk block framing
(:func:`repro.engine.blockmanager.frame_block` — ``GPFB`` magic + crc32
+ blob), so a bit flip on the wire is caught by the same check that
catches a torn spill file.  Inside the crc frame::

    [1s message type][u32 header length][pickled header dict][raw body]

The *header* is a small pickled dict (message metadata: worker id,
task namespace, shuffle locations).  The *body* is raw bytes — shipped
closures, partitions as the serializer's bytes, shuffle blocks — and is
never re-pickled: compressed blocks travel in exactly their resident
form, which is the point (SAGe's warning: data movement is where
distributed genomics pipelines lose their throughput).

Message types:

=========  ====================  =======================================
type       direction             meaning
=========  ====================  =======================================
REGISTER   worker -> driver      join the fleet (one frame per slot)
TASK       driver -> worker      run a shipped task body
RESULT     worker -> driver      task value + metrics + shuffle outputs
ERROR      either direction      pickled exception + remote traceback
FETCH      worker -> peer        request one shuffle block
BLOCK      peer -> worker        the requested block bytes
GOODBYE    either direction      orderly shutdown of this connection
=========  ====================  =======================================

A REGISTER connection stays open as the slot's task channel, and it is
the worker's only liveness signal: the driver probes it, and EOF there
evicts the worker.
"""

from __future__ import annotations

import pickle
import socket
import struct

from repro.engine.blockmanager import BlockCorruptionError, frame_block, unframe_block

MSG_REGISTER = b"R"
MSG_TASK = b"T"
MSG_RESULT = b"r"
MSG_ERROR = b"E"
MSG_FETCH = b"F"
MSG_BLOCK = b"B"
MSG_GOODBYE = b"G"

_LEN = struct.Struct(">I")

#: Refuse frames beyond this size — a corrupt length prefix must not
#: make a worker try to allocate gigabytes.
MAX_FRAME = 1 << 30


class ProtocolError(RuntimeError):
    """Malformed or corrupt frame on a cluster socket."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection (EOF), possibly mid-frame."""


def send_frame(sock: socket.socket, kind: bytes, header: dict | None = None, body: bytes = b"") -> None:
    """Send one message; the payload is crc32-framed before the length."""
    header_bytes = pickle.dumps(header or {}, protocol=pickle.HIGHEST_PROTOCOL)
    payload = kind + _LEN.pack(len(header_bytes)) + header_bytes + body
    framed = frame_block(payload)
    sock.sendall(_LEN.pack(len(framed)) + framed)


def recv_exactly(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes, looping over partial reads.

    TCP delivers a frame in arbitrary chunks; a ``recv`` that returns
    early is normal, not an error.  EOF before ``n`` bytes raises
    :class:`ConnectionClosed` — a torn frame is indistinguishable from
    a dead peer and is treated as one.
    """
    if n == 0:
        return b""
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                f"connection closed with {remaining} of {n} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> tuple[bytes, dict, bytes]:
    """Receive one message: ``(kind, header, body)``.

    Raises :class:`ConnectionClosed` on a clean EOF before any bytes,
    :class:`ProtocolError` on a corrupt or oversized frame.
    """
    try:
        prefix = recv_exactly(sock, _LEN.size)
    except ConnectionClosed as exc:
        # EOF exactly on a frame boundary is an orderly close.
        raise ConnectionClosed("connection closed") from exc
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds cap {MAX_FRAME}")
    framed = recv_exactly(sock, length)
    try:
        payload = unframe_block(framed, where="socket frame")
    except BlockCorruptionError as exc:
        raise ProtocolError(str(exc)) from exc
    if len(payload) < 1 + _LEN.size:
        raise ProtocolError("frame too short for type + header length")
    kind = payload[:1]
    (header_len,) = _LEN.unpack_from(payload, 1)
    header_end = 1 + _LEN.size + header_len
    if header_end > len(payload):
        raise ProtocolError("frame header length exceeds payload")
    try:
        header = pickle.loads(payload[1 + _LEN.size : header_end])
    except Exception as exc:  # noqa: BLE001 - any unpickle failure
        raise ProtocolError(f"undecodable frame header: {exc}") from exc
    return kind, header, payload[header_end:]


def send_error(sock: socket.socket, exc: BaseException, traceback_text: str = "") -> None:
    """Ship an exception as an ERROR frame.

    The exception object itself is pickled when possible (the engine's
    fault types all define ``__reduce__``) so the driver re-raises the
    *real* type — retry classification depends on it; anything
    unpicklable degrades to a :class:`RemoteError` description.
    """
    try:
        blob = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # noqa: BLE001 - fall back to a description
        blob = b""
    send_frame(
        sock,
        MSG_ERROR,
        {
            "exc": blob,
            "error_type": type(exc).__name__,
            "message": str(exc)[:2000],
            "traceback": traceback_text[-8000:],
        },
    )


class RemoteError(RuntimeError):
    """A worker-side failure whose exception could not be pickled home."""

    def __init__(self, error_type: str, message: str, traceback_text: str = ""):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.remote_traceback = traceback_text

    def __reduce__(self):
        return (type(self), (self.error_type, str(self).split(": ", 1)[-1], self.remote_traceback))


def decode_error(header: dict) -> BaseException:
    """Rebuild the exception carried by an ERROR frame."""
    blob = header.get("exc") or b""
    if blob:
        try:
            exc = pickle.loads(blob)
            if isinstance(exc, BaseException):
                exc.remote_traceback = header.get("traceback", "")
                return exc
        except Exception:  # noqa: BLE001 - degrade to RemoteError below
            pass
    return RemoteError(
        header.get("error_type", "Exception"),
        header.get("message", ""),
        header.get("traceback", ""),
    )

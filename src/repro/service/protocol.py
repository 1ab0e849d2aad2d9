"""Wire protocol between the frontend and pre-fork workers.

Length-prefixed :mod:`marshal` frames over a stream socket (the pool
uses ``socket.socketpair()`` inherited across ``fork``): a 4-byte
big-endian unsigned length followed by that many bytes of one
``marshal`` document. Frames carry the same dict/list/str/number/None
values the HTTP layer's JSON does, so the frontend re-serialises a
relayed response byte-identically to the in-process server; marshal
only encodes and decodes them several times faster than JSON.
``marshal.loads`` builds values and runs no code, and the socketpair
only ever joins forks of one program (one interpreter version, one
marshal format). A body that does not decode to a dict is a
:class:`ProtocolError`, like an over-limit length prefix.

Values must be exact builtin types: marshal writes any other object
with the buffer protocol (a numpy scalar, say) as raw ``bytes``, which
the frontend cannot re-encode as JSON. Every document the service core
returns must hold builtin values only; the in-process versus sharded
parity tests compare the relayed bytes.

Two frame shapes, shared by both directions:

- request:  ``{"id": int, "op": str, "payload": object}``
- response: ``{"id": int, "status": int, "body": object}``

``status`` carries the HTTP status the core decided (200, 4xx, 5xx), so
the frontend replays worker rejections verbatim. The ``op`` values are
the :data:`OP_*` constants below; anything else earns ``400``.
"""

from __future__ import annotations

import marshal
import struct
from typing import Dict, Tuple

#: Hard ceiling on one frame's body, a corruption fail-fast: a length
#: prefix beyond this aborts the connection instead of allocating it.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")

# -- operations -----------------------------------------------------------

OP_PREDICT = "predict"
OP_PREDICT_BATCH = "predict_batch"
#: Validate a /feedback body (replaying the prediction when needed)
#: and return the observation fields; recording happens frontend-side.
OP_FEEDBACK_OBSERVATION = "feedback_observation"
OP_MODELS = "models"
OP_HEALTH = "health"
OP_METRICS = "metrics"
OP_RELOAD = "reload"
OP_PING = "ping"
OP_SHUTDOWN = "shutdown"

#: Every op a worker serves (used for validation on both ends).
WORKER_OPS = frozenset((
    OP_PREDICT, OP_PREDICT_BATCH, OP_FEEDBACK_OBSERVATION, OP_MODELS,
    OP_HEALTH, OP_METRICS, OP_RELOAD, OP_PING, OP_SHUTDOWN))


class ProtocolError(RuntimeError):
    """A malformed frame or an over-limit length prefix."""


class ConnectionClosed(ProtocolError):
    """The peer closed the stream (at or inside a frame boundary)."""

    def __init__(self, message: str, clean: bool) -> None:
        super().__init__(message)
        #: True when the close landed exactly between frames — an
        #: orderly shutdown rather than a crash mid-response.
        self.clean = clean


def request(request_id: int, op: str, payload) -> Dict:
    """One request frame document."""
    return {"id": request_id, "op": op, "payload": payload}


def response(request_id: int, status: int, body) -> Dict:
    """One response frame document."""
    return {"id": request_id, "status": status, "body": body}


def send_frame(sock, document) -> int:
    """Serialise and send one frame; returns the bytes written."""
    body = marshal.dumps(document)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    sock.sendall(_HEADER.pack(len(body)) + body)
    return _HEADER.size + len(body)


def _recv_exact(sock, n_bytes: int, clean_at_zero: bool) -> bytes:
    chunks = bytearray()
    while len(chunks) < n_bytes:
        chunk = sock.recv(n_bytes - len(chunks))
        if not chunk:
            raise ConnectionClosed(
                f"peer closed after {len(chunks)} of {n_bytes} bytes",
                clean=clean_at_zero and not chunks)
        chunks.extend(chunk)
    return bytes(chunks)


def recv_frame(sock):
    """Read one frame; raises :class:`ConnectionClosed` on EOF."""
    header = _recv_exact(sock, _HEADER.size, clean_at_zero=True)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit (corrupt stream?)")
    body = _recv_exact(sock, length, clean_at_zero=False)
    try:
        document = marshal.loads(body)
    except (ValueError, EOFError, TypeError) as exc:
        raise ProtocolError(f"frame body is not a marshal document: "
                            f"{exc}") from None
    if type(document) is not dict:
        raise ProtocolError(f"frame body is a {type(document).__name__}, "
                            "not a document")
    return document


def parse_response(document) -> Tuple[int, object]:
    """Validated ``(status, body)`` of one response frame."""
    if not isinstance(document, dict) or "status" not in document:
        raise ProtocolError(f"not a response frame: {document!r}")
    return int(document["status"]), document.get("body")

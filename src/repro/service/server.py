"""HTTP front: routes verbs onto a service; JSON in, JSON out.

The transport-free request logic lives in :mod:`repro.service.core`
(re-exported here for compatibility); this module owns only the stdlib
HTTP plumbing. ``make_server`` wraps *any* object with the core's
endpoint methods — the in-process :class:`PredictionService` or the
scale-out :class:`~repro.service.frontend.ScaledService` — in a
hardened :class:`http.server.ThreadingHTTPServer`:

- ``POST /predict``        JSON body -> predicted time + answering tier
- ``POST /predict_batch``  many /predict bodies in one request; per-item
                           errors, per-item cache accounting, and a
                           vectorised grid pass for retargetable plans
- ``POST /feedback``    measured-vs-predicted observation -> drift state
                        (requires a calibrator; see ``--calibrate``)
- ``GET  /calibration`` feedback window, drift alarms, store lineage
- ``GET  /models``      hosted models and their provenance
- ``GET  /healthz``     liveness + hosted-model count
- ``GET  /metrics``     counters, latency histograms, cache hit ratio
                        (``?format=text`` for Prometheus-style lines)

A :class:`~repro.service.core.ServiceError` carrying a
``retry_after_s`` attribute (the frontend's load shedding) additionally
answers with a ``Retry-After`` header.

Connections are persistent HTTP/1.1: one client connection carries any
number of requests until the client asks to close, sits idle for
:data:`IDLE_TIMEOUT_S`, or sends a request the server cannot frame.
Framing is strict so that a kept-alive connection never desyncs: every
request body is read to exactly its ``Content-Length``, and a body
that cannot be framed (no or malformed length, a ``Transfer-Encoding``,
over :data:`~repro.service.protocol.MAX_FRAME_BYTES`, or shorter than
declared) answers a typed 4xx and closes the connection.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.service.core import (          # noqa: F401 - compat re-exports
    BATCH_CAP,
    BATCH_SIZE_BUCKETS,
    PredictionService,
    ServiceError,
    _require,
)
from repro.service.protocol import MAX_FRAME_BYTES

#: Seconds a connection may wait on its client (idle between requests,
#: or stalled inside one) before the server closes it and frees the
#: handler thread.
IDLE_TIMEOUT_S = 30.0

#: http.client's limits: the longest header line and the most header
#: fields one request may carry
_MAX_HEADER_LINE = 65536
_MAX_HEADERS = 100
#: an RFC 9110 field name (a token)
_FIELD_NAME = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")


class _Headers:
    """One request's header fields: a small case-insensitive multi-map.

    It answers what the handler asks, as :class:`email.message.Message`
    would: ``get`` is the first value of a field, ``get_all`` every
    value in arrival order (None when absent), and ``in`` tests for a
    field.
    """

    __slots__ = ("_fields",)

    def __init__(self) -> None:
        self._fields: Dict[str, List[str]] = {}

    def add(self, name: str, value: str) -> None:
        self._fields.setdefault(name.lower(), []).append(value)

    def get(self, name: str, default=None):
        values = self._fields.get(name.lower())
        return values[0] if values else default

    def get_all(self, name: str, default=None):
        values = self._fields.get(name.lower())
        return list(values) if values else default

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._fields


class _ThreadedServer(ThreadingHTTPServer):
    """ThreadingHTTPServer hardened for long-lived serving.

    Each accepted connection gets one handler thread, which lives as
    long as the connection: across every request it carries, and for
    up to :data:`IDLE_TIMEOUT_S` of silence after the last one. The
    thread count is therefore the number of open connections.
    ``daemon_threads`` keeps a stuck handler thread from hanging
    shutdown forever (the process exits; the kernel reaps the socket),
    and an explicit ``request_queue_size`` bounds the kernel accept
    backlog — unaccepted connections queue in the kernel, not in
    unbounded handler threads. ``server_close`` also shuts every open
    connection, so a kept-alive client is not served past shutdown.
    """

    daemon_threads = True
    request_queue_size = 128

    def __init__(self, *args, **kwargs) -> None:
        self._lock = threading.Lock()
        self._open: set = set()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._lock:
            open_connections = list(self._open)
        for connection in open_connections:
            try:
                # wakes the handler thread's read with EOF; its own
                # shutdown_request then closes the socket
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto the service; JSON in, JSON out."""

    server_version = "repro-predict/1.0"
    protocol_version = "HTTP/1.1"          # keep-alive by default
    # TCP_NODELAY: a small reply must not wait on the client's delayed
    # ACK (about 40 ms a reply on a kept-alive connection)
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    #: (second, Date header) of the last reply: one format per second
    _date = (0, "")

    def setup(self) -> None:
        super().setup()
        self.service.metrics.increment("connections_total")

    def parse_request(self) -> bool:
        """The stdlib request line, ``Connection`` and ``Expect``
        handling, over a plain ``readline`` header read.

        ``http.client.parse_headers`` runs each header block through
        ``email.parser``, which costs more than the rest of a request's
        parsing together. The header read keeps http.client's limits
        and is strict where email.parser is lenient: a line over
        65,536 bytes or more than 100 fields answers 431, and a line
        with no colon, a field name that is not a token, or a line that
        starts with whitespace (obs-fold) answers 400. Each refusal
        closes the connection.
        """
        self.command = None
        self.request_version = version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:               # enough to know the version
            version = words[-1]
            try:
                if not version.startswith("HTTP/"):
                    raise ValueError
                base_version_number = version.split("/", 1)[1]
                parts = base_version_number.split(".")
                # RFC 2145 3.1: one dot, two separate integers
                if len(parts) != 2 or not all(
                        part.isdigit() and len(part) <= 10
                        for part in parts):
                    raise ValueError
                version_number = int(parts[0]), int(parts[1])
            except (ValueError, IndexError):
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            if version_number >= (1, 1) \
                    and self.protocol_version >= "HTTP/1.1":
                self.close_connection = False
            if version_number >= (2, 0):
                self.send_error(505, "Invalid HTTP version "
                                     f"({base_version_number})")
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(400, "Bad HTTP/0.9 request type "
                                     f"({command!r})")
                return False
        self.command, self.path = command, path
        if path.startswith("//"):         # not an absolute URI: gh-87389
            self.path = "/" + path.lstrip("/")
        headers = self._read_headers()
        if headers is None:
            return False
        self.headers = headers
        connection = headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif (connection == "keep-alive"
              and self.protocol_version >= "HTTP/1.1"):
            self.close_connection = False
        if (headers.get("Expect", "").lower() == "100-continue"
                and self.protocol_version >= "HTTP/1.1"
                and self.request_version >= "HTTP/1.1"):
            return self.handle_expect_100()
        return True

    def _read_headers(self) -> Optional[_Headers]:
        """The header block up to its blank line, or None once refused."""
        headers = _Headers()
        readline = self.rfile.readline
        count = 0
        while True:
            line = readline(_MAX_HEADER_LINE + 1)
            if len(line) > _MAX_HEADER_LINE:
                return self._refuse(431, "a header line exceeds "
                                         f"{_MAX_HEADER_LINE} bytes")
            if line in (b"\r\n", b"\n", b""):
                return headers
            count += 1
            if count > _MAX_HEADERS:
                return self._refuse(431, "more than "
                                         f"{_MAX_HEADERS} header fields")
            name, colon, value = line.partition(b":")
            if not colon or not _FIELD_NAME.fullmatch(name):
                return self._refuse(
                    400, f"malformed header line {line[:80]!r}: expected "
                         "'name: value' (line folding is not supported)")
            headers.add(name.decode("ascii"),
                        value.strip(b" \t\r\n").decode("iso-8859-1"))

    def date_time_string(self, timestamp=None) -> str:
        """The ``Date`` header, formatted once per second."""
        if timestamp is not None:
            return super().date_time_string(timestamp)
        now = int(time.time())
        second, text = _Handler._date
        if second != now:
            text = super().date_time_string(now)
            _Handler._date = (now, text)
        return text

    @property
    def service(self):
        return self.server.service        # attached by make_server

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass                               # keep the server quiet in tests

    def _reply(self, status: int, document, content_type: str
               = "application/json", retry_after_s=None,
               close: bool = False) -> None:
        body = (document if isinstance(document, bytes)
                else json.dumps(document).encode())
        self.send_response(status)
        if retry_after_s is not None:
            # RFC 9110 delay-seconds: a non-negative decimal integer
            self.send_header("Retry-After", str(int(retry_after_s)))
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")   # sets close_connection
        # end_headers() plus the body as one write: a reply split over
        # two small segments is the Nagle stall TCP_NODELAY guards
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _refuse(self, status: int, message: str) -> None:
        """A framing error: answer it, then close the connection."""
        self._reply(status, {"error": message}, close=True)

    def _read_body(self, required: bool) -> Optional[bytes]:
        """Exactly the declared body, or None once refused and closing.

        The next request on a kept-alive connection starts where this
        body ends, so a body whose end is not known for certain closes
        the connection instead of being guessed at. A client that stalls
        mid-body hits the idle timeout, which closes the connection.
        """
        if "Transfer-Encoding" in self.headers:
            return self._refuse(411, "Transfer-Encoding is not supported; "
                                     "send the body with a Content-Length")
        lengths = self.headers.get_all("Content-Length") or []
        if not lengths:
            if required:
                return self._refuse(411, "Content-Length is required")
            return b""
        declared = lengths[0].strip()
        if (len(lengths) > 1 or not declared.isascii()
                or not declared.isdigit()):
            return self._refuse(400, "Content-Length must be one "
                                     "non-negative integer, got "
                                     f"{', '.join(lengths)!r}")
        length = int(declared)
        if length > MAX_FRAME_BYTES:
            return self._refuse(413, f"body of {length} bytes exceeds the "
                                     f"{MAX_FRAME_BYTES}-byte limit")
        body = self.rfile.read(length)
        if len(body) < length:
            return self._refuse(400, f"body ended after {len(body)} of "
                                     f"the {length} declared bytes")
        return body

    def _instrumented(self, endpoint: str, handler) -> None:
        metrics = self.service.metrics
        metrics.increment(f"requests_{endpoint}_total")
        retry_after_s = None
        started = time.perf_counter()
        try:
            status, document, content_type = handler()
        except ServiceError as exc:
            metrics.increment(f"errors_{endpoint}_total")
            retry_after_s = getattr(exc, "retry_after_s", None)
            status, document, content_type = (
                exc.status, {"error": exc.message}, "application/json")
        # never kill a server thread: degrade to a 500 response; the
        # per-type counter and message keep the original exception type
        # observable instead of collapsing everything into one bucket
        except Exception as exc:  # repro: noqa[EX001]
            metrics.increment(f"errors_{endpoint}_total")
            metrics.increment(
                f"errors_{endpoint}_{type(exc).__name__}_total")
            status, document, content_type = (
                500,
                {"error": f"internal error: {type(exc).__name__}: {exc}"},
                "application/json")
        metrics.observe(f"latency_{endpoint}_ms",
                        (time.perf_counter() - started) * 1e3)
        self._reply(status, document, content_type,
                    retry_after_s=retry_after_s)

    def do_GET(self) -> None:              # noqa: N802 - stdlib signature
        if self._read_body(required=False) is None:
            return
        parsed = urlparse(self.path)
        if parsed.path == "/healthz":
            self._instrumented(
                "healthz", lambda: (200, self.service.health(),
                                    "application/json"))
        elif parsed.path == "/models":
            self._instrumented(
                "models", lambda: (200, self.service.models(),
                                   "application/json"))
        elif parsed.path == "/calibration":
            self._instrumented(
                "calibration", lambda: (200, self.service.calibration(),
                                        "application/json"))
        elif parsed.path == "/metrics":
            query = parse_qs(parsed.query)
            if query.get("format", ["json"])[0] == "text":
                handler = lambda: (200,
                                   self.service.metrics_text().encode(),
                                   "text/plain; charset=utf-8")
            else:
                handler = lambda: (200, self.service.metrics_snapshot(),
                                   "application/json")
            self._instrumented("metrics", handler)
        else:
            self._reply(404, {"error": f"no route for {parsed.path!r}"})

    def do_POST(self) -> None:             # noqa: N802 - stdlib signature
        # the body is drained before routing: an unread body would be
        # parsed as the next request on this connection
        raw = self._read_body(required=True)
        if raw is None:
            return
        path = urlparse(self.path).path
        routes = {"/predict": ("predict", self.service.predict),
                  "/predict_batch": ("predict_batch",
                                     self.service.predict_batch),
                  "/feedback": ("feedback", self.service.feedback)}
        if path not in routes:
            self._reply(404, {"error": f"no route for {self.path!r}"})
            return
        endpoint, serve = routes[path]

        def handler() -> Tuple[int, Dict, str]:
            try:
                payload = json.loads(raw or b"{}")
            except json.JSONDecodeError as exc:
                raise ServiceError(400,
                                   f"body is not valid JSON: {exc}")
            return 200, serve(payload), "application/json"

        self._instrumented(endpoint, handler)


def make_server(service_or_registry, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    """A ready-to-run threaded server; ``port=0`` picks an ephemeral port.

    Accepts a :class:`PredictionService`, any object exposing the same
    endpoint methods (e.g. the scale-out frontend's ``ScaledService``),
    or a bare :class:`~repro.service.registry.ModelRegistry` (wrapped in
    a default service). Call ``serve_forever()`` (typically on a daemon
    thread) and read ``server_address`` for the bound (host, port).
    """
    if isinstance(service_or_registry, PredictionService) \
            or hasattr(service_or_registry, "predict"):
        service = service_or_registry
    else:
        service = PredictionService(service_or_registry)
    server = _ThreadedServer((host, port), _Handler)
    server.service = service
    return server

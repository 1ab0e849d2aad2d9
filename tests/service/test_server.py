"""HTTP integration tests: a live server, concurrent clients, loadgen,
and the connection contract (keep-alive, idle timeout, strict framing)."""

import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro.cli import main
from repro.service import (
    ModelRegistry,
    PredictionCache,
    PredictionService,
    make_server,
)
from repro.service import server as server_module
from repro.service.frontend import ScaledServer


def _get(url: str):
    with urlopen(url, timeout=10) as response:
        body = response.read()
        if response.headers.get_content_type() == "application/json":
            return response.status, json.loads(body)
        return response.status, body.decode()


def _post(base_url: str, payload: dict):
    request = Request(f"{base_url}/predict",
                      data=json.dumps(payload).encode(),
                      headers={"Content-Type": "application/json"},
                      method="POST")
    try:
        with urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestEndToEnd:
    def test_concurrent_predicts_metrics_and_loadgen(self, live_server,
                                                     capsys):
        """The acceptance scenario in one pass: concurrent KW and IGKW
        requests, one fallback-tier answer, metrics that add up, a
        nonzero cache hit ratio, and a loadgen throughput report."""
        url, service = live_server
        kw = {"model": "kw-a100", "network": "resnet50",
              "batch_size": 64}
        igkw = {"model": "igkw", "network": "resnet18",
                "batch_size": 64, "gpu": "V100"}
        # prime the cache once per payload, then fire 8 concurrent
        # requests alternating the two hosted models: every concurrent
        # answer must come back from the cache
        for payload in (kw, igkw):
            status, body = _post(url, payload)
            assert status == 200 and body["cached"] is False
        payloads = [kw, igkw] * 4
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda p: _post(url, p), payloads))
        assert [status for status, _ in results] == [200] * 8
        for _, body in results:
            assert body["predicted_us"] > 0
            assert body["tier"] == "kw"
            assert body["cached"] is True
        assert {body["kind"] for _, body in results} == {"kw", "igkw"}

        # one fallback-tier response: transformer shapes are unknown to
        # the CNN-trained KW table, so the LW tier answers
        status, degraded = _post(url, {"model": "kw-a100",
                                       "network": "bert_small",
                                       "batch_size": 64})
        assert status == 200
        assert degraded["tier"] == "lw"
        assert degraded["attempts"][0]["error"] is not None

        status, metrics = _get(f"{url}/metrics")
        assert status == 200
        counters = metrics["counters"]
        assert counters["requests_predict_total"] == 11
        assert "errors_predict_total" not in counters
        # 2 computed + 1 degraded at lw; cached answers are not re-tiered
        assert counters["tier_kw_total"] == 2
        assert counters["tier_lw_total"] == 1
        assert counters["degraded_total"] == 1
        assert metrics["cache"]["hits"] == 8
        assert metrics["cache"]["hit_ratio"] > 0
        assert metrics["histograms"]["latency_predict_ms"]["count"] == 11
        assert metrics["registry"]["models"] == 4

        # drive the same live server with the CLI load generator
        code = main(["loadgen", "--url", url, "--model", "kw-a100",
                     "--network", "resnet50", "--network", "vgg11",
                     "--batch-size", "64", "--rate", "400",
                     "--requests", "40", "--threads", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "achieved" in out and "req/s" in out
        assert "p50" in out and "p99" in out
        assert "40 ok, 0 failed" in out

        # loadgen traffic shows up in the server's own metrics
        _, after = _get(f"{url}/metrics")
        assert after["counters"]["requests_predict_total"] == 51


class TestEndpoints:
    def test_healthz(self, live_server):
        url, _ = live_server
        status, body = _get(f"{url}/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["models"] == 4

    def test_models_listing(self, live_server):
        url, _ = live_server
        status, body = _get(f"{url}/models")
        assert status == 200
        names = {entry["name"]: entry["kind"] for entry in body["models"]}
        assert names == {"e2e-a100": "e2e", "lw-a100": "lw",
                         "kw-a100": "kw", "igkw": "igkw"}

    def test_metrics_text_format(self, live_server):
        url, _ = live_server
        status, text = _get(f"{url}/metrics?format=text")
        assert status == 200
        assert "repro_cache_hit_ratio" in text
        assert "repro_requests_metrics_total 1" in text

    def test_unknown_route_404(self, live_server):
        url, _ = live_server
        with pytest.raises(HTTPError) as excinfo:
            urlopen(f"{url}/nope", timeout=10)
        assert excinfo.value.code == 404

    def test_igkw_with_bandwidth_override(self, live_server):
        url, _ = live_server
        base = {"model": "igkw", "network": "resnet18", "batch_size": 64,
                "gpu": "V100"}
        _, stock = _post(url, base)
        _, slowed = _post(url, dict(base, bandwidth=200.0))
        assert slowed["predicted_us"] > stock["predicted_us"]


class TestUptime:
    def test_uptime_ignores_wall_clock_steps(self, registry, monkeypatch):
        """Uptime is measured on the monotonic clock: an NTP step or a
        manual wall-clock change must never push /healthz negative."""
        from repro.service.server import PredictionService

        service = PredictionService(registry)
        wall_start = service.started_at
        monkeypatch.setattr("repro.service.server.time.time",
                            lambda: wall_start - 86400.0)
        assert service.health()["uptime_s"] >= 0.0
        assert service.metrics_snapshot()["uptime_s"] >= 0.0
        assert service.health()["uptime_s"] < 60.0
        # the wall-clock start stays available as provenance
        assert service.started_at == wall_start


class TestBadRequests:
    @pytest.mark.parametrize("payload,status,fragment", [
        ({"network": "resnet50", "batch_size": 64}, 400, "model"),
        ({"model": "kw-a100", "batch_size": 64}, 400, "network"),
        ({"model": "kw-a100", "network": "resnet50"}, 400, "batch_size"),
        ({"model": "kw-a100", "network": "resnet50", "batch_size": 0},
         400, ">= 1"),
        ({"model": "nope", "network": "resnet50", "batch_size": 64},
         404, "unknown model"),
        ({"model": "kw-a100", "network": "resnet9000", "batch_size": 64},
         404, "unknown model 'resnet9000'"),
        ({"model": "igkw", "network": "resnet50", "batch_size": 64},
         400, "target 'gpu'"),
        ({"model": "igkw", "network": "resnet50", "batch_size": 64,
          "gpu": "TPUv9"}, 404, "unknown GPU"),
        # a bandwidth that is not a finite number never prices a time,
        # whatever the model kind
        ({"model": "igkw", "network": "resnet50", "batch_size": 64,
          "gpu": "V100", "bandwidth": float("nan")}, 400, "finite"),
        ({"model": "igkw", "network": "resnet50", "batch_size": 64,
          "gpu": "V100", "bandwidth": float("inf")}, 400, "finite"),
        ({"model": "igkw", "network": "resnet50", "batch_size": 64,
          "gpu": "V100", "bandwidth": "1e400"}, 400, "finite"),
        ({"model": "igkw", "network": "resnet50", "batch_size": 64,
          "gpu": "V100", "bandwidth": "abc"}, 400, "number"),
        ({"model": "kw-a100", "network": "resnet50", "batch_size": 64,
          "bandwidth": [1]}, 400, "number"),
        ({"model": "kw-a100", "network": "resnet50", "batch_size": 64,
          "bandwidth": float("nan")}, 400, "finite"),
        # int() would read these as 1 and 2
        ({"model": "kw-a100", "network": "resnet50", "batch_size": True},
         400, "batch_size"),
        ({"model": "kw-a100", "network": "resnet50", "batch_size": 2.7},
         400, "batch_size"),
    ])
    def test_rejections(self, live_server, payload, status, fragment):
        url, _ = live_server
        got_status, body = _post(url, payload)
        assert got_status == status
        assert fragment in body["error"]

    def test_malformed_json_body(self, live_server):
        url, _ = live_server
        request = Request(f"{url}/predict", data=b"{not json",
                          headers={"Content-Type": "application/json"},
                          method="POST")
        with pytest.raises(HTTPError) as excinfo:
            urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_errors_are_counted(self, live_server):
        url, service = live_server
        _post(url, {"model": "nope", "network": "resnet50",
                    "batch_size": 64})
        assert service.metrics.counter("errors_predict_total") == 1


class TestServeCli:
    def test_missing_model_directory_exits_2(self, tmp_path, capsys):
        code = main(["serve", "--models", str(tmp_path / "nowhere"),
                     "--port", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


# -- the connection contract: keep-alive, idle timeout, strict framing -------

#: The idle timeout the connection tests run under (the module constant
#: is 30 s; a short one keeps the timeout tests fast).
TEST_IDLE_TIMEOUT_S = 1.0
#: Well short of the idle timeout: a connection that closes within this
#: window after its last reply closed on purpose, not at the timeout.
PROMPT_S = 0.5

KW = {"model": "kw-a100", "network": "resnet50", "batch_size": 64}
LW = {"model": "lw-a100", "network": "vgg11", "batch_size": 64}


class _Deployment:
    """One HTTP front under test: address plus the metrics it counts in."""

    def __init__(self, address, metrics) -> None:
        self.host, self.port = address[:2]
        self.metrics = metrics

    def connections(self) -> int:
        return self.metrics.counter("connections_total")

    def connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=10)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock


def _in_process(models_dir):
    service = PredictionService(ModelRegistry(models_dir),
                                cache=PredictionCache(256))
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()

    def stop():
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    return _Deployment(httpd.server_address, service.metrics), stop


def _scaled(models_dir):
    scaled = ScaledServer(models_dir, workers=2, max_queue_depth=64)
    address = scaled.serve_in_thread()
    return _Deployment(address, scaled.service.metrics), scaled.shutdown


DEPLOYMENTS = {"in-process": _in_process, "scaled": _scaled}


@pytest.fixture(scope="module", params=sorted(DEPLOYMENTS))
def front(request, models_dir):
    """Each HTTP front, serving under the short test idle timeout."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server_module._Handler, "timeout",
                      TEST_IDLE_TIMEOUT_S)
        deployment, stop = DEPLOYMENTS[request.param](models_dir)
        try:
            yield deployment
        finally:
            stop()


def _request(method: str, path: str, body: bytes = b"",
             headers: str = "", version: str = "HTTP/1.1") -> bytes:
    head = f"{method} {path} {version}\r\nHost: test\r\n{headers}"
    if body:
        head += f"Content-Length: {len(body)}\r\n"
    return head.encode() + b"\r\n" + body


def _post_bytes(path: str, payload, headers: str = "") -> bytes:
    return _request("POST", path, json.dumps(payload).encode(), headers)


def _read_reply(rfile):
    """(status, headers, body) of the next reply, or None at EOF."""
    status_line = rfile.readline()
    if not status_line:
        return None
    status = int(status_line.split()[1])
    headers = {}
    for line in iter(rfile.readline, b"\r\n"):
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = rfile.read(int(headers["content-length"]))
    return status, headers, body


def _replies_until_close(sock, deadline_s: float):
    """Every reply on ``sock``, and the seconds from the last reply (or
    from the call, when there was none) until the server closed."""
    sock.settimeout(deadline_s)
    rfile = sock.makefile("rb")
    replies = []
    while True:
        last = time.monotonic()
        reply = _read_reply(rfile)
        if reply is None:
            return replies, time.monotonic() - last
        replies.append(reply)


class _WriteLog:
    """A handler's ``wfile`` that records every write before making it."""

    def __init__(self, wfile, writes) -> None:
        self._wfile = wfile
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._wfile.write(data)

    def __getattr__(self, name):
        return getattr(self._wfile, name)


class TestKeepAlive:
    def test_posts_share_one_connection_without_nagle_stall(self, front,
                                                            monkeypatch):
        """The Nagle guard: with TCP_NODELAY or the one-write reply gone,
        every reply on a kept-alive connection waits ~40 ms for the
        client's delayed ACK. Either guard alone prevents the stall, so
        both are checked directly rather than through the clock: the
        accepted socket has TCP_NODELAY set, and every reply leaves in
        one write."""
        nodelay, writes = [], []
        setup = server_module._Handler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(bool(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY)))
            handler.wfile = _WriteLog(handler.wfile, writes)

        monkeypatch.setattr(server_module._Handler, "setup",
                            recording_setup)
        connection = http.client.HTTPConnection(front.host, front.port,
                                                timeout=10)
        before = front.connections()
        latencies_ms = []
        try:
            for _ in range(21):
                started = time.perf_counter()
                connection.request("POST", "/predict",
                                   body=json.dumps(KW).encode())
                response = connection.getresponse()
                assert response.status == 200
                body = response.read()
                assert json.loads(body)["network"] == "resnet50"
                latencies_ms.append((time.perf_counter() - started) * 1e3)
        finally:
            connection.close()
        assert front.connections() - before == 1
        assert nodelay == [True]
        # one write per reply, each carrying the status line through the
        # last byte of the body
        assert len(writes) == 21
        assert all(write.startswith(b"HTTP/1.1 200 ") for write in writes)
        assert writes[-1].endswith(b"\r\n\r\n" + body)
        cached = sorted(latencies_ms[1:])      # the first one computes
        assert cached[len(cached) // 2] < 15.0

    def test_pipelined_requests_answer_in_order(self, front):
        sock = front.connect()
        try:
            sock.sendall(_post_bytes("/predict", KW)
                         + _post_bytes("/predict", LW,
                                       "Connection: close\r\n"))
            replies, _ = _replies_until_close(sock, 10)
        finally:
            sock.close()
        assert [status for status, _, _ in replies] == [200, 200]
        assert [json.loads(body)["network"] for _, _, body in replies] \
            == ["resnet50", "vgg11"]

    def test_404_post_drains_its_body(self, front):
        """An unread 404 body would be parsed as the next request."""
        sock = front.connect()
        try:
            sock.sendall(_post_bytes("/nope", KW)
                         + _post_bytes("/predict", KW,
                                       "Connection: close\r\n"))
            replies, _ = _replies_until_close(sock, 10)
        finally:
            sock.close()
        assert [status for status, _, _ in replies] == [404, 200]
        assert json.loads(replies[1][2])["predicted_us"] > 0

    @pytest.mark.parametrize("request_bytes", [
        _post_bytes("/predict", KW, "Connection: close\r\n"),
        _request("POST", "/predict", json.dumps(KW).encode(),
                 version="HTTP/1.0"),
        _request("GET", "/healthz", version="HTTP/1.0"),
    ], ids=["connection-close", "http-1.0-post", "http-1.0-get"])
    def test_close_requests_still_close(self, front, request_bytes):
        sock = front.connect()
        try:
            sock.sendall(request_bytes)
            replies, seconds = _replies_until_close(sock, 10)
        finally:
            sock.close()
        assert [status for status, _, _ in replies] == [200]
        assert seconds < PROMPT_S

    def test_idle_connection_closes_and_frees_its_thread(self, front,
                                                         monkeypatch):
        handler_threads = []
        setup = server_module._Handler.setup

        def recording_setup(handler):
            handler_threads.append(threading.current_thread())
            setup(handler)

        monkeypatch.setattr(server_module._Handler, "setup",
                            recording_setup)
        sock = front.connect()
        try:
            sock.sendall(_post_bytes("/predict", KW))
            replies, seconds = _replies_until_close(
                sock, TEST_IDLE_TIMEOUT_S + 10)
        finally:
            sock.close()
        assert [status for status, _, _ in replies] == [200]
        assert TEST_IDLE_TIMEOUT_S - 0.1 <= seconds < TEST_IDLE_TIMEOUT_S + 5
        (thread,) = handler_threads
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_metrics_expose_connections_total(self, front):
        before = front.connections()
        for _ in range(2):
            sock = front.connect()
            try:
                sock.sendall(_request("GET", "/metrics",
                                      headers="Connection: close\r\n"))
                ((status, _, body),), _ = _replies_until_close(sock, 10)
            finally:
                sock.close()
            assert status == 200
        assert json.loads(body)["counters"]["connections_total"] \
            >= before + 2


class TestStrictFraming:
    """Every malformed body gets a typed 4xx and a closed connection.

    A trailing valid request rides along in the same write: it must
    never be answered, because the server cannot know where it starts.
    """

    TRAILER = _post_bytes("/predict", KW)

    @pytest.mark.parametrize("request_bytes,status", [
        (b"POST /predict HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
        (b"POST /predict HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
        (b"POST /predict HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}", 400),
        (b"POST /predict HTTP/1.1\r\nContent-Length: 2\r\n"
         b"Content-Length: 3\r\n\r\n{}", 400),
        (b"POST /predict HTTP/1.1\r\n"
         b"Content-Length: 1000000000000\r\n\r\n", 413),
        (b"POST /predict HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         % (server_module.MAX_FRAME_BYTES + 1), 413),
        (b"POST /predict HTTP/1.1\r\n\r\n", 411),
        (b"POST /nope HTTP/1.1\r\n\r\n", 411),
        (b"POST /predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"2\r\n{}\r\n0\r\n\r\n", 411),
        (b"GET /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"0\r\n\r\n", 411),
        (b"GET /healthz HTTP/1.1\r\nContent-Length: x\r\n\r\n", 400),
        (b"POST /predict HTTP/1.1\r\nContent-Length 2\r\n\r\n{}", 400),
        (b"POST /predict HTTP/1.1\r\nContent-Length: 2\r\n"
         b" X-Folded: yes\r\n\r\n{}", 400),
        (b"POST /predict HTTP/1.1\r\n"
         + b"".join(b"X-Field-%d: v\r\n" % index for index in range(101))
         + b"Content-Length: 2\r\n\r\n{}", 431),
        (b"POST /predict HTTP/1.1\r\nX-Long: "
         + b"v" * (65537 - len(b"X-Long: \r\n")) + b"\r\n"
         + b"Content-Length: 2\r\n\r\n{}", 431),
    ], ids=["negative", "non-integer", "signed", "duplicate", "huge",
            "over-frame-cap", "missing", "missing-404",
            "transfer-encoding", "get-transfer-encoding",
            "get-non-integer", "header-without-colon",
            "header-obs-fold", "101-headers", "header-line-65537"])
    def test_unframeable_request_is_refused_and_closed(
            self, front, request_bytes, status):
        sock = front.connect()
        try:
            sock.sendall(request_bytes + self.TRAILER)
            replies, seconds = _replies_until_close(sock, 10)
        finally:
            sock.close()
        assert [reply[0] for reply in replies] == [status]
        _, headers, body = replies[0]
        assert headers["connection"] == "close"
        assert "error" in json.loads(body)
        assert seconds < PROMPT_S

    def test_content_length_frames_in_any_letter_case(self, front):
        body = json.dumps(KW).encode()
        sock = front.connect()
        try:
            for name in ("content-length", "CONTENT-LENGTH",
                         "cOnTeNt-LeNgTh"):
                sock.sendall(b"POST /predict HTTP/1.1\r\nHost: test\r\n"
                             + name.encode()
                             + b": %d\r\n\r\n" % len(body) + body)
            sock.sendall(_request("GET", "/healthz",
                                  headers="Connection: close\r\n"))
            replies, _ = _replies_until_close(sock, 10)
        finally:
            sock.close()
        assert [reply[0] for reply in replies] == [200, 200, 200, 200]
        predicted = [json.loads(reply[2])["predicted_us"]
                     for reply in replies[:3]]
        assert predicted == [predicted[0]] * 3

    def test_one_hundred_headers_are_accepted(self, front):
        fields = "".join(f"X-Field-{index}: v\r\n" for index in range(98))
        sock = front.connect()
        try:
            # 98 fields, Host and Connection: the limit of 100 is inclusive
            sock.sendall(_request("GET", "/healthz",
                                  headers=fields + "Connection: close\r\n"))
            replies, _ = _replies_until_close(sock, 10)
        finally:
            sock.close()
        assert [reply[0] for reply in replies] == [200]

    def test_short_body_then_half_close_is_400(self, front):
        """The truncation ``{}`` is valid JSON: it must not be served."""
        sock = front.connect()
        try:
            sock.sendall(b"POST /predict HTTP/1.1\r\n"
                         b"Content-Length: 40\r\n\r\n{}")
            sock.shutdown(socket.SHUT_WR)
            replies, _ = _replies_until_close(sock, 10)
        finally:
            sock.close()
        assert [reply[0] for reply in replies] == [400]
        assert "2 of the 40" in json.loads(replies[0][2])["error"]

    def test_short_body_with_client_waiting_closes_at_idle_timeout(
            self, front):
        sock = front.connect()
        try:
            sock.sendall(b"POST /predict HTTP/1.1\r\n"
                         b"Content-Length: 40\r\n\r\n{}")
            replies, seconds = _replies_until_close(
                sock, TEST_IDLE_TIMEOUT_S + 10)
        finally:
            sock.close()
        assert replies == []
        assert TEST_IDLE_TIMEOUT_S - 0.1 <= seconds < TEST_IDLE_TIMEOUT_S + 5

    def test_framing_errors_never_count_as_requests(self, front):
        before = front.metrics.counter("requests_predict_total")
        sock = front.connect()
        try:
            sock.sendall(b"POST /predict HTTP/1.1\r\n"
                         b"Content-Length: abc\r\n\r\n")
            _replies_until_close(sock, 10)
        finally:
            sock.close()
        assert front.metrics.counter("requests_predict_total") == before


class TestKeepAliveParity:
    def test_kept_alive_bytes_match_across_deployments(self, models_dir):
        """The parity corpus over one kept-alive connection per
        deployment: statuses and bodies match byte for byte."""
        from tests.service.test_scaleout import BATCH_CORPUS, PREDICT_CORPUS

        answers = {}
        for name, start in sorted(DEPLOYMENTS.items()):
            deployment, stop = start(models_dir)
            connection = http.client.HTTPConnection(
                deployment.host, deployment.port, timeout=60)
            replies = []
            try:
                for path, corpus in (("/predict", PREDICT_CORPUS),
                                     ("/predict_batch", BATCH_CORPUS)):
                    for payload in corpus:
                        connection.request(
                            "POST", path, body=json.dumps(payload).encode(),
                            headers={"Content-Type": "application/json"})
                        response = connection.getresponse()
                        replies.append((response.status, response.read()))
                assert deployment.connections() == 1
            finally:
                connection.close()
                stop()
            answers[name] = replies
        assert answers["in-process"] == answers["scaled"]


class TestShutdown:
    def test_server_close_ends_kept_alive_connections(self, models_dir):
        deployment, stop = _in_process(models_dir)
        sock = deployment.connect()
        try:
            sock.sendall(_post_bytes("/predict", KW))
            rfile = sock.makefile("rb")
            assert _read_reply(rfile)[0] == 200
            started = time.monotonic()
            stop()
            # the connection is not idle-timed out (30 s here): the
            # server closed it on its way down
            assert _read_reply(rfile) is None
            assert time.monotonic() - started < 5
        finally:
            sock.close()

"""HTTP integration tests: a live server, concurrent clients, loadgen."""

import json
from concurrent.futures import ThreadPoolExecutor
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro.cli import main


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

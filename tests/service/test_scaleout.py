"""Scale-out stack end to end: parity with the in-process server,
split batches, feedback forwarding, crash recovery, merged metrics."""

import json
import os
import signal
import time
import types
import urllib.error
import urllib.request

import pytest

from repro.service import (
    ModelRegistry,
    PredictionCache,
    PredictionService,
    make_server,
)
from repro.service.frontend import ScaledServer

# every deterministic /predict and /predict_batch behaviour in one
# corpus: success tiers, every error family, duplicates for the cache
PREDICT_CORPUS = [
    {"model": "kw-a100", "network": "resnet50", "batch_size": 64},
    {"model": "lw-a100", "network": "vgg11", "batch_size": 64},
    {"model": "e2e-a100", "network": "mobilenet_v2", "batch_size": 64},
    {"model": "igkw", "network": "resnet50", "batch_size": 64,
     "gpu": "TITAN RTX"},
    {"model": "igkw", "network": "resnet50", "batch_size": 64,
     "gpu": "A100", "bandwidth": 900.0},
    # the same request again: must hit the (sharded) cache identically
    {"model": "kw-a100", "network": "resnet50", "batch_size": 64},
    # error corpus — messages must come back verbatim from the core
    {"model": "nope", "network": "resnet50", "batch_size": 64},
    {"model": "kw-a100", "network": "not-a-network", "batch_size": 64},
    {"model": "kw-a100", "network": "resnet50"},
    {"model": "kw-a100", "network": "resnet50", "batch_size": -3},
    {"model": "igkw", "network": "resnet50", "batch_size": 64},
    {"model": "igkw", "network": "resnet50", "batch_size": 64,
     "gpu": "NotAGPU"},
    {"network": "resnet50", "batch_size": 64},
]

BATCH_CORPUS = [
    {"items": PREDICT_CORPUS},
    {"items": [
        {"model": "kw-a100", "network": "resnet50", "batch_size": 64},
        {"model": "kw-a100", "network": "resnet50", "batch_size": 64},
        {"model": "igkw", "network": "vgg11", "batch_size": 64,
         "gpu": "A100"},
        "not even an object",
    ]},
    {"items": []},
    {"items": "nope"},
    {},
    {"items": [{"model": "kw-a100", "network": "resnet50",
                "batch_size": 64}] * 300},       # over the 256 cap
]


def _post(url, path, document):
    request = urllib.request.Request(
        f"{url}{path}", data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _get(url, path):
    with urllib.request.urlopen(f"{url}{path}", timeout=60) as response:
        return response.status, response.read()


def _wait_until(predicate, timeout_s=30.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@pytest.fixture()
def scaled_server(models_dir):
    server = ScaledServer(models_dir, workers=2, max_queue_depth=64)
    with server:
        host, port = server.httpd.server_address[:2]
        yield f"http://{host}:{port}", server


class TestParityWithInProcessServer:
    """The scale-out frontend must be indistinguishable on the wire.

    The same corpus runs against a fresh in-process server (the
    ``--workers 1`` code path, byte-identical to the pre-refactor
    server by construction) and a 2-worker scaled deployment; /predict
    and /predict_batch responses must match byte for byte — statuses,
    error text, caching behaviour, JSON key order, everything.
    """

    def test_predict_and_batch_bytes_match(self, models_dir,
                                           scaled_server):
        registry = ModelRegistry(models_dir)
        service = PredictionService(registry,
                                    cache=PredictionCache(256))
        inprocess = make_server(service, port=0)
        import threading
        thread = threading.Thread(target=inprocess.serve_forever,
                                  daemon=True)
        thread.start()
        host, port = inprocess.server_address[:2]
        reference_url = f"http://{host}:{port}"
        scaled_url, _ = scaled_server
        try:
            for payload in PREDICT_CORPUS:
                expected = _post(reference_url, "/predict", payload)
                actual = _post(scaled_url, "/predict", payload)
                assert actual == expected, payload
            for payload in BATCH_CORPUS:
                expected = _post(reference_url, "/predict_batch", payload)
                actual = _post(scaled_url, "/predict_batch", payload)
                assert actual == expected, str(payload)[:80]
        finally:
            inprocess.shutdown()
            inprocess.server_close()
            thread.join(timeout=5)


class TestScaledEndpoints:
    def test_batch_splits_across_shards_and_reassembles_in_order(
            self, scaled_server):
        url, server = scaled_server
        # enough distinct networks that both shards certainly get items
        items = [{"model": "kw-a100", "network": network,
                  "batch_size": 64}
                 for network in ("alexnet", "resnet18", "resnet50",
                                 "vgg11", "mobilenet_v2",
                                 "squeezenet1_1", "densenet121",
                                 "shufflenet_v1")]
        slots = {server.pool.route("kw-a100", item["network"]).slot
                 for item in items}
        assert slots == {0, 1}          # the split is real
        status, raw = _post(url, "/predict_batch", {"items": items})
        assert status == 200
        body = json.loads(raw)
        assert body["count"] == len(items)
        assert body["errors"] == 0
        # results come back in request order despite the shard split
        for item, result in zip(items, body["results"]):
            single = json.loads(_post(url, "/predict", item)[1])
            assert result["predicted_us"] == single["predicted_us"]

    def test_health_reports_the_fleet(self, scaled_server):
        url, _ = scaled_server
        status, raw = _get(url, "/healthz")
        body = json.loads(raw)
        assert status == 200
        assert body["status"] == "ok"
        assert body["models"] == 4
        assert body["workers"] == {"total": 2, "alive": 2, "restarts": 0}

    def test_models_match_the_directory(self, scaled_server):
        url, _ = scaled_server
        status, raw = _get(url, "/models")
        body = json.loads(raw)
        assert status == 200
        assert sorted(model["name"] for model in body["models"]) == [
            "e2e-a100", "igkw", "kw-a100", "lw-a100"]

    def test_metrics_are_aggregated_with_pool_state(self, scaled_server):
        url, _ = scaled_server
        for _ in range(3):
            _post(url, "/predict", {"model": "kw-a100",
                                    "network": "resnet50",
                                    "batch_size": 64})
        status, raw = _get(url, "/metrics")
        body = json.loads(raw)
        assert status == 200
        assert body["counters"]["requests_predict_total"] >= 3
        assert body["pool"]["workers"] == 2
        assert body["pool"]["alive"] == 2
        assert set(body["pool"]["queue_depths"]) == {"0", "1"}
        assert body["gauges"]["workers_alive"] == 2
        assert "worker_0_queue_depth" in body["gauges"]
        assert body["admission"]["shed_total"] == 0
        assert body["admission"]["max_queue_depth"] == 64
        assert body["slo"]["predict"]["target_ms"] == 50.0
        assert body["registry"]["models"] == 4

    def test_metrics_text_exposes_the_scaleout_counters(
            self, scaled_server):
        url, _ = scaled_server
        status, raw = _get(url, "/metrics?format=text")
        text = raw.decode()
        assert status == 200
        assert "repro_workers_alive 2" in text
        assert "repro_worker_0_queue_depth" in text
        assert "repro_pool_workers 2" in text
        assert "repro_worker_restarts 0" in text

    def test_calibration_without_calibrator_is_409_verbatim(
            self, scaled_server):
        url, _ = scaled_server
        status, raw = _post(url, "/feedback",
                            {"model": "kw-a100", "network": "resnet50",
                             "batch_size": 64, "measured_us": 100.0})
        assert status == 409
        assert json.loads(raw)["error"] == (
            "calibration is not enabled on this server "
            "(restart with --calibrate)")


class TestFeedbackForwarding:
    def test_worker_validates_frontend_records(self, models_dir):
        # exactly one calibrator, owned by the frontend; workers only
        # validate and replay the prediction on their hot shard
        recorded = []

        class FakeCalibrator:
            metrics = None

            def record(self, observation):
                recorded.append(observation)
                return types.SimpleNamespace(
                    n=len(recorded), ewma=0.25, ph_statistic=0.0,
                    drifted=False, triggers=())

        server = ScaledServer(models_dir, workers=2,
                              calibrator=FakeCalibrator())
        with server:
            host, port = server.httpd.server_address[:2]
            url = f"http://{host}:{port}"
            status, raw = _post(url, "/feedback", {
                "model": "kw-a100", "network": "resnet50",
                "batch_size": 64, "measured_us": 123456.0})
        body = json.loads(raw)
        assert status == 200
        assert body["recorded"] is True
        assert body["model"] == "kw-a100"
        assert body["drift"]["n"] == 1
        # the observation reached the single frontend calibrator with
        # the worker's replayed prediction attached
        assert len(recorded) == 1
        assert recorded[0].model == "kw-a100"
        assert recorded[0].measured_us == 123456.0
        assert recorded[0].predicted_us > 0


class TestCrashRecoveryOverHTTP:
    def test_killed_worker_respawns_and_serving_continues(
            self, scaled_server):
        url, server = scaled_server
        payload = {"model": "kw-a100", "network": "resnet50",
                   "batch_size": 64}
        assert _post(url, "/predict", payload)[0] == 200
        victim = server.pool.route(payload["model"], payload["network"])
        os.kill(victim.pid(), signal.SIGKILL)
        assert _wait_until(lambda: victim.restarts() >= 1)
        assert _wait_until(lambda: server.pool.alive_count() == 2)
        # the shard's keys are served again (fresh process, cold cache)
        deadline = time.monotonic() + 30
        while True:
            status, raw = _post(url, "/predict", payload)
            if status == 200 or time.monotonic() > deadline:
                break
            time.sleep(0.05)            # 503 while mid-respawn: retry
        assert status == 200
        assert json.loads(raw)["predicted_us"] > 0
        # the restart is visible to operators
        status, raw = _get(url, "/metrics")
        body = json.loads(raw)
        assert body["pool"]["restarts_total"] >= 1
        assert body["counters"]["worker_restarts_total"] >= 1
        health = json.loads(_get(url, "/healthz")[1])
        assert health["workers"]["restarts"] >= 1


def _without_cache_flags(result):
    return {key: value for key, value in result.items()
            if key not in ("cached", "plan_cached")}


class TestPipelinedLoad:
    """Concurrent near-cap posts share both worker channels."""

    NETWORKS = ("alexnet", "resnet18", "resnet50", "vgg11",
                "mobilenet_v2", "squeezenet1_1", "densenet121",
                "shufflenet_v1", "googlenet", "efficientnet_b0")

    def _body(self, thread_index, post_index):
        items = []
        for index in range(250):               # BATCH_CAP is 256
            network = self.NETWORKS[(index + thread_index)
                                    % len(self.NETWORKS)]
            batch_size = (32, 64, 128)[(index + post_index) % 3]
            model = ("kw-a100", "lw-a100", "e2e-a100", "igkw")[index % 4]
            item = {"model": model, "network": network,
                    "batch_size": batch_size}
            if model == "igkw":
                item["gpu"] = ("A100", "TITAN RTX")[index % 2]
            items.append(item)
        return {"items": items}

    def test_concurrent_sharded_posts_match_in_process(
            self, models_dir, scaled_server):
        import http.client
        import threading

        url, server = scaled_server
        host, port = server.httpd.server_address[:2]
        threads, posts = 8, 3
        replies = {}
        errors = []

        def client(thread_index):
            connection = http.client.HTTPConnection(host, port,
                                                    timeout=60)
            try:
                for post_index in range(posts):
                    connection.request(
                        "POST", "/predict_batch",
                        body=json.dumps(self._body(
                            thread_index, post_index)).encode())
                    response = connection.getresponse()
                    replies[thread_index, post_index] = (
                        response.status, json.loads(response.read()))
            except Exception as exc:  # repro: noqa[EX001]
                errors.append(exc)
            finally:
                connection.close()

        workers = [threading.Thread(target=client, args=(index,))
                   for index in range(threads)]
        started = time.monotonic()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(120)
        assert time.monotonic() - started < 120
        assert errors == []
        assert len(replies) == threads * posts
        slots = {server.pool.route(item["model"], item["network"]).slot
                 for item in self._body(0, 0)["items"]}
        assert slots == {0, 1}
        reference = PredictionService(ModelRegistry(models_dir))
        for (thread_index, post_index), (status, body) in \
                sorted(replies.items()):
            assert status == 200
            expected = reference.predict_batch(
                self._body(thread_index, post_index))
            assert body["count"] == expected["count"] == 250
            assert body["errors"] == expected["errors"]
            # cache flags depend on what each cache saw before
            assert [_without_cache_flags(result)
                    for result in body["results"]] == [
                _without_cache_flags(result)
                for result in expected["results"]]
        assert server.pool.restarts_total() == 0

"""/predict_batch: per-item errors, cache accounting, vectorised igkw."""

import json
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro import zoo
from repro.core.e2e import EndToEndModel
from repro.core.intergpu import InterGPUKernelWiseModel
from repro.core.kernelwise import KernelTablePredictor, KernelWiseModel
from repro.core.layerwise import LayerWiseModel
from repro.core.plan import LayerSumPlan, RetargetablePlan
from repro.service import (
    ModelRegistry,
    PredictionCache,
    PredictionService,
    build_plan_chain,
    resolve_target,
)
from repro.service.fallback import TierError
from repro.service.server import BATCH_CAP, ServiceError


def _get(url: str):
    with urlopen(url, timeout=10) as response:
        body = response.read()
        if response.headers.get_content_type() == "application/json":
            return response.status, json.loads(body)
        return response.status, body.decode()


def _post(base_url: str, path: str, payload: dict):
    request = Request(f"{base_url}{path}",
                      data=json.dumps(payload).encode(),
                      headers={"Content-Type": "application/json"},
                      method="POST")
    try:
        with urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _item(model="kw-a100", network="resnet50", batch_size=64, **extra):
    return dict({"model": model, "network": network,
                 "batch_size": batch_size}, **extra)


class TestMixedBatch:
    def test_64_item_mixed_batch_over_http(self, live_server):
        """The acceptance scenario: a 64-item batch mixing every hosted
        model kind with malformed items answers 200, slots the errors
        per item, and the batch metrics land in /metrics."""
        url, service = live_server
        bad = [
            (_item(model="nope"), 404),                    # unknown model
            (_item(network="resnet9000"), 404),            # unknown network
            (_item(batch_size=0), 400),                    # bad batch size
            ({"network": "resnet50", "batch_size": 64}, 400),  # no model
            (_item(model="igkw", network="resnet18"), 400),    # no gpu
            (_item(model="igkw", network="resnet18",
                   gpu="TPUv9"), 404),                     # unknown gpu
            ("not a dict", 400),
        ]
        good = (
            [_item(network=n) for n in
             ("resnet50", "vgg11", "alexnet")] +
            [_item(model="e2e-a100", network="resnet18"),
             _item(model="lw-a100", network="resnet18")] +
            [_item(model="igkw", network="resnet18", gpu=g)
             for g in ("V100", "A100", "TITAN RTX")] +
            [_item(model="igkw", network="resnet18", gpu="V100",
                   bandwidth=float(b))
             for b in (300, 500, 700, 900, 1100)]
        )
        items = []
        for index in range(64 - len(bad)):
            items.append(good[index % len(good)])
        bad_positions = {}
        for offset, (payload, status) in enumerate(bad):
            position = offset * 9 + 3        # scatter through the batch
            items.insert(position, payload)
            bad_positions[position] = status
        assert len(items) == 64

        status, body = _post(url, "/predict_batch", {"items": items})
        assert status == 200
        assert body["count"] == 64
        assert body["errors"] == len(bad)
        assert len(body["results"]) == 64
        for position, result in enumerate(body["results"]):
            if position in bad_positions:
                assert result["status"] == bad_positions[position]
                assert result["error"]
            else:
                assert "status" not in result
                assert result["predicted_us"] > 0
                assert result["model"] == items[position]["model"]
                assert result["network"] == items[position]["network"]

        _, metrics = _get(f"{url}/metrics")
        counters = metrics["counters"]
        assert counters["batch_items_total"] >= 64
        assert counters["batch_item_errors_total"] >= len(bad)
        assert counters["batch_vectorized_items_total"] >= 1
        assert metrics["histograms"]["batch_size"]["count"] >= 1
        assert counters["requests_predict_batch_total"] >= 1
        assert "errors_predict_batch_total" not in counters

        _, text = _get(f"{url}/metrics?format=text")
        assert "repro_batch_items_total" in text
        assert "repro_batch_item_errors_total" in text
        assert "repro_batch_size_count" in text

    def test_per_item_cache_hits(self, live_server):
        url, service = live_server
        warm = _item(network="squeezenet1_1")
        cold = _item(network="googlenet")
        before = service.metrics.counter("batch_cache_hits_total")
        status, first = _post(url, "/predict", warm)
        assert status == 200 and first["cached"] is False

        status, body = _post(url, "/predict_batch",
                             {"items": [warm, cold]})
        assert status == 200 and body["errors"] == 0
        warmed, colded = body["results"]
        assert warmed["cached"] is True
        assert warmed["predicted_us"] == first["predicted_us"]
        assert colded["cached"] is False
        after = service.metrics.counter("batch_cache_hits_total")
        assert after == before + 1

    def test_in_batch_duplicates_hit_like_sequential_requests(
            self, live_server):
        url, service = live_server
        item = _item(network="mobilenet_v2")
        before = service.metrics.counter("batch_cache_hits_total")
        status, body = _post(url, "/predict_batch",
                             {"items": [item, dict(item), dict(item)]})
        assert status == 200 and body["errors"] == 0
        first, *rest = body["results"]
        assert first["cached"] is False
        for result in rest:
            assert result["cached"] is True
            assert result["predicted_us"] == first["predicted_us"]
        after = service.metrics.counter("batch_cache_hits_total")
        assert after == before + 2


class TestBatchRejections:
    @pytest.mark.parametrize("payload,fragment", [
        ({}, "'items'"),
        ({"items": "resnet50"}, "'items'"),
        ({"items": {}}, "'items'"),
        ({"items": []}, "must not be empty"),
    ])
    def test_bad_envelope_400(self, live_server, payload, fragment):
        url, _ = live_server
        status, body = _post(url, "/predict_batch", payload)
        assert status == 400
        assert fragment in body["error"]

    def test_bad_bandwidth_fails_only_its_item(self, live_server):
        url, _ = live_server
        igkw = _item(model="igkw", network="resnet18", gpu="V100")
        bad = [float("nan"), float("inf"), "abc", [1]]
        items = ([dict(igkw, bandwidth=b) for b in bad]
                 + [dict(igkw, bandwidth=900.0), igkw])
        status, body = _post(url, "/predict_batch", {"items": items})
        assert status == 200
        assert body["errors"] == len(bad)
        for result in body["results"][:len(bad)]:
            assert result["status"] == 400
            assert "bandwidth must be" in result["error"]
        for result in body["results"][len(bad):]:
            assert "status" not in result and result["predicted_us"] > 0

    def test_oversized_batch_413(self, models_dir):
        service = PredictionService(ModelRegistry(models_dir),
                                    batch_cap=4)
        items = [_item() for _ in range(5)]
        with pytest.raises(ServiceError) as excinfo:
            service.predict_batch({"items": items})
        assert excinfo.value.status == 413
        assert "cap of 4" in excinfo.value.message

    def test_default_cap_is_module_constant(self, models_dir):
        service = PredictionService(ModelRegistry(models_dir))
        assert service.batch_cap == BATCH_CAP

    def test_batch_cap_must_be_positive(self, models_dir):
        with pytest.raises(ValueError):
            PredictionService(ModelRegistry(models_dir), batch_cap=0)


class TestSequentialParity:
    def test_batch_equals_n_single_predicts(self, models_dir):
        """A fresh service serving one batch answers exactly like a
        fresh service serving the same items one /predict at a time —
        values, tiers, attempts, and cache/plan flags included."""
        items = (
            [_item(network=n) for n in ("resnet50", "vgg11")] +
            [_item(network="resnet50")] +                  # duplicate
            [_item(model="e2e-a100", network="resnet18"),
             _item(model="lw-a100", network="resnet18"),
             # transformer shapes are unknown to the CNN-trained KW
             # table, so this one answers from the LW fallback tier
             _item(network="bert_small")] +
            [_item(model="igkw", network="resnet18", gpu=g)
             for g in ("V100", "TITAN RTX")] +
            [_item(model="igkw", network="resnet18", gpu="V100",
                   bandwidth=250.0)]
        )
        sequential_service = PredictionService(
            ModelRegistry(models_dir), cache=PredictionCache(256))
        sequential = []
        for item in items:
            try:
                sequential.append(sequential_service.predict(dict(item)))
            except ServiceError as exc:
                sequential.append({"error": exc.message,
                                   "status": exc.status})

        batch_service = PredictionService(
            ModelRegistry(models_dir), cache=PredictionCache(256))
        body = batch_service.predict_batch(
            {"items": [dict(item) for item in items]})

        assert body["count"] == len(items)
        assert body["results"] == sequential
        # and the tier metrics agree item for item
        for name in ("tier_kw_total", "tier_lw_total", "tier_e2e_total",
                     "degraded_total"):
            assert (batch_service.metrics.counter(name)
                    == sequential_service.metrics.counter(name)), name

    def test_igkw_fast_path_used_and_bit_exact(self, models_dir):
        service = PredictionService(ModelRegistry(models_dir))
        items = [_item(model="igkw", network="resnet18", gpu="V100",
                       bandwidth=float(b))
                 for b in (200, 400, 600, 800, 1000, 1200, 1400)]
        body = service.predict_batch({"items": items})
        assert body["errors"] == 0
        assert (service.metrics.counter("batch_vectorized_items_total")
                == len(items))
        assert service.metrics.counter("tier_kw_total") == len(items)

        reference = PredictionService(ModelRegistry(models_dir))
        for item, result in zip(items, body["results"]):
            assert result == reference.predict(dict(item))


class TestIgkwMissPath:
    """/predict prices an igkw miss in one pass and never binds a
    KernelPlan: a miss that degrades past the kw coverage gate answers
    from the plan's cached layer-wise plan."""

    @staticmethod
    def _bind_path_response(service, item):
        """The response of binding the plan and running the full chain."""
        entry = service.registry.get(item["model"])
        network = zoo.build(item["network"])
        plan = entry.model.compile(network, item["batch_size"])
        target = resolve_target(item["model"], item["gpu"], None)
        outcome = build_plan_chain(plan.bind(target), service.registry,
                                   service.coverage_threshold).predict(
            item["network"], item["batch_size"])
        if outcome.tier == "lw":
            # pinned to the direct layer-wise path, not only to the plan
            assert outcome.value_us == entry.model._nearest_lw(
                target).predict_network(network, item["batch_size"])
        request = (item["model"], item["network"], item["batch_size"],
                   item["gpu"], None)
        return dict(service._response_for(entry, request, outcome),
                    cached=False, plan_cached=False)

    @pytest.mark.parametrize("network, binds, tier", [
        ("resnet18", 0, "kw"),      # fully mapped: the kw gate answers
        ("bert_small", 0, "lw"),    # degrades: the LW tier, no bind
    ])
    def test_bind_runs_only_for_degraded_misses(self, models_dir,
                                                monkeypatch, network,
                                                binds, tier):
        calls = []
        bind = RetargetablePlan.bind
        monkeypatch.setattr(
            RetargetablePlan, "bind",
            lambda plan, target: calls.append(target) or bind(plan, target))
        service = PredictionService(ModelRegistry(models_dir))
        item = _item(model="igkw", network=network, gpu="V100")
        response = service.predict(dict(item))
        assert len(calls) == binds
        assert response["tier"] == tier
        assert response == self._bind_path_response(service, item)

    def test_degraded_plan_hit_needs_no_bind_build_or_compile(
            self, models_dir, monkeypatch):
        """A degraded miss on a plan-cache hit is priced from cached
        plans alone, on /predict and /predict_batch."""
        service = PredictionService(ModelRegistry(models_dir))
        service.predict(_item(model="igkw", network="bert_small",
                              gpu="A100"))          # warms the plan cache
        items = [_item(model="igkw", network="bert_small", gpu=name)
                 for name in ("V100", "TITAN RTX", "A40")]
        expected = [dict(self._bind_path_response(service, item),
                         plan_cached=True) for item in items]
        assert all(reply["tier"] == "lw" for reply in expected)

        calls = []

        def spy(owner, attribute):
            original = getattr(owner, attribute)
            monkeypatch.setattr(
                owner, attribute,
                lambda *args, **kwargs: calls.append(attribute)
                or original(*args, **kwargs))

        spy(RetargetablePlan, "bind")
        spy(zoo, "build")
        for model_class in (KernelTablePredictor, KernelWiseModel,
                            InterGPUKernelWiseModel, LayerWiseModel,
                            EndToEndModel):
            spy(model_class, "compile")
        assert service.predict(dict(items[0])) == expected[0]
        batch = service.predict_batch({"items": items[1:]})["results"]
        assert batch == expected[1:]
        assert calls == []


def _exhaust_chain(monkeypatch, service):
    """No tier answers a degraded request: the LW tier fails and no E2E
    model is hosted."""
    def evaluate(plan, gpu=None):
        raise TierError("lw down")
    monkeypatch.setattr(LayerSumPlan, "evaluate", evaluate)
    monkeypatch.setattr(service.registry, "first_of_kind",
                        lambda kind: None)


def _break_plan_lookup(monkeypatch, service):
    def plan_for(*args):
        raise RuntimeError("plan store down")
    monkeypatch.setattr(PredictionService, "_plan_for", plan_for)


def _batch_counters(service):
    return {name: value for name, value
            in service.metrics.snapshot()["counters"].items()
            if name.startswith("batch_")}


class TestOneMissPath:
    """/predict answers a miss through the /predict_batch group code:
    the same status and message, and only /predict_batch moves the
    batch counters."""

    @pytest.mark.parametrize("item, status, fragment, setup", [
        (_item(model="nope"), 404, "nope", None),
        (_item(network="resnet9000"), 404, "resnet9000", None),
        (_item(model="igkw", network="resnet18", gpu="V100",
               bandwidth=float("inf")), 400, "bandwidth must be", None),
        (_item(model="igkw", network="resnet18", gpu="TPUv9"), 404,
         "TPUv9", None),
        (_item(network="bert_small"), 422, "every fallback tier failed",
         _exhaust_chain),
        (_item(network="resnet18"), 500,
         "internal error: RuntimeError: plan store down",
         _break_plan_lookup),
    ], ids=["unknown-model", "unknown-network", "inf-bandwidth",
            "unknown-gpu", "exhausted-chain", "plan-lookup-raises"])
    def test_predict_fails_like_its_batch_slot(self, live_server,
                                               monkeypatch, item, status,
                                               fragment, setup):
        url, service = live_server
        if setup is not None:
            setup(monkeypatch, service)
        batch_before = _batch_counters(service)
        raised_before = service.metrics.counter(
            "errors_predict_RuntimeError_total")

        got, body = _post(url, "/predict", item)
        assert (got, set(body)) == (status, {"error"})
        assert fragment in body["error"]
        assert _batch_counters(service) == batch_before
        assert (service.metrics.counter("errors_predict_RuntimeError_total")
                == raised_before + (status == 500))

        # in process, /predict raises what the one-item batch slots
        slot = service.predict_batch({"items": [dict(item)]})["results"][0]
        assert slot == {"error": body["error"], "status": status}
        with pytest.raises(Exception) as raised:
            service.predict(dict(item))
        assert PredictionService._error_slot(raised.value) == slot

    def test_grid_failure_fails_predict_without_batch_counters(
            self, live_server, monkeypatch):
        url, service = live_server
        widths = []

        def evaluate_grid(plan, gpus):
            widths.append(len(gpus))
            raise FloatingPointError("grid down")
        monkeypatch.setattr(RetargetablePlan, "evaluate_grid",
                            evaluate_grid)
        item = _item(model="igkw", network="resnet18", gpu="V100")
        got, body = _post(url, "/predict", item)
        assert got == 500
        assert body["error"] == ("internal error: FloatingPointError: "
                                 "grid down")
        # a failed one-target grid is the answer, not run a second time
        assert widths == [1]
        assert service.metrics.counter(
            "errors_predict_FloatingPointError_total") == 1
        assert _batch_counters(service) == {}

        # the same miss in a batch slots the error and counts the grid
        got, body = _post(url, "/predict_batch", {"items": [item]})
        assert got == 200
        assert body["results"] == [{"error": "internal error: "
                                    "FloatingPointError: grid down",
                                    "status": 500}]
        assert service.metrics.counter(
            "batch_grid_errors_FloatingPointError_total") == 1
        assert widths == [1, 1]

        # a failed grid over two targets reprices each target alone
        got, body = _post(url, "/predict_batch", {"items": [
            _item(model="igkw", network="resnet18", gpu=name)
            for name in ("A100", "TITAN RTX")]})
        assert got == 200 and body["errors"] == 2
        assert widths == [1, 1, 2, 1, 1]

"""Extension: compiled PredictionPlans amortise the graph walk.

The compile/evaluate split exists so that structure-dependent work
(walking the layer graph, resolving kernel sequences and regression
references) happens once per workload, not once per prediction. This
benchmark measures the payoff on the paper's own 13-point Figure-15/16
bandwidth sweep: per-point ``for_gpu(...).predict_network(...)`` versus
one ``compile`` plus 13 cheap ``evaluate(gpu=...)`` calls, and the same
effect through the service's plan cache.
"""

from __future__ import annotations

from _shared import best_of, emit, once

from repro import core
from repro.gpu import IGKW_TRAIN_GPUS, gpu
from repro.service import ModelRegistry, PredictionCache, PredictionService
from repro.studies import context
from repro.studies.bandwidth_sweep import DEFAULT_BANDWIDTHS
from repro.zoo import resnet50

BATCH_SIZE = 64


def test_plan_reuse_speeds_up_bandwidth_sweep(benchmark):
    model = context.trained_igkw(IGKW_TRAIN_GPUS)
    network = resnet50()
    base = gpu("TITAN RTX")

    def direct():
        return [model.for_gpu(base.with_bandwidth(b))
                .predict_network(network, BATCH_SIZE)
                for b in DEFAULT_BANDWIDTHS]

    def planned():
        plan = model.compile(network, BATCH_SIZE)
        return [plan.evaluate(gpu=base.with_bandwidth(b))
                for b in DEFAULT_BANDWIDTHS]

    direct_s, direct_times = best_of(direct)
    planned_s, planned_times = once(benchmark, lambda: best_of(planned))
    speedup = direct_s / planned_s

    text = (f"13-point bandwidth sweep, resnet50 @ bs{BATCH_SIZE} on "
            f"TITAN RTX variants (best of 5):\n"
            f"  per-point predict_network: {direct_s * 1e3:8.2f} ms\n"
            f"  compile once + evaluate:   {planned_s * 1e3:8.2f} ms\n"
            f"  speedup:                   {speedup:8.1f}x")
    emit("ext_plan_cache", text)

    # bit-exact: the plan replays the direct path's arithmetic
    assert planned_times == direct_times
    assert speedup >= 5.0


def test_service_plan_cache_amortises_requests(tmp_path):
    model = context.trained_igkw(IGKW_TRAIN_GPUS)
    core.save_model(model, tmp_path / "igkw.json")
    payloads = [{"model": "igkw", "network": "resnet50",
                 "batch_size": BATCH_SIZE, "gpu": "TITAN RTX",
                 "bandwidth": float(b)} for b in DEFAULT_BANDWIDTHS]

    def serve_all():
        service = PredictionService(ModelRegistry(tmp_path),
                                    plan_cache=PredictionCache(256))
        for payload in payloads:
            service.predict(payload)
        return service

    # warm once for parity with cold, then best-of for both shapes
    cold_s, service = best_of(serve_all, rounds=3)
    stats = service.plans.stats()
    assert stats["misses"] == 1
    assert stats["hits"] == len(DEFAULT_BANDWIDTHS) - 1

    def replay():
        for payload in payloads:
            service.predict(payload)

    warm_s, _ = best_of(replay, rounds=3)
    text = (f"13 bandwidth-varied /predict requests (best of 3):\n"
            f"  cold service (1 compile): {cold_s * 1e3:8.2f} ms\n"
            f"  warm replay (result hits): {warm_s * 1e3:8.2f} ms\n"
            f"  warm speedup:              {cold_s / warm_s:8.1f}x")
    emit("ext_plan_cache_service", text)
    assert cold_s / warm_s >= 2.0

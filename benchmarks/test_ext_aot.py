"""Extension: the AOT compile store collapses service cold-start.

A cold service pays for the whole lowering pipeline on the first request
per (network, batch): build the zoo network's layer graph, walk it,
resolve kernel sequences and regression lines. With a plan bundle next
to the model file (``repro compile``), the registry preloads finished
plans and those first requests are answered from the store — no graph
is ever built. This benchmark measures cold-start-to-first-prediction
across a served roster of deep networks, with and without a warm store:
the time from process-fresh registry construction until every network
has answered its first request.
"""

from __future__ import annotations

from _shared import best_of_interleaved, emit, once

from repro import core
from repro.core.planopt import compile_store
from repro.core.workflow import train_model
from repro.dataset import build_dataset
from repro.gpu import gpu
from repro.service import ModelRegistry, PredictionService
from repro.zoo import build as build_network

#: Deep networks where lowering is most expensive — the workloads an
#: AOT store exists for.
ROSTER = ("densenet121", "densenet161", "densenet169",
          "densenet201", "resnet101", "resnet152")
BATCH_SIZE = 64


def test_warm_store_speeds_up_cold_start(benchmark, tmp_path_factory):
    campaign = [build_network(name) for name in ("resnet18",
                                                 "mobilenet_v2")]
    data = build_dataset(campaign, [gpu("A100"), gpu("TITAN RTX")],
                         batch_sizes=(BATCH_SIZE,))
    model = train_model(data, "kw", gpu="A100", batch_size=BATCH_SIZE)
    bare_dir = tmp_path_factory.mktemp("bare-models")
    aot_dir = tmp_path_factory.mktemp("aot-models")
    for directory in (bare_dir, aot_dir):
        core.save_model(model, directory / "kw.json")
    report = compile_store(aot_dir, network_names=list(ROSTER),
                           batch_sizes=[BATCH_SIZE], verify=True)
    assert report.ok

    def first_predictions(directory):
        # everything a restart pays for: registry scan (model load and,
        # when present, bundle preload), service wiring, and the first
        # request of every served network
        service = PredictionService(ModelRegistry(directory))
        return [service.predict({"model": "kw", "network": name,
                                 "batch_size": BATCH_SIZE})
                for name in ROSTER]

    # one cold and one warm start per round, best of each
    (cold_s, cold), (warm_s, warm) = once(
        benchmark, lambda: best_of_interleaved(
            [lambda: first_predictions(bare_dir),
             lambda: first_predictions(aot_dir)]))
    speedup = cold_s / warm_s

    text = (f"cold start to first /predict on {len(ROSTER)} deep "
            f"networks @ bs{BATCH_SIZE} (best of 5 interleaved "
            f"rounds):\n"
            f"  no bundle (lazy lowering): {cold_s * 1e3:8.2f} ms\n"
            f"  warm store (AOT plans):    {warm_s * 1e3:8.2f} ms\n"
            f"  speedup:                   {speedup:8.1f}x")
    emit("ext_aot", text)

    # the store answered every first request without compiling anything
    assert all(response["plan_cached"] for response in warm)
    assert not any(response["plan_cached"] for response in cold)
    # bit-exact: AOT plans replay the lazy path's arithmetic
    assert [response["predicted_us"] for response in warm] == \
        [response["predicted_us"] for response in cold]
    assert speedup >= 5.0

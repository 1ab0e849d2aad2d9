"""Traced server launcher: ``python perfbench/launcher.py TRACE_DIR serve ...``.

Wraps the serving stack's public functions with :mod:`spans` before
``repro.cli.main`` runs, then hands the remaining arguments to the real
CLI. The frontend writes its spans when ``main`` returns (SIGINT stops
``serve``). Forked pool workers inherit the wraps but leave through
``multiprocessing``'s ``os._exit`` and never run ``atexit``, so the
worker entry point is wrapped to drop the parent's spans on start and
write its own on exit.
"""

from __future__ import annotations

import os
import sys

from spans import Tracer, perf_counter


def _port(args, kwargs, result, error):
    """Client port of a ``(request, client_address)`` server call."""
    return args[2][1]


def _failed(args, kwargs, result, error):
    return type(error).__name__ if error is not None else None


def _frame_bytes(args, kwargs, result, error):
    return result


def _grid_items(args, kwargs, result, error):
    return len(args[1])


def _degraded(args, kwargs, result, error):
    return bool(result is not None and result.degraded)


def _slot(args, kwargs, result, error):
    return result.slot if result is not None else None


def _header_read(args, kwargs):
    return bool(kwargs.get("clean_at_zero", args[2] if len(args) > 2
                           else False))


def install(tracer: Tracer, trace_dir: str) -> None:
    """Wrap every traced layer of the serving stack."""
    from repro import zoo
    from repro.core.e2e import EndToEndModel
    from repro.core.intergpu import InterGPUKernelWiseModel
    from repro.core.kernelwise import KernelTablePredictor
    from repro.core.layerwise import LayerWiseModel
    from repro.core.plan import KernelPlan, RetargetablePlan
    from repro.service import (
        cache,
        core,
        fallback,
        frontend,
        metrics,
        pool,
        protocol,
        registry,
        server,
    )

    wrap = tracer.wrap
    # HTTP front: accept-thread spawn and the whole handler-thread life
    wrap(server._ThreadedServer, "process_request", "server.spawn",
         tag=_port)
    wrap(server._ThreadedServer, "process_request_thread", "server.handler",
         tag=_port)
    # endpoints: in-process core, and the scale-out frontend
    wrap(core.PredictionService, "predict", "core.predict")
    wrap(core.PredictionService, "predict_batch", "core.predict_batch")
    wrap(frontend.ScaledService, "predict", "frontend.predict")
    wrap(frontend.ScaledService, "predict_batch", "frontend.predict_batch")
    wrap(frontend.AdmissionController, "submit", "admission.submit",
         tag=_failed)
    wrap(pool.PendingCall, "result", "pool.wait", wait=True)
    wrap(pool.WorkerPool, "route", "sharding.route", tag=_slot)
    # registry, AOT preload, lazy lowering
    wrap(registry.ModelRegistry, "get", "registry.get")
    wrap(registry.RegistrySnapshot, "get", "registry.get")
    wrap(registry, "load_plans", "aot.load_plans")
    wrap(zoo, "build", "zoo.build")
    for model_class in (KernelTablePredictor, InterGPUKernelWiseModel,
                        LayerWiseModel, EndToEndModel):
        wrap(model_class, "compile", "plan.compile")
    # evaluation
    wrap(RetargetablePlan, "bind", "plan.bind")
    wrap(KernelPlan, "evaluate", "plan.evaluate")
    wrap(RetargetablePlan, "evaluate_grid", "plan.evaluate_grid",
         tag=_grid_items)
    wrap(fallback.FallbackChain, "predict", "fallback.chain", tag=_degraded)
    # frame codec: the header read is where a reader idles, so it is a
    # wait span and recv_frame's own time excludes it
    wrap(protocol, "send_frame", "protocol.send_frame", tag=_frame_bytes)
    wrap(protocol, "recv_frame", "protocol.recv_frame")
    wrap(protocol, "_recv_exact", "protocol.recv_idle", wait=True,
         only_if=_header_read)

    _install_cache_roles(tracer, core, cache)
    _install_aot_hits(tracer, metrics)
    _install_pool_roundtrip(tracer, pool)
    _install_worker_flush(tracer, pool, trace_dir)


def _install_cache_roles(tracer: Tracer, core, cache) -> None:
    """Result- and plan-cache lookups, told apart by owning service."""
    original_init = core.PredictionService.__init__

    def init(service, *args, **kwargs):
        original_init(service, *args, **kwargs)
        tracer.roles[id(service.cache)] = "result"
        tracer.roles[id(service.plans)] = "plan"

    core.PredictionService.__init__ = init

    def lookup_tag(args, kwargs, result, error):
        role = tracer.roles.get(id(args[0]))
        values = result if isinstance(result, list) else [result]
        return [role, sum(value is not None for value in values),
                len(values)]

    tracer.wrap(cache.PredictionCache, "get", "cache.get", tag=lookup_tag)
    tracer.wrap(cache.PredictionCache, "get_many", "cache.get",
                tag=lookup_tag)


def _install_aot_hits(tracer: Tracer, metrics) -> None:
    """Zero-length spans for the AOT plan-hit counter increments."""
    original = metrics.MetricsRegistry.increment

    def increment(registry, name, *args, **kwargs):
        if name == "aot_plan_hits_total":
            now_s = perf_counter()
            tracer.record("aot.plan_hit", now_s, now_s)
        return original(registry, name, *args, **kwargs)

    metrics.MetricsRegistry.increment = increment


def _install_pool_roundtrip(tracer: Tracer, pool) -> None:
    """Span from ``submit_nowait`` to ``fulfill`` of each worker call."""
    original_submit = pool.WorkerHandle.submit_nowait
    original_fulfill = pool.PendingCall.fulfill

    def submit_nowait(handle, op, payload):
        started_s = perf_counter()
        call = original_submit(handle, op, payload)
        tracer.marks[id(call)] = started_s
        return call

    def fulfill(call, status, body):
        started_s = tracer.marks.pop(id(call), None)
        if started_s is not None:
            tracer.record("pool.roundtrip", started_s, perf_counter())
        return original_fulfill(call, status, body)

    pool.WorkerHandle.submit_nowait = submit_nowait
    pool.PendingCall.fulfill = fulfill


def _install_worker_flush(tracer: Tracer, pool, trace_dir: str) -> None:
    original = pool._worker_main

    def worker_main(*args, **kwargs):
        tracer.reset()
        try:
            return original(*args, **kwargs)
        finally:
            tracer.dump(trace_dir)

    pool._worker_main = worker_main


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: launcher.py TRACE_DIR serve ...", file=sys.stderr)
        return 2
    trace_dir, cli_args = argv[0], argv[1:]
    os.makedirs(trace_dir, exist_ok=True)
    tracer = Tracer()
    install(tracer, trace_dir)
    from repro.cli import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(trace_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

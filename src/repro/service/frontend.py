"""Scale-out frontend: accept loop, shard router, admission control.

The top layer of the pre-fork stack. One process owns the HTTP accept
loop (:func:`repro.service.server.make_server` over a
:class:`ScaledService`), routes every request's ``(model, network)``
key through the pool's consistent-hash ring, and defends the workers
with *front-door admission control*:

- each worker accepts at most ``max_queue_depth`` frames in flight;
  once a worker has that many unanswered, the
  :class:`AdmissionController` **sheds** the request with ``429`` and a
  ``Retry-After`` estimated from the queue drain time
  (``repro_shed_total`` counts them, per-endpoint
  ``repro_shed_<endpoint>_total`` break them down) — a shed request
  never reaches a worker;
- ``/predict_batch`` is split into per-shard sub-batches whose frames
  are all written (in ascending slot order, which keeps the pipelined
  channels deadlock-free) before the handler waits on any; a saturated
  shard sheds only its own items (per-item
  ``429`` slots), preserving the "one bad item never fails the batch"
  contract;
- per-endpoint latency SLOs are tracked (:class:`SLOTracker`) and
  reported under ``/metrics`` as attainment ratios;
- ``/metrics`` merges every worker's snapshot bucket-exactly
  (:func:`repro.service.metrics.aggregate_snapshots`) and adds
  frontend-only state: queue-depth gauges, worker restart counters,
  shed counters, SLO attainment.

``/feedback`` keeps the calibrator singular: the shard worker validates
the body and replays the prediction against its hot caches
(``OP_FEEDBACK_OBSERVATION``), then the frontend records the returned
observation into the one calibrator it owns — exactly one drift
monitor, feedback window, and model store no matter how many workers.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.service.core import BATCH_CAP, PredictionService, ServiceError
from repro.service.metrics import MetricsRegistry, aggregate_snapshots
from repro.service.pool import (
    DEFAULT_QUEUE_DEPTH,
    PendingCall,
    WorkerHandle,
    WorkerOptions,
    WorkerPool,
)
from repro.service import protocol
from repro.service.server import make_server

#: Default per-endpoint latency SLO targets (milliseconds).
SLO_DEFAULTS_MS: Dict[str, float] = {
    "predict": 50.0,
    "predict_batch": 500.0,
    "feedback": 100.0,
}

#: Retry-After is clamped into this window (seconds).
MIN_RETRY_AFTER_S = 1
MAX_RETRY_AFTER_S = 30

#: Retry-After before the first completed request of an endpoint. With
#: no EWMA observation yet the drain estimate has no data at all; the
#: old code fed the formula a silent 0.0 and the clamp floor happened
#: to become the answer. The cold default is now explicit (and
#: deliberately equal to the floor — shed-before-first-completion
#: should ask for the shortest backoff, not a guess).
COLD_RETRY_AFTER_S = 1


class ShedError(ServiceError):
    """A request refused at the front door: 429 plus Retry-After."""

    def __init__(self, retry_after_s: int, slot: int, depth: int) -> None:
        super().__init__(
            429, f"server overloaded: worker {slot} dispatch queue is "
            f"full ({depth} pending); retry after {retry_after_s}s")
        self.retry_after_s = retry_after_s


class AdmissionController:
    """Front-door load shedding over the per-worker in-flight bounds.

    Stateless about workers (the queues themselves are the signal); it
    owns only the shed accounting and a per-endpoint latency EWMA used
    to turn "queue is full" into an honest ``Retry-After`` — the time a
    full queue needs to drain at the recently observed service rate.
    ``clock`` is injectable so shed/drain/accept sequences are
    deterministic under test.
    """

    #: EWMA smoothing: weight of one new latency observation.
    ALPHA = 0.2

    def __init__(self, max_queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 metrics: Optional[MetricsRegistry] = None,
                 clock=time.monotonic,
                 cold_retry_after_s: int = COLD_RETRY_AFTER_S) -> None:
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if cold_retry_after_s < 1:
            raise ValueError("cold_retry_after_s must be >= 1")
        self.max_queue_depth = max_queue_depth
        self.cold_retry_after_s = cold_retry_after_s
        self.metrics = metrics
        self._clock = clock
        self._lock = threading.Lock()
        self._ewma_ms: Dict[str, float] = {}
        self._shed_total = 0
        self._last_shed_at: Optional[float] = None

    def submit(self, handle: WorkerHandle, endpoint: str, op: str,
               payload) -> PendingCall:
        """Write the call's frame to the worker or shed with
        :class:`ShedError`.

        The depth check and the channel's bounded ``submit_nowait`` both
        shed: the channel's own bound is the authority (no TOCTOU window
        admits past it), the explicit check keeps the common case cheap.
        """
        depth = handle.pending()
        if depth >= self.max_queue_depth:
            self._shed(endpoint, handle.slot, depth)
        try:
            return handle.submit_nowait(op, payload)
        except queue.Full:
            self._shed(endpoint, handle.slot, handle.pending())
        raise AssertionError("unreachable")  # _shed always raises

    def _shed(self, endpoint: str, slot: int, depth: int) -> None:
        retry_after_s = self.retry_after_s(endpoint)
        with self._lock:
            self._shed_total += 1
            self._last_shed_at = self._clock()
        if self.metrics is not None:
            self.metrics.increment("shed_total")
            self.metrics.increment(f"shed_{endpoint}_total")
        raise ShedError(retry_after_s, slot, depth)

    def observe(self, endpoint: str, latency_ms: float) -> None:
        """Feed one served-request latency into the endpoint's EWMA."""
        with self._lock:
            previous = self._ewma_ms.get(endpoint)
            if previous is None:
                self._ewma_ms[endpoint] = latency_ms
            else:
                self._ewma_ms[endpoint] = (
                    previous + self.ALPHA * (latency_ms - previous))

    def retry_after_s(self, endpoint: str) -> int:
        """Estimated full-queue drain time, clamped to [1, 30] seconds.

        Before the endpoint's first completed request there is no EWMA
        to extrapolate from, so the explicit cold-start default answers
        (clamped into the same window) — deterministic under any clock,
        including the tests' fake one.
        """
        with self._lock:
            ewma_ms = self._ewma_ms.get(endpoint)
        if ewma_ms is None:
            return max(MIN_RETRY_AFTER_S,
                       min(MAX_RETRY_AFTER_S, self.cold_retry_after_s))
        drain_s = self.max_queue_depth * ewma_ms / 1e3
        return max(MIN_RETRY_AFTER_S,
                   min(MAX_RETRY_AFTER_S, math.ceil(drain_s)))

    def shed_total(self) -> int:
        with self._lock:
            return self._shed_total

    def snapshot(self) -> Dict:
        with self._lock:
            last_shed_age_s = (
                None if self._last_shed_at is None
                else round(self._clock() - self._last_shed_at, 3))
            return {
                "max_queue_depth": self.max_queue_depth,
                "cold_retry_after_s": self.cold_retry_after_s,
                "shed_total": self._shed_total,
                "last_shed_age_s": last_shed_age_s,
                "ewma_ms": {endpoint: round(value, 4) for endpoint, value
                            in sorted(self._ewma_ms.items())},
            }


class SLOTracker:
    """Per-endpoint latency SLO attainment counters."""

    def __init__(self, targets_ms: Optional[Dict[str, float]] = None
                 ) -> None:
        self.targets_ms = dict(SLO_DEFAULTS_MS if targets_ms is None
                               else targets_ms)
        self._lock = threading.Lock()
        self._ok: Dict[str, int] = {}
        self._breach: Dict[str, int] = {}

    def observe(self, endpoint: str, latency_ms: float) -> bool:
        """Record one request; True when it breached the endpoint's SLO."""
        target_ms = self.targets_ms.get(endpoint)
        if target_ms is None:
            return False
        breached = latency_ms > target_ms
        bucket = self._breach if breached else self._ok
        with self._lock:
            bucket[endpoint] = bucket.get(endpoint, 0) + 1
        return breached

    def snapshot(self) -> Dict:
        with self._lock:
            report = {}
            for endpoint in sorted(self.targets_ms):
                ok = self._ok.get(endpoint, 0)
                breach = self._breach.get(endpoint, 0)
                total = ok + breach
                report[endpoint] = {
                    "target_ms": self.targets_ms[endpoint],
                    "ok": ok,
                    "breach": breach,
                    "attainment": round(ok / total, 4) if total else 1.0,
                }
            return report


class ScaledService:
    """The frontend broker: same endpoint surface as the in-process core.

    ``make_server`` serves it with the identical HTTP handler, so a
    client cannot tell the deployments apart except by throughput —
    responses are the worker core's documents relayed verbatim.
    """

    def __init__(self, pool: WorkerPool, calibrator=None,
                 max_queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 metrics: Optional[MetricsRegistry] = None,
                 slo_targets_ms: Optional[Dict[str, float]] = None,
                 clock=time.monotonic) -> None:
        self.pool = pool
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if pool.metrics is None:
            pool.metrics = self.metrics   # restart counters land here
        self.admission = AdmissionController(
            max_queue_depth, metrics=self.metrics, clock=clock)
        self.slo = SLOTracker(slo_targets_ms)
        self.calibrator = calibrator
        if calibrator is not None and calibrator.metrics is None:
            calibrator.metrics = self.metrics
        self.batch_cap = pool.options.batch_cap
        # generous slack over the worker-side socket timeout: the
        # channel's reader answers 503 first, this is the backstop
        self.call_timeout_s = pool.options.call_timeout_s + 10.0
        self.started_at = time.time()          # provenance (wall clock)
        self._started_monotonic = time.monotonic()

    def _uptime_s(self) -> float:
        return round(time.monotonic() - self._started_monotonic, 3)

    # -- dispatch plumbing ----------------------------------------------------

    @staticmethod
    def _routing_fields(payload) -> Tuple[str, str]:
        """Best-effort (model, network) shard key of one body.

        Malformed bodies still route deterministically (empty keys) so
        the worker core can reject them with its canonical messages.
        """
        if isinstance(payload, dict):
            return (str(payload.get("model") or ""),
                    str(payload.get("network") or ""))
        return "", ""

    def _finish(self, endpoint: str, call: PendingCall):
        """Await one worker call, feeding latency trackers."""
        started = time.perf_counter()
        try:
            return call.result(self.call_timeout_s)
        finally:
            latency_ms = (time.perf_counter() - started) * 1e3
            self.admission.observe(endpoint, latency_ms)
            self.slo.observe(endpoint, latency_ms)

    def _call(self, endpoint: str, op: str, payload) -> Dict:
        """Route, admit, dispatch, await; worker errors re-raise as-is."""
        model, network = self._routing_fields(payload)
        handle = self.pool.route(model, network)
        call = self.admission.submit(handle, endpoint, op, payload)
        status, body = self._finish(endpoint, call)
        if status != 200:
            message = (body.get("error") if isinstance(body, dict)
                       else None) or f"worker returned {status}"
            raise ServiceError(status, message)
        return body

    def _control_any(self, op: str) -> Dict:
        """One control call against the first worker that answers."""
        for handle in self.pool.handles:
            if not handle.alive():
                continue
            try:
                call = handle.submit(op, {}, timeout_s=self.call_timeout_s)
                status, body = call.result(self.call_timeout_s)
            except (queue.Full, ServiceError):
                continue
            if status == 200:
                return body
        raise ServiceError(503, "no worker is answering control calls")

    # -- endpoints ------------------------------------------------------------

    def predict(self, payload: Dict) -> Dict:
        return self._call("predict", protocol.OP_PREDICT, payload)

    def predict_batch(self, payload: Dict) -> Dict:
        """Split one batch into per-shard sub-batches, merge in order.

        Envelope errors (non-object body, missing/empty ``items``,
        over-cap batch) are forwarded whole to one worker so the core's
        canonical 400/413 messages come back verbatim. A shard whose
        queue sheds contributes per-item ``429`` slots instead of
        failing the whole batch.
        """
        if (not isinstance(payload, dict)
                or not isinstance(payload.get("items"), list)
                or not payload.get("items")
                or len(payload["items"]) > self.batch_cap):
            return self._call("predict_batch", protocol.OP_PREDICT_BATCH,
                              payload)
        items = payload["items"]
        by_slot: Dict[int, List[int]] = {}
        for position, item in enumerate(items):
            model, network = self._routing_fields(item)
            handle = self.pool.route(model, network)
            by_slot.setdefault(handle.slot, []).append(position)

        results: List[Optional[Dict]] = [None] * len(items)
        dispatched = []                      # (positions, call)
        shed_items = 0
        for slot, positions in sorted(by_slot.items()):
            handle = self.pool.handles[slot]
            sub_payload = {"items": [items[p] for p in positions]}
            try:
                call = self.admission.submit(
                    handle, "predict_batch", protocol.OP_PREDICT_BATCH,
                    sub_payload)
            except ShedError as exc:
                for position in positions:
                    results[position] = {"error": exc.message,
                                         "status": 429}
                shed_items += len(positions)
                continue
            dispatched.append((positions, call))
        if shed_items:
            self.metrics.increment("shed_items_total", by=shed_items)

        for positions, call in dispatched:
            try:
                status, body = self._finish("predict_batch", call)
            except ServiceError as exc:
                status, body = exc.status, {"error": exc.message}
            if status == 200 and isinstance(body, dict):
                for position, result in zip(positions,
                                            body.get("results", [])):
                    results[position] = result
            else:
                message = (body.get("error") if isinstance(body, dict)
                           else None) or f"worker returned {status}"
                for position in positions:
                    results[position] = {"error": message,
                                         "status": status}
        errors = sum(1 for result in results
                     if isinstance(result, dict) and "status" in result)
        return {"count": len(items), "errors": errors, "results": results}

    def feedback(self, payload: Dict) -> Dict:
        if self.calibrator is None:
            raise ServiceError(
                409, "calibration is not enabled on this server "
                "(restart with --calibrate)")
        body = self._call("feedback", protocol.OP_FEEDBACK_OBSERVATION,
                          payload)
        from repro.calibration import FeedbackObservation
        observation = FeedbackObservation(**body)
        state = self.calibrator.record(observation)
        return PredictionService.feedback_response(observation, state)

    def calibration(self) -> Dict:
        if self.calibrator is None:
            raise ServiceError(
                409, "calibration is not enabled on this server "
                "(restart with --calibrate)")
        return self.calibrator.status()

    def models(self) -> Dict:
        return self._control_any(protocol.OP_MODELS)

    def health(self) -> Dict:
        alive = self.pool.alive_count()
        models = 0
        try:
            models = int(self._control_any(
                protocol.OP_HEALTH).get("models", 0))
        except ServiceError:
            pass
        return {
            "status": "ok" if alive else "degraded",
            "models": models,
            "workers": {"total": len(self.pool), "alive": alive,
                        "restarts": self.pool.restarts_total()},
            "uptime_s": self._uptime_s(),
        }

    def metrics_snapshot(self) -> Dict:
        depths = self.pool.queue_depths()
        for slot, depth in sorted(depths.items()):
            self.metrics.set_gauge(f"worker_{slot}_queue_depth", depth)
        self.metrics.set_gauge("workers_alive", self.pool.alive_count())
        parts = [self.metrics.snapshot()]
        parts.extend(
            body for _, status, body
            in self.pool.broadcast(protocol.OP_METRICS)
            if status == 200 and isinstance(body, dict))
        merged = aggregate_snapshots(parts)
        merged["pool"] = {
            "workers": len(self.pool),
            "alive": self.pool.alive_count(),
            "restarts": {str(slot): count for slot, count
                         in sorted(self.pool.restarts().items())},
            "restarts_total": self.pool.restarts_total(),
            "queue_depths": {str(slot): depth for slot, depth
                             in sorted(depths.items())},
            "shed_items_total": self.metrics.counter("shed_items_total"),
        }
        merged["admission"] = self.admission.snapshot()
        merged["slo"] = self.slo.snapshot()
        merged["uptime_s"] = self._uptime_s()
        return merged

    def metrics_text(self) -> str:
        merged = self.metrics_snapshot()
        lines: List[str] = []
        for name, value in merged["counters"].items():
            lines.append(f"repro_{name} {value}")
        for name, value in merged.get("gauges", {}).items():
            lines.append(f"repro_{name} {value}")
        for name, data in merged["histograms"].items():
            lines.append(f"repro_{name}_count {data['count']}")
            lines.append(f"repro_{name}_sum {data['sum']}")
            lines.append(f"repro_{name}_p50 {data['p50']}")
            lines.append(f"repro_{name}_p99 {data['p99']}")
        for section in ("cache", "plan_cache"):
            stats = merged.get(section, {})
            if not stats:
                continue
            prefix = "repro_cache" if section == "cache" \
                else "repro_plan_cache"
            for field in ("hits", "misses", "size"):
                lines.append(f"{prefix}_{field} {stats[field]}")
            lines.append(f"{prefix}_hit_ratio {stats['hit_ratio']}")
        pool = merged["pool"]
        lines.append(f"repro_pool_workers {pool['workers']}")
        lines.append(f"repro_pool_alive {pool['alive']}")
        lines.append(f"repro_worker_restarts {pool['restarts_total']}")
        return "\n".join(lines) + "\n"


class ScaledServer:
    """Lifecycle owner of one scale-out deployment: pool + HTTP front.

    ``workers == 1`` deployments should use the plain in-process
    :func:`~repro.service.server.make_server` path instead (the CLI
    does): it is bit-identical to the pre-refactor server and skips the
    frame hop entirely.
    """

    def __init__(self, models_dir, workers: int,
                 host: str = "127.0.0.1", port: int = 0,
                 max_queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 options: Optional[WorkerOptions] = None,
                 calibrator=None,
                 slo_targets_ms: Optional[Dict[str, float]] = None
                 ) -> None:
        self.pool = WorkerPool(models_dir, workers, options=options,
                               max_queue_depth=max_queue_depth)
        self.service = ScaledService(
            self.pool, calibrator=calibrator,
            max_queue_depth=max_queue_depth,
            slo_targets_ms=slo_targets_ms)
        self._host = host
        self._port = port
        self.httpd = None
        self._serving = threading.Event()

    def start(self) -> Tuple[str, int]:
        """Fork the workers and bind the frontend; returns (host, port)."""
        self.pool.start()
        self.httpd = make_server(self.service, host=self._host,
                                 port=self._port)
        return self.httpd.server_address[:2]

    def serve_forever(self) -> None:
        self._serving.set()
        self.httpd.serve_forever()

    def serve_in_thread(self) -> Tuple[str, int]:
        """start() + a daemon accept thread; returns the bound address."""
        address = self.start()
        thread = threading.Thread(target=self.serve_forever, daemon=True,
                                  name="repro-frontend")
        thread.start()
        return address

    def shutdown(self, timeout_s: float = 5.0) -> None:
        if self.httpd is not None:
            if self._serving.is_set():
                self.httpd.shutdown()
            self.httpd.server_close()
        self.pool.shutdown(timeout_s)

    def __enter__(self) -> "ScaledServer":
        self.serve_in_thread()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

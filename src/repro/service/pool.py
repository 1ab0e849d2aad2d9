"""Pre-fork worker pool: N processes, each one service core per shard.

The GIL caps a single-process server at roughly one core no matter how
fast ``evaluate_many`` is; the pool escapes it by forking N workers,
each running the full :class:`~repro.service.core.PredictionService`
over a read-only :class:`~repro.service.registry.RegistrySnapshot` of
the shared model directory. Requests reach workers as
:mod:`repro.service.protocol` frames over per-worker ``socketpair``\\ s:

- :class:`WorkerHandle` owns one worker: the process, its socket, a
  bounded dispatch queue (the admission-control backpressure point),
  and a dispatcher thread that relays queue items to the process in
  request/response lockstep;
- :class:`WorkerPool` owns the handles plus a consistent
  :class:`~repro.service.sharding.HashRing` routing ``(model,
  network)`` keys to slots, so each worker's plan/prediction caches
  stay hot for its slice of the key space;
- a monitor thread respawns crashed workers (counted as
  ``worker_restarts_total``); while a slot is down, :meth:`WorkerPool.
  route` walks the ring's successors so the dead slot's keys are
  served by the next live worker — minimal-movement reassignment.

Workers refresh their registry snapshot between requests (every
``snapshot_interval_s``), so hot model reloads propagate without a
restart and never swap a model mid-prediction.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import socket
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.service import protocol
from repro.service.cache import PredictionCache
from repro.service.core import BATCH_CAP, PredictionService, ServiceError
from repro.service.fallback import COVERAGE_THRESHOLD
from repro.service.registry import ModelRegistry
from repro.service.sharding import DEFAULT_REPLICAS, HashRing, shard_key

#: Dispatch-queue depth per worker before the front door sheds load.
DEFAULT_QUEUE_DEPTH = 64

_STOP = object()                      # dispatcher sentinel


@dataclass(frozen=True)
class WorkerOptions:
    """Per-worker service configuration, forked into every child."""

    cache_size: int = 1024
    plan_cache_size: int = 256
    coverage_threshold: float = COVERAGE_THRESHOLD
    batch_cap: int = BATCH_CAP
    #: seconds between registry snapshot refreshes inside a worker
    snapshot_interval_s: float = 2.0
    #: parent-side socket timeout: a worker silent for this long is
    #: declared hung, killed, and respawned
    call_timeout_s: float = 60.0

    def to_dict(self) -> Dict:
        return asdict(self)


def _build_worker_service(registry: ModelRegistry,
                          options: WorkerOptions) -> PredictionService:
    """The per-worker core, served over a read-only registry snapshot."""
    return PredictionService(
        registry.snapshot(),
        cache=PredictionCache(options.cache_size),
        plan_cache=PredictionCache(options.plan_cache_size),
        coverage_threshold=options.coverage_threshold,
        batch_cap=options.batch_cap)


def _serve_op(service: PredictionService, op: str,
              payload) -> Tuple[int, object]:
    """One worker request -> (status, body), never raising."""
    try:
        if op == protocol.OP_PREDICT:
            return 200, service.predict(payload)
        if op == protocol.OP_PREDICT_BATCH:
            return 200, service.predict_batch(payload)
        if op == protocol.OP_FEEDBACK_OBSERVATION:
            return 200, asdict(service.feedback_observation(payload))
        if op == protocol.OP_MODELS:
            return 200, service.models()
        if op == protocol.OP_HEALTH:
            return 200, service.health()
        if op == protocol.OP_METRICS:
            return 200, service.metrics_snapshot()
        if op == protocol.OP_PING:
            return 200, {"ok": True, "pid": os.getpid(),
                         "generation": service.registry.generation}
        if op == protocol.OP_RELOAD:
            return 200, {"generation": service.registry.generation}
        return 400, {"error": f"unknown worker op {op!r}"}
    except ServiceError as exc:
        return exc.status, {"error": exc.message}
    # mirror the HTTP handler's catch-all: a worker thread must answer,
    # not die, and the message keeps the original exception type
    except Exception as exc:  # repro: noqa[EX001]
        return 500, {"error": f"internal error: "
                              f"{type(exc).__name__}: {exc}"}


def _worker_main(sock: socket.socket, models_dir: str,
                 options_dict: Dict) -> None:
    """Child-process entry: frame loop over one socketpair end."""
    # the frontend owns lifecycle; a terminal Ctrl-C must interrupt it,
    # not kill workers mid-frame (they get OP_SHUTDOWN instead)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    options = WorkerOptions(**options_dict)
    registry = ModelRegistry(models_dir)
    service = _build_worker_service(registry, options)
    next_refresh = time.monotonic() + options.snapshot_interval_s
    while True:
        try:
            frame = protocol.recv_frame(sock)
        except protocol.ProtocolError:
            break                      # frontend went away or desynced
        request_id = frame.get("id", 0)
        op = frame.get("op")
        if op == protocol.OP_SHUTDOWN:
            try:
                protocol.send_frame(sock, protocol.response(
                    request_id, 200, {"stopping": True}))
            except OSError:
                pass
            break
        # refresh the read-only snapshot only between requests: a hot
        # reload can never swap the model out mid-prediction
        if op == protocol.OP_RELOAD or time.monotonic() >= next_refresh:
            registry.scan()
            if registry.generation != service.registry.generation:
                service.registry = registry.snapshot()
            next_refresh = time.monotonic() + options.snapshot_interval_s
        status, body = _serve_op(service, op, frame.get("payload"))
        try:
            protocol.send_frame(sock, protocol.response(
                request_id, status, body))
        except OSError:
            break
    sock.close()


class PendingCall:
    """One in-flight worker call the frontend thread waits on."""

    __slots__ = ("_event", "_status", "_body")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._status = 0
        self._body = None

    def fulfill(self, status: int, body) -> None:
        self._status = status
        self._body = body
        self._event.set()

    def result(self, timeout_s: Optional[float] = None
               ) -> Tuple[int, object]:
        """Blocks for ``(status, body)``; 504 ServiceError on timeout."""
        if not self._event.wait(timeout_s):
            raise ServiceError(
                504, f"worker call timed out after {timeout_s:g}s")
        return self._status, self._body


class WorkerHandle:
    """One pre-forked worker: process + socket + bounded dispatch queue.

    The dispatcher thread is the socket's only user, so frames never
    interleave; HTTP threads talk to it through ``queue`` (bounded at
    ``max_queue_depth`` — the admission controller sheds before or at
    this bound) and wait on their :class:`PendingCall`.
    """

    def __init__(self, slot: int, models_dir, options: WorkerOptions,
                 max_queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 on_restart: Optional[Callable[[int], None]] = None
                 ) -> None:
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.slot = slot
        self.max_queue_depth = max_queue_depth
        self._models_dir = str(models_dir)
        self._options = options
        self._on_restart = on_restart
        self.queue: "queue.Queue[object]" = queue.Queue(
            maxsize=max_queue_depth)
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._process = None
        self._restarts = 0
        self._closing = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, daemon=True,
            name=f"repro-dispatch-{slot}")

    # -- lifecycle ------------------------------------------------------------

    def _spawn_locked(self) -> None:
        parent_sock, child_sock = socket.socketpair()
        parent_sock.settimeout(self._options.call_timeout_s)
        context = multiprocessing.get_context("fork")
        process = context.Process(
            target=_worker_main,
            args=(child_sock, self._models_dir, self._options.to_dict()),
            daemon=True, name=f"repro-worker-{self.slot}")
        process.start()
        child_sock.close()
        self._sock = parent_sock
        self._process = process

    def start(self) -> None:
        # the dispatcher starts under the lock, so stop() never sees a
        # spawned process whose dispatcher has not started yet
        with self._lock:
            self._spawn_locked()
            self._dispatcher.start()

    def ensure_alive(self) -> bool:
        """Respawn the process if it died; True when a respawn happened."""
        on_restart = None
        with self._lock:
            if self._closing:
                return False
            if self._process is not None and self._process.is_alive():
                return False
            old_sock = self._sock
            if self._process is not None:
                self._process.join(timeout=1.0)
            self._spawn_locked()
            self._restarts += 1
            on_restart = self._on_restart
        if old_sock is not None:
            old_sock.close()
        if on_restart is not None:
            on_restart(self.slot)
        return True

    def _kill_and_respawn(self, failed_sock) -> None:
        """After a mid-request failure: force a fresh process.

        No-op when another thread already respawned (the socket moved on
        from the one that failed) — the monitor and the dispatcher race
        here, and exactly one of them must win.
        """
        with self._lock:
            if self._closing or self._sock is not failed_sock:
                return
            if self._process is not None and self._process.is_alive():
                # hung, not dead (e.g. socket timeout): put it down so
                # the respawned worker starts from a clean frame stream
                self._process.terminate()
            self._process.join(timeout=2.0)
            old_sock = self._sock
            self._spawn_locked()
            self._restarts += 1
            on_restart = self._on_restart
        old_sock.close()
        if on_restart is not None:
            on_restart(self.slot)

    def stop(self, timeout_s: float = 5.0) -> None:
        """Drain the queue, shut the worker down, join everything."""
        with self._lock:
            self._closing = True
            started = self._process is not None
        if started:
            try:
                call = self.submit(protocol.OP_SHUTDOWN, {},
                                   timeout_s=timeout_s)
                call.result(timeout_s)
            except (ServiceError, queue.Full):
                pass                   # force-stop below
            self.queue.put(_STOP)
            self._dispatcher.join(timeout=timeout_s)
        with self._lock:
            process, sock = self._process, self._sock
            self._process = self._sock = None
        if process is not None:
            process.join(timeout=timeout_s)
            if process.is_alive():
                process.terminate()
                process.join(timeout=timeout_s)
        if sock is not None:
            sock.close()

    # -- dispatch -------------------------------------------------------------

    def submit_nowait(self, op: str, payload) -> PendingCall:
        """Enqueue one call; raises :class:`queue.Full` at the bound."""
        call = PendingCall()
        self.queue.put_nowait((op, payload, call))
        return call

    def submit(self, op: str, payload,
               timeout_s: Optional[float] = None) -> PendingCall:
        """Enqueue one control call, waiting for queue space if needed."""
        call = PendingCall()
        self.queue.put((op, payload, call), timeout=timeout_s)
        return call

    def _dispatch_loop(self) -> None:
        request_id = 0
        while True:
            item = self.queue.get()
            if item is _STOP:
                return
            op, payload, call = item
            request_id += 1
            with self._lock:
                sock = self._sock
            if sock is None:
                call.fulfill(503, {"error": f"worker {self.slot} "
                                            "is shut down"})
                continue
            try:
                protocol.send_frame(
                    sock, protocol.request(request_id, op, payload))
                status, body = protocol.parse_response(
                    protocol.recv_frame(sock))
            except (OSError, protocol.ProtocolError) as exc:
                call.fulfill(503, {
                    "error": f"worker {self.slot} failed mid-request "
                             f"({type(exc).__name__}); it is being "
                             "respawned — retry"})
                self._kill_and_respawn(sock)
                continue
            call.fulfill(status, body)

    # -- observability --------------------------------------------------------

    def pending(self) -> int:
        """Approximate dispatch-queue depth (the admission signal)."""
        return self.queue.qsize()

    def alive(self) -> bool:
        with self._lock:
            return self._process is not None and self._process.is_alive()

    def restarts(self) -> int:
        with self._lock:
            return self._restarts

    def pid(self) -> Optional[int]:
        with self._lock:
            return self._process.pid if self._process is not None else None


class WorkerPool:
    """N worker handles + the hash ring + the crash monitor."""

    def __init__(self, models_dir, workers: int,
                 options: Optional[WorkerOptions] = None,
                 max_queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 metrics=None, replicas: int = DEFAULT_REPLICAS,
                 monitor_interval_s: float = 0.25) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.options = options if options is not None else WorkerOptions()
        self.metrics = metrics
        self.handles: Tuple[WorkerHandle, ...] = tuple(
            WorkerHandle(slot, models_dir, self.options,
                         max_queue_depth=max_queue_depth,
                         on_restart=self._record_restart)
            for slot in range(workers))
        self.ring = HashRing(range(workers), replicas=replicas)
        self.monitor_interval_s = monitor_interval_s
        self._closing = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        for handle in self.handles:
            handle.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, daemon=True,
            name="repro-pool-monitor")
        self._monitor.start()

    def _monitor_loop(self) -> None:
        while not self._closing.wait(self.monitor_interval_s):
            for handle in self.handles:
                if not handle.alive():
                    handle.ensure_alive()

    def shutdown(self, timeout_s: float = 5.0) -> None:
        self._closing.set()
        if self._monitor is not None:
            self._monitor.join(timeout=timeout_s)
        for handle in self.handles:
            handle.stop(timeout_s)

    def _record_restart(self, slot: int) -> None:
        if self.metrics is not None:
            self.metrics.increment("worker_restarts_total")
            self.metrics.increment(f"worker_{slot}_restarts_total")

    # -- routing --------------------------------------------------------------

    def route(self, model: str, network: str) -> WorkerHandle:
        """The worker owning this request's shard, skipping dead slots.

        While a worker is down its keys fall to the next live slot on
        the ring (minimal reassignment); with every process dead the
        owner's queue still accepts — the monitor respawns it and the
        dispatcher drains the backlog.
        """
        key = shard_key(model, network)
        for slot in self.ring.successors(key):
            handle = self.handles[slot]
            if handle.alive():
                return handle
        return self.handles[self.ring.lookup(key)]

    # -- control fan-out ------------------------------------------------------

    def broadcast(self, op: str, payload=None,
                  timeout_s: float = 10.0) -> List[Tuple[int, int, object]]:
        """One control call per worker -> [(slot, status, body)].

        Workers whose queue stays full past ``timeout_s`` are skipped
        (reported as status 503) rather than wedging the caller.
        """
        calls = []
        for handle in self.handles:
            try:
                calls.append(
                    (handle.slot,
                     handle.submit(op, payload if payload is not None
                                   else {}, timeout_s=timeout_s)))
            except queue.Full:
                calls.append((handle.slot, None))
        results: List[Tuple[int, int, object]] = []
        for slot, call in calls:
            if call is None:
                results.append((slot, 503,
                                {"error": f"worker {slot} queue is "
                                          "saturated"}))
                continue
            try:
                status, body = call.result(timeout_s)
            except ServiceError as exc:
                status, body = exc.status, {"error": exc.message}
            results.append((slot, status, body))
        return results

    # -- observability --------------------------------------------------------

    def queue_depths(self) -> Dict[int, int]:
        return {handle.slot: handle.pending() for handle in self.handles}

    def restarts(self) -> Dict[int, int]:
        return {handle.slot: handle.restarts() for handle in self.handles}

    def restarts_total(self) -> int:
        return sum(handle.restarts() for handle in self.handles)

    def alive_count(self) -> int:
        return sum(1 for handle in self.handles if handle.alive())

    def __len__(self) -> int:
        return len(self.handles)

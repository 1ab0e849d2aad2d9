"""Pre-fork worker pool: N processes, each one service core per shard.

The GIL caps a single-process server at roughly one core no matter how
fast ``evaluate_many`` is; the pool escapes it by forking N workers,
each running the full :class:`~repro.service.core.PredictionService`
over a read-only :class:`~repro.service.registry.RegistrySnapshot` of
the shared model directory. Requests reach workers as
:mod:`repro.service.protocol` frames over per-worker ``socketpair``\\ s:

- :class:`WorkerHandle` owns one worker: the process and one
  pipelined channel over its socket. A caller writes its request frame
  on its own thread and reads replies through its
  :class:`PendingCall`; replies are read in FIFO order by whichever
  waiting thread holds the channel's read turn, so no relay thread
  sits between the HTTP threads and the workers. The in-flight FIFO
  is bounded (the admission-control backpressure point);
- :class:`WorkerPool` owns the handles plus a consistent
  :class:`~repro.service.sharding.HashRing` routing ``(model,
  network)`` keys to slots, so each worker's plan/prediction caches
  stay hot for its slice of the key space;
- a monitor thread respawns crashed workers (counted as
  ``worker_restarts_total``); while a slot is down, :meth:`WorkerPool.
  route` walks the ring's successors so the dead slot's keys are
  served by the next live worker — minimal-movement reassignment.

Pipelining cannot deadlock as long as a caller that holds calls on
several workers writes its frames, and then waits on them, in ascending
slot order. :meth:`~repro.service.frontend.ScaledService.predict_batch`
is the one such caller, and both of its loops must keep that order. A
worker blocked writing a reply waits for the frontend to read it, and a
frontend writer blocked on a full socket waits for the worker to read.
A waiter reads only the channel of the call it waits on: a post waiting
on its slot-0 reply leaves its slot-1 reply unread. With both orders
ascending, a writer blocked on slot ``k`` holds calls only on lower
slots, and every waiter's call is a whole frame that its worker will
answer while the waiter reads, so the blocked writer on the highest
slot is always freed and no cycle of blocked writers can form.

Workers refresh their registry snapshot between requests (every
``snapshot_interval_s``), so hot model reloads propagate without a
restart and never swap a model mid-prediction.
"""

from __future__ import annotations

import collections
import math
import multiprocessing
import os
import queue
import select
import signal
import socket
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.service import protocol
from repro.service.cache import PredictionCache
from repro.service.core import BATCH_CAP, PredictionService, ServiceError
from repro.service.fallback import COVERAGE_THRESHOLD
from repro.service.registry import ModelRegistry
from repro.service.sharding import DEFAULT_REPLICAS, HashRing, shard_key

#: Frames in flight per worker before the front door sheds load.
DEFAULT_QUEUE_DEPTH = 64


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
    """One in-flight worker call; its waiter may read the channel.

    :meth:`result` finds the reply already delivered, waits while
    another thread reads the channel, or takes the channel's read turn
    and reads replies itself until its own has arrived.
    """

    __slots__ = ("_channel", "done", "_status", "_body")

    def __init__(self, channel: Optional["_Channel"]) -> None:
        self._channel = channel
        self.done = False
        self._status = 0
        self._body = None

    def fulfill(self, status: int, body) -> None:
        self._status = status
        self._body = body
        self.done = True

    def result(self, timeout_s: Optional[float] = None
               ) -> Tuple[int, object]:
        """Blocks for ``(status, body)``; 504 ServiceError on timeout."""
        if not self.done:
            self._channel.await_reply(self, timeout_s)
        return self._status, self._body


def _failed_call(message: str) -> PendingCall:
    call = PendingCall(None)
    call.fulfill(503, {"error": message})
    return call


def _timed_out(timeout_s: Optional[float]) -> ServiceError:
    return ServiceError(504, f"worker call timed out after {timeout_s:g}s")


class _Channel:
    """One worker socket with pipelined frames and one read turn.

    A writer holds ``_send_lock`` for its whole frame and appends its
    call to the in-flight FIFO in the same critical section, so FIFO
    order is wire order; the worker answers in request order, so the
    next reply on the wire belongs to the FIFO's head. Any thread
    waiting on a call of this channel may take the single read turn:
    the reader checks each reply's ``id`` against the head, fulfils the
    head, and wakes the other waiters, until its own call is answered.

    A failed write or read, or a reply whose ``id`` is not the head's,
    breaks the channel: every in-flight call gets a 503 and
    ``on_broken`` replaces the worker, and with it the channel.
    """

    def __init__(self, sock: socket.socket, slot: int, max_depth: int,
                 on_broken: Callable[["_Channel"], None]) -> None:
        self.sock = sock
        self.slot = slot
        self.max_depth = max_depth
        self._on_broken = on_broken
        timeout_s = sock.gettimeout()
        self._read_timeout_s = math.inf if timeout_s is None else timeout_s
        # poll, not select: select refuses descriptors past FD_SETSIZE
        self._readable = select.poll()
        self._readable.register(sock, select.POLLIN)
        self._send_lock = threading.Lock()
        self._cond = threading.Condition(threading.Lock())
        self._inflight: Deque[Tuple[int, PendingCall]] = \
            collections.deque()
        self._next_id = 0
        self._reading = False
        self._failure: Optional[str] = None

    def __len__(self) -> int:
        return len(self._inflight)

    def submit(self, op: str, payload) -> PendingCall:
        """Write one request frame; :class:`queue.Full` at the bound.

        A frame over :data:`~repro.service.protocol.MAX_FRAME_BYTES`
        fails before any byte is written: only its own call is answered
        (413), and the channel stays in step.
        """
        call = PendingCall(self)
        error = None
        with self._send_lock:
            with self._cond:
                if self._failure is not None:
                    call.fulfill(503, {"error": self._failure})
                    return call
                if len(self._inflight) >= self.max_depth:
                    raise queue.Full
                self._next_id += 1
                request_id = self._next_id
                self._inflight.append((request_id, call))
            try:
                protocol.send_frame(
                    self.sock, protocol.request(request_id, op, payload))
            except protocol.ProtocolError as exc:
                self._withdraw(call, exc)
            except OSError as exc:
                error = exc
        if error is not None:
            self._break(self._mid_request(error))
        return call

    def _withdraw(self, call: PendingCall, exc: Exception) -> None:
        """Take an unsent call off the FIFO and answer it alone, 413.

        The caller holds ``_send_lock``, so the call is still the FIFO's
        tail unless a failure already answered it.
        """
        with self._cond:
            if self._inflight and self._inflight[-1][1] is call:
                self._inflight.pop()
                self._cond.notify_all()
            if not call.done:
                call.fulfill(413, {"error": f"worker {self.slot} request "
                                            f"not sent: {exc}"})

    def wait_for_room(self, timeout_s: Optional[float]) -> bool:
        """Block until a frame fits under the bound (or the channel
        failed); False when ``timeout_s`` ran out first."""
        with self._cond:
            return self._cond.wait_for(
                lambda: (len(self._inflight) < self.max_depth
                         or self._failure is not None), timeout_s)

    def await_reply(self, call: PendingCall,
                    timeout_s: Optional[float]) -> None:
        """Return once ``call`` is fulfilled, reading replies if needed."""
        deadline = (None if timeout_s is None
                    else time.monotonic() + timeout_s)
        with self._cond:
            while not call.done:
                if not self._reading:
                    self._reading = True
                    break
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    raise _timed_out(timeout_s)
                self._cond.wait(remaining)
            else:
                return
        try:
            self._read_until(call, deadline, timeout_s)
        finally:
            with self._cond:
                self._reading = False
                self._cond.notify_all()

    def _read_until(self, call: PendingCall, deadline: Optional[float],
                    timeout_s: Optional[float]) -> None:
        """Read replies in FIFO order until ``call`` is answered."""
        sock = self.sock
        while not call.done:
            try:
                if deadline is not None:
                    # a deadline inside the socket timeout waits for the
                    # next reply to start: nothing has been read when it
                    # runs out, so the channel stays in sync
                    remaining = deadline - time.monotonic()
                    if remaining < self._read_timeout_s and not \
                            self._readable.poll(max(0.0, remaining) * 1e3):
                        raise _timed_out(timeout_s)
                document = protocol.recv_frame(sock)
                status, body = protocol.parse_response(document)
            except (OSError, ValueError, protocol.ProtocolError) as exc:
                self._break(self._mid_request(exc))
                return
            with self._cond:
                if self._inflight and \
                        self._inflight[0][0] == document.get("id"):
                    _, head = self._inflight.popleft()
                    head.fulfill(status, body)
                    self._cond.notify_all()
                    continue
                expected = (self._inflight[0][0] if self._inflight
                            else None)
            self._break(
                f"worker {self.slot} answered request "
                f"{document.get('id')!r} out of order (expected "
                f"{expected!r}); it is being respawned — retry")
            return

    def _mid_request(self, exc: BaseException) -> str:
        return (f"worker {self.slot} failed mid-request "
                f"({type(exc).__name__}); it is being respawned — retry")

    def _fail(self, message: str) -> None:
        """Answer every in-flight call 503 and refuse new ones."""
        with self._cond:
            if self._failure is not None:
                return
            self._failure = message
            calls = [call for _, call in self._inflight]
            self._inflight.clear()
            for call in calls:
                call.fulfill(503, {"error": message})
            self._cond.notify_all()

    def _break(self, message: str) -> None:
        self._fail(message)
        self._on_broken(self)

    def close(self, message: str) -> None:
        """Fail what is in flight and close the socket."""
        self._fail(message)
        try:
            # wakes a reader blocked on the socket with EOF
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class WorkerHandle:
    """One pre-forked worker: its process and its pipelined channel.

    Callers write their request frames on their own threads
    (:meth:`submit_nowait`) and read replies through their
    :class:`PendingCall`; no thread sits between them and the socket.
    At most ``max_queue_depth`` frames are in flight at once — the
    admission controller sheds before or at this bound.
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
        self._lock = threading.Lock()
        self._channel: Optional[_Channel] = None
        self._process = None
        self._restarts = 0
        self._closing = False

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
        self._channel = _Channel(parent_sock, self.slot,
                                 self.max_queue_depth,
                                 self._kill_and_respawn)
        self._process = process

    def start(self) -> None:
        with self._lock:
            self._spawn_locked()

    def ensure_alive(self) -> bool:
        """Respawn the process if it died; True when a respawn happened."""
        on_restart = None
        with self._lock:
            if self._closing:
                return False
            if self._process is not None and self._process.is_alive():
                return False
            old_channel = self._channel
            if self._process is not None:
                self._process.join(timeout=1.0)
            self._spawn_locked()
            self._restarts += 1
            on_restart = self._on_restart
        if old_channel is not None:
            old_channel.close(f"worker {self.slot} died mid-request; it "
                              "is being respawned — retry")
        if on_restart is not None:
            on_restart(self.slot)
        return True

    def _kill_and_respawn(self, failed: _Channel) -> None:
        """After a mid-request failure: force a fresh process.

        No-op when another thread already respawned (the channel moved
        on from the one that failed) — the monitor and the channel's
        reader race here, and exactly one of them must win.
        """
        with self._lock:
            if self._closing or self._channel is not failed:
                return
            if self._process is not None and self._process.is_alive():
                # hung, not dead (e.g. socket timeout): put it down so
                # the respawned worker starts from a clean frame stream
                self._process.terminate()
            self._process.join(timeout=2.0)
            self._spawn_locked()
            self._restarts += 1
            on_restart = self._on_restart
        failed.close(f"worker {self.slot} is being respawned — retry")
        if on_restart is not None:
            on_restart(self.slot)

    def stop(self, timeout_s: float = 5.0) -> None:
        """Ask the worker to shut down, then close and join everything."""
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
        with self._lock:
            process, channel = self._process, self._channel
            self._process = self._channel = None
        if process is not None:
            process.join(timeout=timeout_s)
            if process.is_alive():
                process.terminate()
                process.join(timeout=timeout_s)
        if channel is not None:
            channel.close(f"worker {self.slot} is shut down")

    # -- dispatch -------------------------------------------------------------

    def submit_nowait(self, op: str, payload) -> PendingCall:
        """Write one call's frame; raises :class:`queue.Full` at the bound."""
        with self._lock:
            channel = self._channel
        if channel is None:
            return _failed_call(f"worker {self.slot} is shut down")
        return channel.submit(op, payload)

    def submit(self, op: str, payload,
               timeout_s: Optional[float] = None) -> PendingCall:
        """Write one control call, waiting for room under the bound."""
        deadline = (None if timeout_s is None
                    else time.monotonic() + timeout_s)
        while True:
            try:
                return self.submit_nowait(op, payload)
            except queue.Full:
                with self._lock:
                    channel = self._channel
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if channel is None or not channel.wait_for_room(remaining):
                    raise

    # -- observability --------------------------------------------------------

    def pending(self) -> int:
        """Frames written and not yet answered (the admission signal)."""
        with self._lock:
            channel = self._channel
        return len(channel) if channel is not None else 0

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
        owner answers: a frame written to a dead worker fails its call
        with a 503 and the channel respawns the process.
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

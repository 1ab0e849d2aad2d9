"""Worker pool: fork, route, crash-respawn, broadcast, shutdown."""

import contextlib
import os
import queue
import resource
import signal
import socket
import threading
import time

import pytest

from repro.service import protocol
from repro.service.core import ServiceError
from repro.service.metrics import MetricsRegistry
from repro.service.pool import (WorkerHandle, WorkerOptions, WorkerPool,
                                _Channel)
from repro.service.sharding import shard_key


def _wait_until(predicate, timeout_s=20.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@contextlib.contextmanager
def _stopped_worker(slot, models_dir, **kwargs):
    """A started handle whose worker is SIGSTOPped; on exit the first
    process is continued (a stopped process would hang the
    interpreter's exit, which joins daemon children) and the handle
    stopped."""
    handle = WorkerHandle(slot, models_dir, WorkerOptions(), **kwargs)
    handle.start()
    pid = handle.pid()
    try:
        os.kill(pid, signal.SIGSTOP)
        yield handle
    finally:
        try:
            os.kill(pid, signal.SIGCONT)
        except ProcessLookupError:
            pass
        handle.stop(timeout_s=10.0)


@pytest.fixture()
def pool(models_dir):
    pool = WorkerPool(models_dir, workers=2,
                      metrics=MetricsRegistry(),
                      monitor_interval_s=0.05)
    pool.start()
    assert _wait_until(lambda: pool.alive_count() == 2)
    try:
        yield pool
    finally:
        pool.shutdown()


class TestOptions:
    def test_to_dict_round_trips(self):
        options = WorkerOptions(cache_size=16, snapshot_interval_s=0.5)
        assert WorkerOptions(**options.to_dict()) == options

    def test_pool_needs_a_worker(self, models_dir):
        with pytest.raises(ValueError, match="at least one worker"):
            WorkerPool(models_dir, workers=0)


class TestDispatch:
    def test_workers_are_distinct_processes(self, pool):
        answers = pool.broadcast(protocol.OP_PING)
        assert [status for _, status, _ in answers] == [200, 200]
        pids = {body["pid"] for _, _, body in answers}
        assert len(pids) == 2
        assert os.getpid() not in pids

    def test_predict_through_a_routed_worker(self, pool):
        payload = {"model": "kw-a100", "network": "resnet50",
                   "batch_size": 64}
        handle = pool.route(payload["model"], payload["network"])
        status, body = handle.submit(
            protocol.OP_PREDICT, payload, timeout_s=30).result(30)
        assert status == 200
        assert body["predicted_us"] > 0
        assert body["tier"] == "kw"

    def test_worker_errors_come_back_with_their_status(self, pool):
        handle = pool.route("nope", "resnet50")
        status, body = handle.submit(
            protocol.OP_PREDICT,
            {"model": "nope", "network": "resnet50", "batch_size": 64},
            timeout_s=30).result(30)
        assert status == 404
        assert "unknown model" in body["error"]

    def test_unknown_op_is_a_400(self, pool):
        status, body = pool.handles[0].submit(
            "frobnicate", {}, timeout_s=30).result(30)
        assert status == 400
        assert "unknown worker op" in body["error"]

    def test_broadcast_metrics_reaches_every_worker(self, pool):
        answers = pool.broadcast(protocol.OP_METRICS)
        assert len(answers) == 2
        for _, status, body in answers:
            assert status == 200
            assert body["registry"]["models"] == 4


class TestRouting:
    def test_affinity_is_stable(self, pool):
        slots = {pool.route("kw-a100", "resnet50").slot
                 for _ in range(10)}
        assert len(slots) == 1

    def test_keys_spread_across_workers(self, pool):
        slots = {pool.route("kw-a100", f"network-{index}").slot
                 for index in range(64)}
        assert slots == {0, 1}

    def test_route_matches_the_ring_when_all_alive(self, pool):
        for network in ("resnet50", "vgg16", "mobilenet_v2"):
            expected = pool.ring.lookup(shard_key("kw-a100", network))
            assert pool.route("kw-a100", network).slot == expected


class TestCrashRecovery:
    def test_killed_worker_is_respawned_and_counted(self, pool):
        victim = pool.route("kw-a100", "resnet50")
        doomed_pid = victim.pid()
        os.kill(doomed_pid, signal.SIGKILL)
        assert _wait_until(lambda: victim.restarts() >= 1)
        assert _wait_until(lambda: pool.alive_count() == 2)
        assert victim.pid() != doomed_pid
        # the shard serves again from the fresh process
        status, body = victim.submit(
            protocol.OP_PREDICT,
            {"model": "kw-a100", "network": "resnet50",
             "batch_size": 64}, timeout_s=30).result(30)
        assert status == 200
        assert body["predicted_us"] > 0
        assert pool.restarts_total() >= 1
        assert pool.metrics.counter("worker_restarts_total") >= 1
        assert pool.metrics.counter(
            f"worker_{victim.slot}_restarts_total") >= 1

    def test_route_skips_a_dead_slot(self, pool):
        owner_slot = pool.ring.lookup(shard_key("kw-a100", "resnet50"))
        victim = pool.handles[owner_slot]
        os.kill(victim.pid(), signal.SIGKILL)
        assert _wait_until(lambda: not victim.alive() or
                           victim.restarts() >= 1)
        # whichever handle route returns, it must be a live one (either
        # the ring successor while the owner is down, or the respawned
        # owner) — requests never target a known-dead process
        handle = pool.route("kw-a100", "resnet50")
        assert handle.alive()
        assert _wait_until(lambda: pool.alive_count() == 2)


class TestShutdown:
    def test_shutdown_leaves_no_processes(self, models_dir):
        pool = WorkerPool(models_dir, workers=2, monitor_interval_s=0.05)
        pool.start()
        assert _wait_until(lambda: pool.alive_count() == 2)
        pids = [handle.pid() for handle in pool.handles]
        pool.shutdown()
        assert pool.alive_count() == 0
        for pid in pids:
            # the processes are gone (reaped by multiprocessing.join)
            with pytest.raises(OSError):
                os.kill(pid, 0)

    def test_handle_stop_leaves_no_process_or_thread(self, models_dir):
        def relays():
            return [thread for thread in threading.enumerate()
                    if thread.name.startswith("repro-dispatch-")]

        idle = WorkerHandle(7, models_dir, WorkerOptions())
        idle.stop(timeout_s=1.0)          # never started: nothing to stop
        handle = WorkerHandle(7, models_dir, WorkerOptions())
        handle.start()
        pid = handle.pid()
        status, _ = handle.submit(protocol.OP_PING, {},
                                  timeout_s=30).result(30)
        assert status == 200
        # calls ride on the caller's thread: no relay thread exists
        assert relays() == []
        handle.stop(timeout_s=10.0)
        assert relays() == []
        assert not handle.alive()
        assert handle.pid() is None
        with pytest.raises(OSError):
            os.kill(pid, 0)
        # a call after stop is answered at once, not left hanging
        status, body = handle.submit_nowait(protocol.OP_PING, {}).result(1)
        assert status == 503
        assert "shut down" in body["error"]

    def test_queue_depths_report_per_slot(self, pool):
        assert pool.queue_depths() == {0: 0, 1: 0}
        assert pool.restarts() == {0: 0, 1: 0}


class TestChannel:
    """Pipelined worker channels: frames written on the caller's
    thread, replies read in FIFO order by whichever waiter holds the
    read turn."""

    def test_killed_worker_fails_every_in_flight_call(self, pool):
        victim = pool.handles[0]
        pid = victim.pid()
        os.kill(pid, signal.SIGSTOP)       # calls pile up, unanswered
        k = 6
        outcomes = [None] * k
        submitted = threading.Barrier(k + 1)

        def caller(index):
            call = victim.submit_nowait(protocol.OP_PING, {})
            submitted.wait(10)
            started = time.monotonic()
            status, body = call.result(30)
            outcomes[index] = (status, body, time.monotonic() - started)

        threads = [threading.Thread(target=caller, args=(index,))
                   for index in range(k)]
        for thread in threads:
            thread.start()
        submitted.wait(10)
        assert victim.pending() == k
        killed_at = time.monotonic()
        os.kill(pid, signal.SIGKILL)
        for thread in threads:
            thread.join(10)
        answered_within_s = time.monotonic() - killed_at
        assert [outcome[0] for outcome in outcomes] == [503] * k
        for _, body, _ in outcomes:
            assert "respawned" in body["error"]
        assert answered_within_s < 5.0
        assert _wait_until(lambda: victim.restarts() >= 1)
        assert _wait_until(lambda: pool.alive_count() == 2)
        time.sleep(0.2)                    # monitor ticks: still one
        assert victim.restarts() == 1
        assert victim.pid() != pid
        status, body = victim.submit(protocol.OP_PING, {},
                                     timeout_s=30).result(30)
        assert status == 200
        assert body["pid"] == victim.pid()

    def test_a_reply_read_by_another_thread_skips_the_socket(
            self, pool, monkeypatch):
        handle = pool.handles[0]
        first = handle.submit_nowait(protocol.OP_PING, {})
        second = handle.submit_nowait(protocol.OP_PING, {})
        # the second waiter reads both replies, FIFO order
        reader = threading.Thread(target=second.result, args=(30,))
        reader.start()
        reader.join(30)
        assert second.done and first.done
        reads = []
        original = protocol.recv_frame

        def spy(sock):
            reads.append(sock)
            return original(sock)

        monkeypatch.setattr(protocol, "recv_frame", spy)
        status, body = first.result(30)
        assert (status, reads) == (200, [])
        assert body["pid"] == handle.pid()
        assert handle.pending() == 0

    def test_out_of_order_reply_is_a_503_and_a_respawn(
            self, models_dir, monkeypatch):
        original = protocol.response

        def skewed(request_id, status, body):
            # workers fork with this patch: one op answers a wrong id
            if "desync-me" in str(body):
                request_id += 1000
            return original(request_id, status, body)

        monkeypatch.setattr(protocol, "response", skewed)
        restarts = []
        handle = WorkerHandle(3, models_dir, WorkerOptions(),
                              on_restart=restarts.append)
        handle.start()
        try:
            pid = handle.pid()
            status, body = handle.submit(
                "desync-me", {}, timeout_s=30).result(30)
            assert status == 503
            assert "out of order" in body["error"]
            assert restarts == [3]
            assert handle.restarts() == 1
            assert handle.pid() != pid
            status, _ = handle.submit(protocol.OP_PING, {},
                                      timeout_s=30).result(30)
            assert status == 200
        finally:
            handle.stop(timeout_s=10.0)

    def test_in_flight_frames_are_bounded(self, models_dir):
        with _stopped_worker(4, models_dir, max_queue_depth=2) as handle:
            calls = [handle.submit_nowait(protocol.OP_PING, {})
                     for _ in range(2)]
            with pytest.raises(queue.Full):
                handle.submit_nowait(protocol.OP_PING, {})
            with pytest.raises(queue.Full):
                handle.submit(protocol.OP_PING, {}, timeout_s=0.05)
            assert handle.pending() == 2
            os.kill(handle.pid(), signal.SIGCONT)
            assert [call.result(30)[0] for call in calls] == [200, 200]
            assert handle.pending() == 0

    def test_short_deadline_times_out_without_desync(self, models_dir):
        with _stopped_worker(5, models_dir) as handle:
            late = handle.submit_nowait(protocol.OP_PING, {})
            with pytest.raises(ServiceError) as excinfo:
                late.result(0.1)
            assert excinfo.value.status == 504
            os.kill(handle.pid(), signal.SIGCONT)
            # the channel is still in step: both replies land in order
            status, _ = handle.submit_nowait(
                protocol.OP_PING, {}).result(30)
            assert status == 200
            assert late.result(1)[0] == 200
            assert handle.restarts() == 0

    def test_over_limit_frame_fails_alone(self, models_dir, monkeypatch):
        with _stopped_worker(6, models_dir) as handle:
            in_flight = handle.submit_nowait(protocol.OP_PING, {})
            # the limit is checked before any byte goes out; patched in
            # the frontend only, after the fork
            monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1024)
            oversized = handle.submit_nowait(
                protocol.OP_PREDICT, {"pad": [0] * 1024})
            assert oversized.done
            status, body = oversized.result(1)
            assert status == 413
            assert "1024-byte limit" in body["error"]
            assert handle.pending() == 1
            os.kill(handle.pid(), signal.SIGCONT)
            status, _ = in_flight.result(30)
            assert status == 200
            status, _ = handle.submit_nowait(
                protocol.OP_PING, {}).result(30)
            assert status == 200
            assert handle.restarts() == 0

    def test_deadline_wait_takes_a_descriptor_past_fd_setsize(self):
        high_fd = 1500
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] <= high_fd:
            pytest.skip("descriptor limit too low for a high fd")
        frontend, worker = socket.socketpair()
        os.dup2(frontend.fileno(), high_fd)
        frontend.close()
        frontend = socket.socket(fileno=high_fd)
        frontend.settimeout(60.0)
        broken = []
        channel = _Channel(frontend, 0, 4, broken.append)
        try:
            call = channel.submit(protocol.OP_PING, {})
            request = protocol.recv_frame(worker)
            with pytest.raises(ServiceError) as excinfo:
                call.result(0.05)
            assert excinfo.value.status == 504
            protocol.send_frame(worker, protocol.response(
                request["id"], 200, {"ok": True}))
            assert call.result(5) == (200, {"ok": True})
            assert broken == []
        finally:
            channel.close("test over")
            worker.close()

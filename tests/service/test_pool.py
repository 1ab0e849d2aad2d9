"""Worker pool: fork, route, crash-respawn, broadcast, shutdown."""

import os
import signal
import threading
import time

import pytest

from repro.service import protocol
from repro.service.metrics import MetricsRegistry
from repro.service.pool import WorkerHandle, WorkerOptions, WorkerPool
from repro.service.sharding import shard_key


def _wait_until(predicate, timeout_s=20.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


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

    def test_handle_stop_joins_its_dispatcher(self, models_dir):
        def dispatchers():
            return [thread for thread in threading.enumerate()
                    if thread.name == "repro-dispatch-7"]

        idle = WorkerHandle(7, models_dir, WorkerOptions())
        idle.stop(timeout_s=1.0)          # never started: nothing to join
        assert dispatchers() == []
        handle = WorkerHandle(7, models_dir, WorkerOptions())
        handle.start()
        assert [thread.is_alive() for thread in dispatchers()] == [True]
        handle.stop(timeout_s=10.0)
        assert dispatchers() == []
        assert not handle.alive()

    def test_queue_depths_report_per_slot(self, pool):
        assert pool.queue_depths() == {0: 0, 1: 0}
        assert pool.restarts() == {0: 0, 1: 0}

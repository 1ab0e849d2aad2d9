"""Concurrent identical result-cache misses compute once (single flight).

The first request for a key computes; requests for the same key that
arrive while it does wait for its answer and report ``cached: true``.
If the leader fails, each waiter computes for itself.
"""

import sys
import threading
import time

import pytest

from repro.service import ModelRegistry, PredictionService
from repro.service.core import ServiceError

THREADS = 6
KW = {"model": "kw-a100", "network": "resnet50", "batch_size": 64}


def _slow_computes(monkeypatch, fail_first=False):
    """Count ``_plan_for`` calls; each stalls so the others pile up.

    With ``fail_first`` the first call fails, but only once every other
    thread has joined its flight, so all of them wait on the failure.
    """
    calls = []
    waiters = []
    all_joined = threading.Event()
    original_plan_for = PredictionService._plan_for
    original_join = PredictionService._join_flight

    def join_flight(service, key):
        flight = original_join(service, key)
        if flight is not None:
            waiters.append(key)
            if len(waiters) >= THREADS - 1:
                all_joined.set()
        return flight

    def plan_for(service, *args):
        calls.append(args)
        if fail_first and len(calls) == 1:
            assert all_joined.wait(timeout=30)
            raise ServiceError(503, "leader failed")
        time.sleep(0.2)
        return original_plan_for(service, *args)

    monkeypatch.setattr(PredictionService, "_join_flight", join_flight)
    monkeypatch.setattr(PredictionService, "_plan_for", plan_for)
    return calls


def _all_at_once(call):
    """Run ``call()`` on THREADS threads released together."""
    barrier = threading.Barrier(THREADS)
    replies = [None] * THREADS

    def run(index):
        barrier.wait(timeout=30)
        try:
            replies[index] = call()
        except ServiceError as exc:
            replies[index] = exc

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)       # interleave the threads densely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return replies


@pytest.fixture()
def service(models_dir):
    return PredictionService(ModelRegistry(models_dir))


class TestSingleFlight:
    def test_predict_computes_once(self, service, monkeypatch):
        calls = _slow_computes(monkeypatch)
        replies = _all_at_once(lambda: service.predict(dict(KW)))
        assert len(calls) == 1
        assert sorted(reply["cached"] for reply in replies) == \
            [False] + [True] * (THREADS - 1)
        strip = [{k: v for k, v in reply.items()
                  if k not in ("cached", "plan_cached")}
                 for reply in replies]
        assert all(body == strip[0] for body in strip)
        assert service.predict(dict(KW))["predicted_us"] == \
            strip[0]["predicted_us"]

    def test_predict_batch_computes_once(self, service, monkeypatch):
        calls = _slow_computes(monkeypatch)
        replies = _all_at_once(
            lambda: service.predict_batch({"items": [dict(KW)] * 3}))
        assert len(calls) == 1
        flags = [item["cached"] for reply in replies
                 for item in reply["results"]]
        assert sorted(flags) == [False] + [True] * (3 * THREADS - 1)

    def test_waiters_compute_when_the_leader_fails(self, service,
                                                   monkeypatch):
        calls = _slow_computes(monkeypatch, fail_first=True)
        replies = _all_at_once(lambda: service.predict(dict(KW)))
        failed = [reply for reply in replies
                  if isinstance(reply, ServiceError)]
        assert [exc.status for exc in failed] == [503]
        # the leader's failure is not cached: every waiter computed
        assert len(calls) == THREADS
        answers = [reply for reply in replies
                   if not isinstance(reply, ServiceError)]
        assert {reply["predicted_us"] for reply in answers} == \
            {answers[0]["predicted_us"]}

    def test_nothing_stays_in_flight(self, service, monkeypatch):
        _slow_computes(monkeypatch, fail_first=True)
        _all_at_once(lambda: service.predict(dict(KW)))
        assert service._inflight == {}

    def test_batch_releases_each_group_as_it_is_served(self, service,
                                                        monkeypatch):
        """A request waiting on a key of a batch's first group is
        answered before the batch's later groups are served."""
        waiter_joined = threading.Event()
        release_later_group = threading.Event()
        original_plan_for = PredictionService._plan_for
        original_join = PredictionService._join_flight

        def join_flight(service, key):
            flight = original_join(service, key)
            if flight is not None:
                waiter_joined.set()
            return flight

        def plan_for(service, entry, model_name, network_name, batch_size):
            if network_name == KW["network"]:
                assert waiter_joined.wait(timeout=30)
            else:
                assert release_later_group.wait(timeout=30)
            return original_plan_for(service, entry, model_name,
                                     network_name, batch_size)

        monkeypatch.setattr(PredictionService, "_join_flight", join_flight)
        monkeypatch.setattr(PredictionService, "_plan_for", plan_for)
        replies = {}
        batch = threading.Thread(target=lambda: replies.setdefault(
            "batch", service.predict_batch(
                {"items": [dict(KW), dict(KW, network="resnet18")]})))
        waiter = threading.Thread(target=lambda: replies.setdefault(
            "waiter", service.predict(dict(KW))))
        batch.start()
        try:
            # the batch leads both keys before it serves its first group
            while not service._inflight:
                time.sleep(0.001)
            waiter.start()
            waiter.join(timeout=30)
            answered_early = not waiter.is_alive()
        finally:
            release_later_group.set()
            batch.join(timeout=30)
            waiter.join(timeout=30)
        assert answered_early
        assert replies["waiter"]["cached"] is True
        assert replies["waiter"]["predicted_us"] == \
            replies["batch"]["results"][0]["predicted_us"]
        assert service._inflight == {}

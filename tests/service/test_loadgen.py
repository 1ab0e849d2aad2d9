"""LoadGenerator: payload validation, failure latencies, batch mode."""

import time

import pytest

from repro.service.loadgen import (
    LoadGenerator,
    LoadReport,
    merge_reports,
    run_multiprocess,
)


def _generator(url="http://127.0.0.1:1", payloads=None, **kwargs):
    if payloads is None:
        payloads = [{"model": "kw-a100", "network": "resnet50",
                     "batch_size": 64}]
    defaults = dict(rate_rps=10_000.0, n_requests=4, threads=2,
                    timeout_s=10.0)
    defaults.update(kwargs)
    return LoadGenerator(url, payloads, **defaults)


class TestPayloadValidation:
    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one request"):
            _generator(payloads=[])

    def test_empty_generator_rejected(self):
        """The historical crash: a generator argument is always truthy,
        so the old emptiness check admitted an empty stream and run()
        died with ZeroDivisionError at ``index % len(payloads)``."""
        with pytest.raises(ValueError, match="at least one request"):
            _generator(payloads=(payload for payload in ()))

    def test_generator_payloads_are_materialised(self):
        stream = (payload for payload in
                  [{"model": "m", "network": "n", "batch_size": 1}])
        generator = _generator(payloads=stream)
        # the stream must survive being scheduled more than once
        assert generator.payloads == [
            {"model": "m", "network": "n", "batch_size": 1}]
        assert generator._schedule().qsize() == 4

    def test_non_dict_payload_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            _generator(payloads=["resnet50"])

    @pytest.mark.parametrize("url", ["127.0.0.1:8100", "https://x",
                                     "http://"])
    def test_non_http_url_rejected(self, url):
        with pytest.raises(ValueError, match="http://host"):
            _generator(url=url)

    def test_single_dict_is_wrapped(self):
        generator = _generator(
            payloads={"model": "m", "network": "n", "batch_size": 1})
        assert len(generator.payloads) == 1

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError, match="thread"):
            _generator(threads=0)
        with pytest.raises(ValueError, match="batch"):
            _generator(batch=0)


class TestSchedule:
    def test_batch_mode_posts_ceil_div_groups(self):
        generator = _generator(n_requests=10, batch=4)
        work = generator._schedule()
        groups = []
        while not work.empty():
            groups.append(work.get_nowait()[1])
        assert len(groups) == 3                  # ceil(10 / 4)
        assert sorted(len(group) for group in groups) == [2, 4, 4]
        assert sum(len(group) for group in groups) == 10

    def test_single_mode_posts_one_payload_each(self):
        generator = _generator(n_requests=3)
        work = generator._schedule()
        sizes = []
        while not work.empty():
            sizes.append(len(work.get_nowait()[1]))
        assert sizes == [1, 1, 1]


class TestFailureLatencies:
    def test_transport_failure_fails_every_carried_item(self):
        # nothing listens on port 1: the whole post fails, and every
        # item it carried is counted as failed
        generator = _generator(n_requests=4, batch=2, threads=1)
        report = generator.run()
        assert report.succeeded == 0
        assert report.failed == 4
        assert report.latencies_ms == ()
        assert len(report.failed_latencies_ms) == 2    # one per post
        assert report.connections == 0                # none ever opened
        assert report.failed_latency_percentile_ms(50) >= 0

    def test_failed_posts_keep_their_latency_separately(self):
        generator = _generator(n_requests=2, threads=1)
        report = generator.run()
        # failed request latency is observable, not silently dropped
        assert len(report.failed_latencies_ms) == 2
        assert report.latencies_ms == ()
        assert "failures" in report.render()
        assert "2 failed posts" in report.render()

    def test_report_without_failures_has_no_failure_line(self):
        report = LoadReport(url="http://x", offered_rps=1.0, sent=1,
                            succeeded=1, failed=0, elapsed_s=1.0,
                            latencies_ms=(2.0,))
        assert "failures" not in report.render()
        assert report.failed_latency_percentile_ms(99) == 0.0


class TestBatchModeLive:
    def test_batch_mode_per_item_accounting(self, live_server):
        url, service = live_server
        good = {"model": "kw-a100", "network": "resnet50",
                "batch_size": 64}
        generator = LoadGenerator(url, [good], rate_rps=10_000.0,
                                  n_requests=9, threads=2, batch=4)
        report = generator.run()
        assert report.succeeded == 9
        assert report.failed == 0
        assert report.failed_latencies_ms == ()
        # 3 posts: ceil(9 / 4)
        assert len(report.latencies_ms) == 3
        assert report.tier_counts.get("kw") == 9
        # one compute, then in-batch and cross-batch cache hits
        assert report.cache_hits == 8
        assert service.metrics.counter("batch_items_total") == 9

    def test_batch_mode_separates_item_failures(self, live_server):
        url, _ = live_server
        good = {"model": "kw-a100", "network": "resnet50",
                "batch_size": 64}
        bad = {"model": "nope", "network": "resnet50", "batch_size": 64}
        generator = LoadGenerator(url, [good, bad], rate_rps=10_000.0,
                                  n_requests=4, threads=1, batch=2)
        report = generator.run()
        # every post carried one good and one bad item: the items split
        # ok/failed, and the post latencies land in the failure bucket
        assert report.succeeded == 2
        assert report.failed == 2
        assert report.latencies_ms == ()
        assert len(report.failed_latencies_ms) == 2
        assert any("item error 404" in reason for reason in report.errors)


class TestPersistentConnections:
    KW = {"model": "kw-a100", "network": "resnet50", "batch_size": 64}

    def test_each_client_thread_keeps_one_connection(self, live_server):
        url, service = live_server
        report = LoadGenerator(url, [self.KW], rate_rps=10_000.0,
                               n_requests=30, threads=2).run()
        assert report.succeeded == 30
        assert 1 <= report.connections <= 2
        assert service.metrics.counter("connections_total") \
            == report.connections
        assert f"{report.connections} connection(s) opened" \
            in report.render()

    def test_stale_connection_reconnects_once(self, live_server,
                                              monkeypatch):
        from repro.service import server
        monkeypatch.setattr(server._Handler, "timeout", 0.2)
        url, service = live_server
        generator = LoadGenerator(url, [self.KW], rate_rps=1.0,
                                  n_requests=1)
        assert generator._post(self.KW)[0] is True
        # the server closes the idle connection; the next post finds
        # the kept-alive socket dead and must reconnect, not fail
        time.sleep(0.6)
        ok, document, reason, status = generator._post(self.KW)
        assert (ok, reason, status) == (True, "", 200)
        assert document["cached"] is True
        assert service.metrics.counter("connections_total") == 2
        generator._close_connection()

    def test_http_errors_keep_their_classification(self, live_server):
        url, service = live_server
        unknown = dict(self.KW, model="nope")
        report = LoadGenerator(url, [unknown], rate_rps=10_000.0,
                               n_requests=4, threads=1).run()
        assert report.failed == 4
        (reason,) = report.errors
        assert reason.startswith("HTTP 404: unknown model")
        # an error reply keeps the connection: no reconnect per failure
        assert report.connections == 1
        assert service.metrics.counter("connections_total") == 1


class TestShedBucket:
    def _report(self, **overrides):
        defaults = dict(url="http://x", offered_rps=1.0, sent=4,
                        succeeded=2, failed=0, elapsed_s=1.0,
                        latencies_ms=(2.0, 3.0), shed=2,
                        shed_latencies_ms=(1.0, 1.5))
        defaults.update(overrides)
        return LoadReport(**defaults)

    def test_shed_is_not_a_failure(self):
        report = self._report()
        assert report.failed == 0
        assert report.shed == 2
        assert report.shed_rate == 0.5
        assert "2 items refused with 429" in report.render()
        assert "50.0% of offered" in report.render()

    def test_429_outcomes_classify_as_shed(self, monkeypatch):
        generator = _generator(n_requests=3, threads=1)
        monkeypatch.setattr(
            generator, "_post",
            lambda payload: (False, None, "HTTP 429: overloaded", 429))
        report = generator.run()
        assert report.shed == 3
        assert report.failed == 0
        assert report.succeeded == 0
        assert len(report.shed_latencies_ms) == 3
        assert report.latencies_ms == ()
        assert report.errors == {}

    def test_batch_item_429_classifies_as_shed(self, monkeypatch):
        generator = _generator(n_requests=4, threads=1, batch=2)
        document = {"count": 2, "errors": 2, "results": [
            {"error": "overloaded", "status": 429},
            {"error": "boom", "status": 500},
        ]}
        monkeypatch.setattr(
            generator, "_post_batch",
            lambda group: (True, document, "", 200))
        report = generator.run()
        assert report.shed == 2
        assert report.failed == 2
        # the post latency lands in the worst bucket it carried: failed
        assert len(report.failed_latencies_ms) == 2
        assert report.shed_latencies_ms == ()

    def test_p999_is_reported(self):
        report = self._report(latencies_ms=tuple(float(i)
                                                 for i in range(1000)))
        assert report.latency_percentile_ms(99.9) == 999.0
        assert "p99.9" in report.render()


class TestReportWireFormat:
    def test_to_dict_round_trips(self):
        report = LoadReport(
            url="http://x", offered_rps=10.0, sent=5, succeeded=3,
            failed=1, elapsed_s=2.0, latencies_ms=(1.0, 2.0, 3.0),
            tier_counts={"kw": 3}, errors={"HTTP 500: boom": 1},
            cache_hits=1, failed_latencies_ms=(9.0,), shed=1,
            shed_latencies_ms=(4.0,), connections=2)
        restored = LoadReport.from_dict(report.to_dict())
        assert restored == report

    def test_from_dict_is_json_safe(self):
        import json as json_module
        report = LoadReport(url="http://x", offered_rps=1.0, sent=1,
                            succeeded=1, failed=0, elapsed_s=1.0,
                            latencies_ms=(2.0,))
        over_the_wire = json_module.loads(
            json_module.dumps(report.to_dict()))
        assert LoadReport.from_dict(over_the_wire) == report


class TestMergeReports:
    def _report(self, latencies, shed_latencies=(), failed_latencies=(),
                tier_counts=None, errors=None, offered=10.0,
                elapsed=1.0):
        return LoadReport(
            url="http://x", offered_rps=offered, sent=len(latencies)
            + len(shed_latencies) + len(failed_latencies),
            succeeded=len(latencies), failed=len(failed_latencies),
            elapsed_s=elapsed, latencies_ms=tuple(latencies),
            tier_counts=dict(tier_counts or {}),
            errors=dict(errors or {}), cache_hits=0,
            failed_latencies_ms=tuple(failed_latencies),
            shed=len(shed_latencies),
            shed_latencies_ms=tuple(shed_latencies))

    def test_percentiles_come_from_the_union_never_averaged(self):
        # one fast process, one slow process: the merged p99 must be the
        # p99 of the union of samples, not the mean of per-process p99s
        fast = self._report([1.0] * 99)
        slow = self._report([1000.0])
        merged = merge_reports([fast, slow])
        union = sorted((1.0,) * 99 + (1000.0,))
        expected_p99 = union[min(len(union) - 1,
                                 int(99 / 100 * len(union)))]
        assert merged.latency_percentile_ms(99) == expected_p99
        naive = (fast.latency_percentile_ms(99)
                 + slow.latency_percentile_ms(99)) / 2
        assert merged.latency_percentile_ms(99) != naive

    def test_counts_rates_and_tallies_sum(self):
        left = self._report([1.0, 2.0], shed_latencies=[5.0],
                            tier_counts={"kw": 2},
                            errors={}, offered=10.0, elapsed=1.0)
        right = self._report([3.0], failed_latencies=[9.0],
                             tier_counts={"kw": 1, "lw": 1},
                             errors={"HTTP 500: boom": 1},
                             offered=20.0, elapsed=2.5)
        merged = merge_reports([left, right])
        assert merged.sent == left.sent + right.sent
        assert merged.succeeded == 3
        assert merged.failed == 1
        assert merged.shed == 1
        assert merged.offered_rps == 30.0
        assert merged.elapsed_s == 2.5            # slowest process
        assert merged.latencies_ms == (1.0, 2.0, 3.0)
        assert merged.shed_latencies_ms == (5.0,)
        assert merged.failed_latencies_ms == (9.0,)
        assert merged.tier_counts == {"kw": 3, "lw": 1}
        assert merged.errors == {"HTTP 500: boom": 1}

    def test_connections_sum(self):
        left = self._report([1.0])
        left.connections = 2
        right = self._report([2.0])
        right.connections = 3
        assert merge_reports([left, right]).connections == 5

    def test_merge_of_one_is_identity(self):
        report = self._report([1.0, 2.0], tier_counts={"kw": 2})
        assert merge_reports([report]) == report

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError, match="at least one report"):
            merge_reports([])


class TestMultiprocess:
    def test_procs_must_be_positive(self):
        with pytest.raises(ValueError, match="procs"):
            run_multiprocess("http://x", [{"a": 1}], rate_rps=1.0,
                             n_requests=1, procs=0)

    def test_two_procs_drive_a_live_server(self, live_server):
        url, _ = live_server
        payloads = [{"model": "kw-a100", "network": "resnet50",
                     "batch_size": 64}]
        report = run_multiprocess(url, payloads, rate_rps=5000.0,
                                  n_requests=10, procs=2, threads=2)
        assert report.sent == 10
        assert report.succeeded == 10
        assert report.failed == 0
        assert report.shed == 0
        assert len(report.latencies_ms) == 10
        # both children drove half the offered rate; the merged report
        # restores the full offered rate
        assert report.offered_rps == 5000.0

    def test_request_count_splits_exactly(self, live_server):
        url, _ = live_server
        payloads = [{"model": "kw-a100", "network": "resnet50",
                     "batch_size": 64}]
        report = run_multiprocess(url, payloads, rate_rps=5000.0,
                                  n_requests=7, procs=3, threads=1)
        assert report.sent == 7
        assert report.succeeded == 7

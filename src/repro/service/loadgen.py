"""Load generator: benchmark a live prediction server.

Reuses the serving simulator's Poisson arrival process
(:func:`repro.sim.serving.poisson_arrivals`) as a wall-clock request
schedule: N client threads replay the arrival times against a running
server and report achieved throughput, error counts, latency percentiles,
and which fallback tiers answered. The same statistics the simulator
predicts for GPU serving are measured here for the predictor itself.

A single Python client process is GIL-bound just like a single server
process; :func:`run_multiprocess` forks ``procs`` independent client
processes (splitting the offered rate and request count) so the scale-
out server can actually be saturated. Per-process results merge
**sample-exactly**: :func:`merge_reports` concatenates the raw latency
samples and recomputes every percentile from the union — percentiles
are never averaged across processes, which would systematically
understate the tail. Shed responses (HTTP 429 from admission control)
land in their own bucket, separate from both successes and failures.

Each client thread holds one persistent HTTP/1.1 connection and reuses
it for every post, so the report times the server, not a TCP connect
per request; ``LoadReport.connections`` counts the connections opened.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.sim.serving import poisson_arrivals


def _percentile_ms(values: Tuple[float, ...], percentile: float) -> float:
    if not 0 <= percentile <= 100:
        raise ValueError("percentile must be in [0, 100]")
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                int(percentile / 100.0 * len(ordered)))
    return ordered[index]


@dataclass
class LoadReport:
    """Aggregate statistics of one load-generation run."""

    url: str
    offered_rps: float
    sent: int
    succeeded: int
    failed: int
    elapsed_s: float
    latencies_ms: Tuple[float, ...]
    tier_counts: Dict[str, int] = field(default_factory=dict)
    errors: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    #: Latency of requests that (partly) failed, kept separate so the
    #: success percentiles are not silently polluted — and so tail
    #: latency *under errors* is still observable instead of dropped.
    failed_latencies_ms: Tuple[float, ...] = ()
    #: Requests refused by admission control (HTTP 429). Shed is its own
    #: outcome bucket: not a success, but not a server failure either.
    shed: int = 0
    shed_latencies_ms: Tuple[float, ...] = ()
    #: TCP connections the clients opened: one per client thread when
    #: every kept-alive connection survived the run.
    connections: int = 0

    @property
    def achieved_rps(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.succeeded / self.elapsed_s

    @property
    def shed_rate(self) -> float:
        """Fraction of offered items refused with 429."""
        return self.shed / self.sent if self.sent else 0.0

    @property
    def mean_latency_ms(self) -> float:
        if not self.latencies_ms:
            return 0.0
        return sum(self.latencies_ms) / len(self.latencies_ms)

    def latency_percentile_ms(self, percentile: float) -> float:
        return _percentile_ms(self.latencies_ms, percentile)

    def failed_latency_percentile_ms(self, percentile: float) -> float:
        return _percentile_ms(self.failed_latencies_ms, percentile)

    def to_dict(self) -> Dict:
        """JSON-safe form (the cross-process report wire format)."""
        return {
            "url": self.url,
            "offered_rps": self.offered_rps,
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "elapsed_s": self.elapsed_s,
            "latencies_ms": list(self.latencies_ms),
            "tier_counts": dict(self.tier_counts),
            "errors": dict(self.errors),
            "cache_hits": self.cache_hits,
            "failed_latencies_ms": list(self.failed_latencies_ms),
            "shed": self.shed,
            "shed_latencies_ms": list(self.shed_latencies_ms),
            "connections": self.connections,
        }

    @classmethod
    def from_dict(cls, document: Dict) -> "LoadReport":
        data = dict(document)
        for name in ("latencies_ms", "failed_latencies_ms",
                     "shed_latencies_ms"):
            data[name] = tuple(data.get(name, ()))
        return cls(**data)

    def render(self) -> str:
        lines = [
            f"loadgen against {self.url}",
            f"  offered   {self.offered_rps:8.1f} req/s "
            f"({self.sent} requests)",
            f"  achieved  {self.achieved_rps:8.1f} req/s "
            f"({self.succeeded} ok, {self.failed} failed, "
            f"{self.shed} shed, {self.elapsed_s:.2f}s)",
            f"  latency   mean {self.mean_latency_ms:.2f} ms   "
            f"p50 {self.latency_percentile_ms(50):.2f} ms   "
            f"p99 {self.latency_percentile_ms(99):.2f} ms   "
            f"p99.9 {self.latency_percentile_ms(99.9):.2f} ms",
            f"  cache     {self.cache_hits}/{self.succeeded} "
            "responses served from cache",
            f"  connects  {self.connections} connection(s) opened",
        ]
        if self.shed:
            lines.append(
                f"  shed      {self.shed} items refused with 429 "
                f"({self.shed_rate:.1%} of offered)")
        if self.failed_latencies_ms:
            lines.append(
                f"  failures  p50 "
                f"{self.failed_latency_percentile_ms(50):.2f} ms   "
                f"p99 {self.failed_latency_percentile_ms(99):.2f} ms "
                f"({len(self.failed_latencies_ms)} failed posts)")
        if self.tier_counts:
            tiers = "  ".join(f"{tier}={count}" for tier, count
                              in sorted(self.tier_counts.items()))
            lines.append(f"  tiers     {tiers}")
        for reason, count in sorted(self.errors.items()):
            lines.append(f"  error     {count}x {reason}")
        return "\n".join(lines)


class LoadGenerator:
    """Drive ``POST {url}/predict`` from a Poisson arrival schedule.

    With ``batch > 1`` the schedule drives ``POST /predict_batch``
    instead: ``rate_rps`` stays the offered *item* rate, so the posts
    arrive at ``rate_rps / batch``, each carrying ``batch`` payloads,
    and the per-item results feed the same success/tier/cache counters.
    """

    def __init__(self, url: str, payloads, rate_rps: float,
                 n_requests: int, threads: int = 4, seed: int = 0,
                 timeout_s: float = 30.0, batch: int = 1) -> None:
        if threads < 1:
            raise ValueError("need at least one client thread")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if isinstance(payloads, dict):
            payloads = [payloads]
        # materialise BEFORE checking emptiness: a generator argument is
        # always truthy, so testing the raw iterable first would admit
        # an empty stream and crash run() at `index % len(payloads)`
        materialised = list(payloads)
        if not materialised:
            raise ValueError(
                "need at least one request payload (got an empty "
                "payload collection)")
        for payload in materialised:
            if not isinstance(payload, dict):
                raise ValueError(
                    f"every payload must be a JSON object (dict), "
                    f"got {type(payload).__name__}: {payload!r}")
        self.url = url.rstrip("/")
        parts = urlsplit(self.url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"url must be http://host[:port], got {url!r}")
        self._address = (parts.hostname, parts.port)
        self._path_prefix = parts.path
        self.payloads = materialised
        self.rate_rps = rate_rps
        self.n_requests = n_requests
        self.threads = threads
        self.seed = seed
        self.timeout_s = timeout_s
        self.batch = batch
        self._local = threading.local()       # one connection per thread
        self._connects_lock = threading.Lock()
        self._connects = 0

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's persistent connection, created on first use."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                *self._address, timeout=self.timeout_s)
            self._local.connection = connection
        return connection

    def _close_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    def _post_document(self, path: str, document: Dict
                       ) -> Tuple[bool, Optional[Dict], str, int]:
        body = json.dumps(document).encode()
        target = self._path_prefix + path
        for attempt in range(2):
            connection = self._connection()
            fresh = connection.sock is None
            try:
                if fresh:
                    connection.connect()
                    with self._connects_lock:
                        self._connects += 1
                connection.request(
                    "POST", target, body=body,
                    headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                raw = response.read()
            except (http.client.HTTPException, OSError) as exc:
                connection.close()
                if (attempt == 0 and not fresh
                        and not isinstance(exc, socket.timeout)):
                    continue          # the kept-alive socket went stale
                return False, None, f"{type(exc).__name__}: {exc}", 0
            break
        if response.status != 200:
            try:
                reason = json.loads(raw).get("error", response.reason)
            # error-body parsing is best-effort; keep the HTTP error.
            # The handler is anonymous by design: the reported label is
            # the HTTP status below, not this parsing failure
            except Exception:  # repro: noqa[EX001]
                reason = response.reason
            return (False, None, f"HTTP {response.status}: {reason}",
                    response.status)
        try:
            return True, json.loads(raw), "", 200
        except ValueError as exc:
            return False, None, str(exc), 0

    def _post(self, payload: Dict) -> Tuple[bool, Optional[Dict], str, int]:
        return self._post_document("/predict", payload)

    def _post_batch(self, group) -> Tuple[bool, Optional[Dict], str, int]:
        return self._post_document("/predict_batch", {"items": list(group)})

    def _schedule(self) -> "queue.Queue":
        """The arrival queue: (arrival_us, [payload, ...]) work units."""
        work: "queue.Queue[Tuple[float, List[Dict]]]" = queue.Queue()
        if self.batch == 1:
            arrivals_us = poisson_arrivals(self.rate_rps, self.n_requests,
                                           self.seed)
            for index, arrival in enumerate(arrivals_us):
                work.put((arrival,
                          [self.payloads[index % len(self.payloads)]]))
            return work
        n_posts = -(-self.n_requests // self.batch)     # ceil division
        arrivals_us = poisson_arrivals(self.rate_rps / self.batch,
                                       n_posts, self.seed)
        index = 0
        for arrival in arrivals_us:
            count = min(self.batch, self.n_requests - index)
            group = [self.payloads[(index + offset) % len(self.payloads)]
                     for offset in range(count)]
            index += count
            work.put((arrival, group))
        return work

    def _outcomes(self, group: List[Dict]) -> List[Tuple[str, object]]:
        """Per-item (kind, document-or-reason) pairs for one work unit.

        ``kind`` is ``"ok"``, ``"shed"`` (the server refused with 429 —
        admission control working as designed, not a failure), or
        ``"failed"``.
        """
        if self.batch == 1:
            ok, document, reason, status = self._post(group[0])
            if ok:
                return [("ok", document)]
            return [("shed" if status == 429 else "failed", reason)]
        ok, document, reason, status = self._post_batch(group)
        if not ok:
            # a transport-level failure fails every item it carried
            kind = "shed" if status == 429 else "failed"
            return [(kind, reason)] * len(group)
        outcomes: List[Tuple[str, object]] = []
        for item in (document or {}).get("results", []):
            if isinstance(item, dict) and "status" not in item:
                outcomes.append(("ok", item))
            else:
                status = (item or {}).get("status", "?")
                error = (item or {}).get("error", "malformed item result")
                kind = "shed" if status == 429 else "failed"
                outcomes.append((kind, f"item error {status}: {error}"))
        return outcomes

    def run(self) -> LoadReport:
        """Replay the schedule; blocks until every request resolves."""
        work = self._schedule()
        lock = threading.Lock()
        latencies: List[float] = []
        failed_latencies: List[float] = []
        shed_latencies: List[float] = []
        tier_counts: Dict[str, int] = {}
        errors: Dict[str, int] = {}
        counters = {"ok": 0, "failed": 0, "shed": 0, "cache_hits": 0}
        start = time.perf_counter()

        def drain() -> None:
            while True:
                try:
                    arrival_us, group = work.get_nowait()
                except queue.Empty:
                    return
                delay = start + arrival_us / 1e6 - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent_at = time.perf_counter()
                outcomes = self._outcomes(group)
                latency_ms = (time.perf_counter() - sent_at) * 1e3
                with lock:
                    # the post's latency lands in the worst bucket any
                    # item it carried hit: failed > shed > ok
                    kinds = {kind for kind, _ in outcomes}
                    if "failed" in kinds:
                        failed_latencies.append(latency_ms)
                    elif "shed" in kinds:
                        shed_latencies.append(latency_ms)
                    else:
                        latencies.append(latency_ms)
                    for kind, detail in outcomes:
                        if kind == "ok":
                            counters["ok"] += 1
                            tier = (detail or {}).get("tier", "?")
                            tier_counts[tier] = (
                                tier_counts.get(tier, 0) + 1)
                            if (detail or {}).get("cached"):
                                counters["cache_hits"] += 1
                        elif kind == "shed":
                            counters["shed"] += 1
                        else:
                            counters["failed"] += 1
                            errors[detail] = errors.get(detail, 0) + 1

        def worker() -> None:
            try:
                drain()
            finally:
                self._close_connection()

        clients = [threading.Thread(target=worker, daemon=True)
                   for _ in range(self.threads)]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        elapsed = time.perf_counter() - start
        with self._connects_lock:
            connections, self._connects = self._connects, 0
        return LoadReport(url=self.url, offered_rps=self.rate_rps,
                          sent=self.n_requests, succeeded=counters["ok"],
                          failed=counters["failed"], elapsed_s=elapsed,
                          latencies_ms=tuple(latencies),
                          tier_counts=tier_counts, errors=errors,
                          cache_hits=counters["cache_hits"],
                          failed_latencies_ms=tuple(failed_latencies),
                          shed=counters["shed"],
                          shed_latencies_ms=tuple(shed_latencies),
                          connections=connections)


# -- multi-process driving ---------------------------------------------------


def merge_reports(reports: List[LoadReport]) -> LoadReport:
    """Exact merge of concurrently-collected reports.

    Raw latency samples are concatenated and every percentile is
    recomputed from the union — percentiles are **never** averaged
    across parts (a mean of per-process p99s systematically understates
    the merged tail). Counters, tier tallies, and error tallies sum;
    offered rates add (the processes drove the server together);
    ``elapsed_s`` is the slowest process since they ran concurrently.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("need at least one report to merge")
    tier_counts: Dict[str, int] = {}
    errors: Dict[str, int] = {}
    for report in reports:
        for tier, count in report.tier_counts.items():
            tier_counts[tier] = tier_counts.get(tier, 0) + count
        for reason, count in report.errors.items():
            errors[reason] = errors.get(reason, 0) + count

    def _concat(name: str) -> Tuple[float, ...]:
        merged: List[float] = []
        for report in reports:
            merged.extend(getattr(report, name))
        return tuple(merged)

    return LoadReport(
        url=reports[0].url,
        offered_rps=sum(report.offered_rps for report in reports),
        sent=sum(report.sent for report in reports),
        succeeded=sum(report.succeeded for report in reports),
        failed=sum(report.failed for report in reports),
        elapsed_s=max(report.elapsed_s for report in reports),
        latencies_ms=_concat("latencies_ms"),
        tier_counts=tier_counts,
        errors=errors,
        cache_hits=sum(report.cache_hits for report in reports),
        failed_latencies_ms=_concat("failed_latencies_ms"),
        shed=sum(report.shed for report in reports),
        shed_latencies_ms=_concat("shed_latencies_ms"),
        connections=sum(report.connections for report in reports),
    )


def _run_child(generator: LoadGenerator, connection) -> None:
    """Forked child body: run one generator, ship the report, exit."""
    try:
        connection.send(generator.run().to_dict())
    finally:
        connection.close()


def run_multiprocess(url: str, payloads, rate_rps: float,
                     n_requests: int, procs: int, threads: int = 4,
                     seed: int = 0, timeout_s: float = 30.0,
                     batch: int = 1) -> LoadReport:
    """Drive a server from ``procs`` forked client processes.

    One Python client process is GIL-bound exactly like one server
    process, so it cannot saturate a pre-fork deployment; forked
    drivers can. The offered rate and request count split evenly
    across the processes, each child draws its Poisson schedule from a
    distinct seed (identical seeds would fire the arrivals in
    lockstep), and the per-process reports merge sample-exactly via
    :func:`merge_reports`. ``procs=1`` is the plain in-process
    :class:`LoadGenerator` run.
    """
    if procs < 1:
        raise ValueError("procs must be >= 1")
    if procs == 1:
        return LoadGenerator(url, payloads, rate_rps=rate_rps,
                             n_requests=n_requests, threads=threads,
                             seed=seed, timeout_s=timeout_s,
                             batch=batch).run()
    context = multiprocessing.get_context("fork")
    shares = [n_requests // procs + (1 if index < n_requests % procs
                                     else 0)
              for index in range(procs)]
    children = []
    for index, share in enumerate(shares):
        if share == 0:
            continue
        generator = LoadGenerator(
            url, payloads, rate_rps=rate_rps / procs, n_requests=share,
            threads=threads, seed=seed + 7919 * (index + 1),
            timeout_s=timeout_s, batch=batch)
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(target=_run_child,
                                  args=(generator, sender), daemon=True)
        process.start()
        sender.close()                  # child keeps the only send end
        children.append((process, receiver))
    reports = []
    for process, receiver in children:
        try:
            reports.append(LoadReport.from_dict(receiver.recv()))
        except EOFError:                # child died before reporting
            pass
        receiver.close()
        process.join()
    if not reports:
        raise RuntimeError("every loadgen process died before reporting")
    return merge_reports(reports)

"""End-to-end and per-layer metrics of a serving run, from client posts and spans.

Per-layer numbers come from the traced server's spans (see
``launcher.py``). Steady-state metrics use only spans that began inside
the measured window; set-up metrics (compile, zoo build, AOT
load) use the whole server life. Where a layer's time is defined
as "A minus B" over different processes (client latency minus the
endpoint span, worker round trip minus the worker's core span), the
metric is the difference of the two medians.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

from httpload import Post
from measure import mean, median, percentile

ENDPOINTS = ("core.predict", "core.predict_batch", "frontend.predict",
             "frontend.predict_batch")


def _ok_items(post: Post) -> int:
    if post.status != 200 or not isinstance(post.reply, dict):
        return 0
    if "results" in post.reply:
        return sum(1 for item in post.reply["results"]
                   if isinstance(item, dict) and "status" not in item)
    return 1


def latency_ms(posts: Sequence[Post], share: float) -> float:
    """Percentile of client latency over every OK post of the window."""
    return percentile([p.latency_ms for p in posts if p.status == 200],
                      share)


def end_to_end(posts: Sequence[Post], setup_s: float,
               rss_mb: float) -> Dict[str, float]:
    """The untraced run's end-to-end metrics."""
    window_s = max(p.end_s for p in posts) - min(p.start_s for p in posts)
    return {
        "setup_s": setup_s,
        "latency_p50_ms": latency_ms(posts, 0.50),
        "latency_p99_ms": latency_ms(posts, 0.99),
        "throughput_items_s": sum(_ok_items(p) for p in posts) / window_s,
        "peak_rss_mb": rss_mb,
    }


class Spans:
    """Every process's spans, filterable by name, process and window."""

    def __init__(self, dumps: Iterable[Dict],
                 window_s: Tuple[float, float]) -> None:
        self.rows: List[Tuple] = [(dump["pid"], *span) for dump in dumps
                                  for span in dump["spans"]]
        self.window_s = window_s

    def select(self, name: str, steady: bool = True, pid=None,
               not_pid=None) -> List[Tuple]:
        """(pid, name, start_s, end_s, wait_s, tag, thread) rows."""
        return [row for row in self.rows
                if row[1] == name
                and (not steady
                     or self.window_s[0] <= row[2] <= self.window_s[1])
                and (pid is None or row[0] == pid)
                and (not_pid is None or row[0] != not_pid)]

    def durations_us(self, name: str, own: bool = False,
                     **where) -> List[float]:
        return [(row[3] - row[2] - (row[4] if own else 0.0)) * 1e6
                for row in self.select(name, **where)]

    def p50_us(self, name: str, **where) -> float:
        return median(self.durations_us(name, **where))


def _covered_s(start_s: float, end_s: float,
               intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    clipped = sorted((max(a, start_s), min(b, end_s))
                     for a, b in intervals if b > start_s and a < end_s)
    covered_s, reach_s = 0.0, start_s
    for a, b in clipped:
        if b > reach_s:
            covered_s += b - max(a, reach_s)
            reach_s = b
    return covered_s


def unaccounted_share(posts: Sequence[Post], spans: Spans,
                      frontend_pid: int) -> float:
    """Share of client time no traced layer covers.

    Covered per post: the client's own send and read phases, and the
    server's accept-thread spawn and handler-thread spans for the
    post's connection (joined on the client port). What is left is
    kernel and scheduler time between them.
    """
    by_port: Dict[int, List[Tuple[float, float]]] = {}
    for name in ("server.spawn", "server.handler"):
        for row in spans.select(name, pid=frontend_pid):
            by_port.setdefault(row[5], []).append((row[2], row[3]))
    total_s = uncovered_s = 0.0
    for post in posts:
        if post.status != 200:
            continue
        intervals = [(post.start_s, post.sent_s), (post.head_s, post.end_s)]
        intervals += by_port.get(post.port, [])
        length_s = post.end_s - post.start_s
        total_s += length_s
        uncovered_s += length_s - _covered_s(post.start_s, post.end_s,
                                             intervals)
    return uncovered_s / total_s if total_s else 0.0


def _ratio(rows: Sequence[Tuple], hit, of) -> float:
    hits = sum(hit(row[5]) for row in rows)
    total = sum(of(row[5]) for row in rows)
    return hits / total if total else 0.0


def serving_layers(dumps: Iterable[Dict], traced: Dict, plain: Dict,
                   workers: int, time_wait_count: int) -> Dict[str, float]:
    """Per-layer metrics of a traced serving run."""
    spans = Spans(dumps, traced["window_s"])
    frontend = traced["pid"]
    posts = [p for p in traced["posts"] if p.status == 200]
    service_us = [(p.end_s - p.start_s) * 1e6 for p in posts]
    endpoint_rows = [row for name in ENDPOINTS
                     for row in spans.select(name, pid=frontend)]
    endpoint_us = [(row[3] - row[2]) * 1e6 for row in endpoint_rows]

    cache_rows = spans.select("cache.get")
    result_rows = [row for row in cache_rows if row[5][0] == "result"]
    plan_rows = [row for row in cache_rows if row[5][0] == "plan"]

    grid_us_per_item = [(row[3] - row[2]) * 1e6 / row[5]
                        for row in spans.select("plan.evaluate_grid")
                        if row[5]]
    load_rows = spans.select("aot.load_plans", steady=False)
    loading_pids = {row[0] for row in load_rows}
    submits = spans.select("admission.submit")
    batch_posts = spans.select("frontend.predict_batch")
    routed = Counter(row[5] for row in spans.select("sharding.route"))
    routed_counts = [routed.get(slot, 0) for slot in range(workers)]
    frames = spans.select("protocol.send_frame")
    worker_core_us = spans.durations_us("core.predict_batch",
                                        not_pid=frontend)

    return {
        "server.self_us.p50": median(service_us) - median(endpoint_us),
        "server.connects_per_post": (
            len(spans.select("server.spawn", pid=frontend))
            / max(1, len(endpoint_rows))),
        "core.predict_us.p50": percentile(
            spans.durations_us("core.predict"), 0.50),
        "core.predict_us.p99": percentile(
            spans.durations_us("core.predict"), 0.99),
        "core.predict_batch_us.p50": spans.p50_us("core.predict_batch"),
        "cache.result_hit_ratio": _ratio(result_rows, lambda t: t[1],
                                         lambda t: t[2]),
        "cache.plan_hit_ratio": _ratio(plan_rows, lambda t: t[1],
                                       lambda t: t[2]),
        "registry.get_us.p50": spans.p50_us("registry.get"),
        "fallback.chain_us.p50": spans.p50_us("fallback.chain"),
        "fallback.degraded_ratio": _ratio(
            spans.select("fallback.chain"), bool, lambda t: 1),
        "plan.bind_us.p50": spans.p50_us("plan.bind"),
        "plan.evaluate_us.p50": spans.p50_us("plan.evaluate"),
        "plan.evaluate_grid_us_per_item.p50": median(grid_us_per_item),
        "plan.compile_ms.p50": spans.p50_us("plan.compile",
                                            steady=False) / 1e3,
        "zoo.build_ms.p50": spans.p50_us("zoo.build", steady=False) / 1e3,
        "plan.steady_compiles": len(spans.select("plan.compile")),
        "aot.load_plans_ms": (
            sum((row[3] - row[2]) * 1e3 for row in load_rows)
            / max(1, len(loading_pids))),
        "aot.plan_hits": len(spans.select("aot.plan_hit", steady=False)),
        "frontend.self_us.p50": median(
            spans.durations_us("frontend.predict_batch", own=True)
            + spans.durations_us("frontend.predict", own=True)),
        "admission.submit_us.p50": spans.p50_us("admission.submit"),
        "admission.shed_ratio": _ratio(submits, lambda t: t is not None,
                                       lambda t: 1),
        "protocol.send_frame_us.p50": spans.p50_us("protocol.send_frame"),
        "protocol.recv_frame_us.p50": median(
            spans.durations_us("protocol.recv_frame", own=True)),
        "protocol.frame_bytes.mean": mean([row[5] for row in frames]),
        "pool.roundtrip_us.p50": (
            spans.p50_us("pool.roundtrip") - median(worker_core_us)
            if workers > 1 else 0.0),
        "pool.restarts": traced["restarts"],
        "sharding.imbalance": (
            max(routed_counts) / mean(routed_counts)
            if workers > 1 and sum(routed_counts) else 0.0),
        "sharding.subbatches_per_post": (
            len(submits) / len(batch_posts) if batch_posts else 0.0),
        "unaccounted_share": unaccounted_share(posts, spans, frontend),
        "tracing.overhead_ms": (latency_ms(traced["posts"], 0.5)
                                - latency_ms(plain["posts"], 0.5)),
        "loadgen.time_wait_at_start": time_wait_count,
    }

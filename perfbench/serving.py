"""Serving workloads: the real ``repro serve`` CLI in its own process.

Each run trains the smoke model set into a scratch directory of the
checkout (0.5 s; the same models on every run), optionally AOT-compiles
it with ``repro compile``, launches the server ``SETUP_PAIRS`` times on
each of two CPUs to time set-up, then once more, unpinned, and drives
that launch for the measured window from this process: at most two
threads and two connections.
"""

from __future__ import annotations

import gc
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import httpload
import layers
import measure
from httpload import Post
from spans import load_dumps

perf_counter = time.perf_counter

#: pairs of set-up launches per run; setup_s is the median over pairs
#: of the faster launch of each pair
SETUP_PAIRS = 4
#: unmeasured load after set-up: a freshly started server runs slower
#: for its first seconds of traffic
SETTLE_S = 1.5

MODELS = ("igkw", "kw-a100", "lw-titan")
HOT_NETWORKS = ("resnet50", "vgg11", "mobilenet_v2", "densenet121")
MISS_NETWORKS = HOT_NETWORKS + ("resnet18", "squeezenet1_1",
                                "efficientnet_b0", "bert_small")
MISS_BATCH_SIZES = (64, 512)
TARGET_GPUS = ("A100", "V100", "TITAN RTX", "A40")
BANDWIDTH_RANGE_GBS = (200.0, 2000.0)
BATCH_HITS = 8
BATCH_MISSES = 8


def _hot_keys() -> Tuple[Dict, ...]:
    keys = []
    for model in MODELS:
        for network in HOT_NETWORKS:
            body = {"model": model, "network": network, "batch_size": 64}
            if model == "igkw":
                body["gpu"] = "A100"
            keys.append(body)
    return tuple(keys)


#: the 12 result-cache keys: three models x four networks
HOT_KEYS = _hot_keys()


def fresh_igkw(rng: random.Random, network: str, batch_size: int) -> Dict:
    """An igkw body whose seeded bandwidth no other request shares."""
    return {"model": "igkw", "network": network, "batch_size": batch_size,
            "gpu": rng.choice(TARGET_GPUS),
            "bandwidth": rng.uniform(*BANDWIDTH_RANGE_GBS)}


def _miss_body(rng: random.Random) -> Dict:
    return fresh_igkw(rng, rng.choice(MISS_NETWORKS),
                      rng.choice(MISS_BATCH_SIZES))


def _batch_body(rng: random.Random) -> Dict:
    items = [rng.choice(HOT_KEYS) for _ in range(BATCH_HITS)]
    items += [fresh_igkw(rng, rng.choice(HOT_NETWORKS), 64)
              for _ in range(BATCH_MISSES)]
    return {"items": items}


@dataclass
class Workload:
    """One serving traffic mix, driven by a closed loop."""

    name: str
    workers: int
    aot: bool
    path: str
    clients: int
    #: bodies posted once each during set-up, from a seeded generator
    warm: Callable[[random.Random], List[Dict]]
    #: the next measured body, drawn from one client's seeded stream
    body: Callable[[random.Random], Dict]


WORKLOADS = {
    "hot-predict": Workload(
        "hot-predict", workers=1, aot=False, path="/predict", clients=2,
        warm=lambda rng: list(HOT_KEYS),
        body=lambda rng: rng.choice(HOT_KEYS)),
    "miss-predict": Workload(
        "miss-predict", workers=1, aot=False, path="/predict", clients=1,
        warm=lambda rng: [fresh_igkw(rng, network, batch_size)
                          for network in MISS_NETWORKS
                          for batch_size in MISS_BATCH_SIZES],
        body=_miss_body),
    "sharded-batch": Workload(
        "sharded-batch", workers=2, aot=True, path="/predict_batch",
        clients=2,
        warm=lambda rng: [
            {"items": list(HOT_KEYS)},
            {"items": [fresh_igkw(rng, network, 64)
                       for network in HOT_NETWORKS
                       for _ in TARGET_GPUS]}],
        body=_batch_body),
}


# -- the server process -------------------------------------------------------

class ServerProcess:
    """``repro serve`` (optionally under the traced launcher) as a child."""

    def __init__(self, argv: List[str], env: Dict[str, str],
                 log_path: str) -> None:
        self.argv = argv
        self.env = env
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self._log = None

    def start(self, cpu_set: Optional[Set[int]] = None,
              timeout_s: float = 60.0) -> Tuple[str, int]:
        """Launch (on ``cpu_set`` only, if given) and wait for the
        listening address the CLI prints."""
        self._log = open(self.log_path, "ab")
        self.process = subprocess.Popen(
            self.argv, stdout=subprocess.PIPE, stderr=self._log,
            env=self.env, preexec_fn=None if cpu_set is None
            else lambda: os.sched_setaffinity(0, cpu_set))
        descriptor = self.process.stdout.fileno()
        deadline_s = perf_counter() + timeout_s
        seen = b""
        while True:
            remaining_s = deadline_s - perf_counter()
            if remaining_s <= 0:
                raise RuntimeError("server printed no address in time")
            ready, _, _ = select.select([descriptor], [], [], remaining_s)
            if not ready:
                continue
            chunk = os.read(descriptor, 4096)
            if not chunk:
                raise RuntimeError(
                    f"server exited during start-up: {self._log_tail()}")
            seen += chunk
            match = re.search(rb"on http://([0-9.]+):([0-9]+)", seen)
            if match:
                return match.group(1).decode(), int(match.group(2))

    def _log_tail(self) -> str:
        self._log.flush()
        with open(self.log_path, "rb") as handle:
            return handle.read()[-2000:].decode(errors="replace")

    def tree(self) -> List[int]:
        """The frontend's pid, then its forked workers'."""
        return [self.process.pid] + measure.child_pids(self.process.pid)

    def stop(self, timeout_s: float = 20.0) -> None:
        """SIGINT, as a terminal would; reap the frontend and its workers."""
        if self.process is None:
            return
        pids = self.tree()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout_s)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout_s)
        deadline_s = perf_counter() + timeout_s
        for pid in pids[1:]:
            while measure.alive(pid) and perf_counter() < deadline_s:
                time.sleep(0.02)
            if measure.alive(pid):
                os.kill(pid, signal.SIGKILL)
        self.process.stdout.close()
        self._log.close()
        self.process = None


def _serve_argv(models_dir: str, workers: int,
                trace_dir: Optional[str]) -> List[str]:
    argv = [sys.executable]
    if trace_dir is not None:
        argv += [os.path.join(os.path.dirname(__file__), "launcher.py"),
                 trace_dir]
    else:
        argv += ["-m", "repro"]
    argv += ["serve", "--models", models_dir, "--host", "127.0.0.1",
             "--port", "0"]
    if workers > 1:
        argv += ["--workers", str(workers)]
    return argv


def prepare_models(work_dir: str, aot: bool, env: Dict[str, str]) -> str:
    """Train the smoke model set; AOT-compile it for the served keys."""
    from repro.service.smoke import train_smoke_models

    models_dir = os.path.join(work_dir, "models")
    os.makedirs(models_dir)
    train_smoke_models(models_dir)
    if aot:
        argv = [sys.executable, "-m", "repro", "compile", "--models",
                models_dir, "--all", "--batch-size", "64"]
        for network in HOT_NETWORKS:
            argv += ["--network", network]
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL,
                       timeout=300)
    return models_dir


def _launch(workload: Workload, models_dir: str, env, work_dir: str,
            warm_bodies: List[Dict], trace_dir: Optional[str] = None,
            cpu_set: Optional[Set[int]] = None
            ) -> Tuple[ServerProcess, str, int, float, List[Post]]:
    """Start a server and post every warm-up body once; time both.

    With ``cpu_set``, the server's process tree and this process both
    run on those CPUs only.
    """
    server = ServerProcess(
        _serve_argv(models_dir, workload.workers, trace_dir), env,
        os.path.join(work_dir, "server.log"))
    allowed = os.sched_getaffinity(0)
    if cpu_set is not None:
        os.sched_setaffinity(0, cpu_set)
    started_s = perf_counter()
    try:
        host, port = server.start(cpu_set)
        client = httpload.Client(host, port, "127.0.0.1")
        try:
            warm_posts = [client.post(workload.path, body)
                          for body in warm_bodies]
        finally:
            client.close()
    except BaseException:
        server.stop()
        raise
    finally:
        os.sched_setaffinity(0, allowed)
    return server, host, port, perf_counter() - started_s, warm_posts


def _drive(workload: Workload, host: str, port: int, seconds: float,
           rng: random.Random) -> List[Post]:
    """Closed-loop load, one seeded body stream per client, collector off.

    Posts pile up during a window; a full collection over them would
    pause the client threads mid-post, and its cost grows with the
    window, so latency would depend on run length. The client collects
    once before the window and resumes collecting after it.
    """
    streams = [random.Random(rng.random())
               for _ in range(workload.clients)]
    gc.collect()
    gc.disable()
    try:
        return httpload.closed_loop(
            host, port, workload.path,
            lambda client: workload.body(streams[client]), seconds,
            clients=workload.clients)
    finally:
        gc.enable()


# -- output checks ------------------------------------------------------------

class Verifier:
    """Recomputes every served item in-process through the public API.

    Expected values come from an in-process ``PredictionService`` over
    the same model files, asked through ``predict_batch`` in chunks (the
    vectorised path prices thousands of fresh-bandwidth items in a few
    seconds; ``predict`` would take minutes).
    """

    def __init__(self, models_dir: str) -> None:
        from repro.service import ModelRegistry, PredictionService
        from repro.service.core import BATCH_CAP

        self.service = PredictionService(ModelRegistry(models_dir))
        self.chunk = BATCH_CAP

    def _expected(self, items: Sequence[Dict]) -> Dict[str, Dict]:
        unique = {json.dumps(item, sort_keys=True): item for item in items}
        keys = list(unique)
        expected: Dict[str, Dict] = {}
        for start in range(0, len(keys), self.chunk):
            chunk = keys[start:start + self.chunk]
            results = self.service.predict_batch(
                {"items": [unique[key] for key in chunk]})["results"]
            expected.update(zip(chunk, results))
        return expected

    def failed_items(self, posts: Sequence[Post], batch: bool
                     ) -> Tuple[int, int, List[str]]:
        """(items attempted, items failed, first few problems)."""
        served = []                       # (item, reply or None)
        problems: List[str] = []
        for post in posts:
            items = post.body["items"] if batch else [post.body]
            replies = None
            if post.status == 200 and isinstance(post.reply, dict):
                replies = post.reply.get("results") if batch \
                    else [post.reply]
            if replies is None or len(replies) != len(items):
                problems.append(f"HTTP {post.status}: {post.reply!r:.200}")
                replies = [None] * len(items)
            served.extend(zip(items, replies))
        expected = self._expected([item for item, _ in served])
        failed = 0
        for item, reply in served:
            problem = self._mismatch(
                item, reply, expected[json.dumps(item, sort_keys=True)])
            if problem is not None:
                failed += 1
                problems.append(problem)
        return len(served), failed, problems[:5]

    @staticmethod
    def _mismatch(item: Dict, reply: Optional[Dict],
                  expected: Dict) -> Optional[str]:
        if reply is None:
            return f"{item}: no reply"
        if "status" in reply or "status" in expected:
            return f"{item}: failed: {reply!r:.200} / {expected!r:.200}"
        # the contract is bit-exactness: the served number must be the
        # very float the public API computes in this process
        if reply.get("predicted_us") != expected["predicted_us"] \
                or reply.get("tier") != expected["tier"]:
            return (f"{item}: served {reply.get('predicted_us')!r} "
                    f"({reply.get('tier')}), expected "
                    f"{expected['predicted_us']!r} ({expected['tier']})")
        return None


# -- one run ------------------------------------------------------------------

def _restarts(host: str, port: int) -> int:
    status, health = httpload.get_json(host, port, "/healthz")
    if status != 200:
        raise RuntimeError(f"/healthz answered {status}")
    return int(health.get("workers", {}).get("restarts", 0))


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: str,
        env: Dict[str, str]) -> Dict:
    """One run of a serving workload -> the result document."""
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    warm_bodies = workload.warm(random.Random(rng.random()))
    drive_rng = random.Random(rng.random())
    settle_rng = random.Random(rng.random())
    time_wait_count = measure.time_wait_sockets()
    print(f"{name}: {time_wait_count} sockets in TIME_WAIT at start",
          file=sys.stderr)
    models_dir = prepare_models(work_dir, workload.aot, env)
    verifier = Verifier(models_dir)
    batch = workload.path == "/predict_batch"
    checked: List[Post] = []

    def measured_launch(trace_dir, window_s):
        server, host, port, setup_s, warm_posts = _launch(
            workload, models_dir, env, work_dir, warm_bodies, trace_dir)
        try:
            settle_posts = _drive(workload, host, port, SETTLE_S,
                                  settle_rng)
            window_start_s = perf_counter()
            posts = _drive(workload, host, port, window_s, drive_rng)
            window_end_s = perf_counter()
            restarts = _restarts(host, port)
            rss_mb = measure.peak_rss_mb(server.tree())
            frontend_pid = server.process.pid
        finally:
            server.stop()
        checked.extend(warm_posts + settle_posts + posts)
        return dict(setup_s=setup_s, posts=posts,
                    restarts=restarts, rss_mb=rss_mb,
                    window_s=(window_start_s, window_end_s),
                    pid=frontend_pid)

    if not trace:
        # set-up samples: the faster of two pinned launches, one per CPU;
        # the measured launch runs unpinned and is not one of them
        setups_s = []
        for _ in range(SETUP_PAIRS):
            pair_s = []
            for cpu_set in measure.cpu_pair():
                server, _, _, setup_s, warm_posts = _launch(
                    workload, models_dir, env, work_dir, warm_bodies,
                    cpu_set=cpu_set)
                server.stop()
                pair_s.append(setup_s)
                checked.extend(warm_posts)
            setups_s.append(min(pair_s))
        final = measured_launch(None, seconds)
        metrics = layers.end_to_end(final["posts"],
                                    measure.median(setups_s),
                                    final["rss_mb"])
        restarts = final["restarts"]
    else:
        plain = measured_launch(None, seconds / 2)
        trace_dir = os.path.join(work_dir, "spans")
        os.makedirs(trace_dir)
        traced = measured_launch(trace_dir, seconds / 2)
        metrics = layers.serving_layers(
            load_dumps(trace_dir), traced, plain, workload.workers,
            time_wait_count)
        restarts = plain["restarts"] + traced["restarts"]

    attempted, failed, problems = verifier.failed_items(checked, batch)
    for problem in problems:
        print(f"{name}: {problem}", file=sys.stderr)
    if restarts:
        print(f"{name}: {restarts} worker restarts", file=sys.stderr)
    return {"correct": failed == 0 and restarts == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}

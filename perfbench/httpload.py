"""The benchmark's own HTTP client and its closed-loop driver.

Stdlib ``http.client`` only, independent of ``repro.service.loadgen``
(program code a later change may alter). One :class:`Client` holds one
connection and keeps it open while the server allows it: when a reply
says the connection will close, ``http.client`` drops the socket and the
next post reconnects. Every client binds a source address drawn at
random from 127.0.0.0/8, so its four-tuples never meet the TIME_WAIT
sockets that earlier runs left behind on the shared loopback.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, List

perf_counter = time.perf_counter

#: a post slower than this is a failure, not a latency sample
POST_TIMEOUT_S = 30.0


@dataclass
class Post:
    """One client-observed POST, timestamps on the perf_counter clock."""

    body: object                 # the request document
    start_s: float               # send began (connect if needed)
    sent_s: float                # request written
    head_s: float                # status line and headers read
    end_s: float                 # body read
    port: int                    # client port, joins server-side spans
    connected: bool              # this post opened a new connection
    status: int                  # HTTP status, 0 when the post failed
    reply: object                # decoded JSON reply, or the error text

    @property
    def latency_ms(self) -> float:
        return (self.end_s - self.start_s) * 1e3


def random_source_host() -> str:
    """A loopback address no earlier run is likely to have used."""
    pick = random.SystemRandom()
    return (f"127.{pick.randrange(1, 255)}.{pick.randrange(0, 256)}."
            f"{pick.randrange(1, 255)}")


class Client:
    """One connection to the server under test."""

    def __init__(self, host: str, port: int, source_host: str) -> None:
        self._connection = http.client.HTTPConnection(
            host, port, timeout=POST_TIMEOUT_S,
            source_address=(source_host, 0))

    def close(self) -> None:
        self._connection.close()

    def post(self, path: str, document) -> Post:
        payload = json.dumps(document).encode()
        start_s = perf_counter()
        for attempt in range(2):
            connection = self._connection
            connected = connection.sock is None
            try:
                if connected:
                    connection.connect()
                port = connection.sock.getsockname()[1]
                connection.request(
                    "POST", path, body=payload,
                    headers={"Content-Type": "application/json"})
                sent_s = perf_counter()
                response = connection.getresponse()
                head_s = perf_counter()
                raw = response.read()
                end_s = perf_counter()
            except (http.client.HTTPException, OSError) as exc:
                connection.close()
                if attempt == 0 and not connected:
                    continue        # a kept-alive connection went stale
                now_s = perf_counter()
                return Post(document, start_s, now_s, now_s, now_s, 0, True,
                            0, f"{type(exc).__name__}: {exc}")
            break
        try:
            reply = json.loads(raw)
        except ValueError:
            reply = raw.decode(errors="replace")
        return Post(document, start_s, sent_s, head_s, end_s, port,
                    connected, response.status, reply)


def closed_loop(host: str, port: int, path: str,
                next_body: Callable[[int], object], seconds: float,
                clients: int = 1) -> List[Post]:
    """``clients`` threads, each posting its next body once a reply lands.

    ``next_body(client)`` gives client ``client``'s next body; each
    client draws from its own stream, so the inputs depend on the seed
    alone, not on timing. No post starts after ``seconds``.
    """
    source_host = random_source_host()
    lock = threading.Lock()
    posts: List[Post] = []
    deadline_s = perf_counter() + seconds

    def worker(client_index: int) -> None:
        client = Client(host, port, source_host)
        mine = []
        try:
            while perf_counter() < deadline_s:
                mine.append(client.post(path, next_body(client_index)))
        finally:
            client.close()
            with lock:
                posts.extend(mine)

    threads = [threading.Thread(target=worker, args=(index,), daemon=True)
               for index in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + POST_TIMEOUT_S + 10)
        if thread.is_alive():
            raise RuntimeError("a load thread did not finish")
    return posts


def get_json(host: str, port: int, path: str):
    """One GET on a fresh connection (health and control reads)."""
    connection = http.client.HTTPConnection(host, port,
                                            timeout=POST_TIMEOUT_S)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()

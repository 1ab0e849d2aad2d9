"""In-memory perf_counter spans around program functions, wrapped from outside.

The benchmark never edits the program: a traced run replaces public
functions and methods with thin wrappers that record one span per call
(name, start, end, time spent in nested wait spans, tag, thread id) and
keep everything in memory until :meth:`Tracer.dump` writes it out.
``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, so spans written by
the server process, its forked workers and the benchmark's own client
share one time base and can be joined by time.

Hot per-call loops (the fleet simulator's ``select``) would produce
millions of spans, so :meth:`Tracer.wrap` can fold a function into a
running ``[sum, calls]`` total instead.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter


class Tracer:
    """Spans and hot-loop totals of one process."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._local = threading.local()
        self.spans: List[tuple] = []
        self.totals: Dict[str, List[float]] = {}
        #: id() of live objects -> role name, for tagging shared classes
        self.roles: Dict[int, str] = {}
        #: id() of an in-flight object -> perf_counter mark
        self.marks: Dict[int, float] = {}

    def reset(self) -> None:
        """Forget everything (a forked child drops its parent's spans).

        The lock and the per-thread stacks are replaced, not reused: the
        fork may have copied them mid-use by a thread the child lacks.
        """
        self._mutex = threading.Lock()
        self._local = threading.local()
        self.spans = []
        self.totals = {}
        self.marks = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start_s: float, end_s: float,
               wait_s: float = 0.0, tag=None) -> None:
        span = (name, start_s, end_s, wait_s, tag, threading.get_ident())
        with self._mutex:
            self.spans.append(span)

    def total(self, name: str) -> List[float]:
        """The running ``[sum, calls]`` of a hot loop, updated in place.

        Hot totals skip the lock: they serve single-threaded loops.
        """
        with self._mutex:
            return self.totals.setdefault(name, [0.0, 0])

    def timed(self, function: Callable, name: str,
              tag: Optional[Callable] = None, hot: bool = False,
              wait: bool = False,
              only_if: Optional[Callable] = None) -> Callable:
        """``function`` wrapped in a span (or a running total if ``hot``).

        ``tag(args, kwargs, result, error)`` labels the span. A ``wait``
        span (blocking on another thread or process) adds its length to
        the enclosing span's ``wait_s``, so that span's own work is its
        length minus ``wait_s``. ``only_if(args, kwargs)`` false leaves
        that call untraced.
        """
        tracer = self
        if hot:
            total = self.total(name)

            # a lean path for per-call loops: no stack, no tag
            def traced_hot(*args, **kwargs):
                start_s = perf_counter()
                try:
                    return function(*args, **kwargs)
                finally:
                    total[0] += perf_counter() - start_s
                    total[1] += 1

            traced_hot.__wrapped__ = function
            return traced_hot

        def traced(*args, **kwargs):
            if only_if is not None and not only_if(args, kwargs):
                return function(*args, **kwargs)
            stack = tracer._stack()
            stack.append(0.0)
            result = error = None
            start_s = perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end_s = perf_counter()
                wait_s = stack.pop()
                if wait and stack:
                    stack[-1] += end_s - start_s
                label = (tag(args, kwargs, result, error)
                         if tag is not None else None)
                tracer.record(name, start_s, end_s, wait_s, label)

        traced.__name__ = getattr(function, "__name__", name)
        traced.__doc__ = getattr(function, "__doc__", None)
        traced.__wrapped__ = function
        return traced

    def wrap(self, owner, attribute: str, name: str, **options) -> None:
        """Replace ``owner.attribute`` (module or class) by a traced one.

        On a class the attribute may be inherited; the traced version is
        set on ``owner`` itself, so only that class and its subclasses
        see it.
        """
        if isinstance(owner, type):
            raw = next(vars(klass)[attribute] for klass in owner.__mro__
                       if attribute in vars(klass))
        else:
            raw = getattr(owner, attribute)
        if isinstance(raw, classmethod):
            setattr(owner, attribute,
                    classmethod(self.timed(raw.__func__, name, **options)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attribute,
                    staticmethod(self.timed(raw.__func__, name, **options)))
        else:
            setattr(owner, attribute, self.timed(raw, name, **options))

    def snapshot(self) -> Dict:
        with self._mutex:
            return {"pid": os.getpid(), "spans": list(self.spans),
                    "totals": {k: list(v) for k, v in self.totals.items()}}

    def dump(self, directory: str) -> str:
        """Write this process's spans to ``directory``; returns the path."""
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(path + ".tmp", path)
        return path


def load_dumps(directory: str) -> List[Dict]:
    """Every process dump in ``directory``."""
    documents = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as handle:
                documents.append(json.load(handle))
    return documents

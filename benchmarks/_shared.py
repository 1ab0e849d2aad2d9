"""Shared plumbing for the benchmark harness.

Each benchmark regenerates one paper artifact (table or figure): it prints
the same rows/series the paper reports and also writes them to
``benchmarks/output/<artifact>.txt`` so EXPERIMENTS.md can reference the
measured values. pytest-benchmark additionally times the representative
computation of each artifact.
"""

from __future__ import annotations

import time
from pathlib import Path

OUTPUT_DIR = Path(__file__).parent / "output"


def emit(artifact: str, text: str) -> None:
    """Print an artifact's reproduction and persist it to output/."""
    banner = f"\n===== {artifact} =====\n"
    print(banner + text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{artifact}.txt").write_text(text + "\n")


def once(benchmark, fn):
    """Time a heavyweight computation a single round and return its value.

    Heavy artifact computations (dataset builds, model training over the
    full campaign) are timed once; fast paths use plain ``benchmark``.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def best_of(fn, rounds=5):
    """Best-of-N wall time for ``fn``: (seconds, last return value)."""
    best = float("inf")
    value = None
    for _ in range(rounds):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def best_of_interleaved(fns, rounds=5):
    """Best-of-N wall time for each of ``fns``, one call of each per
    round, so a slow spell of the host lands on every side rather than
    on one: a list of (seconds, return value of the fastest call)."""
    best = [(float("inf"), None)] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            value = fn()
            elapsed = time.perf_counter() - start
            if elapsed < best[i][0]:
                best[i] = (elapsed, value)
    return best

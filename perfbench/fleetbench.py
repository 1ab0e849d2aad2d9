"""Fleet workload: ``studies.fleet_study``'s large fleet, in its own process.

1,000 GPUs in the four-pool Table-1 mix under Poisson arrivals, every
``STUDY_POLICIES`` policy over one trace of ``FLEET_REQUESTS`` requests
(one six-policy round, each run once per CPU, takes about 3 s on a
2-vCPU x86-64 VM, so a 15 s window holds several rounds). Set-up is
what a ``repro fleet`` run pays before simulating: trace generation, ``ExecTable`` pricing and
simulator construction. The IGKW predictor behind the table is trained
once per process beforehand and is not part of set-up, nor of the peak
RSS, whose high-water mark restarts after training.

``run.py`` starts this file as a child, so that nothing the benchmark
did before counts in the peak RSS:
``python3 perfbench/fleetbench.py SEED SECONDS TRACE`` prints the result
document as its last line. ``python3 perfbench/fleetbench.py --record``
prints the digest document of the default seed that
``fleet_digest.json`` records.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import sys
import time
from typing import Callable, Dict, List, Set

import measure
from spans import Tracer

perf_counter = time.perf_counter

FLEET_REQUESTS = 50_000
DEFAULT_SEED = 0
#: simulator builds before each round; setup_s is their median
BUILDS_PER_ROUND = 3
DIGEST_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fleet_digest.json")


def build_simulator(seed: int):
    """Trace + exec table + simulator: the timed set-up."""
    from repro.fleet import FleetSimulator
    from repro.studies.fleet_study import study_config, study_table

    config = study_config("large", seed=seed).with_workload(
        n_requests=FLEET_REQUESTS)
    return FleetSimulator(config, study_table(config.max_batch))


def result_digest(result) -> str:
    document = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(document.encode()).hexdigest()


def digest_document(seed: int = DEFAULT_SEED) -> Dict:
    from repro.studies.fleet_study import STUDY_POLICIES

    simulator = build_simulator(seed)
    return {"seed": seed, "n_requests": FLEET_REQUESTS,
            "policies": {policy: result_digest(simulator.run(policy))
                         for policy in STUDY_POLICIES}}


def _best_of(cpu_sets: List[Set[int]], work: Callable[[], object]) -> tuple:
    """Run ``work`` once on each CPU set in turn -> (fastest s, last result).

    With ``measure.cpu_pair()`` this is the faster of two back-to-back
    runs, one per CPU (simulator builds take 42 ms on a free vCPU of a
    shared 2-vCPU x86-64 VM and 70 ms on one a neighbour slows).
    """
    times_s = []
    result = None
    for cpu_set in cpu_sets:
        os.sched_setaffinity(0, cpu_set)
        result = None                     # one result alive at a time
        gc.collect()
        started_s = perf_counter()
        result = work()
        times_s.append(perf_counter() - started_s)
    return min(times_s), result


def _rounds(seed: int, seconds: float, cpu_sets: List[Set[int]]) -> tuple:
    """Whole six-policy rounds until ``seconds`` pass.

    Each round first builds ``BUILDS_PER_ROUND`` simulators, timing each
    (the set-up samples), and runs on the last. Spreading the builds over
    the window means a slow spell of a shared host spoils a few of them,
    not their median. Every build and policy run is timed by ``_best_of``
    over ``cpu_sets``. Returns (policy -> [(seconds, result)], builds).
    """
    from repro.studies.fleet_study import STUDY_POLICIES

    runs: Dict[str, List] = {policy: [] for policy in STUDY_POLICIES}
    builds_s: List[float] = []
    allowed = os.sched_getaffinity(0)
    deadline_s = perf_counter() + seconds
    try:
        while True:
            for _ in range(BUILDS_PER_ROUND):
                simulator = None          # one simulator alive at a time
                build_s, simulator = _best_of(
                    cpu_sets, lambda: build_simulator(seed))
                builds_s.append(build_s)
            for policy in STUDY_POLICIES:
                runs[policy].append(_best_of(
                    cpu_sets, lambda: simulator.run(policy)))
            if perf_counter() >= deadline_s:
                return runs, builds_s
    finally:
        os.sched_setaffinity(0, allowed)


def _run_metrics(runs: Dict[str, List]) -> Dict[str, float]:
    """Each policy's fastest run: their median, the slowest, and the
    requests of one round over the time of those runs.

    The fastest of a run's rounds is the one a neighbour disturbed
    least: over ten runs its spread is about half that of the median
    round, as the slowed vCPU of the shared host moves.
    """
    fastest_s = [min(elapsed_s for elapsed_s, _ in samples)
                 for samples in runs.values()]
    simulated = sum(samples[0][1].n_requests for samples in runs.values())
    return {"latency_p50_ms": measure.median(fastest_s) * 1e3,
            "latency_p99_ms": max(fastest_s) * 1e3,
            "throughput_items_s": simulated / sum(fastest_s)}


def _mismatches(runs: Dict[str, List]) -> List[str]:
    """Runs whose result differs from the first run of their policy."""
    problems = []
    for policy, samples in runs.items():
        first = result_digest(samples[0][1])
        problems += [f"{policy}: repeat {index} differs from the first run"
                     for index, (_, result) in enumerate(samples)
                     if result_digest(result) != first]
    return problems


def _install(tracer: Tracer) -> None:
    """Spans on the fleet layers; per-call loops fold into totals."""
    from repro.fleet import exec_table, policies, server, simulator
    from repro.sim.engine import EventEngine

    tracer.wrap(simulator, "generate_trace", "fleet.trace")
    tracer.wrap(exec_table.ExecTable, "from_model", "fleet.exec_table")
    tracer.wrap(simulator.FleetSimulator, "run", "fleet.run")
    tracer.wrap(server.FleetServer, "enqueue", "fleet.enqueue", hot=True)
    for policy_class in vars(policies).values():
        if isinstance(policy_class, type) and "select" in vars(policy_class):
            tracer.wrap(policy_class, "select", "fleet.select", hot=True)
    original_run = EventEngine.run
    engine_total = tracer.total("fleet.engine")
    events_total = tracer.total("fleet.events")

    def engine_run(engine, until_us=None):
        before = engine.events_processed
        started_s = perf_counter()
        try:
            return original_run(engine, until_us)
        finally:
            engine_total[0] += perf_counter() - started_s
            engine_total[1] += 1
            events_total[0] += engine.events_processed - before

    EventEngine.run = engine_run


def _layer_metrics(tracer: Tracer, traced_runs: Dict[str, List],
                   plain_runs: Dict[str, List]) -> Dict[str, float]:
    snapshot = tracer.snapshot()
    spans = snapshot["spans"]

    def seconds_of(name: str) -> List[float]:
        return [end_s - start_s for span_name, start_s, end_s, *_ in spans
                if span_name == name]

    simulated = sum(result.n_requests for samples in traced_runs.values()
                    for _, result in samples)
    batches = sum(result.batches for samples in traced_runs.values()
                  for _, result in samples)
    totals = snapshot["totals"]
    select_s, selects = totals["fleet.select"]
    enqueue_s, _ = totals["fleet.enqueue"]
    engine_s, _ = totals["fleet.engine"]
    events, _ = totals["fleet.events"]
    run_s = sum(seconds_of("fleet.run"))
    metrics = {
        "fleet.trace_s": measure.median(seconds_of("fleet.trace")),
        "fleet.exec_table_s": measure.median(seconds_of("fleet.exec_table")),
        "fleet.select_us_per_request": select_s / selects * 1e6,
        "fleet.enqueue_us_per_request": enqueue_s / simulated * 1e6,
        "fleet.engine_us_per_event": engine_s / events * 1e6,
        "fleet.events_per_request": events / simulated,
        "fleet.batches_per_request": batches / simulated,
        "unaccounted_share": 1 - (select_s + enqueue_s + engine_s) / run_s,
        "tracing.overhead_ms": (_run_metrics(traced_runs)["latency_p50_ms"]
                                - _run_metrics(plain_runs)["latency_p50_ms"]),
    }
    for policy, samples in plain_runs.items():
        metrics[f"fleet.run_s.{policy}"] = measure.median(
            [elapsed_s for elapsed_s, _ in samples])
    return metrics


def _digest_problems() -> tuple:
    """(policies checked, problems): the default seed's recorded digests."""
    with open(DIGEST_PATH) as handle:
        recorded = json.load(handle)
    if recorded["n_requests"] != FLEET_REQUESTS:
        raise RuntimeError("fleet_digest.json was recorded at another size")
    actual = digest_document(recorded["seed"])["policies"]
    return len(actual), [
        f"{policy}: digest {actual.get(policy)} != recorded {value}"
        for policy, value in sorted(recorded["policies"].items())
        if actual.get(policy) != value]


def run(seed: int, seconds: float, trace: bool) -> Dict:
    """One run of ``fleet-1k`` -> the result document."""
    from repro.studies.fleet_study import study_predictor

    study_predictor()                     # train once, outside set-up
    if not trace:
        measure.reset_peak_rss()
        runs, builds_s = _rounds(seed, seconds, measure.cpu_pair())
        metrics = dict(_run_metrics(runs),
                       setup_s=measure.median(builds_s),
                       peak_rss_mb=measure.peak_rss_mb([os.getpid()]))
        all_runs = [runs]
    else:
        # one unpinned run per sample, so span totals count each run once
        unpinned = [os.sched_getaffinity(0)]
        plain_runs, _ = _rounds(seed, seconds / 2, unpinned)
        tracer = Tracer()
        _install(tracer)
        traced_runs, _ = _rounds(seed, seconds / 2, unpinned)
        metrics = _layer_metrics(tracer, traced_runs, plain_runs)
        all_runs = [plain_runs, traced_runs]

    # output checks, after the measurements so they count in no metric
    checked, problems = _digest_problems()
    for runs in all_runs:
        problems += _mismatches(runs)
    for problem in problems:
        print(f"fleet-1k: {problem}", file=sys.stderr)
    attempted = checked + sum(len(samples) for runs in all_runs
                              for samples in runs.values())
    return {"correct": not problems, "attempted": attempted,
            "failed": len(problems), "metrics": metrics}


def main(argv: List[str]) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    if argv == ["--record"]:
        print(json.dumps(digest_document(), indent=2, sort_keys=True))
        return 0
    if len(argv) != 3:
        print("usage: fleetbench.py SEED SECONDS TRACE | --record",
              file=sys.stderr)
        return 2
    seed, seconds, trace = int(argv[0]), float(argv[1]), argv[2] == "1"
    print(json.dumps(run(seed, seconds, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

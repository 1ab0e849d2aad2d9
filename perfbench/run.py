"""The repository benchmark: ``python3 perfbench/run.py --workload NAME --seed N``.

Options: ``--trace 0|1``, and ``--seconds S``, which must equal
BENCHMARK.json's ``run_seconds``. ``--trace 0`` prints every end-to-end
metric of BENCHMARK.json; ``--trace 1`` runs the workload half untraced
and half with spans on the program's layers and prints every per-layer
metric (0 for a layer the workload does not reach). ``--workload all``
runs each workload in turn. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the exit
status is 1 when an output check failed.

Run it from the root of a checkout; it imports the program from
``src/`` and writes only under ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from typing import Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")
#: a run must end within 180 s; the fleet child is stopped short of that
FLEET_TIMEOUT_S = 170


def _load_benchmark() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run_fleet(seed: int, seconds: float, trace: bool,
               env: Dict[str, str]) -> Dict:
    """fleet-1k in a process of its own, so its peak RSS is the fleet's."""
    argv = [sys.executable, os.path.join(HERE, "fleetbench.py"),
            str(seed), str(seconds), str(int(trace))]
    completed = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                               check=True, timeout=FLEET_TIMEOUT_S)
    return json.loads(completed.stdout.decode().splitlines()[-1])


def _run_one(name: str, seed: int, seconds: float, trace: bool,
             env: Dict[str, str]) -> Dict:
    import serving

    if name == "fleet-1k":
        return _run_fleet(seed, seconds, trace, env)
    work_dir = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return serving.run(name, seed, seconds, trace, work_dir, env)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _with_units(benchmark: Dict, result: Dict, trace: bool) -> Dict:
    """Attach units; a per-layer metric the workload never reaches is 0."""
    declared = benchmark["per_layer" if trace else "end_to_end"]
    metrics = {}
    for metric in declared:
        value = result["metrics"].get(metric["name"])
        if value is None:
            if not trace:
                raise RuntimeError(f"no value for {metric['name']}")
            value = 0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return dict(result, metrics=metrics)


def main(argv=None) -> int:
    benchmark = _load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    window_s = benchmark["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    # accepted so a harness may pass the window explicitly; any other
    # length than run_seconds is refused, because percentiles and fleet
    # rounds measured over it would not compare with the baseline
    parser.add_argument("--seconds", type=int, choices=(window_s,),
                        default=window_s)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"error: no program source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    env = dict(os.environ, PYTHONUNBUFFERED="1", TMPDIR=WORK_ROOT,
               PYTHONPATH=os.pathsep.join(
                   [SOURCE] + [p for p in os.environ.get(
                       "PYTHONPATH", "").split(os.pathsep) if p]))
    os.makedirs(WORK_ROOT, exist_ok=True)
    trace = bool(args.trace)

    if args.workload != "all":
        result = _with_units(benchmark, _run_one(
            args.workload, args.seed, args.seconds, trace, env), trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = _with_units(benchmark, _run_one(
            name, args.seed, args.seconds, trace, env), trace)
        print(json.dumps(dict(result, workload=name)))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

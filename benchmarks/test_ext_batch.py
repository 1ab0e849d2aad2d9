"""Extension: vectorised ``evaluate_many`` amortises the point loop.

A compiled :class:`RetargetablePlan` already amortises the graph walk;
``evaluate_many`` additionally amortises the *per-point* Python loop by
pricing a whole (gpu, bandwidth) grid as a handful of numpy matrix
operations. This benchmark measures the payoff against the scalar
``evaluate`` loop on the paper's 13-point Figure-15/16 bandwidth sweep
and on a dense 121-point design-space grid, asserting bit-exact
agreement in both cases.
"""

from __future__ import annotations

from _shared import best_of_interleaved, emit, once

from repro.gpu import IGKW_TRAIN_GPUS, gpu
from repro.studies import context
from repro.studies.bandwidth_sweep import DEFAULT_BANDWIDTHS
from repro.zoo import resnet50

BATCH_SIZE = 64

#: dense design-space grid: 121 points over the sweep's 200-1400 GB/s
DENSE_BANDWIDTHS = tuple(200.0 + i * 10.0 for i in range(121))


def _sweep_case(plan, base, bandwidths):
    targets = [base.with_bandwidth(b) for b in bandwidths]

    def looped():
        return [plan.evaluate(gpu=target) for target in targets]

    def vectorised():
        return plan.evaluate_many(targets)

    return looped, vectorised


def test_evaluate_many_speeds_up_dense_grid(benchmark):
    model = context.trained_igkw(IGKW_TRAIN_GPUS)
    plan = model.compile(resnet50(), BATCH_SIZE)
    base = gpu("TITAN RTX")

    looped, vectorised = _sweep_case(plan, base, DENSE_BANDWIDTHS)
    plan.evaluate_many([base])                    # warm-up call
    (looped_s, looped_times), (batch_s, batch_times) = once(
        benchmark, lambda: best_of_interleaved([looped, vectorised]))
    speedup = looped_s / batch_s

    text = (f"{len(DENSE_BANDWIDTHS)}-point dense bandwidth grid, "
            f"resnet50 @ bs{BATCH_SIZE} on TITAN RTX variants "
            f"(best of 5 interleaved rounds):\n"
            f"  scalar evaluate loop: {looped_s * 1e3:8.2f} ms\n"
            f"  one evaluate_many:    {batch_s * 1e3:8.2f} ms\n"
            f"  speedup:              {speedup:8.1f}x")
    emit("ext_batch", text)

    # bit-exact: the vectorised path replays the scalar arithmetic
    assert batch_times == looped_times
    assert speedup >= 5.0


def test_evaluate_many_speeds_up_paper_sweep():
    model = context.trained_igkw(IGKW_TRAIN_GPUS)
    plan = model.compile(resnet50(), BATCH_SIZE)
    base = gpu("TITAN RTX")

    looped, vectorised = _sweep_case(plan, base, DEFAULT_BANDWIDTHS)
    plan.evaluate_many([base])                    # warm-up call
    (looped_s, looped_times), (batch_s, batch_times) = \
        best_of_interleaved([looped, vectorised])
    speedup = looped_s / batch_s

    text = (f"{len(DEFAULT_BANDWIDTHS)}-point Figure-15/16 sweep, "
            f"resnet50 @ bs{BATCH_SIZE} on TITAN RTX variants "
            f"(best of 5 interleaved rounds):\n"
            f"  scalar evaluate loop: {looped_s * 1e3:8.2f} ms\n"
            f"  one evaluate_many:    {batch_s * 1e3:8.2f} ms\n"
            f"  speedup:              {speedup:8.1f}x")
    emit("ext_batch_sweep", text)

    assert batch_times == looped_times
    # shorter grid -> less to amortise; the dense-grid test carries the
    # headline >=5x claim
    assert speedup >= 2.0

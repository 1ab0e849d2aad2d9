"""Vectorised batch evaluation: bit-exact parity with scalar evaluate.

``evaluate_many`` promises exact float equality with the scalar
reference: ``evaluate`` once per target on a single-GPU plan, and
``bind(target).evaluate()`` on a retargetable plan, whose own
``evaluate(gpu=)`` reads a one-target grid. The numpy path must replay
the scalar accumulation order, clamp, and elementwise IEEE arithmetic.
Parity is asserted for every zoo network and every model kind,
including the retargetable plan across a bandwidth grid, plus the error
and degenerate-input contracts.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import zoo
from repro.core import (
    OverheadAwareModel,
    train_inter_gpu_model,
    train_model,
)
from repro.core.intergpu import KernelTransfer
from repro.core.layerwise import LayerWiseModel
from repro.core.linreg import LinearFit
from repro.gpu import gpu

PARITY_BS = 4

#: A deliberately heterogeneous grid: an unmeasured GPU, the training
#: GPUs, and hypothetical-bandwidth variants (the Fig-15 sweep shape).
def _grid():
    base = gpu("TITAN RTX")
    return [gpu("V100"), gpu("A100"), base] + [
        base.with_bandwidth(b) for b in (200.0, 500.0, 800.0, 1100.0, 1400.0)]


@pytest.fixture(scope="module")
def single_gpu_models(small_dataset):
    return {kind: train_model(small_dataset, kind, gpu="A100",
                              batch_size=64)
            for kind in ("e2e", "lw", "kw")}


@pytest.fixture(scope="module")
def igkw_model(small_dataset):
    return train_inter_gpu_model(
        small_dataset, [gpu("A100"), gpu("TITAN RTX")], batch_size=64)


class TestZooBatchParity:
    """evaluate_many == [the scalar walk per target] — exact, all zoo
    networks: ``bind(target).evaluate()`` for the retargetable plan,
    ``evaluate()`` for single-GPU plans."""

    @pytest.mark.parametrize("name", zoo.model_names())
    def test_igkw_grid_bit_exact(self, igkw_model, name):
        plan = igkw_model.compile(zoo.build(name), PARITY_BS)
        targets = _grid()
        batch = plan.evaluate_many(targets)
        assert batch == [plan.bind(t).evaluate() for t in targets], name

    @pytest.mark.parametrize("kind", ["e2e", "lw", "kw"])
    def test_single_gpu_kinds_broadcast(self, single_gpu_models, kind):
        model = single_gpu_models[kind]
        plan = model.compile(zoo.build("resnet50"), PARITY_BS)
        targets = [None, None, gpu("A100")]
        assert plan.evaluate_many(targets) == [plan.evaluate()] * 3

    def test_overhead_plan_broadcast(self, small_split):
        train, _ = small_split
        base = train_model(train, "kw", gpu="A100", batch_size=64)
        wrapped = OverheadAwareModel(base).train(train.for_gpu("A100"))
        plan = wrapped.compile(zoo.build("resnet18"), PARITY_BS)
        assert plan.evaluate_many([None] * 4 ) == [plan.evaluate()] * 4


class TestGridSemantics:
    def test_empty_grid(self, igkw_model, single_gpu_models):
        igkw_plan = igkw_model.compile(zoo.build("alexnet"), PARITY_BS)
        assert igkw_plan.evaluate_many([]) == []
        assert igkw_plan.evaluate_grid([]) == ([], [])
        kw_plan = single_gpu_models["kw"].compile(zoo.build("alexnet"),
                                                  PARITY_BS)
        assert kw_plan.evaluate_many([]) == []

    def test_retargetable_rejects_none_targets(self, igkw_model):
        plan = igkw_model.compile(zoo.build("resnet18"), PARITY_BS)
        with pytest.raises(TypeError, match="retargetable"):
            plan.evaluate_many([gpu("V100"), None])
        with pytest.raises(TypeError, match="retargetable"):
            plan.evaluate_grid([None])

    def test_repeated_targets_are_consistent(self, igkw_model):
        plan = igkw_model.compile(zoo.build("resnet18"), PARITY_BS)
        target = gpu("V100")
        times = plan.evaluate_many([target] * 5)
        assert len(set(times)) == 1
        assert times[0] == plan.bind(target).evaluate()

    def test_lowering_is_cached(self, igkw_model):
        # the scalar walk's lists are taken from the arrays once per
        # plan, and every bound plan shares them
        plan = igkw_model.compile(zoo.build("resnet18"), PARITY_BS)
        bound = plan.bind(gpu("V100"))
        bound.evaluate()
        assert bound.arrays is plan.arrays
        assert plan.arrays.layer_terms is plan.arrays.layer_terms


class TestEvaluateGrid:
    @pytest.mark.parametrize("name", ["resnet50", "mobilenet_v2",
                                      "shufflenet_v1"])
    def test_times_and_shares_match_bound_plans(self, igkw_model, name):
        plan = igkw_model.compile(zoo.build(name), PARITY_BS)
        targets = _grid()
        times, shares = plan.evaluate_grid(targets)
        assert times == plan.evaluate_many(targets)
        for target, time_us, share in zip(targets, times, shares):
            bound = plan.bind(target)
            assert time_us == bound.evaluate(), (name, target.name)
            assert share == bound.fallback_time_share(), (name, target.name)

    def test_targets_with_different_nearest_lw(self, igkw_model):
        # one grid over targets whose nearest training GPUs differ
        # reads each LW model's cached fallback-layer times
        plan = igkw_model.compile(zoo.build("bert_small"), PARITY_BS)
        assert plan.arrays.fallback_idx.size and plan.arrays.mapped_idx.size
        targets = [gpu("V100"), gpu("A100"),
                   gpu("TITAN RTX").with_bandwidth(300.0),
                   gpu("A100").with_bandwidth(2000.0)]
        assert len({id(plan._nearest_lw(t)) for t in targets}) == 2
        times, shares = plan.evaluate_grid(targets)
        # each column equals the target's own one-target grid
        assert list(zip(times, shares)) == [
            tuple(column[0] for column in plan.evaluate_grid([t]))
            for t in targets]
        for target, time_us, share in zip(targets, times, shares):
            bound = plan.bind(target)
            assert time_us == bound.evaluate(), target.name
            assert share == bound.fallback_time_share(), target.name
            assert 0.0 < share < 1.0

    def test_shares_zero_when_fully_mapped(self, igkw_model):
        plan = igkw_model.compile(zoo.build("resnet50"), PARITY_BS)
        _, shares = plan.evaluate_grid([gpu("V100")])
        bound_share = plan.bind(gpu("V100")).fallback_time_share()
        assert shares == [bound_share]


def _fallback_plan(plan, lw_by_gpu):
    """``plan`` with every layer forced onto the layer-wise fallback."""
    arrays = plan.arrays
    return type(plan)(
        plan.model_name, plan.network_name, plan.batch_size,
        dataclasses.replace(
            arrays, stages=("layer-wise-fallback",) * len(arrays.names),
            used_kernels=(), mapped_idx=np.zeros(0, dtype=np.intp),
            term_values=np.zeros((0, 0)),
            term_kidx=np.zeros((0, 0), dtype=np.intp)),
        plan._transfers, plan._metric, lw_by_gpu, plan._train_gpus)


def _entry_points(plan, target):
    """Every way to price one target, each a zero-argument call."""
    return {"bind": lambda: plan.bind(target),
            "evaluate": lambda: plan.evaluate(gpu=target),
            "evaluate_many": lambda: plan.evaluate_many([target]),
            "evaluate_grid": lambda: plan.evaluate_grid([target])}


class TestFallbackErrorParity:
    """A missing or untrained LW fallback is one error on every path."""

    def _assert_every_entry_point_raises(self, plan, error, match):
        messages = {}
        for name, call in _entry_points(plan, gpu("V100")).items():
            with pytest.raises(error, match=match) as info:
                call()
            assert type(info.value) is error, name
            messages[name] = str(info.value)
        assert len(set(messages.values())) == 1, messages

    def test_missing_lw_raises_like_scalar(self, igkw_model):
        plan = igkw_model.compile(zoo.build("resnet18"), PARITY_BS)
        self._assert_every_entry_point_raises(
            _fallback_plan(plan, {}), KeyError, "no layer-wise fallback")

    def test_untrained_lw_raises_like_scalar(self, igkw_model):
        plan = igkw_model.compile(zoo.build("resnet18"), PARITY_BS)
        untrained = {name: LayerWiseModel() for name in plan._lw_by_gpu}
        self._assert_every_entry_point_raises(
            _fallback_plan(plan, untrained), RuntimeError,
            "LayerWiseModel is not trained")


class TestDriverMetricParity:
    """A non-finite driver metric is one ValueError on every path,
    never a silently priced number (the scalar path used to clamp NaN to
    0.0 while the grid path returned NaN). GPUSpec itself already
    rejects non-positive bandwidths."""

    @pytest.mark.parametrize("bandwidth", [float("nan"), float("inf")])
    def test_scalar_and_grid_raise_the_same_error(self, igkw_model,
                                                  bandwidth):
        plan = igkw_model.compile(zoo.build("resnet18"), PARITY_BS)
        bad = gpu("V100").with_bandwidth(bandwidth)
        errors = []
        for call in (lambda: plan.evaluate(gpu=bad),
                     lambda: plan.bind(bad),
                     lambda: plan.evaluate_many([gpu("A100"), bad]),
                     lambda: plan.evaluate_grid([bad])):
            with pytest.raises(ValueError) as info:
                call()
            errors.append(str(info.value))
        assert len(set(errors)) == 1
        assert "must be positive and finite" in errors[0]


class TestKernelTransferVectorised:
    """The plan's one synthesis pass equals the scalar line per cell."""

    def test_matches_scalar_lines(self, igkw_model, lines_plan):
        bandwidths = [200.0, 700.0, 1555.0, 2039.0]
        plan = lines_plan(igkw_model.transfers)
        slopes, intercepts = plan.kernel_lines(
            [gpu("TITAN RTX").with_bandwidth(b) for b in bandwidths])
        assert slopes.shape == (len(igkw_model.transfers) + 1,
                                len(bandwidths))
        for i, name in enumerate(plan.arrays.used_kernels):
            transfer = igkw_model.transfers[name]
            for point, bandwidth in enumerate(bandwidths):
                line = transfer.line_for_bandwidth(bandwidth)
                assert slopes[i, point] == line.slope, (name, bandwidth)
                assert intercepts[i, point] == line.intercept, (name,
                                                                bandwidth)
        # the padding row synthesises the all-zero line
        assert slopes[-1].tolist() == [0.0] * len(bandwidths)
        assert intercepts[-1].tolist() == [0.0] * len(bandwidths)

    def test_ratio_scaling_branch(self, lines_plan):
        # a rate fit that goes non-positive at low bandwidth exercises
        # the nearest-observed ratio-scaling fallback per cell, beside
        # a healthy kernel and healthy points in the same call
        transfer = KernelTransfer(
            "k", "flops",
            rate_fit=LinearFit(0.01, -5.0, 0.0, 2),
            intercept_fit=LinearFit(0.0, 1.0, 0.0, 2),
            per_gpu={"A": LinearFit(2.0, 3.0, 0.0, 4),
                     "B": LinearFit(1.0, 1.0, 0.0, 4)},
            gpu_bandwidths={"A": 600.0, "B": 1500.0})
        healthy = dataclasses.replace(transfer, kernel_name="h",
                                      rate_fit=LinearFit(0.01, 1.0, 0.0, 2))
        bandwidths = [100.0, 400.0, 500.0, 900.0, 2000.0]
        assert (transfer.rate_fit.predict(100.0) <= 0.0
                and transfer.rate_fit.predict(500.0) == 0.0
                and transfer.rate_fit.predict(2000.0) > 0.0)
        plan = lines_plan({"k": transfer, "h": healthy})
        slopes, intercepts = plan.kernel_lines(
            [gpu("TITAN RTX").with_bandwidth(b) for b in bandwidths])
        for i, kernel in enumerate((healthy, transfer)):
            for point, bandwidth in enumerate(bandwidths):
                line = kernel.line_for_bandwidth(bandwidth)
                assert slopes[i, point] == line.slope, bandwidth
                assert intercepts[i, point] == line.intercept, bandwidth

    def test_ratio_scaling_tie_takes_the_first_nearest_gpu(self, lines_plan):
        # a degenerate rate fit (every cell ratio-scaled) over three
        # training GPUs; 1050 GB/s is equidistant from B and A, 450 GB/s
        # from A and C, so the pick is min's first nearest in dict order
        tied = KernelTransfer(
            "t", "flops",
            rate_fit=LinearFit(0.0, 0.0, 0.0, 0),
            intercept_fit=LinearFit(0.0, 1.0, 0.0, 2),
            per_gpu={"B": LinearFit(1.0, 1.0, 0.0, 4),
                     "A": LinearFit(2.0, 3.0, 0.0, 4),
                     "C": LinearFit(5.0, 7.0, 0.0, 4)},
            gpu_bandwidths={"B": 1500.0, "A": 600.0, "C": 300.0})
        two_gpus = dataclasses.replace(
            tied, kernel_name="u",
            per_gpu={"A": LinearFit(2.0, 3.0, 0.0, 4),
                     "B": LinearFit(1.0, 1.0, 0.0, 4)},
            gpu_bandwidths={"A": 600.0, "B": 1500.0})
        bandwidths = [450.0, 1050.0, 100.0, 5000.0]
        plan = lines_plan({"t": tied, "u": two_gpus})
        slopes, intercepts = plan.kernel_lines(
            [gpu("TITAN RTX").with_bandwidth(b) for b in bandwidths])
        for i, name in enumerate(plan.arrays.used_kernels):
            kernel = {"t": tied, "u": two_gpus}[name]
            for point, bandwidth in enumerate(bandwidths):
                line = kernel.line_for_bandwidth(bandwidth)
                assert slopes[i, point] == line.slope, (name, bandwidth)
                assert intercepts[i, point] == line.intercept, (name,
                                                                bandwidth)
        # the tie really picks B (listed first) for t, A for u
        row = plan.arrays.used_kernels.index("t")
        assert slopes[row, 1] == 1.0 * (1500.0 / 1050.0)
        row = plan.arrays.used_kernels.index("u")
        assert slopes[row, 1] == 2.0 * (600.0 / 1050.0)

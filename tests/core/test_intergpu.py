"""Tests for the Inter-GPU Kernel-Wise model."""

import pytest

from repro.core import (
    InterGPUKernelWiseModel,
    evaluate_model,
    train_inter_gpu_model,
)
from repro.gpu import gpu


@pytest.fixture(scope="module")
def igkw(request):
    train, _ = request.getfixturevalue("small_split")
    return train_inter_gpu_model(train, [gpu("A100"), gpu("TITAN RTX")])


class TestTraining:
    def test_needs_two_gpus(self, small_split):
        train, _ = small_split
        with pytest.raises(ValueError):
            InterGPUKernelWiseModel().train(train, [gpu("A100")])

    def test_rejects_missing_gpu_data(self, small_split):
        train, _ = small_split
        with pytest.raises(ValueError):
            InterGPUKernelWiseModel().train(
                train, [gpu("A100"), gpu("V100")])

    def test_transfer_per_kernel(self, igkw, small_split):
        # IGKW trains on the full-utilisation batch size by default
        train, _ = small_split
        kernels = set(train.at_batch(512).kernel_names())
        assert set(igkw.transfers) == kernels

    def test_untrained_rejects(self):
        with pytest.raises(RuntimeError):
            InterGPUKernelWiseModel().for_gpu(gpu("V100"))


class TestPrediction:
    def test_predicts_trained_gpus_well(self, igkw, small_split,
                                        roster_index):
        _, test = small_split
        curve = evaluate_model(igkw.for_gpu(gpu("A100")), test,
                               roster_index, gpu="A100", batch_size=512)
        assert curve.mean_error < 0.30

    def test_bandwidth_ordering(self, igkw, small_roster):
        """Predicted times must order by bandwidth for similar GPUs."""
        net = small_roster[0]
        fast = igkw.for_gpu(gpu("A100")).predict_network(net, 512)
        slow = igkw.for_gpu(gpu("GTX 1080 Ti")).predict_network(net, 512)
        assert fast < slow

    def test_hypothetical_gpu_variant(self, igkw, small_roster):
        """Case-study-1 usage: bandwidth knob on a base GPU."""
        base = gpu("TITAN RTX")
        net = small_roster[0]
        narrow = igkw.for_gpu(base.with_bandwidth(300)).predict_network(
            net, 512)
        wide = igkw.for_gpu(base.with_bandwidth(1200)).predict_network(
            net, 512)
        assert wide < narrow

    def test_bandwidth_sensitivity_helper(self, igkw, small_roster):
        points = igkw.bandwidth_sensitivity(small_roster[0], 64,
                                            gpu("TITAN RTX"),
                                            [400, 800, 1200])
        assert [b for b, _ in points] == [400, 800, 1200]
        times = [t for _, t in points]
        assert times[0] > times[2]

    def test_predict_network_convenience(self, igkw, small_roster):
        direct = igkw.predict_network(small_roster[0], 64, gpu("V100"))
        via_predictor = igkw.for_gpu(gpu("V100")).predict_network(
            small_roster[0], 64)
        assert direct == pytest.approx(via_predictor)


class TestFallbacks:
    def test_extreme_low_bandwidth_stays_positive(self, igkw, small_roster):
        """Extrapolating far below the training range must not produce
        negative rates/times (the ratio-scaling fallback)."""
        tiny = gpu("TITAN RTX").with_bandwidth(10)
        predicted = igkw.for_gpu(tiny).predict_network(small_roster[0], 64)
        assert predicted > 0


class TestDegenerateBandwidths:
    """Regression: zero/negative bandwidths used to fail branch-dependently.

    The scalar path divided to ``ZeroDivisionError`` (or not, depending
    on which synthesis branch the rate fit selected) while the vectorised
    path silently produced ``inf`` columns. Both must now raise a
    ``ValueError`` up front: the scalar line for its bandwidth, a plan's
    one synthesis pass (``kernel_lines``) for the target's driver
    metric, before any cell is priced. A degenerate point must never
    contaminate the healthy columns.
    """

    @pytest.fixture()
    def transfer(self, igkw):
        return next(iter(igkw.transfers.values()))

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, -500.0])
    def test_scalar_rejects_nonpositive_bandwidth(self, transfer,
                                                  bandwidth):
        with pytest.raises(ValueError, match="must be positive"):
            transfer.line_for_bandwidth(bandwidth)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan"),
                                           float("inf")])
    def test_vector_raises_the_same_error_as_scalar(self, transfer,
                                                    lines_plan, bandwidth):
        # one degenerate metric among healthy ones: no silent inf column
        # (GPUSpec rejects a non-positive bandwidth, so a metric table
        # stands in for the driver metric)
        metric = {"V100": 800.0, "A100": bandwidth, "TITAN RTX": 1200.0}
        plan = lines_plan({transfer.kernel_name: transfer},
                          metric=lambda spec: metric[spec.name])
        with pytest.raises(ValueError,
                           match="'A100': driver metric must be positive"):
            plan.kernel_lines([gpu("V100"), gpu("A100"), gpu("TITAN RTX")])

    def test_vector_matches_scalar_on_healthy_points(self, transfer,
                                                     lines_plan):
        bandwidths = [10.0, 400.0, 800.0, 1555.0]
        slopes, intercepts = lines_plan(
            {transfer.kernel_name: transfer}).kernel_lines(
                [gpu("TITAN RTX").with_bandwidth(b) for b in bandwidths])
        for i, bandwidth in enumerate(bandwidths):
            line = transfer.line_for_bandwidth(bandwidth)
            assert slopes[0, i] == line.slope, bandwidth
            assert intercepts[0, i] == line.intercept, bandwidth

    def test_healthy_columns_are_position_independent(self, transfer,
                                                      lines_plan):
        # a point's synthesised line must not depend on its neighbours
        # in the grid (10 GB/s forces the ratio-scaling branch)
        plan = lines_plan({transfer.kernel_name: transfer})
        base = gpu("TITAN RTX")
        alone = plan.kernel_lines([base.with_bandwidth(800.0)])
        mixed = plan.kernel_lines([base.with_bandwidth(10.0),
                                   base.with_bandwidth(800.0)])
        assert mixed[0][0, 1] == alone[0][0, 0]
        assert mixed[1][0, 1] == alone[1][0, 0]

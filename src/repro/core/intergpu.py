"""Inter-GPU Kernel-Wise model (Section 5.5, Figure 14).

The KW model's per-kernel lines differ between GPUs. Observation O6 shows
the achieved work *rate* (the reciprocal of a kernel line's slope) tracks
the GPU's theoretical memory bandwidth, so a second-level regression

``rate(kernel) = a * bandwidth + b``

learned from a few diverse training GPUs predicts the kernel lines — and
hence full network times — of a GPU that was never measured. Intercepts
(the occupancy-ramp cost of small kernels) shrink with bandwidth, so they
are regressed against ``1 / bandwidth``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.classification import FEATURES, classify_kernels
from repro.core.kernelwise import (
    KernelLine,
    KernelMappingTable,
    KernelTablePredictor,
    _dataset_mode,
    lower_kernels,
)
from repro.core.layerwise import LayerWiseModel
from repro.core.linreg import LinearFit, fit_line
from repro.core.plan import RetargetablePlan
from repro.dataset.builder import PerformanceDataset
from repro.gpu.specs import GPUSpec


@dataclass(frozen=True)
class KernelTransfer:
    """Cross-GPU transfer model of one kernel's regression line.

    :meth:`line_for_bandwidth` is the scalar synthesis: ``for_gpu`` and
    ``RetargetablePlan.bind`` call it per kernel. A compiled plan's
    ``kernel_lines`` replays its healthy-rate arithmetic over the four
    coefficients of ``rate_fit`` and ``intercept_fit`` for all of its
    kernels and targets in one array pass, and hands the cells whose
    extrapolated rate is non-positive to :meth:`ratio_scaled`, the
    branch this method takes for them.
    """

    kernel_name: str
    feature: str
    rate_fit: LinearFit                 # achieved rate vs bandwidth (GB/s)
    intercept_fit: LinearFit            # intercept vs 1/bandwidth
    per_gpu: Mapping[str, LinearFit]    # the observed per-GPU lines
    gpu_bandwidths: Mapping[str, float]

    def line_for_bandwidth(self, bandwidth_gbs: float) -> LinearFit:
        """Synthesise this kernel's line for a GPU with the given bandwidth.

        ``bandwidth_gbs`` must be positive: both synthesis branches
        divide by it, so a non-positive value is rejected up front with
        one deterministic error instead of a branch-dependent
        ``ZeroDivisionError``.
        """
        if bandwidth_gbs <= 0.0:
            raise ValueError(
                f"kernel {self.kernel_name!r}: bandwidth must be "
                f"positive, got {bandwidth_gbs!r}")
        rate = self.rate_fit.predict(bandwidth_gbs)
        if rate <= 0.0:
            slope, intercept, n_samples = self.ratio_scaled(bandwidth_gbs)
            return LinearFit(slope, intercept, 0.0, n_samples)
        intercept = max(0.0, self.intercept_fit.predict(1.0 / bandwidth_gbs))
        return LinearFit(1.0 / rate, intercept, 0.0,
                         sum(fit.n_samples for fit in self.per_gpu.values()))

    def ratio_scaled(self, bandwidth_gbs: float) -> Tuple[float, float, int]:
        """``(slope, intercept, n_samples)`` where the rate fit's
        extrapolation broke down: the nearest observed GPU's line scaled
        by the bandwidth ratio. ``bandwidth_gbs`` must be positive."""
        nearest = min(self.gpu_bandwidths,
                      key=lambda g: abs(self.gpu_bandwidths[g]
                                        - bandwidth_gbs))
        observed = self.per_gpu[nearest]
        scale = self.gpu_bandwidths[nearest] / bandwidth_gbs
        return (observed.slope * scale, observed.intercept * scale,
                observed.n_samples)


#: Selectable hardware metrics the second-level regression can use.
DRIVER_METRICS = {
    "bandwidth": lambda spec: spec.bandwidth_gbs,
    "tflops": lambda spec: spec.fp32_tflops,
}


class InterGPUKernelWiseModel:
    """Trains on several GPUs; predicts kernel lines for unseen ones.

    ``driver_metric`` selects the hardware parameter the per-kernel rate
    is regressed against: ``"bandwidth"`` (the paper's choice, per O6) or
    ``"tflops"`` (the ablation alternative — worse, because achieved
    throughput tracks memory bandwidth, not peak FP32).
    """

    name = "IGKW"

    def __init__(self, driver_metric: str = "bandwidth") -> None:
        if driver_metric not in DRIVER_METRICS:
            raise ValueError(
                f"driver_metric must be one of {sorted(DRIVER_METRICS)}")
        self.driver_metric = driver_metric
        self._metric = DRIVER_METRICS[driver_metric]
        self.mode = "inference"
        self.table: Optional[KernelMappingTable] = None
        self.transfers: Dict[str, KernelTransfer] = {}
        self.train_gpus: Tuple[GPUSpec, ...] = ()
        self._lw_by_gpu: Dict[str, LayerWiseModel] = {}

    def train(self, dataset: PerformanceDataset,
              train_gpus: Sequence[GPUSpec]) -> "InterGPUKernelWiseModel":
        """Learn per-kernel transfer models from the training GPUs.

        ``dataset`` must contain measurements for every training GPU. The
        paper stresses the GPUs should be *diverse* in bandwidth for the
        bandwidth regression to extrapolate well.
        """
        if len(train_gpus) < 2:
            raise ValueError("inter-GPU training needs at least two GPUs")
        available = set(dataset.gpu_names())
        missing = [g.name for g in train_gpus if g.name not in available]
        if missing:
            raise ValueError(f"dataset lacks measurements for {missing}")

        self.train_gpus = tuple(train_gpus)
        self.mode = _dataset_mode(dataset)
        self.table = KernelMappingTable.learn(dataset)

        # classify per GPU, then choose each kernel's feature by majority
        # vote so every GPU's line is fitted against the same variable
        per_gpu_classified = {
            spec.name: classify_kernels(dataset.for_gpu(spec.name))
            for spec in train_gpus
        }
        kernel_names = sorted(
            {name for classified in per_gpu_classified.values()
             for name in classified})

        for kernel_name in kernel_names:
            votes = Counter()
            for classified in per_gpu_classified.values():
                entry = classified.get(kernel_name)
                if entry is not None:
                    votes[entry.feature] += 1
            feature = max(FEATURES, key=lambda f: (votes[f], ))
            per_gpu_fits: Dict[str, LinearFit] = {}
            bandwidths: Dict[str, float] = {}
            for spec in train_gpus:
                entry = per_gpu_classified[spec.name].get(kernel_name)
                if entry is None:
                    continue
                per_gpu_fits[spec.name] = entry.fits_by_feature[feature]
                bandwidths[spec.name] = self._metric(spec)
            usable = {g: fit for g, fit in per_gpu_fits.items()
                      if fit.slope > 0.0}
            if len(usable) >= 2:
                rate_fit = fit_line(
                    [bandwidths[g] for g in usable],
                    [usable[g].rate for g in usable])
                intercept_fit = fit_line(
                    [1.0 / bandwidths[g] for g in usable],
                    [usable[g].intercept for g in usable])
            else:
                # too few informative lines: degrade to ratio scaling by
                # marking the rate fit unusable (slope/intercept zero)
                rate_fit = LinearFit(0.0, 0.0, 0.0, len(usable))
                intercept_fit = LinearFit(0.0, 0.0, 0.0, len(usable))
            self.transfers[kernel_name] = KernelTransfer(
                kernel_name, feature, rate_fit, intercept_fit,
                per_gpu_fits, bandwidths)

        for spec in train_gpus:
            self._lw_by_gpu[spec.name] = LayerWiseModel().train(
                dataset.for_gpu(spec.name))
        return self

    def for_gpu(self, target: GPUSpec) -> KernelTablePredictor:
        """Materialise a KW-style predictor for a (possibly unseen) GPU.

        The layer-wise fallback comes from the training GPU whose
        bandwidth is closest to the target, scaled by bandwidth ratio —
        the degradation path the paper describes for unmappable layers.
        """
        if self.table is None:
            raise RuntimeError("InterGPUKernelWiseModel is not trained")
        metric_value = self._metric(target)
        lines: Dict[str, KernelLine] = {}
        for kernel_name, transfer in self.transfers.items():
            lines[kernel_name] = (
                transfer.feature,
                transfer.line_for_bandwidth(metric_value))
        fallback = self._nearest_lw(target)
        return KernelTablePredictor(self.table, lines, fallback,
                                    name=f"IGKW->{target.name}",
                                    mode=self.mode)

    def _nearest_lw(self, target: GPUSpec) -> Optional[LayerWiseModel]:
        if not self._lw_by_gpu:
            return None
        nearest = min(self.train_gpus,
                      key=lambda g: abs(g.bandwidth_gbs
                                        - target.bandwidth_gbs))
        return self._lw_by_gpu[nearest.name]

    def compile(self, network, batch_size: int) -> RetargetablePlan:
        """Lower the network once, independent of any target GPU.

        The plan resolves every layer's kernel sequence and feature
        values against this model's mapping table; ``bind(target)`` (or
        ``evaluate(gpu=...)``) then synthesises the per-kernel lines for
        a concrete GPU — matching ``for_gpu`` bit-exactly without
        re-walking the graph per target.
        """
        if self.table is None:
            raise RuntimeError("InterGPUKernelWiseModel is not trained")
        arrays = lower_kernels(
            self.table, self.mode,
            {name: transfer.feature
             for name, transfer in self.transfers.items()},
            network, batch_size)
        return RetargetablePlan(self.name, network.name, batch_size, arrays,
                                self.transfers, self._metric,
                                self._lw_by_gpu, self.train_gpus)

    def predict_network(self, network, batch_size: int,
                        target: GPUSpec) -> float:
        """Convenience: one-off prediction for a target GPU."""
        return self.for_gpu(target).predict_network(network, batch_size)

    def bandwidth_sensitivity(self, network, batch_size: int,
                              base: GPUSpec,
                              bandwidths_gbs: List[float]) -> List[Tuple[float, float]]:
        """Case-study-1 sweep: predicted time vs hypothetical bandwidth.

        Compiles the network once and evaluates every point through one
        vectorised ``evaluate_many`` call, so the sweep costs one graph
        walk and one matrix pass total.
        """
        plan = self.compile(network, batch_size)
        times = plan.evaluate_many(
            [base.with_bandwidth(bandwidth) for bandwidth in bandwidths_gbs])
        return list(zip(bandwidths_gbs, times))

"""Layer-Wise model (Section 5.3, Figure 12).

One linear regression per layer *type* (CONV, FC, BN, ...), each from the
layer's theoretical FLOPs to its measured time; a network's prediction is
the sum over its layers. This separates the per-type efficiency lines of
Figure 7 but still cannot distinguish the different convolution algorithms
hiding inside the CONV cloud — hence only a modest improvement over E2E
(28% vs 35% in the paper).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.base import PerformanceModel
from repro.core.linreg import LinearFit, fit_line
from repro.core.plan import LayerSumPlan, layer_sum_plan
from repro.dataset.builder import PerformanceDataset
from repro.nn.graph import Network


class LayerWiseModel(PerformanceModel):
    """Per-layer-kind regressions, summed over the network."""

    name = "LW"

    def __init__(self) -> None:
        self.fits: Dict[str, LinearFit] = {}
        self.fallback: Optional[LinearFit] = None

    def train(self, dataset: PerformanceDataset) -> "LayerWiseModel":
        rows = dataset.layer_rows
        if not rows:
            raise ValueError("training dataset has no layer rows")
        for kind, kind_rows in dataset.layers_by_kind().items():
            self.fits[kind] = fit_line(
                [row.flops for row in kind_rows],
                [row.duration_us for row in kind_rows])
        # layer kinds unseen in training fall back to the pooled fit
        self.fallback = fit_line([row.flops for row in rows],
                                 [row.duration_us for row in rows])
        return self

    def predict_layer(self, kind: str, flops: float) -> float:
        if self.fallback is None:
            raise RuntimeError("LayerWiseModel is not trained")
        fit = self.fits.get(kind, self.fallback)
        return fit.predict(flops)

    def compile(self, network: Network, batch_size: int) -> LayerSumPlan:
        if self.fallback is None:
            raise RuntimeError("LayerWiseModel is not trained")
        return layer_sum_plan(
            self, network.name, batch_size,
            ((float(info.flops), info.kind)
             for info in network.layer_infos(batch_size)))

    def kinds(self):
        """Layer kinds with a dedicated regression, sorted."""
        return sorted(self.fits)

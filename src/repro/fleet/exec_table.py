"""Ahead-of-time execution-time table: the fleet's routing hot path.

The fleet prices every (network, GPU type, batch size) combination
*before* the simulation starts — one ``model.compile`` per (network,
batch) and, for the retargetable inter-GPU model, a single vectorised
:meth:`~repro.core.plan.RetargetablePlan.evaluate_grid` pass across all
GPU types. During the run, batch execution times and placement
estimates are plain nested-list lookups: no model, plan, or numpy
object is touched per request, which is what lets one Python process
push millions of requests through thousands of simulated servers.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.base import PerformanceModel
from repro.core.intergpu import InterGPUKernelWiseModel
from repro.gpu.specs import GPUSpec
from repro.nn.graph import Network

#: What :meth:`ExecTable.from_model` accepts: one retargetable model, or
#: one trained single-GPU model per GPU type name.
Predictor = Union[InterGPUKernelWiseModel, Mapping[str, PerformanceModel]]


class ExecTable:
    """Predicted execution times, indexed (network, GPU type, batch)."""

    def __init__(self, networks: Sequence[str], gpu_types: Sequence[str],
                 times_us: np.ndarray) -> None:
        times_us = np.asarray(times_us, dtype=float)
        expected = (len(networks), len(gpu_types))
        if times_us.ndim != 3 or times_us.shape[:2] != expected:
            raise ValueError(
                f"times_us must be (networks, types, max_batch + 1), "
                f"got {times_us.shape} for {expected}")
        if times_us.shape[2] < 2:
            raise ValueError("need at least batch size 1")
        if not np.all(times_us[:, :, 1:] > 0):
            raise ValueError("predicted times must be positive")
        self.networks = tuple(networks)
        self.gpu_types = tuple(gpu_types)
        self.max_batch = times_us.shape[2] - 1
        self.times_us = times_us
        # the hot path indexes nested python lists: ~5x faster than
        # numpy scalar indexing, which dominates at fleet scale
        self._rows: List[List[List[float]]] = [
            [[float(v) for v in times_us[n, t]]
             for t in range(len(self.gpu_types))]
            for n in range(len(self.networks))
        ]

    def us(self, net_idx: int, type_idx: int, batch: int) -> float:
        """Predicted time of one batch, microseconds."""
        return self._rows[net_idx][type_idx][batch]

    def rows_for_type(self, type_idx: int) -> List[List[float]]:
        """Per-network batch->time lists for one GPU type (hot path)."""
        return [row[type_idx] for row in self._rows]

    def marginal_us(self) -> List[List[float]]:
        """Steady-state per-request cost estimate, ``[net][type]``.

        The full-batch amortised time ``t(B) / B`` — what one queued
        request adds to a loaded server's backlog. Placement policies
        use this for their finish-time estimates.
        """
        batch = self.max_batch
        return [[row[t][batch] / batch
                 for t in range(len(self.gpu_types))]
                for row in self._rows]

    def type_index(self, gpu_type: str) -> int:
        try:
            return self.gpu_types.index(gpu_type)
        except ValueError:
            raise KeyError(
                f"GPU type {gpu_type!r} is not in this table; "
                f"have {self.gpu_types}") from None

    def network_index(self, name: str) -> int:
        try:
            return self.networks.index(name)
        except ValueError:
            raise KeyError(
                f"network {name!r} is not in this table; "
                f"have {self.networks}") from None

    def capacity_rps(self, type_idx: int,
                     weights: Sequence[float] = ()) -> float:
        """Max sustainable request rate of one server of this type.

        Assumes full batches and the workload's network mix (uniform
        when ``weights`` is empty).
        """
        n_nets = len(self.networks)
        mix = list(weights) if weights else [1.0] * n_nets
        total = sum(mix)
        batch = self.max_batch
        mean_us = sum(w / total * self._rows[n][type_idx][batch] / batch
                      for n, w in enumerate(mix))
        return 1e6 / mean_us

    @classmethod
    def from_model(cls, model: Predictor, networks: Sequence[Network],
                   specs: Sequence[GPUSpec], max_batch: int,
                   plans: Optional[Mapping[Tuple[str, int], object]] = None
                   ) -> "ExecTable":
        """Compile and price every (network, batch) once, ahead of time.

        A retargetable (IGKW) model prices all GPU types of one
        (network, batch) in a single ``evaluate_grid`` call; a mapping
        of per-GPU models evaluates one compiled plan per type.
        ``plans`` (optional) supplies AOT-compiled plans keyed
        ``(network name, batch)`` — combinations it covers skip the
        lowering entirely (the bundle loader already verified they are
        bit-exact with fresh compilation), the rest compile as before.
        """
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if not networks or not specs:
            raise ValueError("need at least one network and one GPU spec")
        names = [spec.name for spec in specs]
        times = np.zeros((len(networks), len(specs), max_batch + 1))
        preloaded = plans or {}
        if isinstance(model, Mapping):
            missing = [name for name in names if name not in model]
            if missing:
                raise KeyError(
                    f"no predictor for GPU type(s) {missing}")
            for n, network in enumerate(networks):
                for batch in range(1, max_batch + 1):
                    for t, name in enumerate(names):
                        plan = model[name].compile(network, batch)
                        times[n, t, batch] = plan.evaluate()
        else:
            for n, network in enumerate(networks):
                for batch in range(1, max_batch + 1):
                    plan = preloaded.get((network.name, batch))
                    if plan is None:
                        plan = model.compile(network, batch)
                    if len(specs) == 1:
                        # single-type fleet: one scalar pass skips the
                        # grid machinery (bit-exact with evaluate_grid)
                        times[n, 0, batch] = plan.evaluate(gpu=specs[0])
                    else:
                        grid, _ = plan.evaluate_grid(specs)
                        times[n, :, batch] = grid
        return cls([network.name for network in networks], names, times)

"""Compiled prediction plans: one-time lowering, cheap evaluation.

The paper's pitch is that regression-based prediction is *fast*, yet a
naive ``predict_network`` re-derives everything per call: it re-walks the
layer graph, recomputes shapes/FLOPs/signatures, and redoes kernel-table
and cluster lookups — even when only the target GPU changes between
calls (the Figure-15/16 bandwidth sweeps) or when the same request
repeats (the serving hot path).

This module splits prediction into two phases, the lowering pattern of
compiler-style predictors (ANNETTE's "model lowering" step):

- ``model.compile(network, batch_size) -> PredictionPlan`` does all the
  structure-dependent work once: the graph walk, per-layer feature
  values (input N·C·H·W, FLOPs, output N·C·H·W), kernel-sequence
  resolution, and the references to the regression lines that will price
  each term;
- ``plan.evaluate()`` (or ``plan.evaluate(gpu=...)`` for the retargetable
  inter-GPU plan, whose ``evaluate_grid(gpus)`` also returns the fallback
  shares) is a tight loop over pre-resolved ``(feature_value,
  LinearFit)`` pairs.

Evaluation is **bit-exact** with the direct path: each plan preserves the
same per-layer accumulation structure (float addition is not
associative, so flattening the kernel terms into one big sum would
drift in the last ulp). Plans snapshot the fit *references* present at
compile time; retraining a model after compiling does not change an
existing plan.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.coverage import CoverageReport, LayerCoverage
from repro.core.linreg import LinearFit
from repro.gpu.specs import GPUSpec


_NEEDS_TARGET = ("this plan is retargetable; pass evaluate(gpu=<GPUSpec>) "
                 "or bind(target) first")


class PredictionPlan(abc.ABC):
    """One (network, batch size) prediction, lowered to regression terms.

    Plans are cheap to evaluate and safe to cache: they hold no live
    reference to the network object, only the numbers and fitted lines
    the prediction needs.
    """

    def __init__(self, model_name: str, network_name: str,
                 batch_size: int) -> None:
        self.model_name = model_name
        self.network_name = network_name
        self.batch_size = batch_size

    @abc.abstractmethod
    def evaluate(self, gpu: Optional[GPUSpec] = None) -> float:
        """Predicted end-to-end time in microseconds.

        Single-GPU plans ignore ``gpu`` (the target is baked in at
        training time, mirroring the registry's resolution semantics);
        the retargetable inter-GPU plan requires it.
        """

    def evaluate_many(self, gpus: Sequence[Optional[GPUSpec]]
                      ) -> List[float]:
        """Predicted times for a grid of targets, one per entry.

        Bit-compatible with calling :meth:`evaluate` per target.
        Single-GPU plans ignore the targets entirely — their answer is
        target-independent, so the grid is one scalar evaluation
        broadcast over ``len(gpus)``. The retargetable plan delegates
        to its vectorised ``evaluate_grid``.
        """
        return [self.evaluate()] * len(list(gpus))

    def coverage(self) -> Optional[CoverageReport]:
        """The lookup-stage audit, for kernel-level plans; else None."""
        return None

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.model_name!r}, "
                f"{self.network_name!r}, bs={self.batch_size})")


class FlopsPlan(PredictionPlan):
    """E2E lowering: one fit evaluated at the network's total FLOPs."""

    def __init__(self, model_name: str, network_name: str, batch_size: int,
                 total_flops: float, fit: LinearFit) -> None:
        super().__init__(model_name, network_name, batch_size)
        self.total_flops = total_flops
        self.fit = fit

    def evaluate(self, gpu: Optional[GPUSpec] = None) -> float:
        return self.fit.predict(self.total_flops)


class LayerSumPlan(PredictionPlan):
    """LW lowering: one (FLOPs, fit) term per layer, summed in graph order."""

    def __init__(self, model_name: str, network_name: str, batch_size: int,
                 terms: Sequence[Tuple[float, LinearFit]]) -> None:
        super().__init__(model_name, network_name, batch_size)
        self.terms = tuple(terms)

    def evaluate(self, gpu: Optional[GPUSpec] = None) -> float:
        return sum(fit.predict(flops) for flops, fit in self.terms)


def layer_sum_plan(lw, network_name: str, batch_size: int,
                   layers) -> LayerSumPlan:
    """``lw``'s plan over ``(flops, kind)`` layers given in graph order.

    The one layer-wise lowering: each layer is priced by its kind's fit,
    or by the model's catch-all fit for kinds it never trained on.
    ``LayerWiseModel.compile`` and the kernel-level plans' ``lw_plan``
    all build their plans here.
    """
    return LayerSumPlan(lw.name, network_name, batch_size,
                        tuple((flops, lw.fits.get(kind, lw.fallback))
                              for flops, kind in layers))


@dataclass(frozen=True, eq=False)
class KernelArrays:
    """The one lowered form of a kernel-level plan: layer columns, term
    matrices.

    ``kernelwise.lower_kernels`` builds it for KW and IGKW alike; only
    the lines that price the terms differ. A :class:`KernelPlan` holds
    one fitted line per used kernel, and a :class:`RetargetablePlan`
    synthesises them per target GPU.

    Layer ``p`` is ``names[p]``, ``kinds[p]``, ``signatures[p]``,
    ``stages[p]`` and ``flops[p]``. Row ``r`` of the term matrices holds
    the kernel terms of layer ``mapped_idx[r]``, left-aligned and
    zero-padded to ``(n_mapped, max_terms)``: ``term_values`` are the
    feature values and ``term_kidx`` index ``used_kernels``. Padding
    slots index one past the last kernel, a dummy whose synthesised
    line is identically zero, so a padded term adds exactly ``0.0`` to
    its layer's clamped sum. Every layer outside ``mapped_idx`` is on
    the layer-wise fallback, priced at its FLOPs.
    """

    names: Tuple[str, ...]
    kinds: Tuple[str, ...]
    signatures: Tuple[str, ...]
    stages: Tuple[str, ...]
    flops: np.ndarray               # (n_layers,)
    used_kernels: Tuple[str, ...]   # sorted kernel names
    mapped_idx: np.ndarray          # (n_mapped,) layer positions
    term_values: np.ndarray         # (n_mapped, max_terms)
    term_kidx: np.ndarray           # (n_mapped, max_terms)

    def __post_init__(self) -> None:
        n_layers = len(self.names)
        if {len(self.kinds), len(self.signatures), len(self.stages),
                len(self.flops)} != {n_layers}:
            raise ValueError("layer columns differ in length")
        if self.term_values.shape != self.term_kidx.shape \
                or self.term_kidx.shape[0] != len(self.mapped_idx):
            raise ValueError("term matrices do not match the mapped layers")
        if self.mapped_idx.size and not (
                0 <= self.mapped_idx.min() <= self.mapped_idx.max()
                < n_layers):
            raise ValueError("mapped layer positions out of range")
        if self.term_kidx.size and not (
                0 <= self.term_kidx.min() <= self.term_kidx.max()
                <= len(self.used_kernels)):
            raise ValueError("kernel indices exceed the plan's kernel set")

    @classmethod
    def from_columns(cls, names: Sequence[str], kinds: Sequence[str],
                     signatures: Sequence[str], stages: Sequence[str],
                     flops: Sequence[float],
                     mapped_terms: Mapping[int, Sequence[Tuple[str, float]]]
                     ) -> "KernelArrays":
        """Columns plus ``{position: ((kernel, value), ...)}`` for the
        mapped layers, in ascending position order."""
        used = tuple(sorted({name for terms in mapped_terms.values()
                             for name, _ in terms}))
        kernel_index = {name: i for i, name in enumerate(used)}
        width = max(map(len, mapped_terms.values()), default=0)
        values = np.zeros((len(mapped_terms), width))
        kidx = np.full((len(mapped_terms), width), len(used), dtype=np.intp)
        for row, terms in enumerate(mapped_terms.values()):
            for col, (name, value) in enumerate(terms):
                values[row, col] = value
                kidx[row, col] = kernel_index[name]
        return cls(tuple(names), tuple(kinds), tuple(signatures),
                   tuple(stages), np.asarray(flops, dtype=np.float64), used,
                   np.asarray(list(mapped_terms), dtype=np.intp), values,
                   kidx)

    @cached_property
    def fallback_idx(self) -> np.ndarray:
        """Positions of the layers on the layer-wise fallback, ascending."""
        mapped = np.zeros(len(self.names), dtype=bool)
        mapped[self.mapped_idx] = True
        return np.flatnonzero(~mapped)

    @cached_property
    def layer_terms(self) -> Tuple[Optional[Tuple[Tuple[int, float], ...]],
                                   ...]:
        """Per layer, its ``(kernel index, value)`` terms, padding
        dropped; None for a layer on the layer-wise fallback. Taken from
        the matrices once for :class:`KernelPlan`'s scalar walk."""
        real = self.term_kidx != len(self.used_kernels)
        pairs = list(zip(self.term_kidx[real].tolist(),
                         self.term_values[real].tolist()))
        terms: List[Optional[Tuple[Tuple[int, float], ...]]] = (
            [None] * len(self.names))
        start = 0
        # terms are left-aligned, so each row's real slots are its first
        for position, end in zip(self.mapped_idx.tolist(),
                                 np.cumsum(real.sum(axis=1)).tolist()):
            terms[position] = tuple(pairs[start:end])
            start = end
        return tuple(terms)


def require_fallback(arrays: KernelArrays, lw) -> None:
    """Raise unless ``lw`` can price the arrays' fallback layers.

    A plan with an unmapped layer cannot be priced without a trained
    layer-wise model. KW's compile, ``RetargetablePlan.bind`` and the
    grid path all raise the same error from here, naming the first
    unmapped layer.
    """
    if not arrays.fallback_idx.size:
        return
    first = int(arrays.fallback_idx[0])
    if lw is None:
        raise KeyError(
            f"no kernel mapping for layer {arrays.names[first]!r} "
            f"({arrays.kinds[first]}) and no layer-wise fallback "
            "configured")
    if lw.fallback is None:
        raise RuntimeError("LayerWiseModel is not trained")


def _fallback_times(arrays: KernelArrays, lw) -> List[float]:
    """The fallback layers' times under ``lw``, in layer order, each
    ``lw.predict_layer`` at the layer's kind and FLOPs: the fit that
    prices that layer in ``lw``'s own plan of the network."""
    flops = arrays.flops.tolist()
    return [lw.predict_layer(arrays.kinds[position], flops[position])
            for position in arrays.fallback_idx.tolist()]


class KernelPlan(PredictionPlan):
    """Fully-resolved kernel-level plan (KW, or IGKW bound to one GPU).

    The plan is its :class:`KernelArrays` plus ``lines``, one fitted
    line per used kernel in ``arrays.used_kernels`` order. ``lw_model``
    is the layer-wise fallback that was attached at compile time: it
    prices the fallback layers, and :meth:`lw_plan` is its plan of the
    same network, which serving tiers degrade to. A plan with a
    fallback layer and no trained ``lw_model`` is refused here, with
    :func:`require_fallback`'s error.
    """

    def __init__(self, model_name: str, network_name: str, batch_size: int,
                 arrays: KernelArrays, lines: Sequence[LinearFit],
                 lw_model=None,
                 lw_plan: Optional[LayerSumPlan] = None) -> None:
        super().__init__(model_name, network_name, batch_size)
        require_fallback(arrays, lw_model)
        self.arrays = arrays
        self.lines = tuple(lines)
        self.lw_model = lw_model
        self._lw_plan = lw_plan
        self._priced: Optional[Tuple[float, float, List[float]]] = None
        self._coverage: Optional[CoverageReport] = None

    def lw_plan(self) -> Optional[LayerSumPlan]:
        """``lw_model``'s plan of this network; None without one.

        Lowered by :func:`layer_sum_plan` from the plan's own kinds and
        FLOPs on first use and cached, so no network is built. A plan
        bound from a :class:`RetargetablePlan` arrives with that plan's
        cached one.
        """
        if self._lw_plan is None and self.lw_model is not None:
            if self.lw_model.fallback is None:
                raise RuntimeError("LayerWiseModel is not trained")
            self._lw_plan = layer_sum_plan(
                self.lw_model, self.network_name, self.batch_size,
                zip(self.arrays.flops.tolist(), self.arrays.kinds))
        return self._lw_plan

    def _priced_layers(self) -> Tuple[float, float, List[float]]:
        """``(total, fallback total, per-layer times)``, cached, which
        ``evaluate``, ``fallback_time_share`` and ``coverage`` read.

        A mapped layer's time is its kernel terms ``slope * value +
        intercept``, each clamped at ``0.0`` (a kernel never takes
        negative time, however far its line extrapolates), added left
        to right; a fallback layer's time is its ``lw_model``
        prediction. The totals add the layer times in graph order, the
        float sequence ``RetargetablePlan.evaluate_grid`` replays column
        by column.
        """
        if self._priced is None:
            arrays = self.arrays
            slopes = [fit.slope for fit in self.lines]
            intercepts = [fit.intercept for fit in self.lines]
            fallback_times = iter(_fallback_times(arrays, self.lw_model)
                                  if arrays.fallback_idx.size else ())
            times = []
            total = 0.0
            fallback = 0.0
            for terms in arrays.layer_terms:
                if terms is None:
                    time_us = next(fallback_times)
                    fallback += time_us
                else:
                    time_us = 0.0
                    for k, value in terms:
                        # max(0.0, t) exactly, NaN and -0.0 included
                        t = slopes[k] * value + intercepts[k]
                        time_us += t if t > 0.0 else 0.0
                total += time_us
                times.append(time_us)
            self._priced = (total, fallback, times)
        return self._priced

    def evaluate(self, gpu: Optional[GPUSpec] = None) -> float:
        return self._priced_layers()[0]

    def coverage(self) -> CoverageReport:
        if self._coverage is None:
            arrays = self.arrays
            self._coverage = CoverageReport(
                self.network_name, self.batch_size,
                tuple(LayerCoverage(*record) for record in zip(
                    arrays.names, arrays.kinds, arrays.signatures,
                    arrays.stages, self._priced_layers()[2])))
        return self._coverage

    def fallback_time_share(self) -> float:
        """Fraction of the predicted time on the layer-wise fallback."""
        total, fallback, _ = self._priced_layers()
        return 0.0 if total == 0 else fallback / total


class OverheadPlan(PredictionPlan):
    """Kernel plan plus the learned launch-overhead correction."""

    def __init__(self, model_name: str, network_name: str, batch_size: int,
                 base_plan: KernelPlan, launches: int,
                 overhead_fit: LinearFit) -> None:
        super().__init__(model_name, network_name, batch_size)
        self.base_plan = base_plan
        self.launches = launches
        self.overhead_fit = overhead_fit

    def evaluate(self, gpu: Optional[GPUSpec] = None) -> float:
        kernel_sum = self.base_plan.evaluate()
        hidden = max(0.0, self.overhead_fit.predict(self.launches))
        # same sanity floor as the direct path: the GPU-busy time is at
        # least the work content, the dominant share of the sum
        return max(0.25 * kernel_sum, kernel_sum - hidden)

    def coverage(self) -> CoverageReport:
        return self.base_plan.coverage()


def _sum_rows(rows: np.ndarray) -> np.ndarray:
    """Column sums of ``rows``, added row by row from ``0.0``.

    That is the scalar outer loop's order: ``np.add.accumulate`` is
    sequential where ``np.sum`` is pairwise, and the leading ``0.0 +``
    turns a sum of ``-0.0`` rows into the scalar loop's ``+0.0``.
    """
    if not len(rows):
        return np.zeros(rows.shape[1])
    return 0.0 + np.add.accumulate(rows, axis=0)[-1]


class RetargetablePlan(PredictionPlan):
    """IGKW lowering: structure resolved once, lines synthesised per GPU.

    The plan is its :class:`KernelArrays`. Everything that does not
    depend on the target is taken once per plan: the four second-level
    coefficient columns of the used kernels and, per layer-wise model,
    the fallback layers' times. :meth:`kernel_lines` then synthesises
    every used kernel's line for every target in one array pass, which
    ``evaluate_grid`` prices over the term matrices; every number the
    plan answers, ``evaluate(gpu=)`` included, is a column of that grid.
    ``bind(target)`` returns a :class:`KernelPlan` over the same arrays
    with lines from the scalar ``KernelTransfer.line_for_bandwidth``,
    the independent reference the grid is checked against;
    ``lw_plan(target)`` is the target's layer-wise fallback plan for
    degraded answers.
    ``evaluate`` and ``coverage`` require a target GPU.
    """

    def __init__(self, model_name: str, network_name: str, batch_size: int,
                 arrays: KernelArrays,
                 transfers: Mapping[str, "KernelTransfer"],  # noqa: F821
                 metric, lw_by_gpu: Mapping[str, "LayerWiseModel"],  # noqa: F821
                 train_gpus: Sequence[GPUSpec]) -> None:
        super().__init__(model_name, network_name, batch_size)
        self.arrays = arrays
        self._transfers = transfers
        self._metric = metric
        self._lw_by_gpu = lw_by_gpu
        self._train_gpus = tuple(train_gpus)
        self._coefficient_columns: Optional[Tuple[np.ndarray, ...]] = None
        # id(lw) -> that LayerWiseModel's plan of this network
        self._lw_plans: Dict[int, LayerSumPlan] = {}
        # id(lw) -> the fallback layers' times under it, in layer order
        self._fallback_times: Dict[int, List[float]] = {}

    def _coefficients(self) -> Tuple[np.ndarray, ...]:
        """``(rate slope, rate intercept, intercept slope, intercept
        intercept)`` of the used kernels' transfers, one
        ``(n_kernels + 1, 1)`` column each, gathered once per plan.

        The last row is the dummy kernel the padding slots index: an
        infinite rate and no intercept, so its synthesised line is
        identically zero.
        """
        if self._coefficient_columns is None:
            rows = []
            for name in self.arrays.used_kernels:
                transfer = self._transfers[name]
                rows.append((transfer.rate_fit.slope,
                             transfer.rate_fit.intercept,
                             transfer.intercept_fit.slope,
                             transfer.intercept_fit.intercept))
            rows.append((0.0, math.inf, 0.0, 0.0))
            self._coefficient_columns = tuple(
                column[:, None] for column in np.array(rows).T)
        return self._coefficient_columns

    def kernel_lines(self, targets: Sequence[GPUSpec]
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Every used kernel's synthesised line for every target.

        ``(slopes, intercepts)``, each ``(n_kernels + 1, n_targets)``:
        row ``i`` is ``arrays.used_kernels[i]``, the last row the
        all-zero dummy. One array pass replays
        ``KernelTransfer.line_for_bandwidth`` op for op — ``rate = a*m
        + b``, ``slope = 1/rate``, ``intercept = max(0, c*(1/m) + d)``
        in IEEE doubles — and only cells whose rate is non-positive go
        to the scalar ratio-scaling branch,
        ``KernelTransfer.ratio_scaled``, so every cell equals the scalar
        line. Each target's metric is checked by :meth:`_metric_value`
        first.
        """
        metric_values = np.array([self._metric_value(target)
                                  for target in targets])
        rate_slope, rate_icpt, icpt_slope, icpt_icpt = self._coefficients()
        rates = rate_slope * metric_values + rate_icpt
        intercepts = np.maximum(
            0.0, icpt_slope * (1.0 / metric_values) + icpt_icpt)
        broken = rates <= 0.0
        if not broken.any():
            return 1.0 / rates, intercepts
        slopes = 1.0 / np.where(broken, 1.0, rates)
        rows, points = np.nonzero(broken)
        used = self.arrays.used_kernels
        metrics = metric_values.tolist()
        scaled = [self._transfers[used[i]].ratio_scaled(metrics[point])
                  for i, point in zip(rows.tolist(), points.tolist())]
        slopes[rows, points] = [line[0] for line in scaled]
        intercepts[rows, points] = [line[1] for line in scaled]
        return slopes, intercepts

    def bind(self, target: GPUSpec) -> KernelPlan:
        """Resolve this plan's lines for one target GPU.

        Each used kernel's line comes from the scalar
        ``KernelTransfer.line_for_bandwidth``, not from
        :meth:`kernel_lines`, so a bound plan is the independent
        reference for ``evaluate_grid``.
        """
        metric_value = self._metric_value(target)
        lw = self._target_lw(target)
        lines = [self._transfers[name].line_for_bandwidth(metric_value)
                 for name in self.arrays.used_kernels]
        return KernelPlan(f"{self.model_name}->{target.name}",
                          self.network_name, self.batch_size, self.arrays,
                          lines, lw, self._lw_plan_of(lw))

    def lw_plan(self, target: GPUSpec) -> Optional[LayerSumPlan]:
        """The layer-wise plan of the target's nearest LW model.

        Lowered by :func:`layer_sum_plan` from the plan's own kinds and
        FLOPs, as ``LayerWiseModel.compile`` lowers the network, so its
        ``evaluate()`` is bit-exact with that model's
        ``predict_network``. Built on first use and cached per LW model
        (at most one per training GPU); None without a trained LW model.
        """
        return self._lw_plan_of(self._target_lw(target))

    def _lw_plan_of(self, lw) -> Optional[LayerSumPlan]:
        if lw is None or lw.fallback is None:
            return None
        plan = self._lw_plans.get(id(lw))
        if plan is None:
            plan = layer_sum_plan(
                lw, self.network_name, self.batch_size,
                zip(self.arrays.flops.tolist(), self.arrays.kinds))
            self._lw_plans[id(lw)] = plan
        return plan

    def _fallback_times_of(self, lw) -> List[float]:
        """The fallback layers' times under ``lw``, in layer order.

        They depend on nothing but the LW model, so they are computed
        once per LW model.
        """
        if not self.arrays.fallback_idx.size:
            return []
        times = self._fallback_times.get(id(lw))
        if times is None:
            times = _fallback_times(self.arrays, lw)
            self._fallback_times[id(lw)] = times
        return times

    def _metric_value(self, target: GPUSpec) -> float:
        """The target's driver metric, checked once per target.

        Line synthesis divides by it, so a non-positive or non-finite
        value is rejected here: ``bind`` and the grid path raise the
        same ``ValueError`` for it instead of pricing a silently wrong
        time.
        """
        value = self._metric(target)
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(
                f"target {target.name!r}: driver metric must be positive "
                f"and finite, got {value!r}")
        return value

    def _nearest_lw(self, target: GPUSpec):
        # same selection as InterGPUKernelWiseModel._nearest_lw: the
        # training GPU closest in bandwidth supplies the LW fallback
        if not self._lw_by_gpu:
            return None
        nearest = min(self._train_gpus,
                      key=lambda g: abs(g.bandwidth_gbs
                                        - target.bandwidth_gbs))
        return self._lw_by_gpu[nearest.name]

    def _target_lw(self, target: GPUSpec):
        """The target's layer-wise fallback, checked by
        :func:`require_fallback` before any pricing."""
        lw = self._nearest_lw(target)
        require_fallback(self.arrays, lw)
        return lw

    def evaluate(self, gpu: Optional[GPUSpec] = None) -> float:
        return self.evaluate_grid([gpu])[0][0]

    def _layer_times(self, targets: Sequence[GPUSpec]) -> np.ndarray:
        """Per-layer, per-target times as an (n_layers, n_targets) array.

        Every elementwise operation mirrors the scalar path —
        ``slope * value + intercept`` in IEEE doubles, the same
        ``max(0.0, ·)`` clamp, the same left-to-right term accumulation —
        so column ``p`` is bit-exact with the per-layer times of
        ``bind(targets[p])``.
        """
        arrays = self.arrays
        n_points = len(targets)
        slopes, intercepts = self.kernel_lines(targets)
        # every term of every mapped layer at once, (n_mapped, width,
        # n_points), then each layer's terms added left to right
        terms = slopes[arrays.term_kidx]
        terms *= arrays.term_values[:, :, None]
        terms += intercepts[arrays.term_kidx]
        np.maximum(0.0, terms, out=terms)
        acc = np.zeros((arrays.mapped_idx.size, n_points))
        for col in range(terms.shape[1]):
            acc += terms[:, col]
        if not arrays.fallback_idx.size:
            return acc          # every layer is mapped, in layer order

        layer_times = np.zeros((len(arrays.names), n_points))
        layer_times[arrays.mapped_idx] = acc
        by_lw: Dict[int, Tuple[object, List[int]]] = {}
        for point, target in enumerate(targets):
            lw = self._target_lw(target)
            by_lw.setdefault(id(lw), (lw, []))[1].append(point)
        for lw, points in by_lw.values():
            layer_times[arrays.fallback_idx[:, None], points] = np.array(
                self._fallback_times_of(lw))[:, None]
        return layer_times

    def evaluate_many(self, gpus: Sequence[Optional[GPUSpec]]
                      ) -> List[float]:
        return self.evaluate_grid(gpus)[0]

    def evaluate_grid(self, gpus: Sequence[GPUSpec]
                      ) -> Tuple[List[float], List[float]]:
        """Times plus fallback time shares, one of each per target.

        The second list matches
        ``bind(gpu).fallback_time_share()`` for each target — the share
        of the predicted time resting on the layer-wise degradation
        path — computed from the same per-layer time matrix, so a
        serving fast path can apply its coverage threshold without
        binding a KernelPlan per point.
        """
        targets = list(gpus)
        if not targets:
            return [], []
        if any(target is None for target in targets):
            raise TypeError(_NEEDS_TARGET)
        layer_times = self._layer_times(targets)
        total = _sum_rows(layer_times)
        fallback_total = _sum_rows(layer_times[self.arrays.fallback_idx])
        shares = np.where(total == 0, 0.0,
                          fallback_total / np.where(total == 0, 1.0, total))
        return total.tolist(), shares.tolist()

    def coverage(self, gpu: Optional[GPUSpec] = None
                 ) -> Optional[CoverageReport]:
        if gpu is None:
            raise TypeError(
                "this plan is retargetable; pass coverage(gpu=<GPUSpec>) "
                "or bind(target) first")
        return self.bind(gpu).coverage()

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
  inter-GPU plan, whose ``price(gpu)`` also returns the fallback share)
  is a tight loop over pre-resolved ``(feature_value, LinearFit)``
  pairs.

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
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.coverage import FALLBACK, CoverageReport, LayerCoverage
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


@dataclass(frozen=True)
class PlanLayer:
    """One layer of a fully-resolved kernel-level plan.

    Either ``terms`` prices the layer's mapped kernels, or ``fallback``
    holds the (FLOPs, layer-wise fit) pair of the degradation path.
    """

    layer_name: str
    kind: str
    signature: str
    stage: str               # coverage stage: EXACT / NEAR / FALLBACK
    terms: Tuple[Tuple[float, LinearFit], ...]
    fallback: Optional[Tuple[float, LinearFit]] = None

    def evaluate(self) -> float:
        if self.fallback is not None:
            flops, fit = self.fallback
            return fit.predict(flops)
        total = 0.0
        for value, fit in self.terms:
            # same clamp as the direct path: a kernel never takes
            # negative time, however far the fit extrapolates
            total += max(0.0, fit.predict(value))
        return total


class KernelPlan(PredictionPlan):
    """Fully-resolved kernel-level plan (KW, or IGKW bound to one GPU).

    ``lw_model`` is the layer-wise fallback that was attached at compile
    time; :meth:`lw_plan` is its plan of the same network, which serving
    tiers degrade to.
    """

    def __init__(self, model_name: str, network_name: str, batch_size: int,
                 layers: Sequence[PlanLayer], lw_model=None,
                 lw_plan: Optional[LayerSumPlan] = None) -> None:
        super().__init__(model_name, network_name, batch_size)
        self.layers = tuple(layers)
        self.lw_model = lw_model
        self._lw_plan = lw_plan
        self._coverage: Optional[CoverageReport] = None
        self._stage_sums: Optional[Tuple[float, float]] = None

    def lw_plan(self) -> Optional[LayerSumPlan]:
        """``lw_model``'s plan of this network; None without one.

        Lowered on first use and cached, so a plan that degrades builds
        its network once, not once per answer. A plan bound from a
        :class:`RetargetablePlan` arrives with that plan's cached one;
        any other is lowered from the zoo network of its name.
        """
        if self._lw_plan is None and self.lw_model is not None:
            from repro import zoo
            self._lw_plan = self.lw_model.compile(
                zoo.build(self.network_name), self.batch_size)
        return self._lw_plan

    def evaluate(self, gpu: Optional[GPUSpec] = None) -> float:
        return self._sums()[0]

    def _sums(self) -> Tuple[float, float]:
        """Cached (total, fallback-stage total), one pass in layer order.

        Accumulates the exact float sequences that ``coverage()``'s
        ``total_us`` and fallback ``time_share`` numerator would sum, so
        the serving tier reads totals off this cache instead of building
        a :class:`CoverageReport` of per-layer records per first request.
        """
        if self._stage_sums is None:
            total = 0.0
            fallback = 0.0
            for layer in self.layers:
                time_us = layer.evaluate()
                total += time_us
                if layer.stage == FALLBACK:
                    fallback += time_us
            self._stage_sums = (total, fallback)
        return self._stage_sums

    def coverage(self) -> CoverageReport:
        if self._coverage is None:
            self._coverage = CoverageReport(
                self.network_name, self.batch_size,
                tuple(LayerCoverage(layer.layer_name, layer.kind,
                                    layer.signature, layer.stage,
                                    layer.evaluate())
                      for layer in self.layers))
        return self._coverage

    def fallback_time_share(self) -> float:
        """Fraction of the predicted time on the layer-wise fallback."""
        total, fallback = self._sums()
        if total == 0:
            return 0.0
        return fallback / total


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


@dataclass(frozen=True)
class _BatchLowering:
    """Array form of a retargetable plan, built once per plan.

    The mapped layers' kernel terms are flattened into left-aligned,
    zero-padded ``(n_mapped, max_terms)`` matrices; padding slots index a
    dummy kernel row whose synthesised line is identically zero, so a
    padded term contributes exactly ``0.0`` to its layer's clamped sum
    and the per-layer accumulation order matches the scalar loop.
    """

    n_layers: int
    mapped_idx: np.ndarray      # (n_mapped,) original layer positions
    term_values: np.ndarray     # (n_mapped, max_terms) feature values
    term_kidx: np.ndarray       # (n_mapped, max_terms) -> _used_kernels,
    #                             padding points at the dummy row
    fallback_idx: np.ndarray    # (n_fallback,) original layer positions
    fallback_kinds: Tuple[str, ...]
    fallback_flops: np.ndarray  # (n_fallback,)


@dataclass(frozen=True)
class RetargetableLayer:
    """One layer of an inter-GPU plan, before a target GPU is chosen.

    ``kernel_terms`` pairs each resolved kernel name with the layer's
    feature value for that kernel's driver; ``None`` marks the
    layer-wise degradation path (priced against ``flops`` at bind time).
    """

    layer_name: str
    kind: str
    signature: str
    stage: str
    kernel_terms: Optional[Tuple[Tuple[str, float], ...]]
    flops: float


class RetargetablePlan(PredictionPlan):
    """IGKW lowering: structure resolved once, lines synthesised per GPU.

    Pricing one target synthesises each distinct kernel's regression
    line for it (exactly once per kernel name, matching ``for_gpu``).
    ``price(target)`` then sums the plan in one pass; ``lw_plan(target)``
    is the target's layer-wise fallback plan for degraded answers;
    ``bind(target)`` returns a fully-resolved :class:`KernelPlan`;
    ``evaluate_grid`` prices many targets at once. ``evaluate`` and
    ``coverage`` require a target GPU.
    """

    def __init__(self, model_name: str, network_name: str, batch_size: int,
                 layers: Sequence[RetargetableLayer],
                 transfers: Mapping[str, "KernelTransfer"],  # noqa: F821
                 metric, lw_by_gpu: Mapping[str, "LayerWiseModel"],  # noqa: F821
                 train_gpus: Sequence[GPUSpec]) -> None:
        super().__init__(model_name, network_name, batch_size)
        self.layers = tuple(layers)
        self._transfers = transfers
        self._metric = metric
        self._lw_by_gpu = lw_by_gpu
        self._train_gpus = tuple(train_gpus)
        self._used_kernels = tuple(sorted(
            {name for layer in self.layers if layer.kernel_terms
             for name, _ in layer.kernel_terms}))
        # the layer an untrained or missing LW fallback is reported on
        self._first_fallback = next(
            (layer for layer in self.layers if layer.kernel_terms is None),
            None)
        self._batch: Optional[_BatchLowering] = None
        self._fallback_fits: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        # id(lw) -> that LayerWiseModel's plan of this network
        self._lw_plans: Dict[int, LayerSumPlan] = {}

    @property
    def used_kernels(self) -> Tuple[str, ...]:
        """Every kernel name the mapped layers reference, sorted."""
        return self._used_kernels

    def lowering(self) -> _BatchLowering:
        """The plan's batch lowering, built on first use and cached."""
        return self._lowering()

    def install_lowering(self, lowering: _BatchLowering) -> None:
        """Adopt a precomputed batch lowering (the AOT store's matrices).

        The optimizer persists lowered matrices so a cold service loads
        them instead of rebuilding; the shape checks reject a lowering
        that does not belong to this plan's structure.
        """
        if lowering.n_layers != len(self.layers):
            raise ValueError(
                f"lowering covers {lowering.n_layers} layers; this plan "
                f"has {len(self.layers)}")
        if lowering.term_kidx.size and \
                int(lowering.term_kidx.max()) > len(self._used_kernels):
            raise ValueError(
                "lowering kernel indices exceed this plan's kernel set")
        self._batch = lowering

    def install_fallback_lines(self, lw, slopes: np.ndarray,
                               intercepts: np.ndarray) -> None:
        """Pre-warm one LayerWiseModel's fallback line vectors.

        The optimizer fuses every plan's per-model fallback lines into
        one shared matrix and installs each plan's gathered rows here;
        the values are identical to what :meth:`_fallback_line_arrays`
        would build, so evaluation stays bit-exact.
        """
        expected = (len(self._lowering().fallback_kinds),)
        if slopes.shape != expected or intercepts.shape != expected:
            raise ValueError(
                f"fallback line vectors must have shape {expected}, got "
                f"{slopes.shape} and {intercepts.shape}")
        self._fallback_fits[id(lw)] = (slopes, intercepts)

    def bind(self, target: GPUSpec) -> KernelPlan:
        """Resolve this plan's lines for one target GPU."""
        lines, lw = self._resolve(target)
        layers = []
        for layer in self.layers:
            if layer.kernel_terms is None:
                fit = lw.fits.get(layer.kind, lw.fallback)
                layers.append(PlanLayer(
                    layer.layer_name, layer.kind, layer.signature,
                    layer.stage, (), (layer.flops, fit)))
            else:
                terms = tuple((value, lines[name])
                              for name, value in layer.kernel_terms)
                layers.append(PlanLayer(
                    layer.layer_name, layer.kind, layer.signature,
                    layer.stage, terms))
        return KernelPlan(f"{self.model_name}->{target.name}",
                          self.network_name, self.batch_size,
                          tuple(layers), lw, self._lw_plan_of(lw))

    def lw_plan(self, target: GPUSpec) -> Optional[LayerSumPlan]:
        """The layer-wise plan of the target's nearest LW model.

        Lowered by :func:`layer_sum_plan` from the plan's own layers and
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
                ((layer.flops, layer.kind) for layer in self.layers))
            self._lw_plans[id(lw)] = plan
        return plan

    def price(self, target: GPUSpec) -> Tuple[float, float]:
        """(predicted us, fallback time share) for one target, one pass.

        The scalar twin of :meth:`evaluate_grid`: no KernelPlan is
        materialised, yet the accumulation is ``bind(target)``'s —
        per-layer clamped kernel sums, then an outer sum over layers in
        graph order — so the pair is bit-exact with
        ``bind(target).evaluate()`` and
        ``bind(target).fallback_time_share()``.
        """
        lines, lw = self._resolve(target)
        total = 0.0
        fallback = 0.0
        for layer in self.layers:
            if layer.kernel_terms is None:
                time_us = lw.fits.get(layer.kind, lw.fallback).predict(
                    layer.flops)
                fallback += time_us
            else:
                time_us = 0.0
                for name, value in layer.kernel_terms:
                    # the PlanLayer clamp: a kernel never takes negative
                    # time, however far the synthesised line extrapolates
                    time_us += max(0.0, lines[name].predict(value))
            total += time_us
        return total, (0.0 if total == 0 else fallback / total)

    def _resolve(self, target: GPUSpec
                 ) -> Tuple[Dict[str, LinearFit], object]:
        """The target's synthesised lines and its checked LW fallback."""
        metric_value = self._metric_value(target)
        lines = {name: self._transfers[name].line_for_bandwidth(metric_value)
                 for name in self._used_kernels}
        return lines, self._target_lw(target)

    def _metric_value(self, target: GPUSpec) -> float:
        """The target's driver metric, checked once per target.

        Line synthesis divides by it, so a non-positive or non-finite
        value is rejected here: ``bind``, ``price`` and the grid path
        raise the same ``ValueError`` for it instead of pricing a
        silently wrong time.
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
        """The target's layer-wise fallback, checked before any pricing.

        A plan with an unmapped layer cannot be priced without a trained
        fallback, so ``bind``, ``price`` and the grid path all raise the
        same error from here.
        """
        lw = self._nearest_lw(target)
        layer = self._first_fallback
        if layer is not None:
            if lw is None:
                raise KeyError(
                    f"no kernel mapping for layer {layer.layer_name!r} "
                    f"({layer.kind}) and no layer-wise fallback configured")
            if lw.fallback is None:
                raise RuntimeError("LayerWiseModel is not trained")
        return lw

    def evaluate(self, gpu: Optional[GPUSpec] = None) -> float:
        if gpu is None:
            raise TypeError(_NEEDS_TARGET)
        return self.price(gpu)[0]

    def _lowering(self) -> _BatchLowering:
        if self._batch is None:
            kernel_index = {name: i
                            for i, name in enumerate(self._used_kernels)}
            dummy = len(self._used_kernels)
            mapped_idx: List[int] = []
            mapped_terms: List[Tuple[Tuple[str, float], ...]] = []
            fallback_idx: List[int] = []
            fallback_kinds: List[str] = []
            fallback_flops: List[float] = []
            for position, layer in enumerate(self.layers):
                if layer.kernel_terms is None:
                    fallback_idx.append(position)
                    fallback_kinds.append(layer.kind)
                    fallback_flops.append(layer.flops)
                else:
                    mapped_idx.append(position)
                    mapped_terms.append(layer.kernel_terms)
            max_terms = max((len(t) for t in mapped_terms), default=0)
            values = np.zeros((len(mapped_terms), max_terms))
            kidx = np.full((len(mapped_terms), max_terms), dummy,
                           dtype=np.intp)
            for row, terms in enumerate(mapped_terms):
                for col, (name, value) in enumerate(terms):
                    values[row, col] = value
                    kidx[row, col] = kernel_index[name]
            self._batch = _BatchLowering(
                len(self.layers), np.asarray(mapped_idx, dtype=np.intp),
                values, kidx, np.asarray(fallback_idx, dtype=np.intp),
                tuple(fallback_kinds), np.asarray(fallback_flops))
        return self._batch

    def _fallback_line_arrays(
            self, lw, lowering: _BatchLowering
    ) -> Tuple[np.ndarray, np.ndarray]:
        # per-kind (slope, intercept) vectors over the fallback layers,
        # cached per LayerWiseModel object (one per training GPU)
        cached = self._fallback_fits.get(id(lw))
        if cached is None:
            fits = [lw.fits.get(kind, lw.fallback)
                    for kind in lowering.fallback_kinds]
            cached = (np.asarray([fit.slope for fit in fits]),
                      np.asarray([fit.intercept for fit in fits]))
            self._fallback_fits[id(lw)] = cached
        return cached

    def _layer_times(self, targets: Sequence[GPUSpec]) -> np.ndarray:
        """Per-layer, per-target times as an (n_layers, n_targets) array.

        Every elementwise operation mirrors the scalar path —
        ``slope * value + intercept`` in IEEE doubles, the same
        ``max(0.0, ·)`` clamp, the same left-to-right term accumulation —
        so column ``p`` is bit-exact with ``evaluate(gpu=targets[p])``.
        """
        lowering = self._lowering()
        n_points = len(targets)
        metric_values = np.asarray(
            [self._metric_value(target) for target in targets])

        # one synthesised line per (kernel, target), plus the dummy
        # all-zero row the padding slots index
        slopes = np.zeros((len(self._used_kernels) + 1, n_points))
        intercepts = np.zeros((len(self._used_kernels) + 1, n_points))
        for i, name in enumerate(self._used_kernels):
            slopes[i], intercepts[i] = (
                self._transfers[name].lines_for_bandwidths(metric_values))

        layer_times = np.zeros((lowering.n_layers, n_points))
        if lowering.mapped_idx.size:
            acc = np.zeros((lowering.mapped_idx.size, n_points))
            for col in range(lowering.term_values.shape[1]):
                kidx = lowering.term_kidx[:, col]
                term = np.maximum(
                    0.0, slopes[kidx]
                    * lowering.term_values[:, col][:, None]
                    + intercepts[kidx])
                acc = acc + term
            layer_times[lowering.mapped_idx] = acc

        if lowering.fallback_idx.size:
            by_lw: Dict[int, Tuple[object, List[int]]] = {}
            for point, target in enumerate(targets):
                lw = self._target_lw(target)
                by_lw.setdefault(id(lw), (lw, []))[1].append(point)
            for lw, points in by_lw.values():
                fit_slopes, fit_intercepts = (
                    self._fallback_line_arrays(lw, lowering))
                times = (fit_slopes * lowering.fallback_flops
                         + fit_intercepts)
                layer_times[lowering.fallback_idx[:, None],
                            np.asarray(points, dtype=np.intp)] = (
                    times[:, None])
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
        lowering = self._lowering()
        total = np.zeros(len(targets))
        for row in layer_times:
            total = total + row
        fallback_total = np.zeros(len(targets))
        for position in lowering.fallback_idx:
            fallback_total = fallback_total + layer_times[position]
        shares = np.where(total == 0, 0.0,
                          fallback_total / np.where(total == 0, 1.0, total))
        return ([float(t) for t in total], [float(s) for s in shares])

    def coverage(self, gpu: Optional[GPUSpec] = None
                 ) -> Optional[CoverageReport]:
        if gpu is None:
            raise TypeError(
                "this plan is retargetable; pass coverage(gpu=<GPUSpec>) "
                "or bind(target) first")
        return self.bind(gpu).coverage()

"""Kernel-Wise model (Section 5.4, Figure 13).

Three learned ingredients:

1. a **kernel mapping table** from layer dispatch signatures to the kernel
   sequence the library launches (the left-most block of Figure 10);
2. a **classification** of every kernel as input-, operation-, or
   output-driven (observation O5), picking the feature whose linear fit
   has the highest R²;
3. **clustered linear regressions** — kernels with similar lines share one
   model (182 kernels → ~83 models on the paper's A100).

Prediction walks a new network's layers, looks up each layer's kernels,
evaluates each kernel's cluster line at the layer's feature value, and
sums. Layers whose signature was never observed fall back through
progressively coarser table lookups and ultimately to a Layer-Wise
prediction, the fallback the paper recommends.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.base import PerformanceModel
from repro.core.classification import classify_kernels
from repro.core.clustering import cluster_index, cluster_kernels
from repro.core.coverage import EXACT, FALLBACK, NEAR
from repro.core.layerwise import LayerWiseModel
from repro.core.linreg import LinearFit
from repro.core.plan import KernelArrays, KernelPlan
from repro.core.signature import layer_signature, signature_kind
from repro.dataset.builder import PerformanceDataset
from repro.nn.graph import LayerInfo, Network

#: (feature column, fitted line) for one kernel.
KernelLine = Tuple[str, LinearFit]


def feature_value(info: LayerInfo, feature: str) -> float:
    """A layer's value of one classification feature column."""
    if feature == "flops":
        return float(info.flops)
    if feature == "input_nchw":
        return float(info.input_nchw)
    if feature == "output_nchw":
        return float(info.output_nchw)
    raise KeyError(f"unknown feature column {feature!r}")


def _dataset_mode(dataset: PerformanceDataset) -> str:
    """The single execution mode of a training dataset's rows."""
    modes = {row.mode for row in dataset.network_rows}
    if not modes:
        return "inference"
    if len(modes) > 1:
        raise ValueError(
            f"dataset mixes execution modes {sorted(modes)}; train one "
            "model per mode")
    return modes.pop()


def _split_bucket(signature: str) -> Tuple[str, Optional[int]]:
    """Split a signature into (base, size bucket) when it ends in ``|oN``."""
    head, sep, tail = signature.rpartition("|o")
    if sep and tail.isdigit():
        return head, int(tail)
    return signature, None


def _split_dispatch(signature: str) -> Tuple[str, Optional[int],
                                             Optional[int]]:
    """Split a signature into (dispatch base, reduction bucket, size bucket).

    Bucketed signatures end in ``|rM|oN`` (CONV, FC) or ``|oN``
    (attention); the dispatch base is everything before the buckets and
    identifies the algorithm-selection branch.
    """
    base, out_bucket = _split_bucket(signature)
    head, sep, tail = base.rpartition("|r")
    if sep and tail.isdigit():
        return head, int(tail), out_bucket
    return base, None, out_bucket


class KernelMappingTable:
    """Learned map: layer dispatch signature → launched kernel sequence."""

    def __init__(self, table: Mapping[str, Tuple[str, ...]],
                 kind_majority: Mapping[str, Tuple[str, ...]]) -> None:
        self._table = dict(table)
        self._kind_majority = dict(kind_majority)
        # base-prefix indices for the staged nearest-bucket fallback
        self._by_base: Dict[str, List[Tuple[int, str]]] = {}
        self._by_dispatch: Dict[str, List[Tuple[int, int, str]]] = {}
        for signature in self._table:
            base, out_bucket = _split_bucket(signature)
            if out_bucket is not None:
                self._by_base.setdefault(base, []).append(
                    (out_bucket, signature))
            dispatch, reduction, out_bucket = _split_dispatch(signature)
            if reduction is not None and out_bucket is not None:
                self._by_dispatch.setdefault(dispatch, []).append(
                    (reduction, out_bucket, signature))
        for entries in self._by_base.values():
            entries.sort()
        for entries in self._by_dispatch.values():
            entries.sort()

    @classmethod
    def learn(cls, dataset: PerformanceDataset) -> "KernelMappingTable":
        """Learn the table from profiled kernel rows.

        Rows are grouped per (network, GPU, batch size, layer) execution —
        kernel rows preserve launch order — and the majority sequence wins
        for each signature.
        """
        sequences: Dict[str, Counter] = {}
        current_key = None
        current_signature = None
        current_sequence: List[str] = []

        def flush() -> None:
            if current_key is not None:
                counter = sequences.setdefault(current_signature, Counter())
                counter[tuple(current_sequence)] += 1

        for row in dataset.kernel_rows:
            key = (row.network, row.gpu, row.batch_size, row.layer_name)
            if key != current_key:
                flush()
                current_key = key
                current_signature = row.signature
                current_sequence = []
            current_sequence.append(row.kernel_name)
        flush()

        if not sequences:
            raise ValueError("dataset has no kernel rows to learn from")

        table = {signature: counter.most_common(1)[0][0]
                 for signature, counter in sequences.items()}

        # layers that launch no kernels (views, inference-time no-ops)
        # appear only in the layer table; learn their empty sequences so
        # prediction does not fall back to a layer-level estimate
        # zero-kernel layers record a literal 0.0 duration: exact sentinel
        for row in dataset.layer_rows:
            if row.signature not in table \
                    and row.duration_us == 0.0:  # repro: noqa[FP001]
                table[row.signature] = ()

        kind_counters: Dict[str, Counter] = {}
        for signature, sequence in table.items():
            kind = signature_kind(signature)
            kind_counters.setdefault(kind, Counter())[sequence] += 1
        kind_majority = {kind: counter.most_common(1)[0][0]
                         for kind, counter in kind_counters.items()}
        return cls(table, kind_majority)

    def lookup(self, signature: str) -> Optional[Tuple[str, ...]]:
        """Kernel sequence for a signature, with staged fallback.

        1. exact signature match;
        2. same full base, nearest output-size bucket;
        3. same dispatch base (algorithm branch), nearest
           (reduction, output-size) bucket pair;
        4. for signatures with no size buckets (element-wise layers),
           the majority sequence of the layer kind;
        5. ``None`` — the caller degrades to a layer-level prediction
           (the paper's recommended fallback). CONV/FC signatures never
           use stage 4: a majority conv sequence from a different
           algorithm branch would be badly wrong.
        """
        exact = self._table.get(signature)
        if exact is not None:
            return exact
        base, out_bucket = _split_bucket(signature)
        if out_bucket is not None and base in self._by_base:
            entries = self._by_base[base]
            nearest = min(entries, key=lambda e: abs(e[0] - out_bucket))
            return self._table[nearest[1]]
        dispatch, reduction, out_bucket = _split_dispatch(signature)
        if reduction is not None and dispatch in self._by_dispatch:
            entries = self._by_dispatch[dispatch]
            nearest = min(entries,
                          key=lambda e: (abs(e[0] - reduction)
                                         + abs(e[1] - out_bucket)))
            return self._table[nearest[2]]
        if out_bucket is None and reduction is None:
            return self._kind_majority.get(signature_kind(signature))
        return None

    def exact_sequence(self, signature: str) -> Optional[Tuple[str, ...]]:
        """The sequence for an exact table hit only (no staged fallback)."""
        return self._table.get(signature)

    def __len__(self) -> int:
        return len(self._table)

    def signatures(self) -> List[str]:
        return sorted(self._table)


def lower_kernels(table: KernelMappingTable, mode: str,
                  features: Mapping[str, str], network: Network,
                  batch_size: int) -> KernelArrays:
    """The one kernel-level lowering, shared by KW and IGKW.

    Walks the network once: each layer's dispatch signature, its
    ``table.lookup`` kernel sequence, its coverage stage and, for a
    mapped layer, each kernel's feature value. ``features`` maps every
    kernel that has a line to its feature column; a layer whose
    sequence is unknown or names a kernel outside ``features`` is on
    the layer-wise fallback. The lines that price the terms are not
    resolved here.
    """
    training = mode == "training"
    infos = network.layer_infos(batch_size)
    signatures = [layer_signature(info, training=training)
                  for info in infos]
    stages = []
    mapped_terms: Dict[int, Tuple[Tuple[str, float], ...]] = {}
    for position, (info, signature) in enumerate(zip(infos, signatures)):
        kernels = table.lookup(signature)
        if kernels is None or any(name not in features
                                  for name in kernels):
            stages.append(FALLBACK)
            continue
        stages.append(EXACT if table.exact_sequence(signature) == kernels
                      else NEAR)
        mapped_terms[position] = tuple(
            (name, feature_value(info, features[name])) for name in kernels)
    return KernelArrays.from_columns(
        [info.name for info in infos], [info.kind for info in infos],
        signatures, stages, [float(info.flops) for info in infos],
        mapped_terms)


class KernelTablePredictor(PerformanceModel):
    """Shared prediction engine for KW and IGKW models.

    Holds a mapping table, one (feature, line) per kernel, and an optional
    layer-wise fallback for unmappable layers.
    """

    name = "KW"

    def __init__(self, table: KernelMappingTable,
                 lines: Mapping[str, KernelLine],
                 lw_fallback: Optional[LayerWiseModel] = None,
                 name: str = "KW", mode: str = "inference") -> None:
        if mode not in ("inference", "training"):
            raise ValueError(f"mode must be inference/training, got {mode!r}")
        self.table = table
        self.lines = dict(lines)
        self.lw_fallback = lw_fallback
        self.name = name
        self.mode = mode

    def predict_layer(self, info: LayerInfo) -> float:
        """Predicted time of one layer: sum over its mapped kernels."""
        signature = layer_signature(info,
                                    training=(self.mode == "training"))
        kernels = self.table.lookup(signature)
        if kernels is None or any(name not in self.lines for name in kernels):
            if self.lw_fallback is not None:
                return self.lw_fallback.predict_layer(info.kind,
                                                      float(info.flops))
            raise KeyError(
                f"no kernel mapping for layer {info.name!r} "
                f"({info.kind}) and no layer-wise fallback configured")
        total = 0.0
        for kernel_name in kernels:
            feature, fit = self.lines[kernel_name]
            # clamp: extrapolating an affine fit far below its training
            # range can dip negative; a kernel never takes negative time
            total += max(0.0,
                         fit.predict(feature_value(info, feature)))
        return total

    def compile(self, network: Network, batch_size: int) -> KernelPlan:
        """Lower the network through :func:`lower_kernels` and attach
        each used kernel's fitted line.

        Evaluating the plan reproduces ``predict_network`` bit-exactly.
        A layer with no kernel mapping and no trained layer-wise
        fallback raises here, at compile time.
        """
        arrays = lower_kernels(
            self.table, self.mode,
            {name: line[0] for name, line in self.lines.items()},
            network, batch_size)
        return KernelPlan(self.name, network.name, batch_size, arrays,
                          [self.lines[name][1]
                           for name in arrays.used_kernels],
                          lw_model=self.lw_fallback)

    def count_kernels(self, network: Network, batch_size: int) -> int:
        """How many kernel launches the mapping table predicts.

        Layers that fall back to the layer-wise estimate contribute one
        notional launch. Used by overhead-aware wrappers that model
        per-launch CPU costs.
        """
        total = 0
        training = self.mode == "training"
        for info in network.layer_infos(batch_size):
            kernels = self.table.lookup(layer_signature(info,
                                                        training=training))
            if kernels is None:
                total += 1
            else:
                total += len(kernels)
        return total


class KernelWiseModel(KernelTablePredictor):
    """The trained single-GPU KW model."""

    def __init__(self, slope_tolerance: float = 0.40) -> None:
        # populated by train(); the base class is initialised there
        self.slope_tolerance = slope_tolerance
        self.classified = {}
        self.clusters = []
        super().__init__(KernelMappingTable({}, {}), {}, None, name="KW")
        self._trained = False

    def train(self, dataset: PerformanceDataset) -> "KernelWiseModel":
        """Train on a single-GPU dataset (pre-filter with ``for_gpu``)."""
        if len(dataset.gpu_names()) > 1:
            raise ValueError(
                "KernelWiseModel trains on one GPU at a time; "
                f"got {dataset.gpu_names()} (use InterGPUKernelWiseModel "
                "for cross-GPU prediction)")
        self.mode = _dataset_mode(dataset)
        self.table = KernelMappingTable.learn(dataset)
        self.classified = classify_kernels(dataset)
        self.clusters = cluster_kernels(self.classified,
                                        dataset.kernels_by_name(),
                                        self.slope_tolerance)
        by_kernel = cluster_index(self.clusters)
        self.lines = {
            kernel_name: (cluster.feature, cluster.fit)
            for kernel_name, cluster in by_kernel.items()
        }
        self.lw_fallback = LayerWiseModel().train(dataset)
        self._trained = True
        return self

    @property
    def n_kernels(self) -> int:
        """Distinct kernels recorded (the paper reports 182 on A100)."""
        return len(self.classified)

    @property
    def n_models(self) -> int:
        """Regression models after clustering (the paper reports 83)."""
        return len(self.clusters)

    def kernel_report(self) -> str:
        """Human-readable dump of the learned kernel models.

        One block per cluster: member kernels, the driver feature, and
        the shared regression line — the distributable "parameters" of
        Figure 10 in inspectable form.
        """
        if not self._trained:
            raise RuntimeError("KernelWiseModel is not trained")
        lines = [f"KW model ({self.mode}): {self.n_kernels} kernels in "
                 f"{self.n_models} regression models, "
                 f"{len(self.table)} mapping-table entries"]
        ordered = sorted(self.clusters,
                         key=lambda c: (c.feature, -c.fit.slope))
        for cluster in ordered:
            lines.append(f"  [{cluster.feature}] {cluster.fit}")
            for name in cluster.kernel_names:
                samples = self.classified[name].fit.n_samples
                lines.append(f"      {name} ({samples} samples)")
        return "\n".join(lines)

    def compile(self, network: Network, batch_size: int) -> KernelPlan:
        if not self._trained:
            raise RuntimeError("KernelWiseModel is not trained")
        return super().compile(network, batch_size)

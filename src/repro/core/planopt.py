"""Plan IR optimizer and the ahead-of-time compile store.

The compile/evaluate split (:mod:`repro.core.plan`) pays the lowering
cost — the graph walk, signature resolution, kernel-table lookups —
once per process. This module moves that cost out of the process
entirely:

- **Interning** across compiled plans: identical regression lines
  referenced by different plans are stored once in a :class:`LinePool`
  (the zoo's networks share most of their kernels, so the pool is far
  smaller than the sum of line references).
- **An AOT compile store**: :func:`compile_store` lowers every
  (model, network, batch) combination once and persists the plans —
  a kernel-level plan as its :class:`~repro.core.plan.KernelArrays`,
  layer columns and term matrices — next to the model files, in a
  ``plans/`` section the serving registry's top-level glob never sees.
  A cold service, the calibration promote path, and the fleet's
  :meth:`~repro.fleet.exec_table.ExecTable.from_model` then *load*
  plans instead of re-lowering.

Every AOT-loaded plan is **bit-exact** with the freshly compiled one:
interning only shares value-identical floats, plan documents
round-trip through JSON's shortest-round-trip float repr, and the
accumulation order is untouched. ``repro check``
enforces this as contract CT011.

Bundles carry a provenance stamp — the model file's registry freshness
stamp plus a SHA-256 digest of its bytes. A bundle whose digest no
longer matches the model file is stale (the model was retrained or
promoted underneath it) and is refused at load time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.e2e import EndToEndModel
from repro.core.intergpu import InterGPUKernelWiseModel
from repro.core.kernelwise import KernelTablePredictor
from repro.core.layerwise import LayerWiseModel
from repro.core.linreg import LinearFit
from repro.core.persistence import (
    FORMAT_VERSION,
    load_document,
    load_model,
    save_document,
)
from repro.core.plan import (
    FlopsPlan,
    KernelArrays,
    KernelPlan,
    LayerSumPlan,
    PredictionPlan,
    RetargetablePlan,
)

#: Schema version of the plan-bundle payload (independent of the model
#: document's ``format_version``, which bundles also carry).
PLAN_FORMAT_VERSION = 3

#: Subdirectory of a model directory holding the AOT plan bundles. The
#: serving registry globs ``*.json`` at the top level only, so bundles
#: are invisible to it as models.
PLANS_DIR = "plans"


class BundleMismatch(ValueError):
    """A plan bundle that does not belong to the model file next to it."""


# -- line pool ----------------------------------------------------------------

class LinePool:
    """Interns :class:`~repro.core.linreg.LinearFit` values by identity
    of their numbers: every distinct (slope, intercept, r2, n) tuple is
    stored once, however many layers across however many networks
    reference it.
    """

    def __init__(self) -> None:
        self._fits: List[LinearFit] = []
        self._index: Dict[Tuple[float, float, float, int], int] = {}
        self.references = 0

    def intern(self, fit: LinearFit) -> int:
        """The pool index of this fit's value, adding it if new."""
        self.references += 1
        key = (fit.slope, fit.intercept, fit.r2, fit.n_samples)
        found = self._index.get(key)
        if found is None:
            found = len(self._fits)
            self._fits.append(fit)
            self._index[key] = found
        return found

    def fit_at(self, index: int) -> LinearFit:
        return self._fits[index]

    def __len__(self) -> int:
        return len(self._fits)

    def to_list(self) -> List[Dict]:
        return [{"slope": fit.slope, "intercept": fit.intercept,
                 "r2": fit.r2, "n": fit.n_samples} for fit in self._fits]

    @classmethod
    def from_list(cls, data: Sequence[Dict]) -> "LinePool":
        pool = cls()
        for entry in data:
            pool._fits.append(LinearFit(entry["slope"], entry["intercept"],
                                        entry["r2"], entry["n"]))
        return pool


# -- plan (de)serialisation ---------------------------------------------------

def _arrays_to_dict(arrays: KernelArrays) -> Dict:
    """The arrays as JSON columns; the term matrices are stored without
    their padding, as each mapped row's term count plus its terms."""
    real = arrays.term_kidx != len(arrays.used_kernels)
    return {"names": list(arrays.names), "kinds": list(arrays.kinds),
            "signatures": list(arrays.signatures),
            "stages": list(arrays.stages),
            "flops": arrays.flops.tolist(),
            "used_kernels": list(arrays.used_kernels),
            "mapped_idx": arrays.mapped_idx.tolist(),
            "term_counts": real.sum(axis=1).tolist(),
            "term_values": arrays.term_values[real].tolist(),
            "term_kidx": arrays.term_kidx[real].tolist()}


def _arrays_from_dict(data: Dict) -> KernelArrays:
    counts = np.asarray(data["term_counts"], dtype=np.intp)
    # terms are left-aligned: a row's first ``count`` slots are real
    real = np.arange(counts.max(initial=0)) < counts[:, None]
    term_values = np.zeros(real.shape)
    term_values[real] = data["term_values"]
    term_kidx = np.full(real.shape, len(data["used_kernels"]),
                        dtype=np.intp)
    term_kidx[real] = data["term_kidx"]
    return KernelArrays(
        tuple(data["names"]), tuple(data["kinds"]),
        tuple(data["signatures"]), tuple(data["stages"]),
        np.asarray(data["flops"], dtype=np.float64),
        tuple(data["used_kernels"]),
        np.asarray(data["mapped_idx"], dtype=np.intp),
        term_values, term_kidx)


def plan_to_dict(plan: PredictionPlan, pool: LinePool) -> Dict:
    """Lower one compiled plan to a JSON-compatible document.

    Every regression line is stored as an index into ``pool``. A
    kernel-level plan is stored as its :class:`KernelArrays`: each
    layer's name, kind, signature, stage and FLOPs once, and the kernel
    terms once, in the term matrices. A KW plan adds ``lines``, one
    pool index per used kernel; a retargetable plan's lines are
    synthesised from its model on load.
    """
    base = {"network": plan.network_name, "batch_size": plan.batch_size,
            "model_name": plan.model_name}
    if isinstance(plan, FlopsPlan):
        return dict(base, type="flops", total_flops=plan.total_flops,
                    fit=pool.intern(plan.fit))
    if isinstance(plan, LayerSumPlan):
        return dict(base, type="layersum",
                    terms=[[flops, pool.intern(fit)]
                           for flops, fit in plan.terms])
    if isinstance(plan, RetargetablePlan):
        return dict(base, type="retargetable",
                    **_arrays_to_dict(plan.arrays))
    if isinstance(plan, KernelPlan):
        return dict(base, type="kernel", **_arrays_to_dict(plan.arrays),
                    lines=[pool.intern(fit) for fit in plan.lines])
    raise TypeError(
        f"cannot serialise a {type(plan).__name__}; supported plan "
        "types: flops, layersum, kernel, retargetable")


def plan_from_dict(data: Dict, pool: LinePool, model) -> PredictionPlan:
    """Revive one :func:`plan_to_dict` document against its live model.

    Flops, layer-sum and KW plans take their lines from the pool (JSON
    floats round-trip exactly, so evaluation is bit-exact), and a KW
    plan reattaches ``model``'s layer-wise fallback; the retargetable
    plan reattaches its arrays to ``model``'s transfer tables and
    layer-wise fallbacks.
    """
    plan_type = data["type"]
    name = data["model_name"]
    network, batch_size = data["network"], data["batch_size"]
    if plan_type == "flops":
        return FlopsPlan(name, network, batch_size, data["total_flops"],
                         pool.fit_at(data["fit"]))
    if plan_type == "layersum":
        return LayerSumPlan(name, network, batch_size,
                            tuple((flops, pool.fit_at(index))
                                  for flops, index in data["terms"]))
    if plan_type == "kernel":
        arrays = _arrays_from_dict(data)
        lines = data["lines"]
        if len(lines) != len(arrays.used_kernels) or not all(
                0 <= index < len(pool) for index in lines):
            raise BundleMismatch(
                f"bundle plan for {network!r} needs one line-pool index "
                f"per used kernel ({len(arrays.used_kernels)}), got "
                f"{lines!r}")
        return KernelPlan(name, network, batch_size, arrays,
                          [pool.fit_at(index) for index in lines],
                          lw_model=getattr(model, "lw_fallback", None))
    if plan_type == "retargetable":
        if not isinstance(model, InterGPUKernelWiseModel):
            raise BundleMismatch(
                "a retargetable plan needs an igkw model to reattach to, "
                f"got {type(model).__name__}")
        unknown = set(data["used_kernels"]) - set(model.transfers)
        if unknown:
            raise BundleMismatch(
                f"bundle plan for {network!r} references kernels the "
                f"model does not map: {sorted(unknown)}")
        return RetargetablePlan(name, network, batch_size,
                                _arrays_from_dict(data), model.transfers,
                                model._metric, model._lw_by_gpu,
                                model.train_gpus)
    raise BundleMismatch(f"unknown plan type {plan_type!r}")


# -- bundles ------------------------------------------------------------------

def bundle_path_for(model_path) -> Path:
    """Where a model file's plan bundle lives: ``plans/<stem>.plan.json``."""
    model_path = Path(model_path)
    return model_path.parent / PLANS_DIR / f"{model_path.stem}.plan.json"


def _model_digest(model_path: Path) -> Tuple[str, Tuple[int, int]]:
    payload = model_path.read_bytes()
    stat = model_path.stat()
    return (hashlib.sha256(payload).hexdigest(),
            (stat.st_mtime_ns, stat.st_size))


def _model_kind(model) -> str:
    if isinstance(model, InterGPUKernelWiseModel):
        return "igkw"
    if isinstance(model, KernelTablePredictor):
        return "kw"
    if isinstance(model, LayerWiseModel):
        return "lw"
    if isinstance(model, EndToEndModel):
        return "e2e"
    raise TypeError(f"unrecognised model type {type(model).__name__}")


def build_bundle(model, model_path, networks: Sequence,
                 batch_sizes: Sequence[int]) -> Dict:
    """Compile every (network, batch) and lower the plans to one document.

    ``networks`` holds built :class:`~repro.nn.graph.Network` objects;
    the bundle records provenance against ``model_path`` so a loader
    can refuse it once the model file changes underneath.
    """
    model_path = Path(model_path)
    digest, stamp = _model_digest(model_path)
    pool = LinePool()
    plans = [plan_to_dict(model.compile(network, int(batch_size)), pool)
             for network in networks for batch_size in batch_sizes]
    return {
        "format_version": FORMAT_VERSION,
        "plan_format": PLAN_FORMAT_VERSION,
        "model": model_path.stem,
        "kind": _model_kind(model),
        "provenance": {"sha256": digest, "stamp": list(stamp),
                       "source": model_path.name},
        "line_pool": pool.to_list(),
        "line_references": pool.references,
        "plans": plans,
    }


def save_bundle(document: Dict, model_path) -> Path:
    """Atomically write a bundle next to its model; returns the path."""
    return save_document(document, bundle_path_for(model_path))


def load_bundle(model_path, model) -> Dict[Tuple[str, int], PredictionPlan]:
    """Revive the AOT plans for one model file, keyed (network, batch).

    Raises :class:`FileNotFoundError` when no bundle exists and
    :class:`BundleMismatch` when the bundle is stale (its recorded
    SHA-256 no longer matches the model file's bytes), of a foreign
    schema version (an older bundle is refused, not misread), or
    structurally inconsistent with ``model``.
    """
    model_path = Path(model_path)
    path = bundle_path_for(model_path)
    if not path.is_file():
        raise FileNotFoundError(str(path))
    document = load_document(path)
    if document.get("plan_format") != PLAN_FORMAT_VERSION:
        raise BundleMismatch(
            f"unsupported plan format {document.get('plan_format')!r} "
            f"(this build reads version {PLAN_FORMAT_VERSION})")
    if document.get("kind") != _model_kind(model):
        raise BundleMismatch(
            f"bundle was compiled for a {document.get('kind')!r} model; "
            f"the file now holds {_model_kind(model)!r}")
    digest, _ = _model_digest(model_path)
    recorded = (document.get("provenance") or {}).get("sha256")
    if recorded != digest:
        raise BundleMismatch(
            f"bundle is stale: model digest {digest[:12]}... does not "
            f"match recorded {str(recorded)[:12]}...")
    pool = LinePool.from_list(document["line_pool"])
    plans: Dict[Tuple[str, int], PredictionPlan] = {}
    for entry in document["plans"]:
        plan = plan_from_dict(entry, pool, model)
        plans[(plan.network_name, plan.batch_size)] = plan
    return plans


def load_plans(model_path, model) -> Dict[Tuple[str, int], PredictionPlan]:
    """Best-effort :func:`load_bundle`: empty on missing/stale bundles.

    The serving registry calls this on every model (re)load; a corrupt,
    stale, or absent bundle must never take the model itself down, so
    every failure degrades to "no preloaded plans".
    """
    try:
        return load_bundle(model_path, model)
    except Exception:  # repro: noqa[EX001] degrade to lazy compilation
        return {}


def bundle_coverage(model_path) -> List[Tuple[str, int]]:
    """The (network, batch) keys a model's bundle covers, if any."""
    path = bundle_path_for(model_path)
    if not path.is_file():
        return []
    try:
        document = load_document(path)
        return [(entry["network"], int(entry["batch_size"]))
                for entry in document.get("plans", [])]
    except Exception:  # repro: noqa[EX001] unreadable bundle covers nothing
        return []


# -- the compile store --------------------------------------------------------

@dataclass
class BundleReport:
    """What ``repro compile`` did for one model."""

    model: str
    kind: str
    plans: int
    pool_lines: int
    line_references: int
    verified: Optional[bool] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.verified is not False


@dataclass
class CompileReport:
    """Outcome of one :func:`compile_store` sweep."""

    directory: str
    networks: List[str] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    bundles: List[BundleReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.bundles) and all(b.ok for b in self.bundles)

    def render(self) -> str:
        lines = [f"AOT compile store: {self.directory}",
                 f"  networks: {len(self.networks)}  "
                 f"batch sizes: {self.batch_sizes}"]
        for bundle in self.bundles:
            if bundle.error is not None:
                lines.append(f"  {bundle.model:<16} {bundle.kind:<5} "
                             f"FAILED: {bundle.error}")
                continue
            shared = bundle.line_references - bundle.pool_lines
            verdict = {None: "", True: "  verified bit-exact",
                       False: "  VERIFY FAILED"}[bundle.verified]
            lines.append(
                f"  {bundle.model:<16} {bundle.kind:<5} "
                f"{bundle.plans:>3} plans  "
                f"{bundle.pool_lines:>4} pooled lines "
                f"({shared} deduped refs){verdict}")
        status = "ok" if self.ok else "FAILED"
        return "\n".join(lines + [f"  -> {status}"])


def plan_mismatch(loaded: PredictionPlan, fresh: PredictionPlan,
                  targets: Sequence) -> Optional[str]:
    """The first difference between an AOT-loaded plan and the freshly
    compiled one, or None when they agree exactly.

    A kernel plan compares its total, fallback share, per-layer
    coverage records (name, kind, signature, stage, predicted time) and
    ``lw_plan()`` total, so every persisted column is read back. A
    retargetable plan compares its grid over ``targets``, then per
    target the grid's column against the fresh plan bound to that
    target, and its bound plans as kernel plans. Other plans compare
    ``evaluate()``; they ignore ``targets``.
    """
    # the contract IS exact equality: the AOT plan must replay the fresh
    # arithmetic, not approximate it
    if isinstance(fresh, RetargetablePlan):
        got, want = loaded.evaluate_grid(targets), fresh.evaluate_grid(targets)
        if got != want:  # repro: noqa[FP001]
            return f"AOT grid {got!r} != fresh {want!r}"
        for point, time_us, share in zip(targets, *got):
            bound = fresh.bind(point)
            want = (bound.evaluate(), bound.fallback_time_share())
            if (time_us, share) != want:  # repro: noqa[FP001]
                return (f"{point.name}: AOT grid ({time_us!r}, "
                        f"{share!r}) != fresh bound {want!r}")
            mismatch = plan_mismatch(loaded.bind(point), bound, ())
            if mismatch is not None:
                return f"{point.name}: {mismatch}"
        return None
    if isinstance(fresh, KernelPlan):
        got = (loaded.evaluate(), loaded.fallback_time_share())
        want = (fresh.evaluate(), fresh.fallback_time_share())
        if got != want:  # repro: noqa[FP001]
            return f"AOT (total, share) {got!r} != fresh {want!r}"
        for got, want in zip_longest(loaded.coverage().layers,
                                     fresh.coverage().layers):
            if got != want:  # repro: noqa[FP001]
                return f"AOT layer {got!r} != fresh {want!r}"
        if fresh.lw_model is None:
            return None
        got, want = loaded.lw_plan().evaluate(), fresh.lw_plan().evaluate()
        if got != want:  # repro: noqa[FP001]
            return f"AOT lw_plan {got!r} != fresh {want!r}"
        return None
    got, want = loaded.evaluate(), fresh.evaluate()
    if got != want:  # repro: noqa[FP001]
        return f"AOT plan {got!r} != fresh {want!r}"
    return None


def _verify_bundle(model, model_path, networks,
                   batch_sizes: Sequence[int]) -> bool:
    """Reload the bundle and compare against fresh lowering, bit-exactly."""
    from repro.gpu.specs import gpu

    loaded = load_bundle(model_path, model)
    targets = []
    if isinstance(model, InterGPUKernelWiseModel):
        targets = list(model.train_gpus)
        if all(spec.name != "V100" for spec in targets):
            targets.append(gpu("V100"))
    return all(
        plan_mismatch(loaded[(network.name, int(batch_size))],
                      model.compile(network, int(batch_size)),
                      targets) is None
        for network in networks for batch_size in batch_sizes)


def compile_store(models_dir, network_names: Optional[Sequence[str]] = None,
                  batch_sizes: Sequence[int] = (1,),
                  model_names: Optional[Sequence[str]] = None,
                  verify: bool = False) -> CompileReport:
    """AOT-compile every hosted model's plans and persist the bundles.

    ``network_names`` defaults to every named zoo network; ``verify``
    reloads each written bundle and asserts bit-exact evaluation parity
    against freshly lowered plans (and, for retargetable models, a
    target grid including an unseen GPU).
    """
    from repro import zoo

    directory = Path(models_dir)
    if not directory.is_dir():
        raise FileNotFoundError(
            f"model directory {str(directory)!r} does not exist")
    batch_sizes = [int(b) for b in batch_sizes]
    if not batch_sizes or any(b < 1 for b in batch_sizes):
        raise ValueError("batch sizes must be positive integers")
    names = list(network_names if network_names is not None
                 else zoo.model_names())
    networks = [zoo.build(name) for name in names]
    report = CompileReport(str(directory), names, batch_sizes)
    for model_path in sorted(directory.glob("*.json")):
        if model_names is not None and model_path.stem not in model_names:
            continue
        try:
            model = load_model(model_path)
            document = build_bundle(model, model_path, networks,
                                    batch_sizes)
            save_bundle(document, model_path)
            bundle = BundleReport(
                model_path.stem, document["kind"],
                len(document["plans"]), len(document["line_pool"]),
                document["line_references"])
            if verify:
                bundle.verified = _verify_bundle(model, model_path,
                                                 networks, batch_sizes)
        except Exception as exc:  # repro: noqa[EX001] reported per model
            bundle = BundleReport(model_path.stem, "?", 0, 0, 0,
                                  error=f"{type(exc).__name__}: {exc}")
        report.bundles.append(bundle)
    return report

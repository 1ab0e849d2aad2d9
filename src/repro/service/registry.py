"""Model registry: named multi-model hosting with mtime hot-reload.

A registry maps a directory of ``core.save_model`` JSONs to named, live
predictor objects: ``models/kw-a100.json`` is served as model
``kw-a100``. Every access stats the backing file and transparently
reloads it when its *stamp* — ``(st_mtime_ns, st_size)`` — changes, so
retraining in place (the Figure-10 "distribute to users" loop) updates
a running server without a restart. The stamp deliberately includes the
size: on filesystems with coarse mtime granularity two writes can land
in the same tick, and a float mtime alone would serve the stale model
forever.

IGKW models are *retargetable*: the service compiles one plan per
(network, batch size) and binds it per request to the target that
:func:`resolve_target` validates.

Every mutation (load, reload, removal) bumps the registry *generation*;
:meth:`ModelRegistry.snapshot` freezes the current generation into a
lock-free read-only :class:`RegistrySnapshot` that serves the same
``get``/``describe``/``errors`` surface. The pre-fork worker pool runs
each worker's :class:`~repro.service.core.PredictionService` over a
snapshot and swaps in a fresh one between requests whenever the
generation moved — model flips happen at request boundaries, never
mid-prediction, and the per-request ``stat()`` disappears from the
worker hot path.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.e2e import EndToEndModel
from repro.core.intergpu import InterGPUKernelWiseModel
from repro.core.kernelwise import KernelTablePredictor, KernelWiseModel
from repro.core.layerwise import LayerWiseModel
from repro.core.persistence import load_model
from repro.core.planopt import load_plans
from repro.gpu.specs import gpu


class ModelResolutionError(ValueError):
    """A request named a model the registry cannot serve as asked."""


def finite_bandwidth(value) -> float:
    """A request's bandwidth override as a finite float (GB/s).

    Raises :class:`ModelResolutionError` for a bool, a non-numeric value
    (``"abc"``, ``[1]``) or a non-finite number (NaN, inf): each would
    otherwise price a silently wrong time or fail untyped.
    """
    if isinstance(value, bool):
        raise ModelResolutionError(
            f"bandwidth must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ModelResolutionError(
            f"bandwidth must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ModelResolutionError(
            f"bandwidth must be finite, got {value!r}")
    return number


def resolve_target(model_name: str, gpu_name: Optional[str],
                   bandwidth: Optional[float]):
    """Validated target :class:`GPUSpec` for one igkw request.

    Raises :class:`ModelResolutionError` for a missing GPU name or a
    bandwidth override that is not a positive finite number,
    :class:`KeyError` for an unknown GPU.
    """
    if gpu_name is None:
        raise ModelResolutionError(
            f"model {model_name!r} is inter-GPU (igkw); the request must "
            "name a target 'gpu'")
    target = gpu(gpu_name)                       # KeyError on unknown GPU
    if bandwidth is not None:
        bandwidth = finite_bandwidth(bandwidth)
        if bandwidth <= 0:
            raise ModelResolutionError(
                f"bandwidth override must be positive, got {bandwidth}")
        target = target.with_bandwidth(bandwidth)
    return target


def model_kind(model) -> str:
    """The persistence-format kind string of a live model object."""
    if isinstance(model, InterGPUKernelWiseModel):
        return "igkw"
    if isinstance(model, (KernelWiseModel, KernelTablePredictor)):
        return "kw"
    if isinstance(model, LayerWiseModel):
        return "lw"
    if isinstance(model, EndToEndModel):
        return "e2e"
    raise TypeError(f"unrecognised model type {type(model).__name__}")


def file_stamp(stat_result) -> Tuple[int, int]:
    """The freshness stamp of a model file: ``(st_mtime_ns, st_size)``."""
    return (stat_result.st_mtime_ns, stat_result.st_size)


@dataclass
class LoadedModel:
    """One hosted model: the live object plus its provenance."""

    name: str
    path: Path
    kind: str
    stamp: Tuple[int, int]            # (st_mtime_ns, st_size) when loaded
    model: object
    reloads: int = 0
    # AOT-compiled plans from the model's plan bundle, keyed by
    # (network, batch_size); empty when no bundle exists. Rebuilt with
    # the entry on reload, so a stale bundle can never outlive its model.
    plans: Dict[Tuple[str, int], object] = field(default_factory=dict)

    @property
    def mtime(self) -> float:
        """Seconds-resolution view of the stamp (for human consumption)."""
        return self.stamp[0] / 1e9

    def describe(self) -> Dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "path": str(self.path),
            "mtime": self.mtime,
            "reloads": self.reloads,
            "aot_plans": len(self.plans),
        }


class RegistrySnapshot:
    """Read-only view of a registry at one generation.

    No locks and no ``stat()`` calls: a worker process serves from the
    frozen entries and the pool swaps in a fresh snapshot between
    requests when :attr:`generation` moved. The surface mirrors the
    pieces of :class:`ModelRegistry` that
    :class:`~repro.service.core.PredictionService` touches.
    """

    def __init__(self, generation: int, entries: Dict[str, LoadedModel],
                 errors: Dict[str, str], reloads: int) -> None:
        self.generation = generation
        self._entries = dict(entries)
        self.errors = dict(errors)
        self._reloads = reloads

    def get(self, name: str) -> LoadedModel:
        entry = self._entries.get(name)
        if entry is None:
            raise KeyError(
                f"unknown model {name!r}; hosted: {self.names()}")
        return entry

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def describe(self) -> List[Dict]:
        return [self._entries[name].describe() for name in self.names()]

    def reload_count(self) -> int:
        return self._reloads

    def first_of_kind(self, kind: str) -> Optional[LoadedModel]:
        for name in self.names():
            if self._entries[name].kind == kind:
                return self._entries[name]
        return None


class ModelRegistry:
    """Hosts every ``*.json`` model in a directory, keyed by file stem."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise FileNotFoundError(
                f"model directory {str(self.directory)!r} does not exist")
        self._lock = threading.Lock()
        self._models: Dict[str, LoadedModel] = {}
        self._generation = 0
        #: files that failed to parse at the last scan, name -> reason
        self.errors: Dict[str, str] = {}
        self.scan()

    # -- loading --------------------------------------------------------------

    def _load(self, path: Path) -> LoadedModel:
        stamp = file_stamp(path.stat())
        model = load_model(path)
        # best-effort AOT plan preload: load_plans degrades to {} on a
        # missing, stale, or corrupt bundle, so the model always serves
        return LoadedModel(name=path.stem, path=path,
                           kind=model_kind(model), stamp=stamp, model=model,
                           plans=load_plans(path, model))

    def scan(self) -> List[str]:
        """(Re)discover models in the directory; returns hosted names."""
        with self._lock:
            self.errors = {}
            seen = set()
            for path in sorted(self.directory.glob("*.json")):
                seen.add(path.stem)
                current = self._models.get(path.stem)
                if current is not None and \
                        current.stamp == file_stamp(path.stat()):
                    continue
                try:
                    entry = self._load(path)
                # malformed file: record and keep serving the others;
                # the label keeps the exception type so a JSON decode
                # error is distinguishable from, say, a permission error
                except Exception as exc:  # repro: noqa[EX001]
                    self.errors[path.stem] = (
                        f"{type(exc).__name__}: {exc}")
                    continue
                if current is not None:
                    entry.reloads = current.reloads + 1
                self._models[path.stem] = entry
                self._generation += 1
            for name in list(self._models):
                if name not in seen:
                    del self._models[name]
                    self._generation += 1
            return sorted(self._models)

    def get(self, name: str) -> LoadedModel:
        """The named model, hot-reloaded if its file changed on disk."""
        with self._lock:
            entry = self._models.get(name)
        if entry is None:
            raise KeyError(
                f"unknown model {name!r}; hosted: {self.names()}")
        try:
            stamp = file_stamp(entry.path.stat())
        except FileNotFoundError:
            with self._lock:
                if self._models.pop(name, None) is not None:
                    self._generation += 1
            raise KeyError(
                f"model {name!r} was removed from disk; "
                f"hosted: {self.names()}") from None
        if stamp != entry.stamp:
            fresh = self._load(entry.path)
            fresh.reloads = entry.reloads + 1
            with self._lock:
                self._models[name] = fresh
                self._generation += 1
            return fresh
        return entry

    # -- snapshots ------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Monotone mutation counter: bumps on every load/reload/removal."""
        with self._lock:
            return self._generation

    def snapshot(self) -> RegistrySnapshot:
        """Freeze the current generation into a read-only view."""
        with self._lock:
            return RegistrySnapshot(
                self._generation, self._models, self.errors,
                sum(entry.reloads for entry in self._models.values()))

    # -- query ----------------------------------------------------------------

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._models)

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._models

    def describe(self) -> List[Dict]:
        """Per-model metadata for the ``GET /models`` endpoint."""
        return [self.get(name).describe() for name in self.names()]

    def reload_count(self) -> int:
        with self._lock:
            return sum(entry.reloads for entry in self._models.values())

    def first_of_kind(self, kind: str) -> Optional[LoadedModel]:
        """The alphabetically-first hosted model of a kind, if any."""
        for name in self.names():
            with self._lock:
                entry = self._models.get(name)
            if entry is not None and entry.kind == kind:
                return entry
        return None

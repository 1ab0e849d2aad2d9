"""Online prediction service: the Figure-10 "distribute to users" step.

The paper's workflow ends with trained models being distributed to users;
this subsystem turns the four predictors (E2E / LW / KW / IGKW) into a
long-lived server instead of a one-shot CLI call:

- :class:`ModelRegistry` hosts a directory of saved model JSONs by name,
  hot-reloading a model when its file changes on disk;
- :class:`PredictionCache` memoises predictions (pure functions of their
  inputs) behind a bounded thread-safe LRU;
- :class:`FallbackChain` degrades KW -> LW -> E2E when a kernel-level
  prediction rests on unknown kernels, recording which tier answered;
- :class:`PredictionService` + :func:`make_server` expose the whole thing
  over HTTP (``POST /predict``, ``GET /models``, ``/healthz``,
  ``/metrics``) on a :class:`http.server.ThreadingHTTPServer`;
- :class:`LoadGenerator` drives a live server with a Poisson arrival
  schedule and reports achieved throughput and latency percentiles.

Scale-out (``repro serve --workers N``) layers a pre-fork stack on the
same core: :class:`WorkerPool` forks N processes each running a
:class:`PredictionService` over a read-only registry snapshot, a
:class:`HashRing` routes (model, network) keys so per-shard caches stay
hot, and :class:`ScaledService` fronts the pool with admission control
(bounded in-flight frames per worker, 429 + Retry-After load
shedding), per-endpoint SLO tracking, and bucket-exact /metrics
aggregation. ``--workers 1`` bypasses the stack entirely and serves
bit-identically to the single-process server.

With a :class:`~repro.calibration.Calibrator` attached (``repro serve
--calibrate``), the server additionally accepts ``POST /feedback`` and
reports ``GET /calibration`` — closing the loop from measured times back
to recalibrated, versioned models (see :mod:`repro.calibration`).
"""

from repro.service.cache import PredictionCache, cache_key
from repro.service.fallback import (
    FallbackChain,
    PredictionError,
    PredictionOutcome,
    TierError,
    build_plan_chain,
)
from repro.service.frontend import (
    AdmissionController,
    ScaledServer,
    ScaledService,
    ShedError,
    SLOTracker,
)
from repro.service.loadgen import (
    LoadGenerator,
    LoadReport,
    merge_reports,
    run_multiprocess,
)
from repro.service.metrics import (
    Histogram,
    MetricsRegistry,
    aggregate_snapshots,
    merge_histogram_snapshots,
)
from repro.service.pool import WorkerHandle, WorkerOptions, WorkerPool
from repro.service.registry import (
    LoadedModel,
    ModelRegistry,
    ModelResolutionError,
    RegistrySnapshot,
    file_stamp,
    model_kind,
    resolve_target,
)
from repro.service.server import (
    PredictionService,
    ServiceError,
    make_server,
)
from repro.service.sharding import HashRing, shard_key

__all__ = [
    "AdmissionController",
    "FallbackChain",
    "HashRing",
    "Histogram",
    "LoadGenerator",
    "LoadReport",
    "LoadedModel",
    "MetricsRegistry",
    "ModelRegistry",
    "ModelResolutionError",
    "PredictionCache",
    "PredictionError",
    "PredictionOutcome",
    "PredictionService",
    "RegistrySnapshot",
    "SLOTracker",
    "ScaledServer",
    "ScaledService",
    "ServiceError",
    "ShedError",
    "TierError",
    "WorkerHandle",
    "WorkerOptions",
    "WorkerPool",
    "aggregate_snapshots",
    "build_plan_chain",
    "cache_key",
    "file_stamp",
    "make_server",
    "merge_histogram_snapshots",
    "merge_reports",
    "model_kind",
    "resolve_target",
    "run_multiprocess",
    "shard_key",
]

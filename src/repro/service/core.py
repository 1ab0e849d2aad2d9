"""Transport-free service core: one request/response schema, any front.

``PredictionService`` is the layer every transport shares: validate ->
cache -> resolve -> fallback chain -> respond, with metrics. The
single-process HTTP server (:mod:`repro.service.server`) calls it
in-process; the pre-fork scale-out stack (:mod:`repro.service.frontend`
+ :mod:`repro.service.pool`) runs the same core inside each worker
process and speaks :mod:`repro.service.protocol` frames to it. Keeping
the core transport-free is what makes ``--workers 1`` bit-identical to
the pre-fork deployment: both fronts serve literally these methods.

The ``/feedback`` path is split in two so the calibrator can stay
singular in a multi-worker deployment: :meth:`~PredictionService.
feedback_observation` validates (and, when ``predicted_us`` is omitted,
replays the prediction through the worker's hot caches) without
touching any calibrator, and :meth:`~PredictionService.feedback_response`
formats the drift state the calibrator returned — the frontend records
the observation into the one calibrator it owns.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

from repro import zoo
from repro.service.cache import PredictionCache, cache_key
from repro.service.fallback import (
    COVERAGE_THRESHOLD,
    PredictionError,
    PredictionOutcome,
    build_plan_chain,
    kernel_chain,
)
from repro.service.metrics import MetricsRegistry
from repro.service.registry import (
    ModelResolutionError,
    finite_bandwidth,
    resolve_target,
)

#: Largest /predict_batch the server accepts (oversized batches get 413).
BATCH_CAP = 256

#: Batch-size histogram buckets: powers of two up to the default cap.
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


class ServiceError(Exception):
    """A request the service rejects, with its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _require(payload: Dict, field: str, kind, explain: str):
    value = payload.get(field)
    if value is None:
        raise ServiceError(400, f"request is missing {field!r} ({explain})")
    # int() would read True as 1 and truncate 2.7 to 2
    if kind is int and (isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer())):
        raise ServiceError(
            400, f"field {field!r} must be int, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ServiceError(
            400, f"field {field!r} must be {kind.__name__}, "
            f"got {value!r}") from None


class PredictionService:
    """Registry + cache + fallback chain + metrics, transport-free."""

    def __init__(self, registry,
                 cache: Optional[PredictionCache] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 coverage_threshold: float = COVERAGE_THRESHOLD,
                 plan_cache: Optional[PredictionCache] = None,
                 calibrator=None, batch_cap: int = BATCH_CAP) -> None:
        self.registry = registry
        self.cache = cache if cache is not None else PredictionCache()
        # compiled PredictionPlans, keyed by (model, network, batch,
        # model stamp). GPU/bandwidth are NOT part of the key: the
        # igkw plan is retargetable, so one compile serves every target
        self.plans = (plan_cache if plan_cache is not None
                      else PredictionCache(256))
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.coverage_threshold = coverage_threshold
        if batch_cap < 1:
            raise ValueError("batch_cap must be >= 1")
        self.batch_cap = batch_cap
        self.calibrator = calibrator
        if calibrator is not None and calibrator.metrics is None:
            calibrator.metrics = self.metrics   # share one counter space
        self.started_at = time.time()          # provenance (wall clock)
        # uptime is measured on the monotonic clock: an NTP step or a
        # manual wall-clock change must never make /healthz report a
        # negative or jumping uptime
        self._started_monotonic = time.monotonic()
        # result-cache keys being computed right now, each with the
        # lock its leader holds while concurrent askers wait on it
        # (single flight)
        self._lock = threading.Lock()
        self._inflight: Dict[Tuple, threading.Lock] = {}

    def _uptime_s(self) -> float:
        return round(time.monotonic() - self._started_monotonic, 3)

    # -- request plumbing (shared by /predict and /predict_batch) -------------

    def _parse_predict(self, payload: Dict) -> Tuple:
        """Validated (model, network, batch_size, gpu, bandwidth)."""
        if not isinstance(payload, dict):
            raise ServiceError(400, "request body must be a JSON object")
        model_name = _require(payload, "model", str, "a hosted model name")
        network_name = _require(payload, "network", str,
                                "a registered network name")
        batch_size = _require(payload, "batch_size", int, "a positive int")
        if batch_size < 1:
            raise ServiceError(400, "batch_size must be >= 1")
        gpu_name = payload.get("gpu")
        bandwidth = payload.get("bandwidth")
        if bandwidth is not None:
            try:
                bandwidth = finite_bandwidth(bandwidth)
            except ModelResolutionError as exc:
                raise ServiceError(400, str(exc)) from None
        return model_name, network_name, batch_size, gpu_name, bandwidth

    def _lookup_entry(self, model_name: str):
        try:
            return self.registry.get(model_name)
        except KeyError as exc:
            raise ServiceError(404, str(exc.args[0])) from None

    def _build_network(self, network_name: str):
        try:
            return zoo.build(network_name)
        except KeyError as exc:                  # unknown network
            raise ServiceError(404, str(exc.args[0])) from None

    def _plan_for(self, entry, model_name: str, network_name: str,
                  batch_size: int) -> Tuple:
        # the compiled plan is GPU-independent, so repeat requests for
        # the same structure skip the graph walk even when the target
        # GPU or bandwidth differs between them. The key carries the
        # full (st_mtime_ns, st_size) stamp, never a float mtime: two
        # writes in one coarse mtime tick must not alias.
        plan_key = (model_name, network_name, batch_size, entry.stamp)
        plan = self.plans.get(plan_key)
        if plan is not None:
            return plan, True
        # cold miss: the entry's AOT bundle (repro compile) may carry
        # the plan pre-lowered, skipping both zoo.build and compile
        plan = entry.plans.get((network_name, batch_size))
        if plan is not None:
            self.metrics.increment("aot_plan_hits_total")
            self.plans.put(plan_key, plan)
            return plan, True
        plan = entry.model.compile(self._build_network(network_name),
                                   batch_size)
        self.plans.put(plan_key, plan)
        return plan, False

    def _resolve_igkw_target(self, model_name: str,
                             gpu_name: Optional[str],
                             bandwidth: Optional[float]):
        try:
            return resolve_target(model_name, gpu_name, bandwidth)
        except ModelResolutionError as exc:
            raise ServiceError(400, str(exc)) from None
        except KeyError as exc:                  # unknown GPU
            raise ServiceError(404, str(exc.args[0])) from None

    def _run_chain(self, chain, network_name: str,
                   batch_size: int) -> PredictionOutcome:
        try:
            outcome = chain.predict(network_name, batch_size)
        except PredictionError as exc:
            raise ServiceError(422, str(exc)) from None
        self._count_outcome(outcome)
        return outcome

    def _plan_outcome(self, plan, network_name: str,
                      batch_size: int) -> PredictionOutcome:
        return self._run_chain(
            build_plan_chain(plan, self.registry, self.coverage_threshold),
            network_name, batch_size)

    def _igkw_outcome(self, plan, target, network_name: str,
                      batch_size: int, total_us: float,
                      share: float) -> PredictionOutcome:
        """One igkw miss, given the target's (total, share) column of
        ``plan.evaluate_grid``.

        At or below the coverage threshold the kw tier answers with
        exactly ``total_us`` — the grid's total is bit-exact with
        ``bind(target).evaluate()`` and the share gate is the comparison
        the tier applies. A degraded miss runs the same
        :func:`kernel_chain` over the priced pair and the plan's cached
        ``lw_plan(target)``: no KernelPlan is bound and no network is
        built.
        """
        if share <= self.coverage_threshold:
            outcome = PredictionOutcome(total_us, "kw", (("kw", None),))
            self._count_outcome(outcome)
            return outcome
        return self._run_chain(
            kernel_chain(total_us, share, lambda: plan.lw_plan(target),
                         self.registry, self.coverage_threshold),
            network_name, batch_size)

    def _count_outcome(self, outcome: PredictionOutcome) -> None:
        self.metrics.increment(f"tier_{outcome.tier}_total")
        if outcome.degraded:
            self.metrics.increment("degraded_total")

    @staticmethod
    def _response_for(entry, request: Tuple,
                      outcome: PredictionOutcome) -> Dict:
        model_name, network_name, batch_size, gpu_name, bandwidth = request
        return {
            "model": model_name,
            "kind": entry.kind,
            "network": network_name,
            "batch_size": batch_size,
            "gpu": gpu_name,
            "bandwidth": bandwidth,
            "predicted_us": outcome.value_us,
            "predicted_ms": outcome.value_us / 1e3,
            "tier": outcome.tier,
            "attempts": [{"tier": name, "error": reason}
                         for name, reason in outcome.attempts],
        }

    @staticmethod
    def _error_slot(exc: Exception) -> Dict:
        """The /predict_batch slot of an item that failed with ``exc``:
        the status and message /predict answers for it."""
        if isinstance(exc, ServiceError):
            return {"error": exc.message, "status": exc.status}
        return {"error": f"internal error: {type(exc).__name__}: {exc}",
                "status": 500}

    # -- endpoints ------------------------------------------------------------

    def predict(self, payload: Dict) -> Dict:
        """Serve one /predict body; raises ServiceError on bad requests.

        A result-cache hit answers at once; a miss is a one-item
        :meth:`_serve_misses`, the code /predict_batch runs, and its
        exception is raised here.
        """
        request = self._parse_predict(payload)
        entry = self._lookup_entry(request[0])
        key = cache_key(*request, version=entry.stamp)
        cached = self.cache.get(key)
        if cached is not None:
            # a result hit answers without touching plans at all
            return dict(cached, cached=True, plan_cached=True)
        results: List = [None]
        self._serve_misses([(0, request, entry, key)], results)
        if isinstance(results[0], Exception):
            raise results[0]
        return results[0]

    def predict_batch(self, payload: Dict) -> Dict:
        """Serve one /predict_batch body: many /predict items at once.

        One malformed or failing item never fails the batch: its slot in
        ``results`` carries ``{"error", "status"}`` while the rest are
        ordinary /predict responses, and the endpoint answers 200.
        Items are looked up in the result cache individually; the
        misses go to :meth:`_serve_misses` together, so each (model,
        network, batch size) compiles at most one plan and, for
        retargetable (igkw) plans, prices all its targets in one
        ``evaluate_grid`` pass.
        """
        if not isinstance(payload, dict):
            raise ServiceError(400, "request body must be a JSON object")
        items = payload.get("items")
        if not isinstance(items, list):
            raise ServiceError(
                400, "request must carry an 'items' list of /predict bodies")
        if not items:
            raise ServiceError(400, "'items' must not be empty")
        if len(items) > self.batch_cap:
            raise ServiceError(
                413, f"batch of {len(items)} items exceeds the server cap "
                f"of {self.batch_cap}; split the request")
        self.metrics.increment("batch_items_total", by=len(items))
        self.metrics.observe("batch_size", float(len(items)),
                             buckets=BATCH_SIZE_BUCKETS)

        results: List = [None] * len(items)
        pending = []                  # (position, request, entry, key)
        for position, item in enumerate(items):
            try:
                request = self._parse_predict(item)
                entry = self._lookup_entry(request[0])
            except ServiceError as exc:
                results[position] = exc
                continue
            pending.append((position, request, entry,
                            cache_key(*request, version=entry.stamp)))
        misses = []
        for miss, cached in zip(pending, self.cache.get_many(
                [key for *_, key in pending])):
            if cached is None:
                misses.append(miss)
            else:
                results[miss[0]] = dict(cached, cached=True,
                                        plan_cached=True)
        grid_failures = self._serve_misses(misses, results)

        # the batch counters, read off the answers: a cached slot is a
        # result-cache hit, and a fresh igkw kw-tier answer came off its
        # group's grid unless that grid failed
        repriced = set()
        for exc, positions in grid_failures:
            self.metrics.increment(
                f"batch_grid_errors_{type(exc).__name__}_total")
            repriced.update(positions)
        hits = vectorized = errors = 0
        for position, result in enumerate(results):
            if isinstance(result, Exception):
                results[position] = self._error_slot(result)
                errors += 1
            elif result["cached"]:
                hits += 1
            elif (result["kind"] == "igkw" and result["tier"] == "kw"
                    and position not in repriced):
                vectorized += 1
        for name, count in (("batch_cache_hits_total", hits),
                            ("batch_vectorized_items_total", vectorized),
                            ("batch_item_errors_total", errors)):
            if count:
                self.metrics.increment(name, by=count)
        return {"count": len(items), "errors": errors, "results": results}

    def _serve_misses(self, misses: List[Tuple], results: List
                      ) -> List[Tuple[Exception, List[int]]]:
        """Answer result-cache misses ``(position, request, entry,
        key)`` into ``results``: each slot gets a response or the
        item's exception.

        Misses on one key, here or in concurrent requests, compute once
        (single flight): the leader answers, and the others wait for
        it and answer from the cache as ``cached: true``, or compute on
        their own when it failed. The misses this call leads are
        grouped by (model, network, batch size, model stamp) and each
        group is answered by :meth:`_serve_batch_group`. Returns each
        igkw group whose one ``evaluate_grid`` pass failed, as (the
        grid's exception, the group's positions).
        """
        groups: Dict[Tuple, List[Tuple]] = {}
        led = set()                   # keys this call computes
        waiting = []                  # (miss, flight) computed elsewhere
        grid_failures: List[Tuple[Exception, List[int]]] = []
        try:
            for miss in misses:
                _, request, entry, key = miss
                if key not in led:
                    flight = self._join_flight(key)
                    if flight is not None:
                        waiting.append((miss, flight))
                        continue
                    led.add(key)
                groups.setdefault((*request[:3], entry.stamp),
                                  []).append(miss)
            for group in groups.values():
                self._serve_batch_group(group, results, grid_failures)
                # a request waiting on this group's keys must not wait
                # for the later groups too
                for *_, key in group:
                    if key in led:
                        led.discard(key)
                        self._land(key)
        finally:
            for key in led:           # left in flight by a failure
                self._land(key)
        # waits only once every led key has landed, so two requests
        # leading keys the other waits on can never deadlock
        for miss, flight in waiting:
            with flight:
                pass
            position, *_, key = miss
            cached = self.cache.get(key)
            if cached is None:
                # the leader failed: this item computes (and fails) alone
                self._serve_batch_group([miss], results, grid_failures)
            else:
                results[position] = dict(cached, cached=True,
                                         plan_cached=True)
        return grid_failures

    def _join_flight(self, key: Tuple) -> Optional[threading.Lock]:
        """Lead ``key``'s computation, or wait on the one in flight.

        None makes the caller the leader, which must :meth:`_land` the
        key once its answer is cached (or has failed). Otherwise the
        caller waits by acquiring the returned lock, which the leader
        holds until it lands; a key cached between the caller's miss
        and this call returns a free lock.
        """
        with self._lock:
            flight = self._inflight.get(key)
            if flight is not None:
                return flight
            if key in self.cache:
                return threading.Lock()
            # a Lock, not an Event: one is built per miss, and an Event
            # costs some 70x more to build
            flight = threading.Lock()
            flight.acquire()
            self._inflight[key] = flight
            return None

    def _land(self, key: Tuple) -> None:
        with self._lock:
            self._inflight.pop(key).release()

    def _serve_batch_group(self, group: List[Tuple], results: List,
                           grid_failures: List) -> None:
        """Answer one (model, network, batch, stamp) group of misses.

        The plan is looked up or compiled once for the group. Each item
        is then answered in order: a key answered earlier in the group
        is an in-batch duplicate and answers as cached, as a sequential
        request would hit the result cache; any other item's outcome is
        priced, and its response is cached. A failure, the plan's
        included, lands in the item's own slot as its exception.
        """
        _, first_request, entry, _ = group[0]
        model_name, network_name, batch_size = first_request[:3]
        try:
            plan, plan_cached = self._plan_for(
                entry, model_name, network_name, batch_size)
        except Exception as exc:  # repro: noqa[EX001] slotted per item
            for position, *_ in group:
                results[position] = exc
            return
        if entry.kind == "igkw":
            outcome_of = self._igkw_outcomes(group, plan, network_name,
                                             batch_size, grid_failures)
        else:
            outcome_of = self._plain_outcomes(plan, network_name,
                                              batch_size)
        # plan-cache parity with the sequential path: only the first
        # item of a freshly-compiled group reports plan_cached=False
        computed: Dict[Tuple, Dict] = {}
        for index, (position, request, _, key) in enumerate(group):
            earlier = computed.get(key)
            if earlier is not None:
                results[position] = dict(earlier, cached=True,
                                         plan_cached=True)
                continue
            try:
                response = self._response_for(entry, request,
                                              outcome_of(index))
                self.cache.put(key, response)
            except Exception as exc:  # repro: noqa[EX001] slotted
                results[position] = exc
                continue
            computed[key] = response
            results[position] = dict(response, cached=False,
                                     plan_cached=plan_cached or index > 0)

    def _plain_outcomes(self, plan, network_name: str, batch_size: int):
        # a single-GPU plan's outcome is identical for every item of
        # the group (gpu/bandwidth are echoed, not used): run the
        # fallback chain until it answers once, count tiers per item
        outcome = None

        def outcome_of(index: int) -> PredictionOutcome:
            nonlocal outcome
            if outcome is None:
                outcome = self._plan_outcome(plan, network_name, batch_size)
            else:
                self._count_outcome(outcome)
            return outcome
        return outcome_of

    def _igkw_outcomes(self, group, plan, network_name: str,
                       batch_size: int, grid_failures: List):
        model_name = group[0][1][0]
        targets: List = []            # per item: its target, or its error
        for _, request, _, _ in group:
            try:
                targets.append(self._resolve_igkw_target(
                    model_name, request[3], request[4]))
            except ServiceError as exc:
                targets.append(exc)
        resolved = {index: target for index, target in enumerate(targets)
                    if not isinstance(target, Exception)}
        priced: Dict[int, Tuple[float, float]] = {}
        if resolved:
            try:
                # one vectorised pass prices every target and reports
                # each target's fallback share, so the kw coverage gate
                # needs no per-item bind
                priced = dict(zip(resolved, zip(*plan.evaluate_grid(
                    list(resolved.values())))))
            except Exception as exc:  # repro: noqa[EX001] repriced below
                grid_failures.append(
                    (exc, [position for position, *_ in group]))
                if len(resolved) == 1:
                    # a one-target grid would only run again: its
                    # error is the item's answer
                    targets[next(iter(resolved))] = exc

        def outcome_of(index: int) -> PredictionOutcome:
            target = targets[index]
            if isinstance(target, Exception):
                raise target
            if index in priced:
                total, share = priced[index]
            else:
                # the group's grid failed: a grid of this target alone,
                # so one bad target fails only its own item
                (total,), (share,) = plan.evaluate_grid([target])
            return self._igkw_outcome(plan, target, network_name,
                                      batch_size, total, share)
        return outcome_of

    def feedback_observation(self, payload: Dict):
        """Validated FeedbackObservation for one /feedback body.

        Needs no calibrator: when ``predicted_us`` is omitted the
        prediction is replayed here (same cache and fallback chain as
        /predict), so a sharded worker can prepare the observation
        against its hot caches and hand it to the frontend's single
        calibrator for recording.
        """
        if not isinstance(payload, dict):
            raise ServiceError(400, "request body must be a JSON object")
        measured_us = _require(payload, "measured_us", float,
                               "the measured execution time in us")
        predicted_us = payload.get("predicted_us")
        if predicted_us is None:
            predicted_us = self.predict(
                {k: payload.get(k)
                 for k in ("model", "network", "batch_size",
                           "gpu", "bandwidth")})["predicted_us"]
        from repro.calibration import NETWORK_GROUP, FeedbackObservation
        try:
            return FeedbackObservation(
                model=_require(payload, "model", str,
                               "a hosted model name"),
                network=_require(payload, "network", str,
                                 "a registered network name"),
                batch_size=_require(payload, "batch_size", int,
                                    "a positive int"),
                gpu=payload.get("gpu"),
                predicted_us=float(predicted_us),
                measured_us=measured_us,
                group=str(payload.get("group", NETWORK_GROUP)),
                bandwidth=(None if payload.get("bandwidth") is None
                           else finite_bandwidth(payload["bandwidth"])),
            )
        except ValueError as exc:
            raise ServiceError(400, str(exc)) from None

    @staticmethod
    def feedback_response(observation, state) -> Dict:
        """The /feedback response body for one recorded observation."""
        return {
            "recorded": True,
            "model": observation.model,
            "group": observation.group,
            "error": round(observation.error, 6),
            "drift": {
                "n": state.n,
                "ewma": round(state.ewma, 6),
                "ph_statistic": round(state.ph_statistic, 6),
                "drifted": state.drifted,
                "triggers": list(state.triggers),
            },
        }

    def feedback(self, payload: Dict) -> Dict:
        """Serve one /feedback body: record a measured-vs-predicted pair.

        ``predicted_us`` may be omitted; the service then replays the
        prediction itself (same cache and fallback chain as /predict),
        so clients only ever have to report what they measured.
        """
        if self.calibrator is None:
            raise ServiceError(
                409, "calibration is not enabled on this server "
                "(restart with --calibrate)")
        observation = self.feedback_observation(payload)
        state = self.calibrator.record(observation)
        return self.feedback_response(observation, state)

    def calibration(self) -> Dict:
        """Serve GET /calibration: the calibrator's full status."""
        if self.calibrator is None:
            raise ServiceError(
                409, "calibration is not enabled on this server "
                "(restart with --calibrate)")
        return self.calibrator.status()

    def models(self) -> Dict:
        return {"models": self.registry.describe(),
                "errors": dict(self.registry.errors)}

    def health(self) -> Dict:
        return {"status": "ok", "models": len(self.registry),
                "uptime_s": self._uptime_s()}

    def metrics_snapshot(self) -> Dict:
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.cache.stats()
        snapshot["plan_cache"] = self.plans.stats()
        snapshot["registry"] = {"models": len(self.registry),
                                "reloads": self.registry.reload_count()}
        snapshot["uptime_s"] = self._uptime_s()
        return snapshot

    def metrics_text(self) -> str:
        stats = self.cache.stats()
        plan_stats = self.plans.stats()
        lines = [self.metrics.render_text().rstrip("\n")]
        for field in ("hits", "misses", "size"):
            lines.append(f"repro_cache_{field} {stats[field]}")
        lines.append(f"repro_cache_hit_ratio {stats['hit_ratio']}")
        for field in ("hits", "misses", "size"):
            lines.append(f"repro_plan_cache_{field} {plan_stats[field]}")
        lines.append(
            f"repro_plan_cache_hit_ratio {plan_stats['hit_ratio']}")
        return "\n".join(lines) + "\n"

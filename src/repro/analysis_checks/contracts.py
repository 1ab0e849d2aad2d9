"""Domain contract checker: zoo -> FLOPs -> kernels -> persistence.

The kernel-wise pipeline only reaches its headline accuracy when every
layer a zoo network emits is covered end to end. These contracts are
otherwise enforced by nothing — a gap surfaces as a silently coarser
prediction tier. The checker walks every network's layer graph and
cross-checks:

- CT001  the network builds at all;
- CT002  every emitted layer kind has a FLOP counting rule
         (:func:`repro.nn.flops.counted_kinds`) and yields a
         non-negative integer FLOP count;
- CT003  every emitted layer kind lowers to forward kernels
         (:func:`repro.gpu.cudnn.kernel_calls`);
- CT004  every emitted layer kind lowers to backward kernels
         (training workloads);
- CT005  the kernel mapping table built from the emitted signatures
         survives a JSON persistence round-trip with lookups intact;
- CT006  every emitted kernel's cost driver is one of the three
         classification drivers (input / operation / output), so the
         KW classifier can learn it;
- CT007  for every zoo network and every model kind (e2e / lw / kw /
         igkw), a compiled :class:`~repro.core.plan.PredictionPlan`
         reproduces the direct per-layer prediction path bit-exactly —
         the compile/evaluate split may never drift from the reference
         arithmetic. (Trains a small fixed campaign; runs only on the
         full default sweep, not on named subsets.)
- CT008  versioned model documents round-trip through the calibration
         store with lineage and sufficient statistics intact: adopt
         stamps v1, publish records parentage and exact accumulator
         state, and rollback restores the prior head byte-for-byte.
- CT009  for every model kind, the vectorised batch evaluator
         (:meth:`~repro.core.plan.PredictionPlan.evaluate_many`)
         returns exactly what the scalar ``evaluate`` returns point by
         point — single-target plans broadcast their one value, and a
         retargetable plan's numpy grid replays the scalar arithmetic
         bit-for-bit across heterogeneous targets, each grid point's
         (total, fallback share) pair equal to the plan bound to that
         target (``bind``), its ``lw_plan(target)`` evaluating
         exactly to the nearest LW model's direct per-layer sum, and
         its one synthesis pass (``kernel_lines``) giving every used
         kernel exactly the scalar ``line_for_bandwidth`` line per
         target. (Shares CT007's
         trained campaign, so it too runs only on the full sweep.)
- CT010  every placement policy in the fleet registry
         (:func:`repro.fleet.policy_names`) is exercised by the
         committed policy-comparison study
         (``repro.studies.fleet_study.STUDY_POLICIES``), and the study
         names no policy the registry lacks — registering a policy
         without studying it (or vice versa) is a silent coverage gap.
- CT011  the plan optimizer and the AOT compile store
         (:mod:`repro.core.planopt`) never change a number: a plan
         round-tripped through a persisted bundle — line pool interning,
         a kernel-level plan's columns and term matrices — agrees
         bit-exactly with the freshly compiled plan under
         :func:`~repro.core.planopt.plan_mismatch` (a kernel plan's
         total, share, per-layer coverage records and ``lw_plan()``; a
         retargetable plan's grid, checked per target against the fresh
         bound plan, and its bound plans), and a bundle whose model file changed underneath is
         refused outright.
         (Shares CT007's trained campaign, so it runs only on the full
         sweep.)

Failures are reported as :class:`~repro.analysis_checks.findings.Finding`
records (all error severity), deduplicated per layer kind / kernel so a
gap reads as one actionable line, not one per network.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis_checks.findings import Finding, Severity

#: contract rule id -> what it guarantees.
CONTRACT_RULES: Dict[str, str] = {
    "CT001": "every zoo network builds",
    "CT002": "every emitted layer kind has a FLOP rule",
    "CT003": "every emitted layer kind has a forward kernel mapping",
    "CT004": "every emitted layer kind has a backward kernel mapping",
    "CT005": "the kernel mapping table survives persistence round-trip",
    "CT006": "every kernel's driver is input/operation/output",
    "CT007": "compiled plans match direct predictions bit-exactly",
    "CT008": "versioned documents keep lineage and sufficient stats",
    "CT009": "batch evaluate_many matches scalar evaluate bit-exactly",
    "CT010": "the fleet study exercises every registered policy",
    "CT011": "optimized and AOT-loaded plans are bit-exact with the "
             "unoptimized path",
}

#: finding rule id -> module whose contract it checks (finding path).
_LOCUS = {
    "CT001": "repro.zoo.registry",
    "CT002": "repro.nn.flops",
    "CT003": "repro.gpu.cudnn",
    "CT004": "repro.gpu.cudnn",
    "CT005": "repro.core.persistence",
    "CT006": "repro.gpu.kernels",
    "CT007": "repro.core.plan",
    "CT008": "repro.calibration.store",
    "CT009": "repro.core.plan",
    "CT010": "repro.fleet.policies",
    "CT011": "repro.core.planopt",
}


@dataclass
class ContractReport:
    """Outcome of one contract sweep over the zoo."""

    networks: List[str] = field(default_factory=list)
    layer_kinds: Set[str] = field(default_factory=set)
    kernel_names: Set[str] = field(default_factory=set)
    #: signature -> first observed kernel sequence (CT005 input)
    sequences: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)

    @property
    def signatures(self) -> Set[str]:
        return set(self.sequences)

    @property
    def ok(self) -> bool:
        return not self.findings

    def gaps(self) -> Dict[str, List[str]]:
        """rule id -> sorted offending subjects (empty when clean)."""
        by_rule: Dict[str, Set[str]] = {rule: set()
                                        for rule in CONTRACT_RULES}
        for finding in self.findings:
            subject = finding.message.split(":", 1)[0]
            by_rule.setdefault(finding.rule, set()).add(subject)
        return {rule: sorted(subjects)
                for rule, subjects in by_rule.items()}

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.findings)} violation(s)"
        return (f"contracts over {len(self.networks)} network(s): "
                f"{len(self.layer_kinds)} layer kinds, "
                f"{len(self.kernel_names)} kernels, "
                f"{len(self.signatures)} signatures — {status}")


class _Recorder:
    """Deduplicating finding sink: one line per (rule, subject)."""

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[str, str]] = set()

    def record(self, rule: str, subject: str, detail: str) -> None:
        if (rule, subject) in self._seen:
            return
        self._seen.add((rule, subject))
        self.findings.append(Finding(
            _LOCUS[rule], 0, 0, rule, Severity.ERROR,
            f"{subject}: {detail} [{CONTRACT_RULES[rule]}]"))


def _check_network(name: str, network, batch_size: int,
                   report: ContractReport, sink: _Recorder) -> None:
    from repro.core.classification import FEATURES
    from repro.core.signature import layer_signature
    from repro.gpu.cudnn import (
        backward_kernel_calls,
        backward_supported_kinds,
        kernel_calls,
        supported_kinds,
    )
    from repro.nn.flops import counted_kinds

    forward_kinds = set(supported_kinds())
    backward_kinds = set(backward_supported_kinds())
    flop_kinds = set(counted_kinds())

    for info in network.layer_infos(batch_size):
        kind = info.kind
        report.layer_kinds.add(kind)

        if kind not in flop_kinds:
            sink.record("CT002", kind,
                        f"no FLOP rule (first seen in {name!r})")
        elif not isinstance(info.flops, int) or info.flops < 0:
            sink.record("CT002", kind,
                        f"FLOP rule returned {info.flops!r} for "
                        f"{info.name!r} in {name!r}; expected a "
                        "non-negative int")

        for direction, kinds, lower, rule in (
                ("forward", forward_kinds, kernel_calls, "CT003"),
                ("backward", backward_kinds, backward_kernel_calls,
                 "CT004")):
            if kind not in kinds:
                sink.record(rule, kind,
                            f"no {direction} kernel mapping (first seen "
                            f"in {name!r})")
                continue
            try:
                calls = lower(info)
            except Exception as exc:  # repro: noqa[EX001] reported as finding
                sink.record(rule, kind,
                            f"{direction} lowering failed for "
                            f"{info.name!r} in {name!r}: {exc}")
                continue
            signature = layer_signature(info,
                                        training=(direction == "backward"))
            names = tuple(call.kernel.name for call in calls)
            report.kernel_names.update(names)
            report.sequences.setdefault(signature, names)
            for call in calls:
                if call.kernel.driver.column not in FEATURES:
                    sink.record(
                        "CT006", call.kernel.name,
                        f"driver {call.kernel.driver!r} has no "
                        f"classification feature column")


def _check_persistence(report: ContractReport, sink: _Recorder) -> None:
    """CT005: the collected signatures survive a JSON round-trip."""
    from repro.core.kernelwise import KernelMappingTable
    from repro.core.linreg import LinearFit
    from repro.core.persistence import (
        _fit_from_dict,
        _fit_to_dict,
        _table_from_dict,
        _table_to_dict,
    )

    sequences = report.sequences
    if not sequences:
        return
    table = KernelMappingTable(sequences, {})
    try:
        revived = _table_from_dict(
            json.loads(json.dumps(_table_to_dict(table))))
    except Exception as exc:  # repro: noqa[EX001] reported as finding
        sink.record("CT005", "mapping-table",
                    f"serialisation raised {exc!r}")
        return
    for signature, sequence in sequences.items():
        if revived.lookup(signature) != sequence:
            sink.record("CT005", signature,
                        "kernel sequence changed across the JSON "
                        "round-trip")
    fit = LinearFit(1.25, -3.5, 0.875, 12)
    if _fit_from_dict(json.loads(json.dumps(_fit_to_dict(fit)))) != fit:
        sink.record("CT005", "linear-fit",
                    "LinearFit changed across the JSON round-trip")


def _check_plan_parity(networks: Dict[str, object], batch_size: int,
                       sink: _Recorder) -> None:
    """CT007 + CT009: compiled plans match the direct prediction path.

    Trains one small fixed campaign (two networks, two bandwidth-diverse
    GPUs) and then, for every zoo network, compares the compiled-plan
    path against an *independent* direct computation — the per-layer
    prediction loops that do not route through plans — with exact float
    equality (CT007). The igkw comparison goes through ``for_gpu`` on a
    GPU the campaign never measured. The same compiled plans then feed
    CT009: ``evaluate_many`` over a target grid must reproduce the
    scalar ``evaluate`` point by point, a retargetable plan's
    ``evaluate_grid`` (total, share) pairs must equal its bound plans',
    its ``lw_plan(target)`` the nearest LW model's direct sum, and its
    ``kernel_lines`` the scalar ``line_for_bandwidth`` of every used
    kernel, bit-exactly.
    """
    from repro import zoo
    from repro.core.workflow import train_inter_gpu_model, train_model
    from repro.dataset import build_dataset
    from repro.gpu.specs import gpu

    try:
        roster = (zoo.build("resnet18"), zoo.build("mobilenet_v2"))
        specs = (gpu("A100"), gpu("TITAN RTX"))
        data = build_dataset(roster, specs, batch_sizes=(64,))
        models = {kind: train_model(data, kind, gpu="A100", batch_size=64)
                  for kind in ("e2e", "lw", "kw")}
        igkw = train_inter_gpu_model(data, specs, batch_size=64)
    except Exception as exc:  # repro: noqa[EX001] reported as finding
        sink.record("CT007", "training-campaign",
                    f"parity campaign failed to train: {exc}")
        sink.record("CT009", "training-campaign",
                    f"parity campaign failed to train: {exc}")
        return

    target = gpu("V100")
    # heterogeneous CT009 grid: the unseen target, a bandwidth override
    # on it, and a GPU the campaign actually measured
    grid = (target, target.with_bandwidth(600.0), gpu("A100"))

    def direct(kind: str, network) -> float:
        model = models.get(kind)
        if kind == "e2e":
            return model.predict_flops(network.total_flops(batch_size))
        if kind == "lw":
            return sum(model.predict_layer(info.kind, float(info.flops))
                       for info in network.layer_infos(batch_size))
        if kind == "kw":
            return sum(model.predict_layer(info)
                       for info in network.layer_infos(batch_size))
        predictor = igkw.for_gpu(target)
        return sum(predictor.predict_layer(info)
                   for info in network.layer_infos(batch_size))

    def compiled_plan(kind: str, network):
        if kind == "igkw":
            return igkw.compile(network, batch_size)
        return models[kind].compile(network, batch_size)

    def batch_parity(kind: str, plan, network) -> Optional[str]:
        """CT009 for one plan: mismatch description, or None when exact."""
        if kind == "igkw":
            # the one synthesis pass both pricing paths read replays the
            # scalar line of every used kernel on every target
            slopes, intercepts = plan.kernel_lines(grid)
            for point, spec in enumerate(grid):
                metric = igkw._metric(spec)
                for i, kernel in enumerate(plan.arrays.used_kernels):
                    line = igkw.transfers[kernel].line_for_bandwidth(metric)
                    synthesised = (float(slopes[i, point]),
                                   float(intercepts[i, point]))
                    scalar_line = (line.slope, line.intercept)
                    if synthesised != scalar_line:  # repro: noqa[FP001]
                        return (f"kernel_lines {kernel!r} on {spec.name!r}: "
                                f"{synthesised!r} != line_for_bandwidth "
                                f"{scalar_line!r}")
            # every grid column is the bound plan's (total, share)
            bound = [plan.bind(point) for point in grid]
            scalar_pairs = [(kernel_plan.evaluate(),
                             kernel_plan.fallback_time_share())
                            for kernel_plan in bound]
            gridded = list(zip(*plan.evaluate_grid(grid)))
            if gridded != scalar_pairs:  # repro: noqa[FP001]
                return (f"evaluate_grid {gridded!r} != bind "
                        f"{scalar_pairs!r}")
            # the degraded tier's LW plan replays the nearest LW model
            lw_plans = [plan.lw_plan(point).evaluate() for point in grid]
            lw_direct = [
                sum(lw.predict_layer(info.kind, float(info.flops))
                    for info in network.layer_infos(batch_size))
                for lw in (igkw._nearest_lw(point) for point in grid)]
            if lw_plans != lw_direct:  # repro: noqa[FP001]
                return f"lw_plan {lw_plans!r} != direct LW {lw_direct!r}"
            scalar = [plan.evaluate(gpu=point) for point in grid]
            batch = plan.evaluate_many(grid)
        else:
            scalar = [plan.evaluate()] * len(grid)
            batch = plan.evaluate_many([None] * len(grid))
        # the contract IS exact equality: the vectorised path must
        # replay the scalar arithmetic, not approximate it
        if batch != scalar:  # repro: noqa[FP001]
            return f"evaluate_many {batch!r} != scalar {scalar!r}"
        return None

    fresh_plans: Dict[Tuple[str, str], object] = {}
    for name, network in networks.items():
        for kind in ("e2e", "lw", "kw", "igkw"):
            try:
                reference = direct(kind, network)
                plan = compiled_plan(kind, network)
                compiled = (plan.evaluate(gpu=target) if kind == "igkw"
                            else plan.evaluate())
            except Exception as exc:  # repro: noqa[EX001] as finding
                sink.record("CT007", f"{name}/{kind}",
                            f"prediction failed: {exc}")
                continue
            fresh_plans[(name, kind)] = plan
            # the contract IS exact equality: the plan must replay the
            # reference accumulation, not approximate it
            if compiled != reference:  # repro: noqa[FP001]
                sink.record("CT007", f"{name}/{kind}",
                            f"plan {compiled!r} != direct {reference!r}")
            try:
                mismatch = batch_parity(kind, plan, network)
            except Exception as exc:  # repro: noqa[EX001] as finding
                sink.record("CT009", f"{name}/{kind}",
                            f"batch evaluation failed: {exc}")
                continue
            if mismatch is not None:
                sink.record("CT009", f"{name}/{kind}", mismatch)

    _check_aot_parity(dict(models, igkw=igkw), networks, fresh_plans,
                      batch_size, grid, sink)


def _check_aot_parity(models: Dict[str, object],
                      networks: Dict[str, object],
                      fresh_plans: Dict[Tuple[str, str], object],
                      batch_size: int, grid, sink: _Recorder) -> None:
    """CT011: the optimizer and the compile store never change a number.

    Persists CT007's trained models, AOT-compiles a bundle per model
    over the same zoo networks, reloads the bundles, and compares every
    loaded plan against the freshly compiled plan with exact float
    equality through :func:`~repro.core.planopt.plan_mismatch`, the
    check ``repro compile --verify`` runs, which reads every persisted
    column back. Also checks that a bundle whose model bytes changed
    underneath is refused.
    """
    import json as json_mod
    import tempfile
    from pathlib import Path

    from repro.core import planopt
    from repro.core.persistence import save_model

    try:
        with tempfile.TemporaryDirectory() as scratch:
            for kind, model in models.items():
                path = Path(scratch) / f"{kind}.json"
                save_model(model, path)
                document = planopt.build_bundle(
                    model, path, list(networks.values()), [batch_size])
                planopt.save_bundle(document, path)
                loaded = planopt.load_bundle(path, model)
                for name in networks:
                    plan = loaded.get((name, batch_size))
                    fresh = fresh_plans.get((name, kind))
                    if plan is None or fresh is None:
                        sink.record("CT011", f"{name}/{kind}",
                                    "bundle does not cover the network")
                        continue
                    mismatch = planopt.plan_mismatch(plan, fresh, grid)
                    if mismatch is not None:
                        sink.record("CT011", f"{name}/{kind}", mismatch)
            # provenance: flip one byte of a model file and the bundle
            # must be refused, not served
            path = Path(scratch) / "e2e.json"
            document = json_mod.loads(path.read_text())
            document["fit"]["intercept"] += 1.0
            path.write_text(json_mod.dumps(document))
            try:
                planopt.load_bundle(path, models["e2e"])
            except planopt.BundleMismatch:
                pass
            else:
                sink.record("CT011", "provenance",
                            "a bundle with stale provenance loaded "
                            "instead of being refused")
    except Exception as exc:  # repro: noqa[EX001] reported as finding
        sink.record("CT011", "aot-store", f"AOT round-trip raised {exc!r}")


def _check_versioned_store(sink: _Recorder) -> None:
    """CT008: store round-trips keep lineage and sufficient statistics.

    Exercises a throwaway store in a temp directory with a tiny e2e
    model: adopt must stamp v1, publish must record parentage and the
    accumulators bit-exactly, and rollback must restore the prior head
    byte-for-byte. Cheap (no training), so it runs on every sweep.
    """
    import tempfile

    from repro.calibration.refit import STATS_KEY, stats_from_document
    from repro.calibration.store import LINEAGE_KEY, ModelStore
    from repro.core.e2e import EndToEndModel
    from repro.core.linreg import LinearFit
    from repro.core.online import OnlineLinearFit
    from repro.core.persistence import save_model

    model = EndToEndModel()
    model.fit = LinearFit(3.25e-9, 125.0, 0.9375, 16)
    acc = OnlineLinearFit()
    for x, y in ((100.0, 110.0), (200.0, 230.0), (400.0, 470.0)):
        acc.observe(x, y, weight=1.0 / y ** 2)
    stats = {"network": acc, "__pooled__": acc.copy()}

    try:
        with tempfile.TemporaryDirectory() as scratch:
            store = ModelStore(scratch)
            save_model(model, store.head_path("ct008"))
            if store.adopt("ct008") != 1:
                sink.record("CT008", "adopt", "did not stamp version 1")
            v2 = store.publish("ct008", store.document("ct008"),
                               trigger="contract-check", stats=stats,
                               refit_samples=acc.n)
            head = store.document("ct008")
            lineage = head.get(LINEAGE_KEY) or {}
            if (v2 != 2 or lineage.get("version") != 2
                    or lineage.get("parent") != 1
                    or lineage.get("trigger") != "contract-check"
                    or lineage.get("refit_samples") != acc.n):
                sink.record("CT008", "lineage",
                            f"publish produced lineage {lineage!r}; "
                            "expected v2 with parent 1")
            revived = stats_from_document(head)
            if (set(revived) != set(stats)
                    or any(revived[g].state_dict() != stats[g].state_dict()
                           for g in stats)):
                sink.record("CT008", "sufficient-stats",
                            "accumulators changed across the store "
                            "round-trip")
            if head.get("fit") != store.document("ct008", 1).get("fit"):
                sink.record("CT008", "document",
                            "model parameters changed across publish")
            v1_bytes = store.version_path("ct008", 1).read_bytes()
            store.rollback("ct008")
            if store.head_path("ct008").read_bytes() != v1_bytes:
                sink.record("CT008", "rollback",
                            "head is not byte-identical to v1 after "
                            "rollback")
            if STATS_KEY not in head:
                sink.record("CT008", "sufficient-stats",
                            "published document lacks the statistics key")
    except Exception as exc:  # repro: noqa[EX001] reported as finding
        sink.record("CT008", "store", f"store round-trip raised {exc!r}")


def _check_fleet_study(sink: _Recorder) -> None:
    """CT010: the policy registry and the committed study agree.

    ``STUDY_POLICIES`` is a deliberate literal (not a call to
    :func:`repro.fleet.policy_names`) so that this check can catch a
    newly registered policy the study forgot — and, symmetrically, a
    study entry whose policy was renamed or removed. Cheap (pure set
    comparison, no simulation), so it runs on every sweep.
    """
    try:
        from repro.fleet import policy_names
        from repro.studies.fleet_study import STUDY_POLICIES
    except Exception as exc:  # repro: noqa[EX001] reported as finding
        sink.record("CT010", "fleet-study", f"import failed: {exc}")
        return

    registered = set(policy_names())
    studied = set(STUDY_POLICIES)
    for name in sorted(registered - studied):
        sink.record("CT010", name,
                    "registered policy is missing from the study's "
                    "STUDY_POLICIES")
    for name in sorted(studied - registered):
        sink.record("CT010", name,
                    "study names a policy the registry does not have")
    if len(STUDY_POLICIES) != len(studied):
        sink.record("CT010", "fleet-study",
                    "STUDY_POLICIES contains duplicate entries")


def check_contracts(network_names: Optional[Sequence[str]] = None,
                    batch_size: int = 1) -> ContractReport:
    """Run every contract over the named zoo networks.

    ``network_names`` defaults to every registered named model
    (:func:`repro.zoo.model_names`); pass a subset for quick checks.
    The CT007/CT009 plan-parity sweeps train a small campaign, so they
    run only on the full default sweep (``network_names=None``).
    """
    from repro import zoo

    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    names = list(network_names if network_names is not None
                 else zoo.model_names())
    report = ContractReport(networks=names)
    sink = _Recorder()
    built: Dict[str, object] = {}
    for name in names:
        try:
            network = zoo.build(name)
        except Exception as exc:  # repro: noqa[EX001] reported as finding
            sink.record("CT001", name, f"build failed: {exc}")
            continue
        built[name] = network
        _check_network(name, network, batch_size, report, sink)
    _check_persistence(report, sink)
    _check_versioned_store(sink)
    _check_fleet_study(sink)
    if network_names is None:
        _check_plan_parity(built, batch_size, sink)
    report.findings = sink.findings
    return report

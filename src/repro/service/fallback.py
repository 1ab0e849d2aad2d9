"""Graceful degradation: KW -> LW -> E2E fallback chain.

The paper's acknowledged kernel-level failure mode — "if one GPU uses a
very different kernel ... fall back to the layer-wise model" — becomes a
serving policy here. A kernel-level tier answers only when the coverage
audit (``core.coverage``) says the prediction is trustworthy, i.e. at
most ``coverage_threshold`` of the predicted time rests on the per-layer
layer-wise fallback. Otherwise the request degrades to the model's own
LW fallback, then to any registry-hosted E2E model, and the response
records which tier actually answered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro import zoo
from repro.core.plan import FlopsPlan, KernelPlan, LayerSumPlan

#: Default trustworthiness bar, matching CoverageReport.trustworthy.
COVERAGE_THRESHOLD = 0.10

#: One tier: (name, predict(network_name, batch_size) -> microseconds).
#: Tiers over compiled plans ignore the name; only a hosted E2E tier
#: builds the zoo network it names.
Tier = Tuple[str, Callable[[str, int], float]]


class TierError(RuntimeError):
    """One tier declined or failed; the chain moves to the next tier."""


class PredictionError(RuntimeError):
    """Every tier of a chain failed."""


@dataclass(frozen=True)
class PredictionOutcome:
    """A chain's answer: the value plus the degradation trail."""

    value_us: float
    tier: str
    #: (tier name, failure reason or None) for every tier attempted,
    #: ending with the tier that answered.
    attempts: Tuple[Tuple[str, Optional[str]], ...]

    @property
    def degraded(self) -> bool:
        return len(self.attempts) > 1


class FallbackChain:
    """Try tiers in order until one produces a prediction."""

    def __init__(self, tiers: Sequence[Tier]) -> None:
        if not tiers:
            raise ValueError("a fallback chain needs at least one tier")
        self.tiers = list(tiers)

    def tier_names(self) -> List[str]:
        return [name for name, _ in self.tiers]

    def predict(self, network_name: str, batch_size: int
                ) -> PredictionOutcome:
        attempts: List[Tuple[str, Optional[str]]] = []
        for name, fn in self.tiers:
            try:
                value = float(fn(network_name, batch_size))
            # a TierError is the domain protocol for "this tier
            # declines": its message is the whole story
            except TierError as exc:
                attempts.append((name, str(exc) or type(exc).__name__))
                continue
            # any other failure is a signal to degrade, never to crash —
            # but the recorded reason must keep the original exception
            # type, or every bug collapses into one anonymous bucket
            except Exception as exc:  # repro: noqa[EX001]
                message = str(exc)
                attempts.append(
                    (name, f"{type(exc).__name__}: {message}" if message
                     else type(exc).__name__))
                continue
            attempts.append((name, None))
            return PredictionOutcome(value, name, tuple(attempts))
        trail = "; ".join(f"{name}: {reason}" for name, reason in attempts)
        raise PredictionError(
            f"every fallback tier failed for {network_name!r} "
            f"at batch {batch_size} ({trail})")


def kernel_chain(total_us: float, share: float,
                 lw_plan: Optional[Callable[[], LayerSumPlan]],
                 registry=None,
                 coverage_threshold: float = COVERAGE_THRESHOLD
                 ) -> FallbackChain:
    """The KW -> LW -> E2E chain of one priced kernel-level prediction.

    ``total_us`` and ``share`` are the plan's total and the fraction of
    it resting on layer-wise fallback layers, as already priced (by a
    KernelPlan or ``RetargetablePlan.evaluate_grid``); the
    kw tier answers with the total when the share passes the coverage
    gate. The LW tier evaluates ``lw_plan()``, the layer-wise plan of
    the same network, which the kernel-level plan lowers once and
    caches; a chain without a layer-wise fallback passes None.
    """
    def kernel_tier(network_name: str, batch_size: int) -> float:
        if share > coverage_threshold:
            raise TierError(
                f"{share:.0%} of the predicted time rests on unmapped "
                f"kernels (threshold {coverage_threshold:.0%})")
        return total_us
    tiers: List[Tier] = [("kw", kernel_tier)]
    if lw_plan is not None:
        tiers.append(("lw",
                      lambda network_name, batch_size: lw_plan().evaluate()))
    return _with_hosted_e2e(tiers, registry)


def _hosted_e2e_tier(model) -> Callable[[str, int], float]:
    def predict(network_name: str, batch_size: int) -> float:
        return model.predict_network(zoo.build(network_name), batch_size)
    return predict


def _with_hosted_e2e(tiers: List[Tier], registry) -> FallbackChain:
    has_e2e = any(name == "e2e" for name, _ in tiers)
    if registry is not None and not has_e2e:
        hosted = registry.first_of_kind("e2e")
        if hosted is not None:
            tiers.append(("e2e", _hosted_e2e_tier(hosted.model)))
    return FallbackChain(tiers)


def build_plan_chain(plan, registry=None,
                     coverage_threshold: float = COVERAGE_THRESHOLD
                     ) -> FallbackChain:
    """The degradation chain for one compiled plan.

    A kernel plan (KW, or IGKW after ``bind``) gets the full
    KW -> LW -> E2E :func:`kernel_chain` over its own total, fallback
    share and ``lw_plan``; an LW plan degrades to a hosted E2E model;
    an E2E plan stands alone. No tier re-walks the network: the kernel
    tier reads coverage straight off the plan (its stages were fixed at
    compile time), the LW tier evaluates the plan's cached LW plan,
    and only the hosted E2E tier (``registry``'s
    ``first_of_kind("e2e")``) builds the network from its name.
    """
    if isinstance(plan, KernelPlan):
        return kernel_chain(
            plan.evaluate(), plan.fallback_time_share(),
            None if plan.lw_model is None else plan.lw_plan,
            registry, coverage_threshold)
    tiers: List[Tier] = []
    if isinstance(plan, LayerSumPlan):
        tiers.append(("lw", lambda network_name, batch_size: plan.evaluate()))
    elif isinstance(plan, FlopsPlan):
        tiers.append(("e2e", lambda network_name, batch_size: plan.evaluate()))
    else:
        # any other plan serves as its own single tier
        tiers.append(((plan.model_name or "model").lower(),
                      lambda network_name, batch_size: plan.evaluate()))
    return _with_hosted_e2e(tiers, registry)

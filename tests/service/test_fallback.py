"""Tests for the KW -> LW -> E2E fallback chain over compiled plans."""

import shutil

import pytest

from repro import zoo
from repro.core.plan import LayerSumPlan
from repro.core.planopt import build_bundle, load_bundle, save_bundle
from repro.service import (
    FallbackChain,
    PredictionError,
    PredictionService,
    TierError,
    build_plan_chain,
    resolve_target,
)
from repro.service.core import ServiceError


def compile_plan(registry, model_name, network_name="resnet50",
                 batch_size=64):
    network = zoo.build(network_name)
    return registry.get(model_name).model.compile(network, batch_size)


@pytest.fixture()
def kw_model(registry):
    return registry.get("kw-a100").model


class TestBuildChain:
    def test_kernel_model_gets_full_chain(self, registry):
        chain = build_plan_chain(compile_plan(registry, "kw-a100"), registry)
        assert chain.tier_names() == ["kw", "lw", "e2e"]

    def test_lw_model_degrades_to_hosted_e2e(self, registry):
        chain = build_plan_chain(compile_plan(registry, "lw-a100"), registry)
        assert chain.tier_names() == ["lw", "e2e"]

    def test_e2e_model_stands_alone(self, registry):
        chain = build_plan_chain(compile_plan(registry, "e2e-a100"),
                                 registry)
        assert chain.tier_names() == ["e2e"]

    def test_without_registry_no_hosted_tier(self, registry):
        chain = build_plan_chain(compile_plan(registry, "kw-a100"))
        assert chain.tier_names() == ["kw", "lw"]

    def test_igkw_resolved_predictor_gets_full_chain(self, registry):
        target = resolve_target("igkw", "V100", None)
        plan = compile_plan(registry, "igkw").bind(target)
        chain = build_plan_chain(plan, registry)
        assert chain.tier_names() == ["kw", "lw", "e2e"]

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            FallbackChain([])


class TestPredict:
    def test_covered_network_answers_at_kw(self, kw_model, registry):
        network = zoo.build("resnet50")
        chain = build_plan_chain(kw_model.compile(network, 64), registry)
        outcome = chain.predict("resnet50", 64)
        assert outcome.tier == "kw"
        assert not outcome.degraded
        assert outcome.attempts == (("kw", None),)
        assert outcome.value_us == kw_model.predict_network(network, 64)

    def test_unknown_shapes_degrade_to_lw(self, kw_model, registry):
        """A transformer against a CNN-trained KW model: the mapping
        table misses, coverage flags the prediction, LW answers."""
        network = zoo.build("bert_small")
        chain = build_plan_chain(kw_model.compile(network, 64), registry)
        outcome = chain.predict("bert_small", 64)
        assert outcome.tier == "lw"
        assert outcome.degraded
        assert outcome.attempts[0][0] == "kw"
        assert "unmapped" in outcome.attempts[0][1]
        assert outcome.value_us == \
            kw_model.lw_fallback.predict_network(network, 64)

    def test_strict_threshold_forces_degradation(self, kw_model,
                                                 registry):
        """coverage_threshold=0 rejects any fallback time at the KW
        tier, even for a well-covered CNN variant."""
        network = zoo.build("bert_small")
        chain = build_plan_chain(kw_model.compile(network, 64), registry,
                                 coverage_threshold=0.0)
        outcome = chain.predict("bert_small", 64)
        assert outcome.tier in ("lw", "e2e")

    def test_chain_reaches_e2e_when_lw_fails(self, registry):
        def broken(network_name, batch_size):
            raise TierError("boom")

        e2e = registry.get("e2e-a100").model
        chain = FallbackChain([
            ("kw", broken), ("lw", broken),
            ("e2e", lambda network_name, batch_size: e2e.predict_network(
                zoo.build(network_name), batch_size))])
        outcome = chain.predict("resnet18", 64)
        assert outcome.tier == "e2e"
        assert [name for name, _ in outcome.attempts] == ["kw", "lw",
                                                          "e2e"]
        assert outcome.attempts[0][1] == "boom"

    def test_all_tiers_failing_raises(self):
        def broken(network_name, batch_size):
            raise TierError("down")

        chain = FallbackChain([("kw", broken), ("lw", broken)])
        with pytest.raises(PredictionError,
                           match="every fallback tier failed for "
                                 "'resnet18'"):
            chain.predict("resnet18", 64)

    def test_tier_counts_match_coverage_semantics(self, kw_model,
                                                  registry):
        """Every small-roster CNN the model trained on answers at kw."""
        for name in ("alexnet", "resnet18", "vgg11", "mobilenet_v2"):
            network = zoo.build(name)
            chain = build_plan_chain(kw_model.compile(network, 64),
                                     registry)
            assert chain.predict(name, 64).tier == "kw"

    def test_plan_tiers_answer_with_the_plans_values(self, registry):
        """The lw and e2e tiers of a plan chain serve the plan's own
        compiled value, bit-exact with the model's direct path."""
        network = zoo.build("resnet18")
        for name in ("lw-a100", "e2e-a100"):
            model = registry.get(name).model
            outcome = build_plan_chain(model.compile(network, 64)
                                       ).predict("resnet18", 64)
            assert not outcome.degraded
            assert outcome.value_us == model.predict_network(network, 64)


class TestKernelPlanLwPlan:
    @pytest.mark.parametrize("batch_size", [64, 512])
    def test_kw_a100_bert_small_matches_lw_model(self, kw_model,
                                                 batch_size):
        network = zoo.build("bert_small")
        plan = kw_model.compile(network, batch_size)
        assert plan.fallback_time_share() > 0.10      # a degraded network
        assert plan.lw_plan().evaluate() == \
            kw_model.lw_fallback.predict_network(network, batch_size)

    def test_lw_plan_builds_no_network(self, kw_model, models_dir,
                                       tmp_path, monkeypatch):
        # the LW plan is lowered from the plan's own kinds and FLOPs, on
        # a freshly compiled and on an AOT-loaded plan alike
        network = zoo.build("bert_small")
        path = tmp_path / "kw-a100.json"
        shutil.copy(models_dir / "kw-a100.json", path)
        save_bundle(build_bundle(kw_model, path, [network], [64]), path)
        plans = {"fresh": kw_model.compile(network, 64),
                 "aot": load_bundle(path, kw_model)[("bert_small", 64)]}
        expected = kw_model.lw_fallback.predict_network(network, 64)
        built = []
        build = zoo.build
        monkeypatch.setattr(
            zoo, "build", lambda name: built.append(name) or build(name))
        for origin, plan in plans.items():
            assert plan.fallback_time_share() > 0.10, origin
            assert plan.lw_plan().evaluate() == expected, origin
        assert built == []


class TestServiceChainByName:
    """The service hands chains the network's name: only the hosted E2E
    tier builds the graph, and only when the LW tier fails."""

    @staticmethod
    def _broken_lw(monkeypatch):
        def evaluate(plan, gpu=None):
            raise TierError("lw down")
        monkeypatch.setattr(LayerSumPlan, "evaluate", evaluate)

    def test_hosted_e2e_builds_the_network_from_its_name(self, registry,
                                                         monkeypatch):
        self._broken_lw(monkeypatch)
        service = PredictionService(registry)
        response = service.predict({"model": "kw-a100",
                                    "network": "bert_small",
                                    "batch_size": 64})
        assert response["tier"] == "e2e"
        assert [attempt["tier"] for attempt in response["attempts"]] == \
            ["kw", "lw", "e2e"]
        assert response["attempts"][1]["error"] == "lw down"
        assert response["predicted_us"] == registry.get(
            "e2e-a100").model.predict_network(zoo.build("bert_small"), 64)

    def test_every_tier_failing_names_the_network(self, registry,
                                                  monkeypatch):
        self._broken_lw(monkeypatch)
        monkeypatch.setattr(registry, "first_of_kind", lambda kind: None)
        service = PredictionService(registry)
        with pytest.raises(ServiceError) as raised:
            service.predict({"model": "kw-a100", "network": "bert_small",
                             "batch_size": 64})
        assert raised.value.status == 422
        assert "every fallback tier failed for 'bert_small' at batch 64" \
            in raised.value.message

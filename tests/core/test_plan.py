"""The compile/evaluate split: bit-exact parity and plan semantics.

The contract is exact float equality, not approximation: a compiled
:class:`~repro.core.plan.PredictionPlan` must replay the direct
prediction path's accumulation, term for term. Parity is asserted for
every zoo network against every model kind (e2e / lw / kw / igkw), with
the direct side computed through the per-layer loops that do not route
through plans.
"""

from __future__ import annotations

import pytest

from repro import zoo
from repro.core import (
    EndToEndModel,
    FlopsPlan,
    InterGPUKernelWiseModel,
    KernelPlan,
    KernelTablePredictor,
    KernelWiseModel,
    LayerSumPlan,
    LayerWiseModel,
    OnlineEndToEndModel,
    OverheadAwareModel,
    RetargetablePlan,
    coverage_report,
    train_inter_gpu_model,
    train_model,
)
from repro.gpu import gpu

#: Parity batch size: small enough to keep 36 networks fast, and not a
#: batch size the training campaign measured.
PARITY_BS = 4


@pytest.fixture(scope="module")
def single_gpu_models(small_dataset):
    return {kind: train_model(small_dataset, kind, gpu="A100",
                              batch_size=64)
            for kind in ("e2e", "lw", "kw")}


@pytest.fixture(scope="module")
def igkw_model(small_dataset):
    return train_inter_gpu_model(
        small_dataset, [gpu("A100"), gpu("TITAN RTX")], batch_size=64)


def _direct(kind, model, network, batch_size, target=None):
    """The reference prediction, computed without compiling a plan."""
    if kind == "e2e":
        return model.predict_flops(network.total_flops(batch_size))
    if kind == "lw":
        return sum(model.predict_layer(info.kind, float(info.flops))
                   for info in network.layer_infos(batch_size))
    if kind == "kw":
        return sum(model.predict_layer(info)
                   for info in network.layer_infos(batch_size))
    predictor = model.for_gpu(target)
    return sum(predictor.predict_layer(info)
               for info in network.layer_infos(batch_size))


class TestZooParity:
    """compile(...).evaluate() == predict_network(...) — exact, all zoo."""

    @pytest.mark.parametrize("name", zoo.model_names())
    def test_single_gpu_kinds_bit_exact(self, single_gpu_models, name):
        network = zoo.build(name)
        for kind, model in single_gpu_models.items():
            plan = model.compile(network, PARITY_BS)
            shim = model.predict_network(network, PARITY_BS)
            reference = _direct(kind, model, network, PARITY_BS)
            assert plan.evaluate() == shim, (name, kind)
            assert plan.evaluate() == reference, (name, kind)

    @pytest.mark.parametrize("name", zoo.model_names())
    def test_igkw_bit_exact(self, igkw_model, name):
        network = zoo.build(name)
        target = gpu("V100")      # never measured by the campaign
        plan = igkw_model.compile(network, PARITY_BS)
        shim = igkw_model.predict_network(network, PARITY_BS, target)
        reference = _direct("igkw", igkw_model, network, PARITY_BS,
                            target)
        assert plan.evaluate(gpu=target) == shim, name
        assert plan.bind(target).evaluate() == reference, name


class TestPlanShapes:
    def test_e2e_compiles_to_flops_plan(self, single_gpu_models):
        network = zoo.build("resnet18")
        plan = single_gpu_models["e2e"].compile(network, PARITY_BS)
        assert isinstance(plan, FlopsPlan)
        assert plan.total_flops == network.total_flops(PARITY_BS)
        assert plan.network_name == "resnet18"
        assert plan.batch_size == PARITY_BS
        assert plan.coverage() is None

    def test_lw_plan_has_one_term_per_layer(self, single_gpu_models):
        network = zoo.build("resnet18")
        plan = single_gpu_models["lw"].compile(network, PARITY_BS)
        assert isinstance(plan, LayerSumPlan)
        assert len(plan.terms) == len(network.layer_infos(PARITY_BS))

    def test_kw_plan_records_layer_stages(self, single_gpu_models):
        network = zoo.build("resnet18")
        plan = single_gpu_models["kw"].compile(network, PARITY_BS)
        assert isinstance(plan, KernelPlan)
        assert plan.arrays.names == tuple(
            info.name for info in network.layer_infos(PARITY_BS))
        lw = single_gpu_models["kw"].lw_fallback
        assert plan.lw_model is lw
        lw_plan = plan.lw_plan()
        assert plan.lw_plan() is lw_plan          # lowered once, cached
        infos = network.layer_infos(PARITY_BS)
        assert len(lw_plan.terms) == len(infos)
        assert all(fit is lw.fits.get(info.kind, lw.fallback)
                   for (_, fit), info in zip(lw_plan.terms, infos))
        assert lw_plan.evaluate() == lw.predict_network(network, PARITY_BS)

    @pytest.mark.parametrize("lw, error", [(None, KeyError),
                                           (LayerWiseModel(), RuntimeError)])
    def test_kw_compile_refuses_an_unpriceable_fallback(
            self, single_gpu_models, lw, error):
        # bert_small has layers the CNN-trained table cannot map; with
        # no trained layer-wise model, compile raises the direct path's
        # error for the first of them
        kw = single_gpu_models["kw"]
        model = KernelTablePredictor(kw.table, kw.lines, lw, mode=kw.mode)
        network = zoo.build("bert_small")
        with pytest.raises(error) as direct:
            model.predict_network(network, PARITY_BS)
        with pytest.raises(error) as compiled:
            model.compile(network, PARITY_BS)
        assert compiled.value.args == direct.value.args

    def test_igkw_compiles_retargetable(self, igkw_model):
        plan = igkw_model.compile(zoo.build("resnet18"), PARITY_BS)
        assert isinstance(plan, RetargetablePlan)
        bound = plan.bind(gpu("V100"))
        assert isinstance(bound, KernelPlan)
        assert bound.model_name.endswith("->V100")

    def test_retargetable_requires_gpu(self, igkw_model):
        plan = igkw_model.compile(zoo.build("resnet18"), PARITY_BS)
        with pytest.raises(TypeError, match="retargetable"):
            plan.evaluate()
        with pytest.raises(TypeError, match="retargetable"):
            plan.coverage()


class TestCoverageFromPlans:
    def test_plan_coverage_matches_coverage_report(self,
                                                   single_gpu_models):
        model = single_gpu_models["kw"]
        network = zoo.build("resnet50")
        plan = model.compile(network, PARITY_BS)
        assert plan.coverage() == coverage_report(model, network,
                                                  PARITY_BS)

    def test_coverage_total_equals_evaluate(self, single_gpu_models):
        model = single_gpu_models["kw"]
        plan = model.compile(zoo.build("resnet50"), PARITY_BS)
        # the audit prices the same terms the evaluation sums
        assert plan.coverage().total_us == plan.evaluate()

    def test_coverage_report_rejects_scalar_models(self,
                                                   single_gpu_models):
        with pytest.raises(TypeError, match="kernel-level"):
            coverage_report(single_gpu_models["e2e"],
                            zoo.build("resnet18"), PARITY_BS)

    def test_coverage_is_cached_on_the_plan(self, single_gpu_models):
        plan = single_gpu_models["kw"].compile(zoo.build("resnet18"),
                                               PARITY_BS)
        assert plan.coverage() is plan.coverage()


class TestWrappedModels:
    def test_overhead_model_bit_exact(self, small_split):
        train, _ = small_split
        a100 = train.for_gpu("A100")
        base = train_model(train, "kw", gpu="A100", batch_size=64)
        wrapped = OverheadAwareModel(base).train(a100)
        network = zoo.build("resnet18")
        plan = wrapped.compile(network, PARITY_BS)
        assert plan.evaluate() == wrapped.predict_network(network,
                                                          PARITY_BS)
        kernel_sum = plan.base_plan.evaluate()
        hidden = max(0.0, wrapped.overhead_fit.predict(plan.launches))
        assert plan.evaluate() == max(0.25 * kernel_sum,
                                      kernel_sum - hidden)

    def test_online_e2e_bit_exact(self, small_dataset):
        online = OnlineEndToEndModel()
        for row in small_dataset.filter(gpu="A100",
                                        batch_size=64).network_rows:
            online.observe(row)
        network = zoo.build("resnet18")
        plan = online.compile(network, PARITY_BS)
        assert plan.evaluate() == online.predict_network(network,
                                                         PARITY_BS)

    def test_online_plan_snapshots_the_stream(self, small_dataset):
        rows = small_dataset.filter(gpu="A100",
                                    batch_size=64).network_rows
        online = OnlineEndToEndModel()
        for row in rows[:3]:
            online.observe(row)
        network = zoo.build("resnet18")
        plan = online.compile(network, PARITY_BS)
        before = plan.evaluate()
        for row in rows[3:]:
            online.observe(row)
        # the compiled plan holds the fit it was lowered against
        assert plan.evaluate() == before
        assert online.predict_network(network, PARITY_BS) != before


class TestUntrainedModels:
    def test_untrained_models_refuse_to_compile(self):
        network = zoo.build("alexnet")
        for model, message in (
                (EndToEndModel(), "EndToEndModel"),
                (LayerWiseModel(), "LayerWiseModel"),
                (KernelWiseModel(), "KernelWiseModel"),
                (InterGPUKernelWiseModel(), "InterGPUKernelWiseModel")):
            with pytest.raises(RuntimeError, match=message):
                model.compile(network, PARITY_BS)

    def test_untrained_overhead_refuses(self, single_gpu_models):
        wrapped = OverheadAwareModel(single_gpu_models["kw"])
        with pytest.raises(RuntimeError, match="OverheadAwareModel"):
            wrapped.compile(zoo.build("alexnet"), PARITY_BS)


class TestPlanReuseAcrossTargets:
    def test_one_compile_many_bandwidths(self, igkw_model):
        network = zoo.build("resnet50")
        base = gpu("TITAN RTX")
        plan = igkw_model.compile(network, PARITY_BS)
        for bandwidth in (400.0, 800.0, 1200.0):
            target = base.with_bandwidth(bandwidth)
            assert plan.evaluate(gpu=target) == \
                igkw_model.for_gpu(target).predict_network(network,
                                                           PARITY_BS)

    def test_bound_plan_carries_nearest_lw(self, igkw_model):
        plan = igkw_model.compile(zoo.build("resnet18"), PARITY_BS)
        target = gpu("V100")
        bound = plan.bind(target)
        lw = igkw_model._nearest_lw(target)
        assert bound.lw_model is lw
        assert bound.lw_plan() is plan.lw_plan(target)
        assert plan.lw_plan(target) is plan.lw_plan(target)
        assert len(bound.lw_plan().terms) == len(plan.arrays.kinds)
        assert all(fit is lw.fits.get(kind, lw.fallback)
                   for (_, fit), kind in zip(bound.lw_plan().terms,
                                             plan.arrays.kinds))

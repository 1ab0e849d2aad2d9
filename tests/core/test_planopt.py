"""Plan optimizer + AOT compile store: every pass is bit-exact.

The optimizer (line interning) and the persisted
bundles exist purely to move work earlier; the suite's job is proving
they never move a *number*. Exact float equality is the
contract here, not a test smell: an AOT-loaded plan replays the fresh
plan's arithmetic or it is wrong.
"""

from __future__ import annotations

import json

import pytest

from repro import zoo
from repro.core.kernelwise import KernelTablePredictor
from repro.core.linreg import LinearFit
from repro.core.plan import RetargetablePlan
from repro.core.planopt import (
    BundleMismatch,
    LinePool,
    build_bundle,
    bundle_coverage,
    bundle_path_for,
    compile_store,
    load_bundle,
    load_plans,
    plan_from_dict,
    plan_mismatch,
    plan_to_dict,
    save_bundle,
)
from repro.core.persistence import save_model
from repro.core.workflow import train_inter_gpu_model, train_model
from repro.gpu import gpu

#: Matches tests/core/test_plan.py: small, and unseen by the campaign.
PARITY_BS = 4


@pytest.fixture(scope="module")
def models(small_dataset):
    trained = {kind: train_model(small_dataset, kind, gpu="A100",
                                 batch_size=64)
               for kind in ("e2e", "lw", "kw")}
    trained["igkw"] = train_inter_gpu_model(
        small_dataset, [gpu("A100"), gpu("TITAN RTX")], batch_size=64)
    return trained


@pytest.fixture(scope="module")
def store_dir(models, tmp_path_factory):
    """A model directory with saved models AND compiled bundles.

    Bundles cover every zoo network at PARITY_BS — the cold-start parity
    suite sweeps all of them.
    """
    directory = tmp_path_factory.mktemp("aot-store")
    for kind, model in models.items():
        save_model(model, directory / f"{kind}.json")
    networks = [zoo.build(name) for name in zoo.model_names()]
    for kind, model in models.items():
        path = directory / f"{kind}.json"
        save_bundle(build_bundle(model, path, networks, [PARITY_BS]), path)
    return directory


@pytest.fixture(scope="module")
def loaded_plans(models, store_dir):
    """kind -> {(network, batch): revived plan} for every bundle."""
    return {kind: load_bundle(store_dir / f"{kind}.json", model)
            for kind, model in models.items()}


class TestLinePool:
    def test_interns_by_value(self):
        pool = LinePool()
        a = pool.intern(LinearFit(1.0, 2.0, 0.9, 10))
        b = pool.intern(LinearFit(1.0, 2.0, 0.9, 10))   # same numbers
        c = pool.intern(LinearFit(1.0, 2.5, 0.9, 10))   # one differs
        assert a == b
        assert a != c
        assert len(pool) == 2
        assert pool.references == 3

    def test_fit_at_returns_interned_value(self):
        pool = LinePool()
        fit = LinearFit(0.5, 1.5, 0.8, 7)
        assert pool.fit_at(pool.intern(fit)) == fit

    def test_round_trips_through_json(self):
        pool = LinePool()
        pool.intern(LinearFit(1.0 / 3.0, 2.0 / 7.0, 0.123456789, 42))
        revived = LinePool.from_list(json.loads(json.dumps(pool.to_list())))
        # shortest-round-trip repr: the floats come back identical
        assert revived.fit_at(0) == pool.fit_at(0)


def _round_trip(plan, model):
    """Serialise through real JSON and revive with a fresh pool."""
    pool = LinePool()
    payload = json.loads(json.dumps(plan_to_dict(plan, pool)))
    revived_pool = LinePool.from_list(json.loads(json.dumps(pool.to_list())))
    return plan_from_dict(payload, revived_pool, model)


class TestPlanDocumentRoundTrip:
    @pytest.mark.parametrize("kind", ["e2e", "lw", "kw"])
    def test_single_gpu_plans_round_trip(self, models, kind):
        model = models[kind]
        plan = model.compile(zoo.build("resnet18"), PARITY_BS)
        revived = _round_trip(plan, model)
        assert revived.evaluate() == plan.evaluate()
        assert revived.network_name == "resnet18"
        assert revived.batch_size == PARITY_BS

    def test_plan_without_mapped_layers_round_trips(self, models):
        # no kernel has a line: every layer is on the fallback but those
        # the table maps to no kernels at all, so the term matrices have
        # no columns, which JSON alone cannot tell from no rows
        kw = models["kw"]
        model = KernelTablePredictor(kw.table, {}, kw.lw_fallback,
                                     mode=kw.mode)
        plan = model.compile(zoo.build("resnet18"), PARITY_BS)
        assert plan.arrays.term_kidx.shape[1] == 0
        revived = _round_trip(plan, model)
        for name in ("term_kidx", "term_values", "mapped_idx"):
            assert getattr(revived.arrays, name).shape == \
                getattr(plan.arrays, name).shape
        assert plan_mismatch(revived, plan, ()) is None

    def test_retargetable_round_trip_keeps_grid(self, models):
        model = models["igkw"]
        plan = model.compile(zoo.build("resnet18"), PARITY_BS)
        revived = _round_trip(plan, model)
        assert isinstance(revived, RetargetablePlan)
        targets = (gpu("V100"), gpu("V100").with_bandwidth(600.0),
                   gpu("A100"))
        assert revived.evaluate_grid(targets) == plan.evaluate_grid(targets)

    def test_retargetable_needs_igkw_model(self, models):
        plan = models["igkw"].compile(zoo.build("resnet18"), PARITY_BS)
        pool = LinePool()
        payload = plan_to_dict(plan, pool)
        with pytest.raises(BundleMismatch, match="igkw"):
            plan_from_dict(payload, pool, models["kw"])

    def test_overhead_plans_are_rejected(self, models, small_split):
        from repro.core.overhead import OverheadAwareModel
        train, _ = small_split
        wrapped = OverheadAwareModel(models["kw"]).train(
            train.for_gpu("A100"))
        plan = wrapped.compile(zoo.build("resnet18"), PARITY_BS)
        with pytest.raises(TypeError, match="cannot serialise"):
            plan_to_dict(plan, LinePool())


class TestBundleProvenance:
    def test_missing_bundle_raises_file_not_found(self, models, tmp_path):
        path = tmp_path / "e2e.json"
        save_model(models["e2e"], path)
        with pytest.raises(FileNotFoundError):
            load_bundle(path, models["e2e"])

    def test_stale_model_bytes_are_refused(self, models, tmp_path):
        path = tmp_path / "e2e.json"
        save_model(models["e2e"], path)
        save_bundle(build_bundle(models["e2e"], path,
                                 [zoo.build("resnet18")], [PARITY_BS]),
                    path)
        document = json.loads(path.read_text())
        document["fit"]["intercept"] += 1.0     # "retrained" in place
        path.write_text(json.dumps(document))
        with pytest.raises(BundleMismatch, match="stale"):
            load_bundle(path, models["e2e"])

    def test_kind_mismatch_is_refused(self, models, tmp_path):
        path = tmp_path / "model.json"
        save_model(models["e2e"], path)
        save_bundle(build_bundle(models["e2e"], path,
                                 [zoo.build("resnet18")], [PARITY_BS]),
                    path)
        with pytest.raises(BundleMismatch, match="compiled for"):
            load_bundle(path, models["lw"])

    @pytest.mark.parametrize("plan_format", [1, 2, 999])
    def test_foreign_plan_format_is_refused(self, models, tmp_path,
                                            plan_format):
        path = tmp_path / "e2e.json"
        save_model(models["e2e"], path)
        save_bundle(build_bundle(models["e2e"], path,
                                 [zoo.build("resnet18")], [PARITY_BS]),
                    path)
        bundle_path = bundle_path_for(path)
        document = json.loads(bundle_path.read_text())
        document["plan_format"] = plan_format
        bundle_path.write_text(json.dumps(document))
        with pytest.raises(BundleMismatch, match="plan format"):
            load_bundle(path, models["e2e"])
        # an older or newer bundle degrades to lazy compiles, never a
        # misread plan
        assert load_plans(path, models["e2e"]) == {}

    @pytest.mark.parametrize("lines", ["short", "out_of_pool"])
    def test_kernel_lines_must_index_the_pool(self, models, tmp_path,
                                              lines):
        path = tmp_path / "kw.json"
        save_model(models["kw"], path)
        save_bundle(build_bundle(models["kw"], path,
                                 [zoo.build("resnet18")], [PARITY_BS]),
                    path)
        bundle_path = bundle_path_for(path)
        document = json.loads(bundle_path.read_text())
        entry = document["plans"][0]
        if lines == "short":        # one index fewer than used kernels
            entry["lines"] = entry["lines"][:-1]
        else:                       # one past the end of the line pool
            entry["lines"][0] = len(document["line_pool"])
        bundle_path.write_text(json.dumps(document))
        with pytest.raises(BundleMismatch, match="line-pool index"):
            load_bundle(path, models["kw"])
        assert load_plans(path, models["kw"]) == {}

    def test_load_plans_degrades_to_empty(self, models, tmp_path):
        path = tmp_path / "e2e.json"
        save_model(models["e2e"], path)
        assert load_plans(path, models["e2e"]) == {}     # no bundle
        bundle_path = bundle_path_for(path)
        bundle_path.parent.mkdir(exist_ok=True)
        bundle_path.write_text("{ not json")              # corrupt bundle
        assert load_plans(path, models["e2e"]) == {}

    def test_bundle_coverage_lists_keys(self, store_dir):
        coverage = bundle_coverage(store_dir / "igkw.json")
        assert ("resnet18", PARITY_BS) in coverage
        assert len(coverage) == len(zoo.model_names())
        assert bundle_coverage(store_dir / "missing.json") == []


class TestCompileStore:
    def test_compiles_and_verifies_every_model(self, models, tmp_path):
        for kind, model in models.items():
            save_model(model, tmp_path / f"{kind}.json")
        report = compile_store(tmp_path,
                               network_names=["resnet18", "mobilenet_v2"],
                               batch_sizes=[1, PARITY_BS], verify=True)
        assert report.ok
        assert len(report.bundles) == 4
        assert all(b.verified for b in report.bundles)
        assert all(b.plans == 4 for b in report.bundles)
        rendered = report.render()
        assert "verified bit-exact" in rendered
        assert rendered.endswith("-> ok")

    def test_model_names_filter(self, models, tmp_path):
        for kind in ("e2e", "lw"):
            save_model(models[kind], tmp_path / f"{kind}.json")
        report = compile_store(tmp_path, network_names=["resnet18"],
                               model_names=["e2e"])
        assert [b.model for b in report.bundles] == ["e2e"]
        assert bundle_path_for(tmp_path / "e2e.json").is_file()
        assert not bundle_path_for(tmp_path / "lw.json").is_file()

    def test_per_model_failures_are_reported_not_raised(self, tmp_path):
        (tmp_path / "broken.json").write_text("{ not json")
        report = compile_store(tmp_path, network_names=["resnet18"])
        assert not report.ok
        assert report.bundles[0].error is not None
        assert "FAILED" in report.render()

    def test_rejects_bad_inputs(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            compile_store(tmp_path / "nowhere")
        with pytest.raises(ValueError, match="positive"):
            compile_store(tmp_path, batch_sizes=[0])


class TestColdStartParityZoo:
    """AOT-loaded plans are bit-exact with fresh lowering, all 36 nets."""

    @pytest.mark.parametrize("name", zoo.model_names())
    def test_single_gpu_kinds_bit_exact(self, models, loaded_plans, name):
        network = zoo.build(name)
        for kind in ("e2e", "lw", "kw"):
            revived = loaded_plans[kind][(name, PARITY_BS)]
            fresh = models[kind].compile(network, PARITY_BS)
            assert revived.evaluate() == fresh.evaluate(), (name, kind)

    @pytest.mark.parametrize("name", zoo.model_names())
    def test_igkw_bit_exact(self, models, loaded_plans, name):
        network = zoo.build(name)
        revived = loaded_plans["igkw"][(name, PARITY_BS)]
        fresh = models["igkw"].compile(network, PARITY_BS)
        # an unseen target, a bandwidth override, and a trained GPU
        targets = (gpu("V100"), gpu("V100").with_bandwidth(600.0),
                   gpu("A100"))
        assert revived.evaluate_grid(targets) == \
            fresh.evaluate_grid(targets), name
        assert revived.evaluate(gpu=gpu("V100")) == \
            fresh.evaluate(gpu=gpu("V100")), name
        # every single-target path prices (total, share) identically,
        # on the fresh and the AOT-loaded plan alike
        for plan in (fresh, revived):
            for target in targets:
                bound = plan.bind(target)
                times, shares = plan.evaluate_grid([target])
                assert (times[0], shares[0]) == (
                    bound.evaluate(), bound.fallback_time_share()), name
                assert times[0] == plan.evaluate(gpu=target), name


#: Serving batch sizes for the layer-wise fallback parity sweep.
LW_BATCH_SIZES = (64, 512)


@pytest.fixture(scope="module")
def lw_loaded_plans(models, tmp_path_factory):
    """kind -> AOT-loaded kw and igkw plans at LW_BATCH_SIZES."""
    directory = tmp_path_factory.mktemp("aot-lw-store")
    networks = [zoo.build(name) for name in zoo.model_names()]
    loaded = {}
    for kind in ("kw", "igkw"):
        path = directory / f"{kind}.json"
        save_model(models[kind], path)
        save_bundle(build_bundle(models[kind], path, networks,
                                 LW_BATCH_SIZES), path)
        loaded[kind] = load_bundle(path, models[kind])
    return loaded


class TestLayerWisePlanParityZoo:
    """Every kernel-level plan's LW plan is bit-exact with the LW model's
    own prediction, fresh and AOT-loaded, for all 36 networks."""

    @pytest.mark.parametrize("name", zoo.model_names())
    def test_igkw_lw_plan_bit_exact(self, models, lw_loaded_plans, name):
        network = zoo.build(name)
        igkw = models["igkw"]
        targets = (gpu("V100"), gpu("V100").with_bandwidth(600.0),
                   gpu("A100"))
        for batch_size in LW_BATCH_SIZES:
            fresh = igkw.compile(network, batch_size)
            revived = lw_loaded_plans["igkw"][(name, batch_size)]
            for target in targets:
                expected = igkw._nearest_lw(target).predict_network(
                    network, batch_size)
                for plan in (fresh, revived):
                    assert plan.lw_plan(target).evaluate() == expected, \
                        (name, batch_size, target.name)
                    assert plan.bind(target).lw_plan().evaluate() == \
                        expected, (name, batch_size, target.name)

    @pytest.mark.parametrize("name", zoo.model_names())
    def test_kw_lw_plan_bit_exact(self, models, lw_loaded_plans, name):
        network = zoo.build(name)
        kw = models["kw"]
        for batch_size in LW_BATCH_SIZES:
            expected = kw.lw_fallback.predict_network(network, batch_size)
            fresh = kw.compile(network, batch_size)
            revived = lw_loaded_plans["kw"][(name, batch_size)]
            assert fresh.lw_plan().evaluate() == expected, \
                (name, batch_size)
            assert revived.lw_plan().evaluate() == expected, \
                (name, batch_size)

"""Tests for the hot-reloading model registry."""

import os
import shutil

import pytest

from repro import zoo
from repro.core.plan import KernelPlan
from repro.gpu import gpu
from repro.service import (
    ModelRegistry,
    ModelResolutionError,
    PredictionService,
    model_kind,
    resolve_target,
)


@pytest.fixture()
def private_dir(models_dir, tmp_path):
    """A mutable copy of the shared model directory."""
    directory = tmp_path / "models"
    shutil.copytree(models_dir, directory)
    return directory


def _touch(path, offset: float = 10.0) -> None:
    """Bump a file's mtime far enough that equality checks must fail."""
    stat = path.stat()
    os.utime(path, (stat.st_atime, stat.st_mtime + offset))


class TestScan:
    def test_hosts_every_model_kind(self, registry):
        assert registry.names() == ["e2e-a100", "igkw", "kw-a100",
                                    "lw-a100"]
        assert len(registry) == 4
        kinds = {entry["name"]: entry["kind"]
                 for entry in registry.describe()}
        assert kinds == {"e2e-a100": "e2e", "lw-a100": "lw",
                         "kw-a100": "kw", "igkw": "igkw"}

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ModelRegistry(tmp_path / "nope")

    def test_malformed_file_is_skipped_not_fatal(self, private_dir):
        (private_dir / "broken.json").write_text("{not json")
        registry = ModelRegistry(private_dir)
        assert "broken" not in registry
        assert "broken" in registry.errors
        assert len(registry) == 4

    def test_unknown_name_lists_hosted(self, registry):
        with pytest.raises(KeyError, match="hosted"):
            registry.get("nope")


class TestHotReload:
    def test_mtime_change_reloads(self, private_dir):
        registry = ModelRegistry(private_dir)
        before = registry.get("kw-a100")
        _touch(private_dir / "kw-a100.json")
        after = registry.get("kw-a100")
        assert after.model is not before.model
        assert after.reloads == before.reloads + 1
        assert registry.reload_count() == 1

    def test_unchanged_file_is_not_reloaded(self, private_dir):
        registry = ModelRegistry(private_dir)
        assert registry.get("kw-a100").model \
            is registry.get("kw-a100").model
        assert registry.reload_count() == 0

    def test_reload_swaps_model_content(self, private_dir):
        registry = ModelRegistry(private_dir)
        assert registry.get("kw-a100").kind == "kw"
        shutil.copy(private_dir / "lw-a100.json",
                    private_dir / "kw-a100.json")
        _touch(private_dir / "kw-a100.json")
        assert registry.get("kw-a100").kind == "lw"

    def test_deleted_file_becomes_unknown(self, private_dir):
        registry = ModelRegistry(private_dir)
        registry.get("e2e-a100")
        (private_dir / "e2e-a100.json").unlink()
        with pytest.raises(KeyError, match="removed"):
            registry.get("e2e-a100")
        assert "e2e-a100" not in registry

    def test_rescan_discovers_new_files(self, private_dir):
        registry = ModelRegistry(private_dir)
        shutil.copy(private_dir / "lw-a100.json",
                    private_dir / "lw-copy.json")
        assert "lw-copy" in registry.scan()
        assert registry.get("lw-copy").kind == "lw"

    def test_size_change_reloads_even_with_identical_mtime(self,
                                                           private_dir):
        """Regression: a float mtime alone misses same-tick rewrites."""
        path = private_dir / "kw-a100.json"
        registry = ModelRegistry(private_dir)
        before = registry.get("kw-a100")
        stat = path.stat()
        path.write_text(path.read_text() + " ")     # new size, then pin
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_mtime_ns == stat.st_mtime_ns
        after = registry.get("kw-a100")
        assert after.reloads == before.reloads + 1
        assert after.model is not before.model

    def test_stamp_and_mtime_views(self, private_dir):
        registry = ModelRegistry(private_dir)
        entry = registry.get("kw-a100")
        stat = entry.path.stat()
        assert entry.stamp == (stat.st_mtime_ns, stat.st_size)
        assert entry.mtime == pytest.approx(stat.st_mtime_ns / 1e9)
        assert entry.describe()["mtime"] == entry.mtime


class TestResolve:
    """Per-request retargeting: ``resolve_target`` + ``plan.bind``."""

    def test_single_gpu_models_ignore_target(self, registry):
        plan = registry.get("kw-a100").model.compile(
            zoo.build("resnet18"), 64)
        assert plan.evaluate(gpu=gpu("V100")) == plan.evaluate()

    def test_igkw_requires_gpu(self):
        with pytest.raises(ModelResolutionError, match="target 'gpu'"):
            resolve_target("igkw", None, None)

    def test_igkw_materialises_and_memoises(self, registry):
        # one compiled plan serves every target: the second GPU is a
        # plan-cache hit that only binds
        service = PredictionService(registry)
        body = {"model": "igkw", "network": "resnet18", "batch_size": 64}
        first = service.predict(dict(body, gpu="V100"))
        other = service.predict(dict(body, gpu="A40"))
        assert first["plan_cached"] is False
        assert other["plan_cached"] is True
        assert first["predicted_us"] != other["predicted_us"]
        plan = registry.get("igkw").model.compile(zoo.build("resnet18"), 64)
        bound = plan.bind(resolve_target("igkw", "V100", None))
        assert isinstance(bound, KernelPlan)
        assert bound.evaluate() == first["predicted_us"]

    def test_igkw_bandwidth_override_changes_prediction(self, registry):
        plan = registry.get("igkw").model.compile(zoo.build("resnet18"), 64)
        slow = plan.bind(resolve_target("igkw", "V100", 300.0))
        fast = plan.bind(resolve_target("igkw", "V100", 2000.0))
        assert slow.evaluate() > fast.evaluate()

    def test_igkw_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ModelResolutionError, match="positive"):
            resolve_target("igkw", "V100", 0.0)

    @pytest.mark.parametrize("bandwidth", [
        float("nan"), float("inf"), float("-inf"), "abc", [1], True])
    def test_igkw_rejects_non_numeric_or_non_finite_bandwidth(
            self, bandwidth):
        with pytest.raises(ModelResolutionError, match="bandwidth must be"):
            resolve_target("igkw", "V100", bandwidth)

    def test_unknown_gpu_raises_key_error(self):
        with pytest.raises(KeyError, match="unknown GPU"):
            resolve_target("igkw", "TPUv9", None)

    def test_first_of_kind(self, registry):
        assert registry.first_of_kind("e2e").name == "e2e-a100"
        assert registry.first_of_kind("igkw").name == "igkw"

    def test_model_kind_rejects_foreign_objects(self):
        with pytest.raises(TypeError):
            model_kind(object())

"""ProjectIndex: symbol tables, import resolution, call graph, determinism."""

import textwrap

import pytest

from repro.analysis_checks.index import ProjectIndex, run_program_checks


@pytest.fixture()
def pkg(tmp_path):
    """A three-module package exercising every import/call shape."""
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("from pkg.core import Engine\n")
    (root / "core.py").write_text(textwrap.dedent("""\
        class Engine:
            def __init__(self):
                self._events = []
                self.count = 0

            def run(self, until_us):
                self._step()
                return until_us

            def _step(self):
                self.count += 1


        def make_engine():
            return Engine()
        """))
    (root / "driver.py").write_text(textwrap.dedent("""\
        import pkg.core as core
        from pkg.core import make_engine


        def drive(deadline_us):
            engine = make_engine()
            other = core.make_engine()
            return engine.run(deadline_us)
        """))
    (root / "test_ignored.py").write_text("def helper():\n    pass\n")
    return root


def build(root):
    return ProjectIndex.build([root])


class TestSymbols:
    def test_modules_and_test_files(self, pkg):
        index = build(pkg)
        assert set(index.modules) == {"pkg", "pkg.core", "pkg.driver"}

    def test_functions_and_methods_by_qualname(self, pkg):
        index = build(pkg)
        assert "pkg.core.make_engine" in index.functions
        assert "pkg.core.Engine.run" in index.functions
        info = index.functions["pkg.core.Engine.run"]
        assert info.cls == "Engine"
        assert info.params == ("until_us",)   # self is stripped

    def test_class_attrs_collect_self_stores(self, pkg):
        index = build(pkg)
        cls = index.classes["pkg.core.Engine"]
        assert {"_events", "count"} <= cls.attrs

    def test_imports_resolve_aliases(self, pkg):
        index = build(pkg)
        driver = index.modules["pkg.driver"]
        assert driver.imports["core"] == "pkg.core"
        assert driver.imports["make_engine"] == "pkg.core.make_engine"

    def test_flat_directory_sibling_import_resolves(self, tmp_path):
        """No package, no src anchor: ``--paths some/dir`` on loose
        scripts.  The index names them ``<dirname>.<stem>``; sibling
        imports (``from engine import wait``) must still resolve."""
        root = tmp_path / "flat"
        root.mkdir()
        (root / "engine.py").write_text("def wait(until_us):\n"
                                        "    return until_us\n")
        (root / "caller.py").write_text("from engine import wait\n\n\n"
                                        "def go(deadline_us):\n"
                                        "    return wait(deadline_us)\n")
        index = build(root)
        calls = [c for c in index.calls if c.raw == "wait"]
        assert calls and calls[0].callee == "flat.engine.wait"

    def test_relative_import_resolves(self, tmp_path):
        root = tmp_path / "rel"
        root.mkdir()
        (root / "__init__.py").write_text("")
        (root / "a.py").write_text("def f():\n    pass\n")
        (root / "b.py").write_text("from .a import f\n\n\ndef g():\n"
                                   "    return f()\n")
        index = build(root)
        assert index.modules["rel.b"].imports["f"] == "rel.a.f"
        calls = [c for c in index.calls if c.raw == "f"]
        assert calls and calls[0].callee == "rel.a.f"


class TestCallGraph:
    def _callees(self, index):
        return {(c.caller, c.callee) for c in index.calls
                if c.callee is not None}

    def test_local_and_imported_calls_resolve(self, pkg):
        index = build(pkg)
        edges = self._callees(index)
        assert ("pkg.driver.drive", "pkg.core.make_engine") in edges

    def test_module_alias_attribute_call_resolves(self, pkg):
        index = build(pkg)
        alias_calls = [c for c in index.calls
                       if c.raw == "core.make_engine"]
        assert alias_calls[0].callee == "pkg.core.make_engine"

    def test_self_method_call_resolves(self, pkg):
        index = build(pkg)
        edges = self._callees(index)
        assert ("pkg.core.Engine.run", "pkg.core.Engine._step") in edges

    def test_unique_method_lookup(self, pkg):
        index = build(pkg)
        assert index.unique_method("run").qualname == "pkg.core.Engine.run"
        assert index.unique_method("nope") is None

    def test_stats_shape(self, pkg):
        index = build(pkg)
        stats = index.stats()
        assert stats["modules"] == 3
        assert stats["classes"] == 1
        assert stats["resolved_calls"] >= 3
        assert stats["call_sites"] >= stats["resolved_calls"]


class TestReferenceCorpus:
    def test_reference_paths_count_without_indexing(self, pkg, tmp_path):
        extra = tmp_path / "tests_dir"
        extra.mkdir()
        (extra / "test_uses.py").write_text(
            "from pkg.core import make_engine\nmake_engine()\n")
        index = ProjectIndex.build([pkg], reference_paths=[extra])
        assert "tests_dir.test_uses" not in index.modules
        # the reference file's mention counts toward name_refs
        bare = ProjectIndex.build([pkg])
        assert index.name_refs["make_engine"] > \
            bare.name_refs["make_engine"]

    def test_indexed_files_are_never_double_counted(self, pkg):
        once = ProjectIndex.build([pkg])
        twice = ProjectIndex.build([pkg], reference_paths=[pkg])
        assert once.name_refs == twice.name_refs
        assert once.string_refs == twice.string_refs


class TestDeterminism:
    def test_two_runs_produce_identical_findings(self, pkg):
        first = run_program_checks([pkg])
        second = run_program_checks([pkg])
        assert [f.render() for f in first[0]] == \
            [f.render() for f in second[0]]
        assert first[1] == second[1]

    def test_unknown_only_rules_run_nothing(self, pkg):
        findings, stats = run_program_checks([pkg], only=["ZZ999"])
        assert findings == [] and stats == {}

"""Engine mechanics: suppression parsing, registry, file walking, rendering."""

import json

import pytest

from repro.analysis_checks import (
    Finding,
    LintRule,
    Severity,
    lint_paths,
    lint_source,
    register_rule,
    render_json,
    render_text,
    rule_ids,
    select_rules,
)
from repro.analysis_checks.engine import _suppressions, iter_python_files


class TestSuppressionParsing:
    def test_blanket_noqa_maps_to_none(self):
        table = _suppressions("x = 1  # repro: noqa\n")
        assert table == {1: None}

    def test_bracket_form_names_rules(self):
        table = _suppressions("x = 1  # repro: noqa[FP001, RC100]\n")
        assert table == {1: {"FP001", "RC100"}}

    def test_trailing_prose_after_bracket_ok(self):
        table = _suppressions(
            "x = 1  # repro: noqa[FP001] exact sentinel compare\n")
        assert table == {1: {"FP001"}}

    def test_plain_comment_is_not_noqa(self):
        assert _suppressions("x = 1  # regular comment\n") == {}
        # flake8-style noqa without the repro: prefix is ignored
        assert _suppressions("x = 1  # noqa\n") == {}

    def test_blanket_noqa_suppresses_every_rule(self):
        source = "def f(acc=[]):  # repro: noqa\n    assert isinstance(acc, list)\n"
        findings = lint_source(source)
        assert [f.rule for f in findings] == ["AS001"]  # line 2 not covered

    def test_noqa_on_last_line_of_multiline_node(self):
        source = ("ok = (x ==\n"
                  "      0.5)  # repro: noqa[FP001]\n")
        assert lint_source(source) == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        source = "ok = x == 0.5  # repro: noqa[EX001]\n"
        assert [f.rule for f in lint_source(source)] == ["FP001"]


class TestRegistry:
    def test_rule_ids_sorted(self):
        ids = rule_ids()
        assert ids == sorted(ids)
        assert "FP001" in ids

    def test_select_rules_strips_whitespace(self):
        (rule,) = select_rules([" FP001 "])
        assert rule.rule_id == "FP001"

    def test_register_rejects_malformed_id(self):
        class Malformed(LintRule):
            rule_id = "nope"
            description = "bad id"

            def check(self, tree, path):
                return iter(())

        with pytest.raises(ValueError, match="rule_id"):
            register_rule(Malformed)

    def test_register_rejects_duplicate_id(self):
        class Duplicate(LintRule):
            rule_id = "FP001"
            description = "already taken"

            def check(self, tree, path):
                return iter(())

        with pytest.raises(ValueError, match="duplicate"):
            register_rule(Duplicate)


class TestLintSource:
    def test_syntax_error_becomes_parse_finding(self):
        (finding,) = lint_source("def broken(:\n")
        assert finding.rule == "PARSE"
        assert finding.severity is Severity.ERROR

    def test_findings_carry_locations(self):
        (finding,) = lint_source("\nok = x == 0.5\n")
        assert (finding.line, finding.rule) == (2, "FP001")
        assert finding.path == "<string>"

    def test_rules_subset_honoured(self):
        source = "def f(acc=[]):\n    return acc == 0.5\n"
        findings = lint_source(source, rules=select_rules(["MD001"]))
        assert [f.rule for f in findings] == ["MD001"]


class TestFileWalking:
    def _tree(self, tmp_path):
        (tmp_path / "mod.py").write_text("ok = x == 0.5\n")
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "test_mod.py").write_text("ok = x == 0.5\n")
        (pkg / "mod_test.py").write_text("ok = x == 0.5\n")
        (pkg / "conftest.py").write_text("ok = x == 0.5\n")
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "helper.py").write_text("ok = x == 0.5\n")
        return tmp_path

    def test_test_files_skipped_by_default(self, tmp_path):
        root = self._tree(tmp_path)
        names = [p.name for p in iter_python_files([root])]
        assert names == ["mod.py"]

    def test_skip_tests_false_walks_everything(self, tmp_path):
        root = self._tree(tmp_path)
        names = sorted(p.name for p in
                       iter_python_files([root], skip_tests=False))
        assert names == sorted(["mod.py", "test_mod.py", "mod_test.py",
                                "conftest.py", "helper.py"])

    def test_lint_paths_reports_per_file(self, tmp_path):
        root = self._tree(tmp_path)
        findings = lint_paths([root])
        assert [f.rule for f in findings] == ["FP001"]
        assert findings[0].path.endswith("mod.py")


class TestRendering:
    FINDINGS = [
        Finding("a.py", 3, 4, "FP001", Severity.WARNING, "float equality"),
        Finding("a.py", 1, 0, "MD001", Severity.ERROR, "mutable default"),
    ]

    def test_render_text_lines_and_summary(self):
        text = render_text(self.FINDINGS)
        assert "a.py:3:4: FP001 [warning] float equality" in text
        assert "1 error(s), 1 warning(s)" in text

    def test_render_text_empty(self):
        assert "0 finding(s)" in render_text([])

    def test_render_json_round_trips(self):
        document = json.loads(render_json(self.FINDINGS))
        assert document["counts"] == {"error": 1, "warning": 1}
        assert {entry["rule"] for entry in document["findings"]} == \
            {"FP001", "MD001"}

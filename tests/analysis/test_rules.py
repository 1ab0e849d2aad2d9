"""Each lint rule: a snippet that triggers it and one that suppresses it."""

import textwrap

import pytest

from repro.analysis_checks import Severity, lint_source, select_rules
from repro.analysis_checks.index import ProjectIndex
from repro.analysis_checks.races import check_races


def findings_for(rule_id, source):
    findings = lint_source(textwrap.dedent(source))
    assert not any(f.rule == "PARSE" for f in findings), findings
    return [f for f in findings if f.rule == rule_id]


class TestRC001LockDiscipline:
    """The cases of the retired syntactic RC001 rule, re-run on RC100.

    RC100 is the one lock-discipline analyzer: every snippet RC001
    flagged must be flagged by RC100 on the same line, and every snippet
    RC001 passed must stay clean.
    """

    LOCKED_CLASS = (
        "import threading\n"
        "\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._items = {}\n"
        "        self._count = 0\n"
        "\n"
        "    def %s\n")

    @staticmethod
    def rc100(tmp_path, source, flagged=None):
        """RC100 findings for ``source``; with ``flagged``, assert there
        is exactly one and it sits on the line containing that text."""
        source = textwrap.dedent(source)
        path = tmp_path / "store.py"
        path.write_text(source)
        findings = check_races(ProjectIndex.build([path]))
        if flagged is not None:
            (finding,) = findings
            lines = source.splitlines()
            assert flagged in lines[finding.line - 1], finding
            assert finding.severity is Severity.ERROR
        return findings

    def test_unlocked_assignment_flagged(self, tmp_path):
        source = self.LOCKED_CLASS % "put(self, k, v):\n        self._items[k] = v"
        (finding,) = self.rc100(tmp_path, source, "self._items[k] = v")
        assert "writes self._items" in finding.message

    def test_unlocked_augassign_flagged(self, tmp_path):
        source = self.LOCKED_CLASS % "bump(self):\n        self._count += 1"
        self.rc100(tmp_path, source, "self._count += 1")

    def test_unlocked_mutator_call_flagged(self, tmp_path):
        source = self.LOCKED_CLASS % ("drop(self, k):\n"
                                      "        self._items.pop(k, None)")
        (finding,) = self.rc100(tmp_path, source, "self._items.pop(k, None)")
        assert "mutates self._items" in finding.message

    def test_locked_mutation_is_clean(self, tmp_path):
        source = self.LOCKED_CLASS % ("put(self, k, v):\n"
                                      "        with self._lock:\n"
                                      "            self._items[k] = v")
        assert self.rc100(tmp_path, source) == []

    def test_mutation_in_branch_under_lock_is_clean(self, tmp_path):
        source = self.LOCKED_CLASS % ("put(self, k, v):\n"
                                      "        with self._lock:\n"
                                      "            if k not in self._items:\n"
                                      "                self._items[k] = v")
        assert self.rc100(tmp_path, source) == []

    def test_branch_outside_lock_flagged(self, tmp_path):
        source = self.LOCKED_CLASS % ("put(self, k, v):\n"
                                      "        if v:\n"
                                      "            self._items[k] = v")
        self.rc100(tmp_path, source, "self._items[k] = v")

    def test_init_is_exempt(self, tmp_path):
        source = """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}
        """
        assert self.rc100(tmp_path, source) == []

    def test_lockless_class_is_exempt(self, tmp_path):
        source = """
            class Plain:
                def __init__(self):
                    self._items = {}

                def put(self, k, v):
                    self._items[k] = v
        """
        assert self.rc100(tmp_path, source) == []

    def test_other_objects_private_attrs_ignored(self, tmp_path):
        source = self.LOCKED_CLASS % ("fill(self, entry):\n"
                                      "        entry._resolved = {}")
        assert self.rc100(tmp_path, source) == []

    def test_public_attribute_ignored(self, tmp_path):
        source = self.LOCKED_CLASS % ("label(self, text):\n"
                                      "        self.name = text")
        assert self.rc100(tmp_path, source) == []

    def test_noqa_suppresses(self, tmp_path):
        source = self.LOCKED_CLASS % (
            "put(self, k, v):\n"
            "        self._items[k] = v  # repro: noqa[RC100]")
        assert self.rc100(tmp_path, source) == []


class TestFP001FloatEquality:
    def test_eq_float_literal_flagged(self):
        (finding,) = findings_for("FP001", "ok = x == 0.5\n")
        assert finding.severity is Severity.WARNING

    def test_neq_and_negative_literal_flagged(self):
        assert findings_for("FP001", "ok = x != -1.5\n")

    def test_int_literal_not_flagged(self):
        assert findings_for("FP001", "ok = x == 0\n") == []

    def test_ordering_comparison_not_flagged(self):
        assert findings_for("FP001", "ok = x <= 0.5\n") == []

    def test_noqa_suppresses(self):
        source = "ok = x == 0.5  # repro: noqa[FP001] exact sentinel\n"
        assert findings_for("FP001", source) == []


class TestAS001AssertGuard:
    def test_assert_isinstance_flagged(self):
        (finding,) = findings_for(
            "AS001", "assert isinstance(layer, Conv2d)\n")
        assert "python -O" in finding.message

    def test_assert_shape_comparison_flagged(self):
        assert findings_for("AS001", "assert len(shapes) == 2\n")
        assert findings_for("AS001", "assert x.shape == y.shape\n")

    def test_plain_assert_not_flagged(self):
        assert findings_for("AS001", "assert ready\n") == []

    def test_noqa_suppresses(self):
        source = "assert isinstance(x, int)  # repro: noqa[AS001]\n"
        assert findings_for("AS001", source) == []


class TestMD001MutableDefault:
    @pytest.mark.parametrize("default", ["[]", "{}", "set()", "dict()",
                                         "collections.OrderedDict()"])
    def test_mutable_defaults_flagged(self, default):
        assert findings_for("MD001", f"def f(x, acc={default}):\n"
                                     "    return acc\n")

    def test_keyword_only_default_flagged(self):
        assert findings_for("MD001", "def f(*, acc=[]):\n    return acc\n")

    def test_none_and_tuple_defaults_clean(self):
        source = "def f(x=None, y=(), z=0):\n    return x, y, z\n"
        assert findings_for("MD001", source) == []

    def test_noqa_suppresses(self):
        source = "def f(acc=[]):  # repro: noqa[MD001]\n    return acc\n"
        assert findings_for("MD001", source) == []


class TestEX001BroadExcept:
    def test_bare_except_is_error(self):
        source = "try:\n    work()\nexcept:\n    pass\n"
        (finding,) = findings_for("EX001", source)
        assert finding.severity is Severity.ERROR

    def test_swallowing_except_exception_is_warning(self):
        source = "try:\n    work()\nexcept Exception:\n    pass\n"
        (finding,) = findings_for("EX001", source)
        assert finding.severity is Severity.WARNING

    def test_reraising_handler_is_clean(self):
        source = ("try:\n    work()\nexcept Exception as exc:\n"
                  "    raise RuntimeError('context') from exc\n")
        assert findings_for("EX001", source) == []

    def test_narrow_except_is_clean(self):
        source = "try:\n    work()\nexcept KeyError:\n    pass\n"
        assert findings_for("EX001", source) == []

    def test_noqa_suppresses(self):
        source = ("try:\n    work()\n"
                  "except Exception:  # repro: noqa[EX001] best effort\n"
                  "    pass\n")
        assert findings_for("EX001", source) == []


class TestEX002AnonymousExceptionLabel:
    TRY = "try:\n    work()\n"

    def test_str_of_caught_exception_flagged(self):
        source = (self.TRY + "except Exception as exc:\n"
                  "    label = str(exc)\n")
        (finding,) = findings_for("EX002", source)
        assert finding.severity is Severity.WARNING
        assert "type(exc).__name__" in finding.message

    def test_fstring_of_caught_exception_flagged(self):
        source = (self.TRY + "except Exception as exc:\n"
                  "    label = f'failed: {exc}'\n")
        assert len(findings_for("EX002", source)) == 1

    def test_repr_conversion_is_clean(self):
        source = (self.TRY + "except Exception as exc:\n"
                  "    label = f'failed: {exc!r}'\n")
        assert findings_for("EX002", source) == []

    def test_type_name_prefix_is_clean(self):
        source = (self.TRY + "except Exception as exc:\n"
                  "    label = f'{type(exc).__name__}: {exc}'\n")
        assert findings_for("EX002", source) == []

    def test_reraising_handler_is_clean(self):
        source = (self.TRY + "except Exception as exc:\n"
                  "    log(str(exc))\n"
                  "    raise\n")
        assert findings_for("EX002", source) == []

    def test_narrow_handler_is_clean(self):
        source = (self.TRY + "except KeyError as exc:\n"
                  "    label = str(exc)\n")
        assert findings_for("EX002", source) == []

    def test_anonymous_handler_is_skipped(self):
        source = (self.TRY + "except Exception:\n"
                  "    label = 'failed'\n")
        assert findings_for("EX002", source) == []

    def test_noqa_suppresses(self):
        source = (self.TRY
                  + "except Exception as exc:  # repro: noqa[EX002]\n"
                  "    label = str(exc)\n")
        assert findings_for("EX002", source) == []

    def test_rule_is_scoped_to_service_paths(self):
        import textwrap

        from repro.analysis_checks import lint_source

        source = textwrap.dedent(
            self.TRY + "except Exception as exc:\n"
            "    label = str(exc)\n")
        in_service = lint_source(source, path="src/repro/service/x.py")
        outside = lint_source(source, path="src/repro/core/x.py")
        assert any(f.rule == "EX002" for f in in_service)
        assert not any(f.rule == "EX002" for f in outside)

    def test_service_package_is_clean(self):
        """Regression: the shipped service layer never erases the
        exception type from a label."""
        from pathlib import Path

        from repro.analysis_checks import lint_paths

        package = Path(__file__).parents[2] / "src" / "repro" / "service"
        findings = lint_paths([package])
        assert [f for f in findings if f.rule == "EX002"] == []


class TestRuleRegistry:
    def test_all_rules_registered(self):
        ids = {rule.rule_id for rule in select_rules()}
        assert {"FP001", "AS001", "MD001", "EX001", "EX002"} <= ids
        assert "RC001" not in ids      # lock discipline is RC100's

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            select_rules(["ZZ999"])

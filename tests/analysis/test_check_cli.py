"""``repro check``: the CLI gate the CI workflow runs."""

import json

import pytest

from repro.cli import main

CLEAN = "def predict(x):\n    return x * 2\n"
VIOLATIONS = (
    "def accumulate(x, acc=[]):\n"          # MD001 (error)
    "    assert isinstance(x, int)\n"        # AS001 (error)
    "    if x == 0.5:\n"                     # FP001 (warning)
    "        acc.append(x)\n"
    "    return acc\n"
)


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN)
    return path


@pytest.fixture()
def dirty_file(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(VIOLATIONS)
    return path


class TestExitCodes:
    def test_clean_file_exits_zero(self, clean_file, capsys):
        code = main(["check", "--no-contracts",
                     "--paths", str(clean_file)])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_seeded_violation_exits_nonzero(self, dirty_file, capsys):
        code = main(["check", "--no-contracts",
                     "--paths", str(dirty_file)])
        assert code == 1
        out = capsys.readouterr().out
        assert "MD001" in out and "AS001" in out and "FP001" in out

    def test_warnings_alone_pass_unless_strict(self, tmp_path):
        path = tmp_path / "warn.py"
        path.write_text("ok = x == 0.5\n")
        args = ["check", "--no-contracts", "--paths", str(path)]
        assert main(args) == 0
        assert main(args + ["--strict"]) == 1

    def test_repo_tree_is_clean(self):
        """The shipped package passes its own gate (the CI invariant)."""
        assert main(["check", "--no-contracts"]) == 0

    def test_contracts_only_run_is_clean(self, capsys):
        code = main(["check", "--no-lint", "--network", "alexnet"])
        assert code == 0
        assert "contracts over 1 network(s)" in capsys.readouterr().out


class TestOptions:
    def test_json_format_parses(self, dirty_file, capsys):
        main(["check", "--no-contracts", "--format", "json",
              "--paths", str(dirty_file)])
        document = json.loads(capsys.readouterr().out)
        rules = {entry["rule"] for entry in document["findings"]}
        assert {"MD001", "AS001", "FP001"} <= rules
        assert document["counts"]["error"] == 2

    def test_rules_filter_limits_findings(self, dirty_file, capsys):
        code = main(["check", "--no-contracts", "--only", "FP001",
                     "--paths", str(dirty_file)])
        assert code == 0           # FP001 is warning severity
        out = capsys.readouterr().out
        assert "FP001" in out and "MD001" not in out

    def test_unknown_rule_is_a_usage_error(self, dirty_file, capsys):
        # RC001 was retired: RC100 is the one lock-discipline rule
        code = main(["check", "--no-contracts", "--only", "RC001",
                     "--paths", str(dirty_file)])
        assert code == 2
        assert "unknown rule 'RC001'" in capsys.readouterr().err

    def test_rules_option_is_a_usage_error(self, dirty_file, capsys):
        # --only is the one rule selector across every engine
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--no-contracts", "--rules", "FP001",
                  "--paths", str(dirty_file)])
        assert exit_info.value.code == 2
        assert "--rules" in capsys.readouterr().err

    def test_test_files_are_not_linted(self, tmp_path, capsys):
        (tmp_path / "test_dirty.py").write_text(VIOLATIONS)
        code = main(["check", "--no-contracts", "--paths", str(tmp_path)])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_include_tests_lints_pytest_files(self, tmp_path, capsys):
        (tmp_path / "test_dirty.py").write_text(VIOLATIONS)
        code = main(["check", "--no-contracts", "--include-tests",
                     "--paths", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        # MD001 fires; AS001 is scoped away from pytest-style files
        assert "MD001" in out and "AS001" not in out


UNIT_BUG_ENGINE = (
    "def wait(until_us):\n"
    "    return until_us\n"
)
UNIT_BUG_CALLER = (
    "from pkg.engine import wait\n"
    "\n"
    "\n"
    "def main(deadline_ms):\n"
    "    return wait(deadline_ms)\n"
)
RACE_CLASS = (
    "import threading\n"
    "\n"
    "\n"
    "class Store:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._hits = 0\n"
    "\n"
    "    def record(self):\n"
    "        with self._lock:\n"
    "            self._hits += 1\n"
    "\n"
    "    def reset(self):\n"
    "        self._hits = 0\n"       # unlocked write
    "\n"
    "    def hits(self):\n"
    "        return self._hits\n"    # unlocked read
)


@pytest.fixture()
def unit_bug_pkg(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "engine.py").write_text(UNIT_BUG_ENGINE)
    (pkg / "caller.py").write_text(UNIT_BUG_CALLER)
    return pkg


class TestProgramAnalyzers:
    def test_cross_module_unit_bug_blocks(self, unit_bug_pkg, capsys):
        code = main(["check", "--no-contracts", "--no-baseline",
                     "--paths", str(unit_bug_pkg)])
        assert code == 1
        assert "UN001" in capsys.readouterr().out

    def test_only_restricts_to_named_rules(self, unit_bug_pkg, capsys):
        code = main(["check", "--only", "RC100",
                     "--paths", str(unit_bug_pkg)])
        assert code == 0
        assert "UN001" not in capsys.readouterr().out

    def test_only_unknown_rule_is_a_usage_error(self, capsys):
        code = main(["check", "--only", "XX000"])
        assert code == 2
        assert "unknown rule 'XX000'" in capsys.readouterr().err

    def test_no_program_skips_analyzers(self, unit_bug_pkg, capsys):
        code = main(["check", "--no-contracts", "--no-program",
                     "--paths", str(unit_bug_pkg)])
        assert code == 0

    def test_rc100_supersedes_rc001(self, tmp_path, capsys):
        path = tmp_path / "store.py"
        path.write_text(RACE_CLASS)
        code = main(["check", "--no-contracts", "--no-baseline",
                     "--paths", str(path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "RC100" in out and "RC001" not in out
        assert "Store.reset() writes self._hits" in out
        assert "Store.hits() reads self._hits" in out

    def test_no_program_skips_lock_discipline(self, tmp_path, capsys):
        path = tmp_path / "store.py"
        path.write_text(RACE_CLASS)
        code = main(["check", "--no-contracts", "--no-baseline",
                     "--no-program", "--paths", str(path)])
        assert code == 0
        assert "RC100" not in capsys.readouterr().out

    def test_index_stats_reported(self, unit_bug_pkg, capsys):
        main(["check", "--no-contracts", "--index-stats", "--format",
              "json", "--paths", str(unit_bug_pkg)])
        document = json.loads(capsys.readouterr().out)
        assert document["index"]["modules"] == 3
        assert document["index"]["resolved_calls"] >= 1


class TestBaselineWorkflow:
    def test_update_then_check_suppresses(self, unit_bug_pkg, tmp_path,
                                          capsys):
        baseline = tmp_path / "baseline.json"
        args = ["check", "--no-contracts", "--paths", str(unit_bug_pkg),
                "--baseline", str(baseline)]
        assert main(args + ["--update-baseline"]) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "baselined finding(s) suppressed" in \
            capsys.readouterr().out
        # the same findings still block when the baseline is ignored
        assert main(["check", "--no-contracts", "--no-baseline",
                     "--paths", str(unit_bug_pkg)]) == 1

    def test_new_finding_blocks_despite_baseline(self, unit_bug_pkg,
                                                 tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        args = ["check", "--no-contracts", "--paths", str(unit_bug_pkg),
                "--baseline", str(baseline)]
        assert main(args + ["--update-baseline"]) == 0
        (unit_bug_pkg / "fresh.py").write_text(
            "from pkg.engine import wait\n"
            "\n"
            "\n"
            "def go(cutoff_ms):\n"
            "    return wait(cutoff_ms)\n")
        capsys.readouterr()
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "fresh.py" in out


class TestSarif:
    def test_sarif_document_shape(self, unit_bug_pkg, capsys):
        main(["check", "--no-contracts", "--no-baseline", "--format",
              "sarif", "--paths", str(unit_bug_pkg)])
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        (run,) = document["runs"]
        assert run["tool"]["driver"]["name"] == "repro-check"
        result = run["results"][0]
        assert result["ruleId"] == "UN001"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1

    def test_clean_tree_sarif_has_no_results(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text(CLEAN)
        main(["check", "--no-contracts", "--format", "sarif",
              "--paths", str(path)])
        document = json.loads(capsys.readouterr().out)
        assert document["runs"][0]["results"] == []

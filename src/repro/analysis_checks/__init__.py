"""Static analysis for the repro codebase: AST lint + domain contracts.

Two complementary halves, both surfaced as ``repro check`` and gated in CI:

- :mod:`repro.analysis_checks.engine` + :mod:`repro.analysis_checks.rules`
  — a small stdlib-``ast`` rule engine with codebase-tuned lint rules
  (float equality in regression math, ``assert``-as-guard, mutable
  defaults, overbroad ``except``).
  Findings are suppressed per line with ``# repro: noqa[RULE]``.
- :mod:`repro.analysis_checks.contracts` — a domain contract checker that
  walks every zoo network's layer graph and cross-checks the invariants
  the kernel-wise pipeline silently depends on: FLOP rules, kernel
  mappings (forward and backward), classifiable kernel drivers, and the
  mapping-table persistence round-trip.

On top of the per-file half sits a **whole-program pass**
(:mod:`repro.analysis_checks.index`): one parse of the tree building a
symbol table and call graph, consumed by the cross-module analyzers —
:mod:`.units` (UN001 unit-dimension checking), :mod:`.races` (RC100
flow-sensitive lock discipline for the threaded service layer), and
:mod:`.surface` (DC001 dead/drifting surface). Their
accepted debt is pinned by :mod:`.baseline` so only *new* findings
block CI.
"""

from repro.analysis_checks.baseline import (
    DEFAULT_BASELINE,
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.analysis_checks.contracts import (
    CONTRACT_RULES,
    ContractReport,
    check_contracts,
)
from repro.analysis_checks.index import (
    PROGRAM_RULES,
    ProjectIndex,
    run_program_checks,
)
from repro.analysis_checks.engine import (
    RULES,
    LintRule,
    lint_paths,
    lint_source,
    register_rule,
    rule_ids,
    select_rules,
)
from repro.analysis_checks.findings import (
    Finding,
    Severity,
    render_json,
    render_sarif,
    render_text,
)

# importing the module registers every built-in rule with the engine
from repro.analysis_checks import rules as _rules  # noqa: F401

__all__ = [
    "CONTRACT_RULES",
    "ContractReport",
    "DEFAULT_BASELINE",
    "Finding",
    "LintRule",
    "PROGRAM_RULES",
    "ProjectIndex",
    "RULES",
    "Severity",
    "apply_baseline",
    "check_contracts",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "register_rule",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_ids",
    "run_program_checks",
    "save_baseline",
    "select_rules",
]

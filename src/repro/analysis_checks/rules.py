"""Built-in lint rules, tuned to this codebase's failure modes.

- FP001 — float literal ``==``/``!=``: exact comparison against a float
  literal in regression math is almost always a bug; intentional exact
  sentinels carry ``# repro: noqa[FP001]``.
- AS001 — ``assert`` as a type/shape guard in library code: asserts
  vanish under ``python -O``, so guards must raise ``TypeError`` /
  ``ValueError`` instead.
- MD001 — mutable default argument (list/dict/set literals or calls).
- EX001 — bare ``except:`` (error) or ``except Exception`` whose handler
  never re-raises (warning): both swallow errors silently.
- EX002 — service-layer ``except Exception as e`` handlers that
  stringify the caught exception without preserving its type: every
  failure collapses into one anonymous counter/log bucket. Scoped to
  ``service/`` paths, where labels feed operational metrics.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional, Set, Tuple

from repro.analysis_checks.engine import LintRule, register_rule
from repro.analysis_checks.findings import Severity


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, float))


@register_rule
class FloatEqualityRule(LintRule):
    """FP001: ``==``/``!=`` against a float literal."""

    rule_id = "FP001"
    severity = Severity.WARNING
    description = ("exact ==/!= comparison against a float literal; use "
                   "math.isclose, an integer/None sentinel, or annotate "
                   "an intentional exact sentinel with noqa")

    def check(self, tree: ast.Module, path: str) -> Iterator[Tuple]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if (_is_float_literal(operands[i])
                        or _is_float_literal(operands[i + 1])):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield (node, f"float literal compared with {symbol}; "
                                 "exact float equality is rarely intended")
                    break


def _mentions_shape(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and child.attr in (
                "shape", "ndim", "dims"):
            return True
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                and child.func.id == "len":
            return True
    return False


@register_rule
class AssertGuardRule(LintRule):
    """AS001: ``assert`` used as a type/shape guard in library code."""

    rule_id = "AS001"
    severity = Severity.ERROR
    description = ("assert used as a type/shape guard; asserts vanish "
                   "under 'python -O' — raise TypeError/ValueError")

    def applies_to(self, path: str) -> bool:
        # in pytest files (tests/, benchmarks/) assert IS the assertion
        # idiom; the rule targets library code only
        from repro.analysis_checks.engine import _is_test_file
        return path == "<string>" or not _is_test_file(Path(path))

    def check(self, tree: ast.Module, path: str) -> Iterator[Tuple]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assert):
                continue
            test = node.test
            if isinstance(test, ast.Call) and isinstance(test.func,
                                                         ast.Name) \
                    and test.func.id in ("isinstance", "hasattr",
                                         "callable"):
                yield (node, f"assert {test.func.id}(...) guard vanishes "
                             "under 'python -O'; raise TypeError instead")
            elif isinstance(test, ast.Compare) and _mentions_shape(test):
                yield (node, "assert shape/size guard vanishes under "
                             "'python -O'; raise ValueError instead")


_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "defaultdict", "OrderedDict", "Counter",
    "deque",
})


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        return name in _MUTABLE_CALLS
    return False


@register_rule
class MutableDefaultRule(LintRule):
    """MD001: mutable default argument."""

    rule_id = "MD001"
    severity = Severity.ERROR
    description = ("mutable default argument is shared across calls; "
                   "default to None and create inside the function")

    def check(self, tree: ast.Module, path: str) -> Iterator[Tuple]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if _is_mutable_default(default):
                    yield (default,
                           f"{node.name}() has a mutable default "
                           "argument; use None and create per call")


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
    return False


def _exception_names(node: Optional[ast.expr]) -> Set[str]:
    if node is None:
        return set()
    if isinstance(node, ast.Tuple):
        names = set()
        for element in node.elts:
            names |= _exception_names(element)
        return names
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


@register_rule
class BroadExceptRule(LintRule):
    """EX001: bare ``except:`` / error-swallowing ``except Exception``."""

    rule_id = "EX001"
    severity = Severity.ERROR
    description = ("bare 'except:' (error) or 'except Exception' that "
                   "never re-raises (warning): both swallow errors")

    def check(self, tree: ast.Module, path: str) -> Iterator[Tuple]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield (node, "bare 'except:' catches SystemExit and "
                             "KeyboardInterrupt too; name an exception "
                             "type", Severity.ERROR)
                continue
            broad = _exception_names(node.type) & {"Exception",
                                                   "BaseException"}
            if broad and not _handler_reraises(node):
                yield (node, f"'except {sorted(broad)[0]}' swallows "
                             "errors (handler never re-raises); catch a "
                             "narrower type or annotate the intent",
                       Severity.WARNING)


def _references_caught(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _handler_stringifies(handler: ast.ExceptHandler, name: str) -> bool:
    """True when the handler renders the caught exception as bare text:
    ``str(e)`` or a non-``!r`` f-string interpolation of ``e``."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "str" and len(node.args) == 1 \
                and _references_caught(node.args[0], name):
            return True
        if isinstance(node, ast.FormattedValue) \
                and _references_caught(node.value, name) \
                and node.conversion != 114:      # 114 == ord('r'): {e!r}
            return True
    return False


def _handler_preserves_type(handler: ast.ExceptHandler, name: str) -> bool:
    """True when the exception's type stays observable in the handler:
    ``type(e)``, ``e.__class__``, ``repr(e)``/``{e!r}``, or an
    ``isinstance(e, ...)`` dispatch."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("type", "repr", "isinstance") \
                and node.args and _references_caught(node.args[0], name):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "__class__" \
                and _references_caught(node.value, name):
            return True
        if isinstance(node, ast.FormattedValue) \
                and _references_caught(node.value, name) \
                and node.conversion == 114:
            return True
    return False


@register_rule
class AnonymousExceptionLabelRule(LintRule):
    """EX002: broad service-layer handler erases the exception type."""

    rule_id = "EX002"
    severity = Severity.WARNING
    description = ("service-layer 'except Exception as e' stringifies "
                   "the exception without keeping its type; label "
                   "counters/logs with type(e).__name__ (or {e!r}) so "
                   "distinct failures stay distinguishable")

    def applies_to(self, path: str) -> bool:
        # labels only feed operational counters in the service layer;
        # "<string>" admits the rule's own fixture tests
        return path == "<string>" or "service" in Path(path).parts

    def check(self, tree: ast.Module, path: str) -> Iterator[Tuple]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None or node.name is None:
                continue
            broad = _exception_names(node.type) & {"Exception",
                                                   "BaseException"}
            if not broad or _handler_reraises(node):
                continue
            if _handler_stringifies(node, node.name) \
                    and not _handler_preserves_type(node, node.name):
                yield (node,
                       f"'except {sorted(broad)[0]} as {node.name}' "
                       f"stringifies {node.name} without its type; "
                       f"every failure collapses into one label — use "
                       f"type({node.name}).__name__ or "
                       f"{{{node.name}!r}}")

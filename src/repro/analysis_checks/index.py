"""Whole-program index: one parse of the project, shared by analyzers.

The per-file rules in :mod:`repro.analysis_checks.rules` see one module
at a time, which is exactly why they cannot catch a ``_ms`` value
flowing into a ``_us`` parameter two modules away, or a lock-guarded
field read from a helper that only *some* callers hold the lock around.
:class:`ProjectIndex` parses every (non-test) module under the given
paths **once** and builds:

- a module table with import resolution (``import a.b as c``,
  ``from .x import y``) mapping local aliases to dotted targets;
- a symbol table of module-level functions and classes, including each
  class's methods and the ``self.*`` attributes it assigns;
- a call graph whose edges are resolved best-effort: local names,
  imported names, ``self.method()`` receivers, and — for analyzers that
  opt in — a unique-method fallback (``x.run(...)`` resolves when
  exactly one indexed class defines ``run``);
- a lightweight *reference corpus* (identifier and string-literal
  occurrence counts) that may also cover test/benchmark trees, so
  reachability checks know what the rest of the repo mentions.

Everything is iterated in sorted order so two builds over the same tree
produce byte-identical findings — the determinism the committed
baseline workflow depends on.

The whole-program analyzers live next door and consume the index:
:mod:`.units` (UN001), :mod:`.races` (RC100), :mod:`.surface` (DC001).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis_checks.engine import _suppressions, iter_python_files
from repro.analysis_checks.findings import Finding

#: Analyzer rule ids implemented on top of the index (see run_program_checks).
PROGRAM_RULES = ("UN001", "RC100", "DC001")


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str                  # e.g. "repro.sim.engine.EventEngine.run"
    name: str                      # "run"
    module: str                    # "repro.sim.engine"
    cls: Optional[str]             # enclosing class simple name, or None
    path: str
    node: ast.AST                  # FunctionDef | AsyncFunctionDef
    params: Tuple[str, ...]        # declared names, 'self'/'cls' stripped
    decorators: Tuple[str, ...]    # simple decorator names

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")


@dataclass
class ClassInfo:
    """One class definition with its methods and assigned attributes."""

    qualname: str
    name: str
    module: str
    path: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    attrs: Set[str] = field(default_factory=set)     # self.X assigned
    bases: Tuple[str, ...] = ()


@dataclass
class ModuleInfo:
    """One parsed module: tree, imports, symbols, and noqa lines."""

    name: str
    path: str
    tree: ast.Module
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: line -> suppressed rule ids (None = all), from ``# repro: noqa``
    noqa: Dict[int, Optional[Set[str]]] = field(default_factory=dict)


@dataclass
class CallSite:
    """One call expression, with its best-effort resolved callee."""

    module: str
    path: str
    caller: Optional[str]          # enclosing function qualname, or None
    raw: str                       # textual callee, e.g. "engine.run"
    callee: Optional[str]          # resolved FunctionInfo qualname
    node: ast.Call


def _module_name(path: Path, root: Path) -> str:
    """Dotted module name for ``path``: anchored at ``src`` when present."""
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    else:
        try:
            parts = list(path.with_suffix("").relative_to(root).parts)
            parts = [root.name] + parts
        except ValueError:
            parts = parts[-2:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _attr_chain(node: ast.expr) -> str:
    """Dotted text of a Name/Attribute chain ('' when not a plain chain)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class ProjectIndex:
    """Symbol table + call graph over every indexed module."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}   # by qualname
        self.classes: Dict[str, ClassInfo] = {}        # by qualname
        self.calls: List[CallSite] = []
        #: simple method name -> every class method with that name
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        #: identifier -> occurrence count across index + reference corpus
        #: (Name loads, attribute names, import-from targets, __all__)
        self.name_refs: Dict[str, int] = {}
        #: string literal -> occurrence count across index + corpus
        self.string_refs: Dict[str, int] = {}
        self.reference_files = 0
        self._seen_files: Set[str] = set()

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(cls, paths: Sequence,
              reference_paths: Sequence = ()) -> "ProjectIndex":
        """Index every non-test module under ``paths``.

        ``reference_paths`` get a light pass only (identifier/string
        occurrence counts, **including** test files): they extend what
        counts as "referenced" without entering the symbol table.
        """
        index = cls()
        for entry in paths:
            root = Path(entry)
            for file_path in iter_python_files([root]):
                index._add_module(file_path, root)
        index._resolve_calls()
        for entry in reference_paths:
            for file_path in iter_python_files([Path(entry)],
                                               skip_tests=False):
                index._add_references(file_path)
        return index

    def _add_module(self, file_path: Path, root: Path) -> None:
        resolved = str(file_path.resolve())
        if resolved in self._seen_files:
            return
        self._seen_files.add(resolved)
        source = file_path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(file_path))
        except SyntaxError:
            return      # the per-file engine already reports PARSE
        name = _module_name(file_path, root)
        module = ModuleInfo(name=name, path=str(file_path), tree=tree,
                            noqa=_suppressions(source))
        self.modules[name] = module
        self._collect_imports(module)
        self._collect_symbols(module)
        self._count_references(tree)
        self.reference_files += 1

    def _collect_imports(self, module: ModuleInfo) -> None:
        package = module.name.rsplit(".", 1)[0] if "." in module.name else ""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    module.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = module.name.rsplit(".", node.level)[0] \
                        if module.name.count(".") >= node.level else package
                    base = f"{anchor}.{base}" if base else anchor
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.imports[local] = f"{base}.{alias.name}" \
                        if base else alias.name

    def _function_info(self, module: ModuleInfo, node,
                       cls: Optional[ClassInfo]) -> FunctionInfo:
        args = node.args
        names = [a.arg for a in
                 getattr(args, "posonlyargs", []) + args.args]
        if cls is not None and names and names[0] in ("self", "cls"):
            names = names[1:]
        names += [a.arg for a in args.kwonlyargs]
        owner = f"{module.name}.{cls.name}" if cls else module.name
        return FunctionInfo(
            qualname=f"{owner}.{node.name}", name=node.name,
            module=module.name, cls=cls.name if cls else None,
            path=module.path, node=node, params=tuple(names),
            decorators=tuple(_decorator_name(d) for d in
                             node.decorator_list))

    def _collect_symbols(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._function_info(module, node, None)
                module.functions[node.name] = info
                self.functions[info.qualname] = info
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(
                    qualname=f"{module.name}.{node.name}", name=node.name,
                    module=module.name, path=module.path, node=node,
                    bases=tuple(filter(None, (_attr_chain(b)
                                              for b in node.bases))))
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        info = self._function_info(module, stmt, cls)
                        cls.methods[stmt.name] = info
                        self.functions[info.qualname] = info
                        self.methods_by_name.setdefault(
                            stmt.name, []).append(info)
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Attribute) \
                            and isinstance(sub.ctx, ast.Store) \
                            and isinstance(sub.value, ast.Name) \
                            and sub.value.id == "self":
                        cls.attrs.add(sub.attr)
                module.classes[node.name] = cls
                self.classes[cls.qualname] = cls

    # -- references -----------------------------------------------------------

    def _count_references(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Load):
                self.name_refs[node.id] = self.name_refs.get(node.id, 0) + 1
            elif isinstance(node, ast.Attribute):
                self.name_refs[node.attr] = \
                    self.name_refs.get(node.attr, 0) + 1
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    self.name_refs[alias.name] = \
                        self.name_refs.get(alias.name, 0) + 1
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and 0 < len(node.value) < 200:
                self.string_refs[node.value] = \
                    self.string_refs.get(node.value, 0) + 1

    def _add_references(self, file_path: Path) -> None:
        resolved = str(file_path.resolve())
        if resolved in self._seen_files:
            return      # already indexed: never double-count a file
        self._seen_files.add(resolved)
        try:
            tree = ast.parse(file_path.read_text(encoding="utf-8"),
                             filename=str(file_path))
        except (SyntaxError, OSError, UnicodeDecodeError):
            return
        self._count_references(tree)
        self.reference_files += 1

    # -- call graph -----------------------------------------------------------

    def _resolve_calls(self) -> None:
        for name in sorted(self.modules):
            module = self.modules[name]
            self._resolve_module_calls(module)

    def _resolve_module_calls(self, module: ModuleInfo) -> None:
        # walk functions with their enclosing scope known; module-level
        # calls get caller=None
        scopes: List[Tuple[Optional[FunctionInfo], ast.AST]] = []
        for fn_name in sorted(module.functions):
            scopes.append((module.functions[fn_name],
                           module.functions[fn_name].node))
        for cls_name in sorted(module.classes):
            cls = module.classes[cls_name]
            for method_name in sorted(cls.methods):
                info = cls.methods[method_name]
                scopes.append((info, info.node))
        for caller, node in scopes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    self._add_call(module, caller, sub)
        # module-level (top-of-file) calls: body statements outside defs
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    self._add_call(module, None, sub)

    def _add_call(self, module: ModuleInfo,
                  caller: Optional[FunctionInfo], node: ast.Call) -> None:
        raw = _attr_chain(node.func)
        callee = self._resolve(module, caller, node.func, raw)
        self.calls.append(CallSite(
            module=module.name, path=module.path,
            caller=caller.qualname if caller else None,
            raw=raw, callee=callee, node=node))

    def _resolve(self, module: ModuleInfo,
                 caller: Optional[FunctionInfo], func: ast.expr,
                 raw: str) -> Optional[str]:
        if isinstance(func, ast.Name):
            target = func.id
            if target in module.functions:
                return module.functions[target].qualname
            if target in module.classes:
                init = module.classes[target].methods.get("__init__")
                return init.qualname if init else None
            dotted = module.imports.get(target)
            if dotted is not None:
                return self._lookup_near(module, dotted)
            return None
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name):
                if value.id == "self" and caller is not None \
                        and caller.cls is not None:
                    cls = module.classes.get(caller.cls)
                    if cls is not None and func.attr in cls.methods:
                        return cls.methods[func.attr].qualname
                    return None
                dotted = module.imports.get(value.id)
                if dotted is not None:
                    return self._lookup_near(module, f"{dotted}.{func.attr}")
            elif raw:
                return self._lookup_near(module, raw)
        return None

    def _lookup_near(self, module: ModuleInfo,
                     dotted: str) -> Optional[str]:
        """``_lookup`` retried with the caller's package prefix.

        A flat directory scanned via ``--paths`` (no ``src`` anchor, no
        package) is indexed under a synthetic ``<dirname>.`` prefix its
        own top-level imports don't carry; the retry makes those
        sibling imports resolve.
        """
        found = self._lookup(dotted)
        if found is None and "." in module.name:
            package = module.name.rsplit(".", 1)[0]
            found = self._lookup(f"{package}.{dotted}")
        return found

    def _lookup(self, dotted: str) -> Optional[str]:
        """A dotted target resolved against the indexed symbol tables."""
        if dotted in self.functions:
            return dotted
        if dotted in self.classes:
            init = self.classes[dotted].methods.get("__init__")
            return init.qualname if init else None
        # "pkg.module.func" written via a module alias chain
        if "." in dotted:
            head, tail = dotted.rsplit(".", 1)
            target = self.modules.get(head)
            if target is not None:
                if tail in target.functions:
                    return target.functions[tail].qualname
                if tail in target.classes:
                    init = target.classes[tail].methods.get("__init__")
                    return init.qualname if init else None
                # re-exported name: follow one import hop
                hop = target.imports.get(tail)
                if hop is not None and hop != dotted:
                    return self._lookup(hop)
        return None

    def unique_method(self, name: str) -> Optional[FunctionInfo]:
        """The single indexed method called ``name``, if unambiguous."""
        candidates = self.methods_by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    # -- queries --------------------------------------------------------------

    def is_suppressed(self, finding: Finding, module: ModuleInfo,
                      end_line: int) -> bool:
        from repro.analysis_checks.engine import _is_suppressed
        return _is_suppressed(finding, end_line, module.noqa)

    def stats(self) -> Dict[str, int]:
        resolved = sum(1 for call in self.calls if call.callee is not None)
        return {
            "modules": len(self.modules),
            "classes": len(self.classes),
            "functions": len(self.functions),
            "call_sites": len(self.calls),
            "resolved_calls": resolved,
            "reference_files": self.reference_files,
        }


def make_finding(module: ModuleInfo, node: ast.AST, rule: str, severity,
                 message: str) -> Optional[Finding]:
    """A Finding for ``node`` unless a ``# repro: noqa`` line covers it."""
    finding = Finding(module.path, getattr(node, "lineno", 0),
                      getattr(node, "col_offset", 0), rule, severity,
                      message)
    end_line = getattr(node, "end_lineno", None) or finding.line
    from repro.analysis_checks.engine import _is_suppressed
    if _is_suppressed(finding, end_line, module.noqa):
        return None
    return finding


def run_program_checks(paths: Sequence,
                       reference_paths: Sequence = (),
                       only: Optional[Iterable[str]] = None
                       ) -> Tuple[List[Finding], Dict[str, int]]:
    """Build the index once and run every requested analyzer over it.

    Returns ``(findings, index_stats)``.
    """
    wanted = set(PROGRAM_RULES if only is None else only) & \
        set(PROGRAM_RULES)
    if not wanted:
        return [], {}
    index = ProjectIndex.build(paths, reference_paths=reference_paths)
    findings: List[Finding] = []
    if "UN001" in wanted:
        from repro.analysis_checks.units import check_units
        findings.extend(check_units(index))
    if "RC100" in wanted:
        from repro.analysis_checks.races import check_races
        findings.extend(check_races(index))
    if "DC001" in wanted:
        from repro.analysis_checks.surface import check_surface
        findings.extend(check_surface(index))
    return findings, index.stats()

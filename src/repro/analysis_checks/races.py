"""RC100: flow-sensitive lock/shared-state race detection.

The repo's one lock-discipline analyzer. It runs on the whole-program
index because a per-file pass cannot follow a ``_``-helper that only
some callers wrap in the lock, and it sees unlocked **reads** of
guarded state as well as writes:

1. **Guarded-field discovery.** For every class that creates a
   ``self._lock`` (``threading.Lock``/``RLock``), the lock's protected
   state is every private field written or mutated inside a
   ``with self._lock:`` block, plus every private field that any
   method other than ``__init__`` writes or mutates. A field only
   ``__init__`` assigns is fixed before the object is shared and needs
   no lock.
2. **Per-method access classification.** Walk each method tracking
   whether the lock is held, recording every read, write, and in-place
   mutation of a guarded field along with the held/not-held flag at
   that point, plus every ``self.method()`` call edge with the same
   flag.
3. **Unlocked-entry propagation.** A method can run without the lock
   if it is public (including dunders), *escapes* as a value (e.g.
   ``Thread(target=self._run)``), or is called lock-free from another
   method that can itself run without the lock. This is a fixpoint
   over the intra-class call edges.
4. **Reporting.** Any not-held access to a guarded field inside a
   method that can run without the lock is a finding. ``__init__`` is
   exempt (construction happens-before publication), as are helpers
   only ever invoked with the lock held, and *atomic fields*: private
   fields **only ever assigned** a known internally-synchronised type
   (``queue.Queue``, ``threading.Event``, ``collections.deque``, the
   service's ``MetricsRegistry``/``PredictionCache``). Such a field is
   a stable handle to an object that does its own locking — the
   scale-out frontend's in-flight FIFOs and gauge registries are read
   lock-free by design, and flagging them would train people to ignore
   the rule. Reassigning the field anywhere outside those constructors
   revokes the exemption.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis_checks.findings import Finding, Severity
from repro.analysis_checks.index import (
    ClassInfo,
    ModuleInfo,
    ProjectIndex,
    _attr_chain,
    make_finding,
)

RULE_ID = "RC100"
SEVERITY = Severity.ERROR

#: access kinds, by escalating priority for same-line deduplication.
_READ, _WRITE, _MUTATE = 0, 1, 2
_VERBS = {_READ: "reads", _WRITE: "writes", _MUTATE: "mutates"}

#: method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "appendleft", "add", "clear", "discard", "extend", "insert",
    "move_to_end", "pop", "popitem", "popleft", "remove", "setdefault",
    "sort", "update",
})


def _self_private_root(node: ast.AST) -> Optional[str]:
    """The ``_name`` when ``node`` reaches state rooted at ``self._name``.

    Walks value chains like ``self._models[name].reloads`` down to the
    innermost ``self._models`` attribute access; returns None for
    anything not rooted at a private attribute of ``self``.
    """
    while True:
        if isinstance(node, ast.Attribute):
            if (isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                attr = node.attr
                if attr.startswith("_") and not attr.startswith("__"):
                    return attr
                return None
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            return None


def _is_self_lock(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr == "_lock")


def _child_bodies(stmt: ast.stmt) -> Iterator[List[ast.stmt]]:
    for field in ("body", "orelse", "finalbody"):
        value = getattr(stmt, field, None)
        if isinstance(value, list) and value \
                and isinstance(value[0], ast.stmt):
            yield value
    for handler in getattr(stmt, "handlers", []):
        yield handler.body


#: Constructors whose instances synchronise internally. A private field
#: that is only ever assigned a call to one of these names is a stable
#: handle to a self-locking object: reading it without the class lock
#: is safe, so RC100 exempts it from the guarded set.
_ATOMIC_CONSTRUCTORS = frozenset({
    # stdlib queue / threading / collections
    "Queue", "SimpleQueue", "LifoQueue", "PriorityQueue",
    "Event", "Condition", "Semaphore", "BoundedSemaphore", "Barrier",
    "deque",
    # repro's own internally-locked service types
    "MetricsRegistry", "PredictionCache",
})


def _write_targets(stmt: ast.stmt) -> List[ast.expr]:
    """The expressions ``stmt`` assigns, rebinds or deletes."""
    if isinstance(stmt, (ast.Assign, ast.Delete)):
        return list(stmt.targets)
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        return [stmt.target]
    return []


def _atomic_fields(cls: ClassInfo) -> Set[str]:
    """Private fields whose every assignment is an atomic constructor.

    One non-constructor assignment anywhere in the class (including
    ``+=``) disqualifies the field: the exemption covers stable handles
    to self-locking objects, not rebound state.
    """
    def _is_atomic_call(value: Optional[ast.expr]) -> bool:
        if not isinstance(value, ast.Call):
            return False
        tail = _attr_chain(value.func).rsplit(".", 1)[-1]
        return tail in _ATOMIC_CONSTRUCTORS

    verdict: Dict[str, bool] = {}
    for node in ast.walk(cls.node):
        targets: List[ast.AST] = []
        atomic = False
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
            atomic = _is_atomic_call(node.value)
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
            atomic = _is_atomic_call(node.value)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]        # in-place: never atomic
        for target in targets:
            root = _self_private_root(target)
            if root is not None and root != "_lock":
                verdict[root] = verdict.get(root, True) and atomic
    return {field for field, always in verdict.items() if always}


def _creates_lock(cls: ClassInfo) -> bool:
    """True when any method assigns ``self._lock = ...Lock()``."""
    for node in ast.walk(cls.node):
        if isinstance(node, ast.Assign) \
                and any(_is_self_lock(t) for t in node.targets):
            value = node.value
            chain = _attr_chain(value.func) \
                if isinstance(value, ast.Call) else ""
            tail = chain.rsplit(".", 1)[-1]
            if tail in ("Lock", "RLock") or not chain:
                return True
    return False


class _Access:
    """One guarded-field touch: where, what kind, lock held or not."""

    __slots__ = ("field", "kind", "locked", "node")

    def __init__(self, field: str, kind: int, locked: bool,
                 node: ast.AST) -> None:
        self.field = field
        self.kind = kind
        self.locked = locked
        self.node = node


class _ClassRaces:
    """RC100 analysis of a single lock-owning class."""

    def __init__(self, module: ModuleInfo, cls: ClassInfo) -> None:
        self.module = module
        self.cls = cls
        self.guarded: Set[str] = set()
        #: method name -> accesses of guarded fields
        self.accesses: Dict[str, List[_Access]] = {}
        #: (caller method, callee method, lock held at call site)
        self.edges: List[Tuple[str, str, bool]] = []
        self.escaped: Set[str] = set()

    # -- pass 1: which fields does the lock protect? --------------------------

    def _discover_guarded(self) -> None:
        for name, info in self.cls.methods.items():
            # outside __init__ every write is shared-state mutation;
            # inside it only writes made under the lock count
            self._guarded_walk(info.node.body, collect=name != "__init__")
        # fields that are stable handles to internally-synchronised
        # objects (queues, events, metric registries) need no lock
        self.guarded -= _atomic_fields(self.cls)

    def _guarded_walk(self, statements: List[ast.stmt],
                      collect: bool) -> None:
        for stmt in statements:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                holds = collect or any(_is_self_lock(item.context_expr)
                                       for item in stmt.items)
                self._guarded_walk(stmt.body, holds)
                continue
            if collect:
                self._collect_writes(stmt)
            for body in _child_bodies(stmt):
                self._guarded_walk(body, collect)

    def _collect_writes(self, stmt: ast.stmt) -> None:
        for target in _write_targets(stmt):
            root = _self_private_root(target)
            if root is not None and root != "_lock":
                self.guarded.add(root)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS:
                root = _self_private_root(node.func.value)
                if root is not None and root != "_lock":
                    self.guarded.add(root)

    # -- pass 2: classify every access + call edge -----------------------------

    def _classify_methods(self) -> None:
        call_funcs = {id(node.func) for node in ast.walk(self.cls.node)
                      if isinstance(node, ast.Call)}
        for name, info in self.cls.methods.items():
            self._method = name
            self._call_funcs = call_funcs
            self.accesses[name] = []
            self._classify_walk(info.node.body, locked=False)

    def _classify_walk(self, statements: List[ast.stmt],
                       locked: bool) -> None:
        for stmt in statements:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue   # nested defs are called, not executed here
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                holds = locked or any(_is_self_lock(item.context_expr)
                                      for item in stmt.items)
                for item in stmt.items:
                    self._scan_exprs(item.context_expr, locked)
                self._classify_walk(stmt.body, holds)
                continue
            self._scan_statement(stmt, locked)
            for body in _child_bodies(stmt):
                self._classify_walk(body, locked)

    def _scan_statement(self, stmt: ast.stmt, locked: bool) -> None:
        consumed: Set[int] = set()
        for target in _write_targets(stmt):
            root = _self_private_root(target)
            if root in self.guarded:
                self._record(root, _WRITE, locked, stmt)
            consumed.update(id(sub) for sub in ast.walk(target))
        for field_name, value in ast.iter_fields(stmt):
            if field_name in ("body", "orelse", "finalbody", "handlers"):
                continue
            values = value if isinstance(value, list) else [value]
            for item in values:
                if isinstance(item, ast.expr) \
                        and id(item) not in consumed:
                    self._scan_exprs(item, locked)

    def _scan_exprs(self, expr: ast.expr, locked: bool) -> None:
        mutated: Set[int] = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    if isinstance(func.value, ast.Name) \
                            and func.value.id == "self" \
                            and func.attr in self.cls.methods:
                        self.edges.append((self._method, func.attr,
                                           locked))
                    if func.attr in _MUTATORS:
                        root = _self_private_root(func.value)
                        if root in self.guarded:
                            self._record(root, _MUTATE, locked, node)
                            mutated.update(id(sub) for sub in
                                           ast.walk(func.value))
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                if node.attr in self.guarded \
                        and isinstance(node.ctx, ast.Load) \
                        and id(node) not in mutated:
                    self._record(node.attr, _READ, locked, node)
                elif node.attr in self.cls.methods \
                        and isinstance(node.ctx, ast.Load) \
                        and id(node) not in self._call_funcs:
                    # the bound method escapes as a value — e.g.
                    # Thread(target=self._run): runs without the lock
                    self.escaped.add(node.attr)

    def _record(self, field: str, kind: int, locked: bool,
                node: ast.AST) -> None:
        self.accesses[self._method].append(
            _Access(field, kind, locked, node))

    # -- pass 3: which methods can run without the lock? -----------------------

    def _unlocked_entries(self) -> Set[str]:
        entries: Set[str] = set()
        for name in self.cls.methods:
            if name == "__init__":
                continue
            if not name.startswith("_") or (
                    name.startswith("__") and name.endswith("__")):
                entries.add(name)
            elif name in self.escaped:
                entries.add(name)
        changed = True
        while changed:
            changed = False
            for caller, callee, site_locked in self.edges:
                if site_locked or callee == "__init__" \
                        or caller == "__init__":
                    continue
                if caller in entries and callee not in entries:
                    entries.add(callee)
                    changed = True
        return entries

    # -- driver ----------------------------------------------------------------

    def run(self) -> List[Finding]:
        self._discover_guarded()
        if not self.guarded:
            return []
        self._classify_methods()
        entries = self._unlocked_entries()
        # strongest access per (method, field, line): a mutate beats the
        # read of the same attribute node it contains
        best: Dict[Tuple[str, str, int], _Access] = {}
        for method in self.cls.methods:
            if method not in entries:
                continue
            for access in self.accesses.get(method, ()):
                if access.locked:
                    continue
                key = (method, access.field,
                       getattr(access.node, "lineno", 0))
                held = best.get(key)
                if held is None or access.kind > held.kind:
                    best[key] = access
        findings: List[Finding] = []
        for (method, access_field, _line) in sorted(best):
            access = best[(method, access_field, _line)]
            finding = make_finding(
                self.module, access.node, RULE_ID, SEVERITY,
                f"{self.cls.name}.{method}() {_VERBS[access.kind]} "
                f"self.{access.field} outside 'with self._lock:' "
                f"(reachable without the lock)")
            if finding is not None:
                findings.append(finding)
        return findings


def check_races(index: ProjectIndex) -> List[Finding]:
    """All RC100 findings over every lock-owning class in the index."""
    findings: List[Finding] = []
    for qualname in sorted(index.classes):
        cls = index.classes[qualname]
        if not _creates_lock(cls):
            continue
        module = index.modules.get(cls.module)
        if module is None:
            continue
        findings.extend(_ClassRaces(module, cls).run())
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.message))
    return findings

"""LOCK001/LOCK002 — lock discipline in threaded modules.

The job server, the scheduler, and the result cache are exercised by
many threads at once (HTTP handler threads, the worker pool, long-poll
waiters).  Their correctness argument is *lock discipline*: every piece
of shared mutable state belongs to exactly one lock, and nested locks
are always taken in one global order.  Both properties are inferred,
not declared:

**LOCK001 — unguarded access to lock-protected state.**  A class that
creates a ``threading.Lock`` / ``RLock`` / ``Condition`` / ``Semaphore``
attribute in its methods is treated as lock-disciplined.  For each
non-lock attribute the rule collects every access and whether it
happens lexically inside ``with self.<lock>:``.  An attribute written
under the lock anywhere (or inside a ``*_locked`` helper — the
documented "caller holds the lock" convention) is *guarded*; any read
or write of a guarded attribute outside a lock scope is a race window
and is flagged.  ``__init__`` is exempt (construction is
single-threaded by publication), as are ``*_locked`` methods.

**LOCK002 — inconsistent lock-acquisition order.**  Across the whole
program, every lexically nested ``with lockA: ... with lockB:`` pair is
recorded (lock identity is the qualified owner attribute, e.g.
``repro.service.jobs.JobStore._lock``).  If both ``A→B`` and ``B→A``
orders exist anywhere, each participating inner acquisition is flagged:
two threads taking the pair in opposite orders is the textbook
deadlock.

Both rules are deliberately class-scoped and syntactic: a class with no
lock attribute is not analysed (its thread-safety story, if any, lives
elsewhere), and lock handles reached through other objects are ignored
rather than guessed at.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.devtools.simlint.model import (
    FileContext,
    ModuleRole,
    RuleKind,
    Violation,
    register,
)
from repro.devtools.simlint.program import dotted_chain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.devtools.simlint.program import ProgramModel

__all__ = ["check_lock_guards", "check_lock_order", "LOCK_FACTORIES"]

_RULE_GUARD = "LOCK001"
_RULE_ORDER = "LOCK002"

#: threading constructors whose product is a lock-like context manager.
LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: Method-name suffix declaring "caller already holds the lock".
_LOCKED_SUFFIX = "_locked"

#: Method calls that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

_ROLES = (
    ModuleRole.SIM,
    ModuleRole.LIB,
    ModuleRole.CLI,
    ModuleRole.TELEMETRY,
    ModuleRole.SERVICE,
    ModuleRole.TOOL,
)


def _is_lock_ctor(node: ast.expr) -> bool:
    """``threading.Lock()`` / ``Lock()`` style constructor call."""
    if not isinstance(node, ast.Call):
        return False
    chain = dotted_chain(node.func)
    if not chain or chain[-1] not in LOCK_FACTORIES:
        return False
    return len(chain) == 1 or chain[0] in ("threading", "multiprocessing")


def _self_attr(node: ast.expr) -> str | None:
    """``attr`` when the expression is exactly ``self.attr``/``cls.attr``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("self", "cls")
    ):
        return node.attr
    return None


@dataclass(slots=True)
class _Access:
    attr: str
    line: int
    col: int
    write: bool
    held: bool
    exempt: bool


class _ClassScan:
    """Lock attributes, accesses, and nested acquisitions of one class."""

    def __init__(self, cls: ast.ClassDef) -> None:
        self.cls = cls
        self.lock_attrs: set[str] = set()
        self.method_names: set[str] = set()
        self.accesses: list[_Access] = []
        #: (outer lock, inner lock, inner with-node) nesting evidence.
        self.nestings: list[tuple[str, str, ast.AST]] = []
        self._find_locks()
        for method in self._methods():
            exempt = method.name == "__init__" or method.name.endswith(_LOCKED_SUFFIX)
            assume_held = method.name.endswith(_LOCKED_SUFFIX)
            self._walk(method, held=tuple(self.lock_attrs) if assume_held else (), exempt=exempt)

    def _methods(self) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        return [
            node
            for node in self.cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    def _find_locks(self) -> None:
        for method in self._methods():
            self.method_names.add(method.name)
            for node in ast.walk(method):
                if isinstance(node, ast.Assign) and _is_lock_ctor(node.value):
                    for target in node.targets:
                        attr = _self_attr(target)
                        if attr is not None:
                            self.lock_attrs.add(attr)
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    if _is_lock_ctor(node.value):
                        attr = _self_attr(node.target)
                        if attr is not None:
                            self.lock_attrs.add(attr)

    # --------------------------------------------------------------- #
    # access collection

    def _walk(self, node: ast.AST, held: tuple[str, ...], exempt: bool) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: list[str] = []
            for item in node.items:
                attr = _self_attr(item.context_expr)
                if attr is not None and attr in self.lock_attrs:
                    for outer in held + tuple(acquired):
                        if outer != attr:
                            self.nestings.append((outer, attr, item.context_expr))
                    acquired.append(attr)
                else:
                    self._walk(item.context_expr, held, exempt)
            inner = held + tuple(acquired)
            for stmt in node.body:
                self._walk(stmt, inner, exempt)
            return
        if isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is not None and attr not in self.lock_attrs:
                self._record(node, attr, isinstance(node.ctx, (ast.Store, ast.Del)), held, exempt)
            self._walk(node.value, held, exempt)
            return
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            root = node.value
            while isinstance(root, ast.Subscript):
                root = root.value
            attr = _self_attr(root)
            if attr is not None and attr not in self.lock_attrs:
                self._record(root, attr, True, held, exempt)
                self._walk(node.slice, held, exempt)
                return
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
            ):
                attr = _self_attr(func.value)
                if attr is not None and attr not in self.lock_attrs:
                    self._record(func.value, attr, True, held, exempt)
                    for arg in node.args:
                        self._walk(arg, held, exempt)
                    for kw in node.keywords:
                        self._walk(kw.value, held, exempt)
                    return
        for child in ast.iter_child_nodes(node):
            self._walk(child, held, exempt)

    def _record(
        self, node: ast.expr, attr: str, write: bool, held: tuple[str, ...], exempt: bool
    ) -> None:
        self.accesses.append(
            _Access(
                attr=attr,
                line=node.lineno,
                col=node.col_offset,
                write=write,
                held=bool(held),
                exempt=exempt,
            )
        )

    # --------------------------------------------------------------- #
    # verdicts

    def guarded_attrs(self) -> set[str]:
        """Attributes with at least one lock-protected write.

        ``*_locked`` methods count (their whole body is treated as
        holding every class lock); ``__init__`` writes carry no
        evidence — construction precedes sharing.
        """
        return {
            access.attr for access in self.accesses if access.write and access.held
        }

    def unguarded(self) -> Iterator[_Access]:
        guarded = self.guarded_attrs()
        seen: set[tuple[str, int, int]] = set()
        for access in self.accesses:
            if access.attr not in guarded or access.held or access.exempt:
                continue
            key = (access.attr, access.line, access.col)
            if key in seen:
                continue
            seen.add(key)
            yield access


def _lock_classes(tree: ast.Module) -> Iterator[_ClassScan]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scan = _ClassScan(node)
            if scan.lock_attrs:
                yield scan


@register(
    _RULE_GUARD,
    summary="lock-guarded attribute accessed without its lock",
    invariant="shared mutable state is only touched under its owning lock",
    roles=_ROLES,
)
def check_lock_guards(ctx: FileContext) -> Iterator[Violation]:
    for scan in _lock_classes(ctx.tree):
        locks = ", ".join(sorted(scan.lock_attrs))
        for access in scan.unguarded():
            kind = "write to" if access.write else "read of"
            yield Violation(
                path=ctx.path,
                line=access.line,
                col=access.col,
                rule=_RULE_GUARD,
                message=(
                    f"unguarded {kind} {access.attr!r} in lock-disciplined "
                    f"class {scan.cls.name!r}: the attribute is written under "
                    f"'self.{locks}' elsewhere, so this access races with "
                    "those writers; hold the lock (or rename the method "
                    "'*_locked' if the caller already does)"
                ),
            )


@register(
    _RULE_ORDER,
    summary="locks acquired in inconsistent nesting order",
    invariant="nested lock acquisitions follow one global order",
    roles=_ROLES,
    kind=RuleKind.PROJECT,
)
def check_lock_order(model: "ProgramModel") -> Iterator[Violation]:
    #: (outer qualified lock, inner qualified lock) → first witness.
    orders: dict[tuple[str, str], tuple[str, ast.AST]] = {}
    for info in sorted(model.modules.values(), key=lambda m: m.path):
        if info.role is ModuleRole.TEST:
            continue
        for scan in _lock_classes(info.tree):
            owner = f"{info.name}.{scan.cls.name}"
            for outer, inner, node in scan.nestings:
                orders.setdefault(
                    (f"{owner}.{outer}", f"{owner}.{inner}"), (info.path, node)
                )
    for (outer, inner), (path, node) in sorted(orders.items()):
        reverse = orders.get((inner, outer))
        if reverse is None or (outer, inner) > (inner, outer):
            continue  # report each conflicting pair once, at both sites
        for site_path, site_node, first, second in (
            (path, node, outer, inner),
            (reverse[0], reverse[1], inner, outer),
        ):
            yield Violation(
                path=site_path,
                line=getattr(site_node, "lineno", 1),
                col=getattr(site_node, "col_offset", 0),
                rule=_RULE_ORDER,
                message=(
                    f"lock order inversion: {first} is taken before {second} "
                    f"here, but the opposite order exists elsewhere — two "
                    "threads interleaving these paths can deadlock; pick one "
                    "global order"
                ),
            )

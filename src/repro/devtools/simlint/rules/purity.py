"""PURE001 — the telemetry/metrics write path stays pure.

``TEL001`` polices the *emit sites* inside simulation modules.  This
rule polices the other side of the contract: the telemetry and metrics
functions those emits land in.  Earlier simlint versions approximated
"write path" by module naming; v2 derives it from the call graph — a
function in ``repro.telemetry``/``repro.metrics`` is on the write path
exactly when the simulation core can reach it
(:meth:`~repro.devtools.simlint.program.ProgramModel.core_reachable`).

A write-path function must record and return; it may not:

* mutate a caller-owned argument (in-place method call, attribute or
  subscript store rooted at a parameter) — that writes telemetry state
  *back into simulation objects*, so disabling telemetry changes
  behaviour;
* declare ``global`` — per-event mutation of module state makes the
  write path order-dependent and unsafe under the threaded service;
* perform synchronous I/O (``open``/``print``/``input``) — the hot
  emit path must buffer; sinks flush outside the simulated region.

Clock reads are deliberately *not* flagged here: timestamps are
telemetry's raison d'être (and DET002 exempts the role for the same
reason).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.devtools.simlint.model import ModuleRole, RuleKind, Violation, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.devtools.simlint.program import FunctionInfo, ProgramModel

__all__ = ["check_write_path_purity", "WRITE_PATH_PREFIXES"]

_RULE = "PURE001"

#: Module prefixes forming the telemetry/metrics write path.
WRITE_PATH_PREFIXES = ("repro.telemetry", "repro.metrics")

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

#: Builtins whose call is synchronous I/O.
_IO_BUILTINS = frozenset({"open", "print", "input"})


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> frozenset[str]:
    """Caller-owned parameter names (``self``/``cls`` excluded: mutating
    the instrument's own state is the whole point of recording)."""
    args = func.args
    names = [
        arg.arg
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    ]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return frozenset(names) - {"self", "cls"}


def _root_name(node: ast.expr) -> str | None:
    """The ``Name`` a value/attribute/subscript chain is rooted at."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _impurities(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[tuple[ast.AST, str]]:
    params = _param_names(func)
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            yield node, "declares 'global' (per-event module-state mutation)"
        elif isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            root = _root_name(node.value)
            if root in params:
                yield node, f"writes into caller-owned argument {root!r}"
        elif isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id in _IO_BUILTINS:
                yield node, f"synchronous I/O via {callee.id}()"
            elif (
                isinstance(callee, ast.Attribute)
                and callee.attr in _MUTATING_METHODS
            ):
                root = _root_name(callee.value)
                if root in params:
                    yield (
                        node,
                        f"mutates caller-owned argument {root!r} "
                        f"via .{callee.attr}()",
                    )


def _write_path(model: "ProgramModel") -> Iterator[tuple["FunctionInfo", str]]:
    """(function, witness trail) for core-reachable write-path functions."""
    parents = model.core_reachable()
    for func in sorted(
        model.functions_in(*WRITE_PATH_PREFIXES), key=lambda f: f.qname
    ):
        if func.qname in parents:
            yield func, " -> ".join(model.witness_path(parents, func.qname))


@register(
    _RULE,
    summary="impure operation on the telemetry/metrics write path",
    invariant="recording an event never mutates simulation state or blocks",
    roles=(ModuleRole.TELEMETRY, ModuleRole.SIM),
    kind=RuleKind.PROJECT,
)
def check_write_path_purity(model: "ProgramModel") -> Iterator[Violation]:
    for func, trail in _write_path(model):
        for node, what in _impurities(func.node):
            yield Violation(
                path=func.path,
                line=getattr(node, "lineno", func.node.lineno),
                col=getattr(node, "col_offset", 0),
                rule=_RULE,
                message=(
                    f"{func.qname}() is on the telemetry write path (the "
                    f"simulation core reaches it via {trail}) but {what}; "
                    "write-path functions must only record into their own "
                    "instrument state"
                ),
            )

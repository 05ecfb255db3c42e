"""SPEC001 — speculative predictor state is written only where repair can see it.

The BHT, pattern table and OBQ are updated *speculatively at prediction
time* and patched back by the repair schemes (paper §2.3, §3).  Every
repair scheme's correctness argument assumes those structures change
only through their own methods, the predictor update paths, and the
repair walkers.  A stray write from, say, the pipeline or an analysis
helper would silently invalidate Figures 8–13 while every unit test of
the structures still passes.

This rule flags writes of the form ``obj.attr = ...``, ``obj.attr[...]
= ...``, ``obj.attr += ...`` or ``del obj.attr[...]`` where

* ``attr`` is one of the speculative-state slots
  (:data:`SPECULATIVE_ATTRS`), and
* ``obj`` is **not** ``self``/``cls`` (a class mutating its own slots
  defines its own invariant — that is what its unit tests check), and
* the file is outside the trusted directories ``repro/core`` and
  ``repro/predictors``, and
* the enclosing function is not a declared update method
  (:data:`UPDATE_METHODS`).

In other words: reaching *into another object's* speculative state from
untrusted code is the violation.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.simlint.model import FileContext, ModuleRole, Violation, register

__all__ = ["check_speculative_writes", "SPECULATIVE_ATTRS", "UPDATE_METHODS"]

_RULE = "SPEC001"

#: Attribute names backing speculative BHT / pattern-table / OBQ /
#: two-level state (see repro.core.bht, .pattern_table, .obq,
#: .two_level_local).  Kept in one place so a rename updates the lint
#: and its docs together.
SPECULATIVE_ATTRS = frozenset(
    {"_state", "_valid", "_repair", "_pcs", "_trip", "_conf", "_pt", "_entries"}
)

#: Method names that constitute the declared update/repair surface:
#: writes inside a method with one of these names are sanctioned even
#: outside the trusted directories.
UPDATE_METHODS = frozenset(
    {
        "update",
        "train",
        "allocate",
        "repair",
        "restore",
        "restore_snapshot",
        "retire_update",
        "apply",
        "commit",
        "invalidate",
        "reset",
    }
)

_TRUSTED_PREFIXES = (("repro", "core"), ("repro", "predictors"))


def _written_attr(target: ast.expr) -> ast.Attribute | None:
    """The ``obj.attr`` node a write lands on, unwrapping subscripts."""
    node = target
    while isinstance(node, ast.Subscript):
        node = node.value
    return node if isinstance(node, ast.Attribute) else None


def _is_self_like(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


class _Visitor(ast.NodeVisitor):
    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.found: list[Violation] = []
        self._func_stack: list[str] = []

    def _visit_func(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def _check_targets(self, targets: list[ast.expr]) -> None:
        if any(name in UPDATE_METHODS for name in self._func_stack):
            return
        for target in targets:
            attr = _written_attr(target)
            if (
                attr is not None
                and attr.attr in SPECULATIVE_ATTRS
                and not _is_self_like(attr.value)
            ):
                self.found.append(
                    Violation(
                        path=self.ctx.path,
                        line=attr.lineno,
                        col=attr.col_offset,
                        rule=_RULE,
                        message=(
                            f"write to speculative state {attr.attr!r} outside "
                            "predictors/, core/repair/ and declared update "
                            "methods; go through the structure's API"
                        ),
                    )
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_targets(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_targets([node.target])
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_targets([node.target])
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._check_targets(node.targets)
        self.generic_visit(node)


@register(
    _RULE,
    summary="speculative BHT/PT/OBQ state written from untrusted code",
    invariant="speculative state changes only via update and repair paths",
    roles=(
        ModuleRole.SIM,
        ModuleRole.LIB,
        ModuleRole.CLI,
        ModuleRole.TELEMETRY,
        ModuleRole.SERVICE,
    ),
)
def check_speculative_writes(ctx: FileContext) -> Iterator[Violation]:
    if any(ctx.under(*prefix) for prefix in _TRUSTED_PREFIXES):
        return
    visitor = _Visitor(ctx)
    visitor.visit(ctx.tree)
    yield from visitor.found

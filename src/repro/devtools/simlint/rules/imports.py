"""IMP001 — import hygiene: every import binding is used.

Dead imports are not cosmetic in this tree: the linter's own program
model derives the module graph from import statements, the result cache
fingerprints code by module closure, and the service loads modules into
worker processes — an unused import widens all three for nothing.

The usage test is deliberately generous so the rule stays silent on
anything remotely intentional.  A binding counts as used when its name
appears anywhere in the file as an identifier (including annotations —
``from __future__ import annotations`` keeps them as real AST
expressions) or as a word inside any string constant (which covers
``__all__`` re-export lists and docstring references).  ``__init__.py``
and ``conftest.py`` are skipped wholesale: re-exporting is their job.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.devtools.simlint.model import FileContext, ModuleRole, Violation, register

__all__ = ["check_unused_imports", "unused_import_aliases"]

_RULE = "IMP001"

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Files whose imports exist to re-export or register side effects.
_SKIP_BASENAMES = frozenset({"__init__.py", "conftest.py"})


def _binding(alias: ast.alias, node: ast.Import | ast.ImportFrom) -> str:
    """Local name an import alias binds (``import a.b`` binds ``a``)."""
    if alias.asname is not None:
        return alias.asname
    if isinstance(node, ast.Import):
        return alias.name.split(".", 1)[0]
    return alias.name


def _used_names(tree: ast.Module) -> set[str]:
    """Identifiers and string-constant words appearing anywhere."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(_WORD.findall(node.value))
    return used


def unused_import_aliases(
    tree: ast.Module,
) -> Iterator[tuple[ast.Import | ast.ImportFrom, ast.alias, str]]:
    """(statement, alias, bound name) for every dead import binding.

    ``from __future__`` and ``import *`` are compiler directives, not
    bindings, and are never flagged.
    """
    used = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = _binding(alias, node)
            if bound not in used:
                yield node, alias, bound


@register(
    _RULE,
    summary="imported name is never used",
    invariant="the import graph only carries edges the code exercises",
    roles=tuple(ModuleRole),
)
def check_unused_imports(ctx: FileContext) -> Iterator[Violation]:
    if ctx.parts and ctx.parts[-1] in _SKIP_BASENAMES:
        return
    for node, alias, bound in unused_import_aliases(ctx.tree):
        shown = alias.name if alias.asname is None else f"{alias.name} as {alias.asname}"
        yield Violation(
            path=ctx.path,
            line=node.lineno,
            col=node.col_offset,
            rule=_RULE,
            message=(
                f"import {shown!r} binds {bound!r} but the name is never "
                "used; drop it"
            ),
        )

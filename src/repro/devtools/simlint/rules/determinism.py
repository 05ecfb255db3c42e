"""DET001 — simulation modules must be bit-deterministic under a seed.

The reproduction's headline numbers (Figures 9–13) are only meaningful
if re-running a (workload, system, seed) triple reproduces every stat
bit-for-bit.  This rule flags the classic ways Python code silently
loses that property inside simulation modules:

* the process-global ``random`` module (unseeded, shared across call
  sites) instead of a per-run ``random.Random(seed)`` instance;
* wall-clock reads (``time.time``, ``perf_counter``, ``datetime.now``)
  feeding simulated state — simulated time must come from cycles;
* ``PYTHONHASHSEED``-sensitive constructs: iterating a ``set`` or
  ``frozenset`` directly (element order varies across processes for
  str/object elements) and ``hash()`` of non-int keys;
* environment reads (``os.environ``, ``os.getenv``) — configuration
  must flow through config objects so worker processes and the host
  agree (telemetry and the CLI are exempt by role).

Named set variables are *not* tracked (that needs type inference); the
rule intentionally only flags syntactically-obvious sources so it stays
zero-false-positive on the tree it guards.

DET002 — interprocedural determinism taint
------------------------------------------

``DET001`` is local: it only sees simulation modules, so a helper in
``repro.harness`` that reads the wall clock is invisible even when the
detailed engine calls it every cycle.  ``DET002`` closes that hole with
the call graph: every function reachable from the simulation core
(:data:`~repro.devtools.simlint.program.CORE_PREFIXES`) is scanned for
the same nondeterminism sources — plus ``os.urandom`` and ``id()`` of
an object, whose values change across processes — and each finding
carries the witness path the core takes to reach it.  Inside SIM-role
files the DET001-covered source kinds are skipped (one finding per
defect, at the stronger local rule); ``urandom``/``id`` are new and
reported everywhere.  Telemetry and tests are exempt: observability may
read the clock by design (its *write path* is PURE001's business), and
tests are white-box.
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.devtools.simlint.program import ProgramModel

__all__ = ["check_determinism", "check_determinism_taint"]

_RULE = "DET001"
_RULE_TAINT = "DET002"

#: Functions on the module-global (unseeded) RNG.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "getrandbits",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "triangular",
        "seed",
    }
)

#: Wall-clock reads, as (module, attribute) pairs.
_WALL_CLOCK = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "process_time"),
        ("time", "localtime"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

#: Builtins whose direct iteration over a set argument is order-sensitive.
_ITERATING_BUILTINS = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})


def _dotted(node: ast.expr) -> tuple[str, ...]:
    """Flatten ``a.b.c`` into ``("a","b","c")``; empty when not a pure chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _is_set_expr(node: ast.expr) -> bool:
    """Syntactically-obvious set expression (literal, comp, or set() call)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _violation(ctx: FileContext, node: ast.AST, message: str) -> Violation:
    return Violation(
        path=ctx.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        rule=_RULE,
        message=message,
    )


class _Visitor(ast.NodeVisitor):
    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.found: list[Violation] = []

    def visit_Call(self, node: ast.Call) -> None:
        chain = _dotted(node.func)
        if len(chain) == 2 and chain[0] == "random" and chain[1] in _GLOBAL_RANDOM_FNS:
            self.found.append(
                _violation(
                    self.ctx,
                    node,
                    f"global random.{chain[1]}() is unseeded shared state; "
                    "use a per-run random.Random(seed) instance",
                )
            )
        elif len(chain) >= 2 and (chain[-2], chain[-1]) in _WALL_CLOCK:
            self.found.append(
                _violation(
                    self.ctx,
                    node,
                    f"wall-clock read {'.'.join(chain)}() in a simulation module; "
                    "simulated time must come from cycle counts",
                )
            )
        elif chain == ("os", "getenv") or chain[-2:] == ("environ", "get"):
            self.found.append(
                _violation(
                    self.ctx,
                    node,
                    "environment read in a simulation module; plumb settings "
                    "through config objects instead",
                )
            )
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id == "hash"
            and node.args
            and not isinstance(node.args[0], ast.Constant)
        ):
            self.found.append(
                _violation(
                    self.ctx,
                    node,
                    "hash() of a non-constant value is PYTHONHASHSEED-sensitive "
                    "for str/object keys; use an explicit integer fold",
                )
            )
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id in _ITERATING_BUILTINS
            and node.args
            and _is_set_expr(node.args[0])
        ):
            self.found.append(
                _violation(
                    self.ctx,
                    node,
                    f"{node.func.id}() over a set has PYTHONHASHSEED-dependent "
                    "order; wrap in sorted(...)",
                )
            )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if _dotted(node.value) == ("os", "environ") and isinstance(
            node.ctx, ast.Load
        ):
            self.found.append(
                _violation(
                    self.ctx,
                    node,
                    "environment read in a simulation module; plumb settings "
                    "through config objects instead",
                )
            )
        self.generic_visit(node)

    def _check_iter(self, node: ast.expr) -> None:
        if _is_set_expr(node):
            self.found.append(
                _violation(
                    self.ctx,
                    node,
                    "iteration over a set has PYTHONHASHSEED-dependent order; "
                    "wrap in sorted(...)",
                )
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)


@register(
    _RULE,
    summary="nondeterminism source in a simulation module",
    invariant="simulations are bit-deterministic under a seed",
    roles=(ModuleRole.SIM,),
)
def check_determinism(ctx: FileContext) -> Iterator[Violation]:
    visitor = _Visitor(ctx)
    visitor.visit(ctx.tree)
    yield from visitor.found


# ----------------------------------------------------------------- #
# DET002 — taint through the call graph


#: Source kinds DET001 already flags locally inside SIM modules.
_LOCAL_KINDS = frozenset({"global-random", "wall-clock", "env", "set-iter"})

#: Roles DET002 reports into.  TELEMETRY is exempt (clock reads are its
#: job; PURE001 audits its write path) and TEST files are white-box.
_TAINT_ROLES = frozenset(
    {
        ModuleRole.SIM,
        ModuleRole.LIB,
        ModuleRole.CLI,
        ModuleRole.SERVICE,
        ModuleRole.TOOL,
        ModuleRole.UNKNOWN,
    }
)


@dataclass(frozen=True, slots=True)
class _Source:
    """One syntactic nondeterminism source inside a function body."""

    node: ast.AST
    kind: str
    what: str


def iter_sources(root: ast.AST) -> Iterator[_Source]:
    """Nondeterminism sources anywhere under ``root`` (incl. nested defs)."""
    for node in ast.walk(root):
        if isinstance(node, ast.Call):
            chain = _dotted(node.func)
            if (
                len(chain) == 2
                and chain[0] == "random"
                and chain[1] in _GLOBAL_RANDOM_FNS
            ):
                yield _Source(node, "global-random", f"random.{chain[1]}()")
            elif len(chain) >= 2 and (chain[-2], chain[-1]) in _WALL_CLOCK:
                yield _Source(node, "wall-clock", f"{'.'.join(chain)}()")
            elif chain == ("os", "urandom"):
                yield _Source(node, "urandom", "os.urandom()")
            elif chain == ("os", "getenv") or chain[-2:] == ("environ", "get"):
                yield _Source(node, "env", "an environment read")
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id == "id"
                and node.args
                and not isinstance(node.args[0], ast.Constant)
            ):
                yield _Source(node, "id", "id() of an object")
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in _ITERATING_BUILTINS
                and node.args
                and _is_set_expr(node.args[0])
            ):
                yield _Source(node, "set-iter", f"{node.func.id}() over a set")
        elif isinstance(node, ast.Subscript):
            if _dotted(node.value) == ("os", "environ") and isinstance(
                node.ctx, ast.Load
            ):
                yield _Source(node, "env", "an os.environ[...] read")
        elif isinstance(node, ast.For):
            if _is_set_expr(node.iter):
                yield _Source(node.iter, "set-iter", "iteration over a set")
        elif isinstance(node, ast.comprehension):
            if _is_set_expr(node.iter):
                yield _Source(node.iter, "set-iter", "iteration over a set")


@register(
    _RULE_TAINT,
    summary="nondeterminism source reachable from the simulation core",
    invariant="every function the detailed engine can call is deterministic",
    roles=_TAINT_ROLES,
    kind=RuleKind.PROJECT,
)
def check_determinism_taint(model: "ProgramModel") -> Iterator[Violation]:
    parents = model.core_reachable()
    for qname in sorted(parents):
        func = model.functions.get(qname)
        if func is None or func.role not in _TAINT_ROLES:
            continue
        trail: str | None = None
        for source in iter_sources(func.node):
            if func.role is ModuleRole.SIM and source.kind in _LOCAL_KINDS:
                continue  # DET001 already owns this finding
            if trail is None:
                trail = " -> ".join(model.witness_path(parents, qname))
            yield Violation(
                path=func.path,
                line=getattr(source.node, "lineno", func.node.lineno),
                col=getattr(source.node, "col_offset", 0),
                rule=_RULE_TAINT,
                message=(
                    f"{source.what} taints {qname}(), which the simulation "
                    f"core reaches via {trail}; results can differ across "
                    "runs — pass the value in explicitly or move it off the "
                    "simulated path"
                ),
            )

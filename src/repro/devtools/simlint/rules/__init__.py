"""Rule modules for simlint.

Each module registers its checkers into the global registry at import
time via :func:`repro.devtools.simlint.model.register`.  :func:`load`
imports every rule module exactly once; the engine calls it before
resolving ``--select`` so the registry is always complete.
"""

from __future__ import annotations

from importlib import import_module

__all__ = ["load", "RULE_MODULES"]

#: Module basenames registering rules, in rule-ID order.
RULE_MODULES: tuple[str, ...] = (
    "api",  # API001
    "determinism",  # DET001, DET002
    "errors",  # ERR001
    "imports",  # IMP001
    "locking",  # LOCK001, LOCK002
    "purity",  # PURE001
    "speculative",  # SPEC001
    "stale",  # STALE001
    "telemetry",  # TEL001
)


def load() -> None:
    """Import every rule module (idempotent)."""
    for name in RULE_MODULES:
        import_module(f"{__name__}.{name}")

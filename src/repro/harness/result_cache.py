"""Persistent result cache: simulate each (config, workload) pair once.

Figure sweeps share work heavily — every figure re-runs the same TAGE
baseline on the same workloads, and a re-invoked sweep repeats all of
its runs verbatim.  This module caches finished
:class:`~repro.harness.runner.RunResult` rows on disk, keyed by the
telemetry manifest's ``config_hash`` and ``workload_hash`` plus a
fingerprint of the library's own source code, so a result is reused
only when the exact configuration, workload recipe, trace length *and*
simulator code that produced it are all unchanged.

The cache is opt-in via ``REPRO_RESULT_CACHE``:

* unset / ``""`` / ``0`` / ``off`` / ``none`` / ``false`` — disabled;
* ``1`` / ``on`` / ``true`` — enabled at ``.repro-cache/results``;
* any other value — enabled at that directory.

Telemetry overrides the cache: while :data:`~repro.telemetry.TELEMETRY`
is enabled, runs always simulate for real, because metric registries
and event traces must come from an actual execution, not a disk read.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

import repro
from repro.telemetry import TELEMETRY
from repro.telemetry.manifest import stable_hash

if TYPE_CHECKING:  # pragma: no cover - avoids a runner <-> cache cycle
    from repro.harness.runner import RunResult

__all__ = ["ResultCache", "active_cache", "cache_dir_from_env", "code_fingerprint"]

_RESULT_CACHE_ENV = "REPRO_RESULT_CACHE"
_DEFAULT_DIR = Path(".repro-cache") / "results"
_OFF_VALUES = frozenset({"", "0", "off", "none", "false"})
_ON_VALUES = frozenset({"1", "on", "true"})
_FORMAT_VERSION = 1

_FINGERPRINT: str | None = None

#: Per-process sequence for temp-file names.  Concurrent *processes*
#: are already distinguished by PID, and concurrent *threads* (the
#: ``repro serve`` worker pool) by thread id — the counter closes the
#: remaining hole where one thread writes the same entry twice before
#: the first rename lands.
_TMP_SEQ = itertools.count()

#: Atomic-replace retry schedule (seconds).  POSIX renames don't fail
#: transiently, but network filesystems and Windows can; retrying a
#: few times beats surfacing a spurious error for a cache write.
_REPLACE_RETRIES = (0.01, 0.05, 0.2)


def code_fingerprint() -> str:
    """Content hash of every ``repro`` source file (cached per process).

    Any edit to the simulator invalidates every cached result — the
    cache must never survive a model change, however small.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()[:16]
    return _FINGERPRINT


#: Entry file names by (config hash, workload hash, code fingerprint);
#: cleared when it reaches :data:`_ENTRY_MEMO_SIZE` names.
_ENTRY_NAMES: dict[tuple[str, str, str], str] = {}
_ENTRY_MEMO_SIZE = 4096


def _entry_name(config_hash: str, workload_hash: str) -> str:
    """File name of the entry for one run under the current code."""
    key = (config_hash, workload_hash, code_fingerprint())
    name = _ENTRY_NAMES.get(key)
    if name is None:
        if len(_ENTRY_NAMES) >= _ENTRY_MEMO_SIZE:
            _ENTRY_NAMES.clear()
        digest = stable_hash({"config": config_hash, "workload": workload_hash, "code": key[2]})
        name = _ENTRY_NAMES[key] = f"{digest}.json"
    return name


class ResultCache:
    """Directory of cached runs, one JSON document per (key) entry."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def entry_path(self, manifest: Mapping[str, Any]) -> Path:
        """Cache file for the run a manifest describes.

        Only the manifest's ``config_hash`` and ``workload_hash`` are
        read, with the code fingerprint.
        """
        return self.root / _entry_name(manifest["config_hash"], manifest["workload_hash"])

    def load(self, manifest: Mapping[str, Any]) -> "RunResult | None":
        """Cached result for ``manifest``'s run, or None on a miss.

        ``manifest`` may hold just the two hashes :meth:`entry_path`
        reads.  Unreadable, truncated, or outdated-format entries are
        treated as misses — the caller re-simulates and overwrites them.
        """
        from repro.harness.runner import RunResult

        try:
            payload = json.loads(self.entry_path(manifest).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("format_version") != _FORMAT_VERSION:
            return None
        row = payload.get("result")
        if not isinstance(row, dict):
            return None
        try:
            return RunResult(
                workload=row["workload"],
                category=row["category"],
                system=row["system"],
                ipc=row["ipc"],
                mpki=row["mpki"],
                instructions=row["instructions"],
                cycles=row["cycles"],
                mispredictions=row["mispredictions"],
                extra=row.get("extra", {}),
                manifest=row.get("manifest"),
            )
        except (KeyError, TypeError):
            return None

    def store(self, result: "RunResult") -> None:
        """Persist a freshly simulated result (atomic, race-safe).

        Writers never touch the final path directly: each writes a
        uniquely named temp file (PID + thread id + per-process
        sequence number, so concurrent CLI processes *and* the
        server's worker threads never collide) and atomically renames
        it into place with a short retry schedule.  Readers therefore
        only ever see absent or complete entries — partial writes
        cannot be interleaved — and concurrent writers of the same key
        are last-writer-wins over identical content.
        """
        manifest = result.manifest
        if manifest is None:
            return
        path = self.entry_path(manifest)
        payload = {
            "format_version": _FORMAT_VERSION,
            "repro_version": repro.__version__,
            "result": {
                "workload": result.workload,
                "category": result.category,
                "system": result.system,
                "ipc": result.ipc,
                "mpki": result.mpki,
                "instructions": result.instructions,
                "cycles": result.cycles,
                "mispredictions": result.mispredictions,
                "extra": result.extra,
                "manifest": manifest,
            },
        }
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.{next(_TMP_SEQ)}.tmp"
        )
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True))
            for delay in _REPLACE_RETRIES:
                try:
                    tmp.replace(path)
                    return
                except OSError:
                    time.sleep(delay)
            tmp.replace(path)
        finally:
            tmp.unlink(missing_ok=True)


def cache_dir_from_env() -> Path | None:
    """Result-cache directory selected by ``REPRO_RESULT_CACHE``."""
    value = os.environ.get(_RESULT_CACHE_ENV, "")
    lowered = value.strip().lower()
    if lowered in _OFF_VALUES:
        return None
    if lowered in _ON_VALUES:
        return _DEFAULT_DIR
    return Path(value)


def active_cache(use_result_cache: bool | None = None) -> ResultCache | None:
    """The cache the runner should consult, or None when disabled.

    Args:
        use_result_cache: Tri-state caller override — False forces the
            cache off (the ``--no-result-cache`` CLI flag), True forces
            it on (at the env-selected or default directory), and None
            defers entirely to ``REPRO_RESULT_CACHE``.

    Telemetry wins over everything: an enabled telemetry pipeline
    (metrics or tracing) disables the cache so its artifacts always
    reflect a real simulation.
    """
    if use_result_cache is False:
        return None
    if TELEMETRY.enabled:
        return None
    root = cache_dir_from_env()
    if root is None:
        if not use_result_cache:
            return None
        root = _DEFAULT_DIR
    return ResultCache(root)

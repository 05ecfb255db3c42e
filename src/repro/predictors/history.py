"""Global branch history registers and folded-history machinery.

Global predictors (gshare, TAGE) consult two speculative registers:

``GHIST``
    direction history, one bit per branch, newest bit at position 0.

``PHIST``
    path history, a few PC bits per branch.

Both are updated *speculatively at prediction time* and must be restored
when a branch turns out mispredicted.  Each in-flight branch therefore
carries a :class:`HistoryCheckpoint` taken before its own update — this
is the cheap, constant-cost repair the paper contrasts with the BHT
repair problem of local predictors (§2.3.1).

:class:`FoldedHistory` implements Seznec's incremental folding, which
compresses an ``original_length``-bit history into ``compressed_length``
bits in O(1) per branch instead of O(length).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["FoldedHistory", "GlobalHistory", "HistoryCheckpoint"]


class FoldedHistory:
    """Incrementally folded view of the most recent history bits.

    The fold is the XOR of consecutive ``compressed_length``-bit chunks of
    the youngest ``original_length`` bits of GHIST, maintained in O(1) per
    inserted bit.

    A standalone fold stores its own value; once registered on a
    :class:`GlobalHistory` the value lives in the owner's flat
    ``fold_comps`` list (so push/checkpoint/restore touch one list
    instead of N objects) and :attr:`comp` becomes a view onto slot
    :attr:`slot` of it, which folds that always hold the same value
    share.  Either way ``fold.comp`` reads and writes stay correct.
    """

    __slots__ = (
        "_comp",
        "compressed_length",
        "original_length",
        "_outpoint",
        "_mask",
        "_owner",
        "_slot",
    )

    def __init__(self, original_length: int, compressed_length: int) -> None:
        if original_length <= 0 or compressed_length <= 0:
            raise ConfigError("history lengths must be positive")
        self._comp = 0
        self.compressed_length = compressed_length
        self.original_length = original_length
        self._outpoint = original_length % compressed_length
        self._mask = (1 << compressed_length) - 1
        self._owner: list[int] | None = None
        self._slot = 0

    @property
    def slot(self) -> int:
        """Index of this fold's value in the owner's ``fold_comps``."""
        return self._slot

    @property
    def comp(self) -> int:
        """Current folded value (live view once registered)."""
        owner = self._owner
        return self._comp if owner is None else owner[self._slot]

    @comp.setter
    def comp(self, value: int) -> None:
        owner = self._owner
        if owner is None:
            self._comp = value
        else:
            owner[self._slot] = value

    def update(self, ghist_after_insert: int, new_bit: int) -> None:
        """Fold in ``new_bit`` and fold out the bit leaving the window.

        Args:
            ghist_after_insert: GHIST *after* the new bit was shifted in
                at position 0 (so the evicted bit sits at
                ``original_length``).
            new_bit: The bit just inserted (0 or 1).
        """
        comp = (self.comp << 1) | new_bit
        comp ^= ((ghist_after_insert >> self.original_length) & 1) << self._outpoint
        comp ^= comp >> self.compressed_length
        self.comp = comp & self._mask

    def rebuild(self, ghist: int) -> None:
        """Recompute the fold from scratch (used after restore)."""
        comp = 0
        for chunk_start in range(0, self.original_length, self.compressed_length):
            width = min(self.compressed_length, self.original_length - chunk_start)
            chunk = (ghist >> chunk_start) & ((1 << width) - 1)
            comp ^= chunk
        self.comp = comp & self._mask


@dataclass(frozen=True, slots=True)
class HistoryCheckpoint:
    """Pre-update snapshot carried by each in-flight branch.

    ``folds`` is a flat list (one entry per distinct fold register,
    indexed by slot) copied straight from the owner's live fold state —
    a single C-level ``list.copy`` per branch instead of a per-fold
    generator walk.
    """

    ghist: int
    phist: int
    folds: list[int]


class GlobalHistory:
    """Speculative GHIST/PHIST with per-branch checkpoint/restore.

    Folded histories are registered by predictors (one or more per TAGE
    table) and kept in sync on every push/restore.  The live fold values
    are mirrored in :attr:`fold_comps`, a flat list with one slot per
    distinct fold register, so the per-branch checkpoint is one list
    copy and predictors can read fold state by slot without attribute
    chains.
    """

    __slots__ = (
        "ghist",
        "phist",
        "max_length",
        "path_bits",
        "fold_comps",
        "_slots",
        "_fold_params",
        "_ghist_mask",
        "_phist_mask",
    )

    def __init__(self, max_length: int = 256, path_bits: int = 16) -> None:
        if max_length <= 0:
            raise ConfigError(f"max_length must be positive, got {max_length}")
        self.ghist = 0
        self.phist = 0
        self.max_length = max_length
        self.path_bits = path_bits
        #: Live fold values, one per distinct fold register in order of
        #: first registration (registered folds' ``comp`` views read
        #: this list).
        self.fold_comps: list[int] = []
        #: Slot of each distinct register, keyed by the fold's
        #: (original_length, effective width); see :meth:`register_fold`.
        self._slots: dict[tuple[int, int], int] = {}
        #: Per-register constants (slot, original_length, outpoint,
        #: compressed_length, mask) unpacked in the push loop.
        self._fold_params: list[tuple[int, int, int, int, int]] = []
        # Keep one spare bit above max_length so folds can observe the
        # evicted bit before truncation.
        self._ghist_mask = (1 << (max_length + 1)) - 1
        self._phist_mask = (1 << path_bits) - 1

    def register_fold(self, fold: FoldedHistory) -> FoldedHistory:
        """Attach a folded history; it will track future pushes.

        Folds that always hold the same value share one register (one
        slot of :attr:`fold_comps`, updated once per push): folds with
        equal ``(original_length, compressed_length)``, and every fold
        no wider than its compressed length, which holds the low
        ``original_length`` bits of GHIST whatever its width.  Returns
        the fold; its slot is :attr:`FoldedHistory.slot`.
        """
        olen = fold.original_length
        if olen > self.max_length:
            raise ConfigError(
                f"fold window {olen} exceeds max history {self.max_length}"
            )
        key = (olen, min(olen, fold.compressed_length))
        comps = self.fold_comps
        slot = self._slots.get(key)
        if slot is None:
            fold.rebuild(self.ghist)
            slot = self._slots[key] = len(comps)
            comps.append(fold.comp)
            self._fold_params.append(
                (slot, olen, fold._outpoint, fold.compressed_length, fold._mask)
            )
        fold._owner = comps
        fold._slot = slot
        return fold

    def checkpoint(self) -> HistoryCheckpoint:
        """Snapshot taken before this branch's speculative update."""
        return HistoryCheckpoint(
            ghist=self.ghist,
            phist=self.phist,
            folds=self.fold_comps.copy(),
        )

    def push(self, pc: int, taken: bool) -> None:
        """Speculatively insert one branch outcome.

        The per-fold update is inlined (same arithmetic as
        :meth:`FoldedHistory.update`) so the hottest loop in the whole
        simulator pays tuple unpacks and list stores instead of method
        calls and attribute chains.
        """
        ghist = ((self.ghist << 1) | (1 if taken else 0)) & self._ghist_mask
        self.ghist = ghist
        self.phist = ((self.phist << 1) | (pc & 1)) & self._phist_mask
        bit = ghist & 1
        comps = self.fold_comps
        for slot, olen, outpoint, clen, cmask in self._fold_params:
            comp = ((comps[slot] << 1) | bit) ^ (((ghist >> olen) & 1) << outpoint)
            comps[slot] = (comp ^ (comp >> clen)) & cmask

    def restore(self, ckpt: HistoryCheckpoint) -> None:
        """Rewind to a carried checkpoint (misprediction recovery)."""
        self.ghist = ckpt.ghist
        self.phist = ckpt.phist
        self.fold_comps[:] = ckpt.folds

    def restore_and_push(self, ckpt: HistoryCheckpoint, pc: int, taken: bool) -> None:
        """Standard misprediction repair: rewind then insert the truth."""
        self.restore(ckpt)
        self.push(pc, taken)

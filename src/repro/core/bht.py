"""Branch History Table (BHT): the per-PC local state that needs repair.

The BHT is a set-associative table mapping branch PCs to a small opaque
*state* integer — the current iteration count for the loop predictor, a
direction shift register for a generic two-level local predictor.  It is
updated **speculatively at prediction time**, which is exactly why it
must be repaired after mispredictions (paper §2.3.1).

Each entry carries, per Figure 1 of the paper:

* a ``valid`` bit — cleared when the entry's state is known wrong and no
  repair will fix it; re-set when the tracked branch flips direction and
  the state re-initialises (§3.2.1, §3.3);
* a ``repair`` bit — set across all entries when a repair walk starts so
  forward-walk repair applies at most one write per PC (§3.1).

Entries live in parallel flat lists so whole-table snapshots (the
snapshot-queue repair scheme) are cheap ``list.copy()`` operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["BhtConfig", "BranchHistoryTable"]

_NO_PC = -1


@dataclass(frozen=True, slots=True)
class BhtConfig:
    """Geometry of a BHT (Table 2: 64/128/256 entries, 8-way)."""

    entries: int = 128
    ways: int = 8
    tag_bits: int = 8
    state_bits: int = 12

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.ways <= 0:
            raise ConfigError("BHT entries and ways must be positive")
        if self.entries % self.ways:
            raise ConfigError(
                f"BHT entries {self.entries} not divisible by ways {self.ways}"
            )
        sets = self.entries // self.ways
        if sets & (sets - 1):
            raise ConfigError(f"BHT set count {sets} must be a power of two")

    @property
    def sets(self) -> int:
        return self.entries // self.ways

    def storage_bits(self) -> int:
        """Tag + state + valid + repair + LRU bits per entry."""
        lru_bits = max(self.ways - 1, 1).bit_length()
        per_entry = self.tag_bits + self.state_bits + 1 + 1 + lru_bits
        return self.entries * per_entry


class BranchHistoryTable:
    """Set-associative per-PC state table with repair/valid bits.

    Slots are addressed by a flat index ``set * ways + way``; all lookup
    helpers return slot indices so callers can read and write state
    without re-searching.
    """

    def __init__(self, config: BhtConfig | None = None) -> None:
        self.config = config = config if config is not None else BhtConfig()
        total = config.entries
        self._set_mask = config.sets - 1
        self._set_bits = max(config.sets - 1, 1).bit_length()
        self._ways = config.ways
        self._pcs: list[int] = [_NO_PC] * total
        self._state: list[int] = [0] * total
        self._valid: list[bool] = [False] * total
        self._repair: list[bool] = [False] * total
        self._lru: list[int] = [0] * total
        #: pc -> slot index, kept in lockstep with ``_pcs`` so lookups
        #: are one dict probe instead of an associative way scan.
        self._slot_by_pc: dict[int, int] = {}
        self._tick = 0
        self.allocations = 0
        self.evictions = 0

    # ------------------------------------------------------------- #
    # lookup / allocation

    def _set_base(self, pc: int) -> int:
        # Fold two PC slices so aligned/structured code layouts spread
        # across all sets instead of aliasing into a few.
        bits = pc >> 2
        index = (bits ^ (bits >> self._set_bits)) & self._set_mask
        return index * self._ways

    def find(self, pc: int) -> int:
        """Slot index of ``pc``, or -1 when absent."""
        return self._slot_by_pc.get(pc, -1)

    def entry(self, pc: int) -> tuple[int, int, bool] | None:
        """``(slot, state, valid)`` of ``pc``'s entry, or None when absent.

        One probe for the per-branch paths, which read an entry and may
        write it back through :meth:`write`.
        """
        slot = self._slot_by_pc.get(pc, -1)
        if slot < 0:
            return None
        return slot, self._state[slot], self._valid[slot]

    def touch(self, slot: int) -> None:
        """Mark a slot most-recently-used."""
        self._tick += 1
        self._lru[slot] = self._tick

    def allocate(self, pc: int, state: int) -> int:
        """Install ``pc`` with ``state``, evicting the set's LRU victim.

        The caller must have checked the PC is absent; double allocation
        would create two slots answering to one PC.
        """
        base = self._set_base(pc)
        lru = self._lru
        victim = base
        victim_tick = lru[base]
        for way in range(1, self._ways):
            slot = base + way
            if self._pcs[slot] == _NO_PC:
                victim = slot
                break
            if lru[slot] < victim_tick:
                victim = slot
                victim_tick = lru[slot]
        evicted = self._pcs[victim]
        if evicted != _NO_PC:
            self.evictions += 1
            del self._slot_by_pc[evicted]
        self.allocations += 1
        self._pcs[victim] = pc
        self._slot_by_pc[pc] = victim
        self._state[victim] = state
        self._valid[victim] = True
        self._repair[victim] = False
        self.touch(victim)
        return victim

    # ------------------------------------------------------------- #
    # state access

    def pc_at(self, slot: int) -> int:
        return self._pcs[slot]

    def state_at(self, slot: int) -> int:
        return self._state[slot]

    def set_state(self, slot: int, state: int) -> None:
        self._state[slot] = state

    def is_valid(self, slot: int) -> bool:
        return self._valid[slot]

    def set_valid(self, slot: int, valid: bool) -> None:
        self._valid[slot] = valid

    def write(self, slot: int, state: int, valid: bool) -> None:
        """Set a slot's state and valid bit and mark it most-recently-used."""
        self._state[slot] = state
        self._valid[slot] = valid
        self._tick += 1
        self._lru[slot] = self._tick

    def invalidate_pc(self, pc: int) -> bool:
        """Clear the valid bit of ``pc``'s entry if present."""
        slot = self.find(pc)
        if slot < 0:
            return False
        self._valid[slot] = False
        return True

    def remove_pc(self, pc: int) -> bool:
        """Deallocate ``pc``'s entry entirely (undo of a fresh allocation)."""
        slot = self._slot_by_pc.pop(pc, -1)
        if slot < 0:
            return False
        self._pcs[slot] = _NO_PC
        self._valid[slot] = False
        self._state[slot] = 0
        return True

    # ------------------------------------------------------------- #
    # repair bits (§3.1)

    def set_all_repair_bits(self) -> None:
        """Start of a repair walk: every entry becomes repairable once."""
        self._repair = [True] * len(self._repair)

    def repair_bit(self, slot: int) -> bool:
        return self._repair[slot]

    def clear_repair_bit(self, slot: int) -> None:
        self._repair[slot] = False

    # ------------------------------------------------------------- #
    # snapshots (snapshot-queue repair scheme)

    def snapshot(self) -> tuple[list[int], list[int], list[bool]]:
        """Cheap full-state snapshot (pcs, states, valid bits)."""
        return (self._pcs.copy(), self._state.copy(), self._valid.copy())

    def restore_snapshot(self, snap: tuple[list[int], list[int], list[bool]]) -> int:
        """Restore a snapshot; returns the number of slots that changed.

        The changed-slot count is the number of BHT writes the repair
        hardware would have to perform, which drives repair timing.
        """
        pcs, states, valid = snap
        dirty = 0
        for slot in range(len(self._pcs)):
            if (
                self._pcs[slot] != pcs[slot]
                or self._state[slot] != states[slot]
                or self._valid[slot] != valid[slot]
            ):
                dirty += 1
        self._pcs = pcs.copy()
        self._state = states.copy()
        self._valid = valid.copy()
        self._slot_by_pc = {
            pc: slot for slot, pc in enumerate(pcs) if pc != _NO_PC
        }
        return dirty

    # ------------------------------------------------------------- #
    # introspection

    def occupancy(self) -> int:
        """Number of allocated slots."""
        return sum(1 for pc in self._pcs if pc != _NO_PC)

    def resident_pcs(self) -> list[int]:
        """All PCs currently tracked (unordered)."""
        return [pc for pc in self._pcs if pc != _NO_PC]

    def storage_bits(self) -> int:
        return self.config.storage_bits()

"""Pattern Table (PT): the second level of the two-level local predictor.

For the loop predictor the PT maps a branch PC to the learned *trip
count* (the paper's "final iteration count") plus a confidence counter.
Splitting the CBPw loop table into BHT (current count, updated at
prediction) and PT (final count, updated only after execution) is the
paper's §2.3 redesign: it halves port pressure and confines repair to
the BHT.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["PatternTableConfig", "LoopPatternTable", "PtEntryView"]

_NO_PC = -1


@dataclass(frozen=True, slots=True)
class PatternTableConfig:
    """Geometry and training thresholds of the loop PT.

    The per-entry budget (tag + trip + confidence + direction + LRU)
    matches the paper's Table 2 sizing of ~48 bits/entry (e.g. 128
    entries → 0.75 KB).
    """

    entries: int = 128
    ways: int = 8
    tag_bits: int = 14
    trip_bits: int = 11
    confidence_bits: int = 3
    #: Overrides are issued only at or above this confidence.
    confidence_threshold: int = 3

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.ways <= 0:
            raise ConfigError("PT entries and ways must be positive")
        if self.entries % self.ways:
            raise ConfigError(
                f"PT entries {self.entries} not divisible by ways {self.ways}"
            )
        sets = self.entries // self.ways
        if sets & (sets - 1):
            raise ConfigError(f"PT set count {sets} must be a power of two")
        if not 0 < self.confidence_threshold <= self.max_confidence:
            raise ConfigError(
                f"confidence_threshold {self.confidence_threshold} out of range"
            )

    @property
    def sets(self) -> int:
        return self.entries // self.ways

    @property
    def max_confidence(self) -> int:
        return (1 << self.confidence_bits) - 1

    @property
    def max_trip(self) -> int:
        return (1 << self.trip_bits) - 1

    def storage_bits(self) -> int:
        lru_bits = max(self.ways - 1, 1).bit_length()
        per_entry = (
            self.tag_bits + self.trip_bits + self.confidence_bits + 1 + lru_bits
        )
        return self.entries * per_entry


@dataclass(frozen=True, slots=True)
class PtEntryView:
    """Read-only view of one PT entry returned by lookups."""

    trip: int
    confidence: int
    confident: bool


class LoopPatternTable:
    """Set-associative PC-indexed table of learned trip counts."""

    def __init__(self, config: PatternTableConfig | None = None) -> None:
        self.config = config = config if config is not None else PatternTableConfig()
        total = config.entries
        self._set_mask = config.sets - 1
        self._set_bits = max(config.sets - 1, 1).bit_length()
        self._ways = config.ways
        self._threshold = config.confidence_threshold
        self._pcs: list[int] = [_NO_PC] * total
        self._trip: list[int] = [0] * total
        self._conf: list[int] = [0] * total
        self._lru: list[int] = [0] * total
        #: pc -> slot index, kept in lockstep with ``_pcs`` so lookups
        #: are one dict probe instead of an associative way scan.
        self._slot_by_pc: dict[int, int] = {}
        self._tick = 0
        self.allocations = 0
        self.evictions = 0

    def _set_base(self, pc: int) -> int:
        bits = pc >> 2
        return ((bits ^ (bits >> self._set_bits)) & self._set_mask) * self._ways

    def _find(self, pc: int) -> int:
        return self._slot_by_pc.get(pc, -1)

    def lookup(self, pc: int) -> PtEntryView | None:
        """Trip/confidence for ``pc``, or None on a miss.

        Lookups refresh LRU: the PT sees one lookup per prediction, so
        recency tracks prediction traffic.
        """
        slot = self._find(pc)
        if slot < 0:
            return None
        self._tick += 1
        self._lru[slot] = self._tick
        conf = self._conf[slot]
        return PtEntryView(
            trip=self._trip[slot],
            confidence=conf,
            confident=conf >= self._threshold,
        )

    def confident_trip(self, pc: int) -> int:
        """The learned trip of ``pc`` when confident, else -1.

        The prediction path's :meth:`lookup`: the same LRU refresh on a
        hit, without building a view.
        """
        slot = self._slot_by_pc.get(pc, -1)
        if slot < 0:
            return -1
        self._tick += 1
        self._lru[slot] = self._tick
        return self._trip[slot] if self._conf[slot] >= self._threshold else -1

    def train(self, pc: int, observed_trip: int | None, penalize: bool) -> None:
        """One resolved instance: :meth:`penalize`, then :meth:`train_exit`.

        Either step is skipped when not asked for (``penalize`` False,
        ``observed_trip`` None); both share one probe of the table.
        """
        slot = self._slot_by_pc.get(pc, -1)
        conf = self._conf
        if penalize and slot >= 0 and conf[slot] > 0:
            conf[slot] -= 1
        if observed_trip is None:
            return
        observed_trip = min(observed_trip, self.config.max_trip)
        if slot < 0:
            self._allocate(pc, observed_trip)
            return
        if self._trip[slot] == observed_trip:
            if conf[slot] < self.config.max_confidence:
                conf[slot] += 1
        elif conf[slot] > 0:
            conf[slot] -= 1
        else:
            self._trip[slot] = observed_trip
            conf[slot] = 1
        self._tick += 1
        self._lru[slot] = self._tick

    def train_exit(self, pc: int, observed_trip: int) -> None:
        """Learn from one completed loop execution (an exit event).

        ``observed_trip`` is the number of dominant-direction iterations
        the branch executed before flipping — derived from the state the
        instruction carried through the pipeline, so a corrupted BHT
        feeds the PT corrupted trips (this is how no-repair poisons even
        future predictions).
        """
        self.train(pc, observed_trip, False)

    def penalize(self, pc: int) -> None:
        """Back off confidence after the predictor itself mispredicted.

        The CBPw loop predictor punishes entries whose issued
        predictions turn out wrong, so noisy or drifting branches stop
        overriding quickly.  One extra decrement (on top of the
        trip-mismatch decrement ``train_exit`` applies) proved the right
        strength: a reset-to-zero policy suppresses too many good
        entries on trip-entropy blips, while no penalty lets a counter
        desynced by pattern noise keep issuing wrong overrides.
        """
        self.train(pc, None, True)

    def _allocate(self, pc: int, trip: int) -> None:
        base = self._set_base(pc)
        victim = base
        victim_key = (self._conf[base], self._lru[base])
        for way in range(1, self._ways):
            slot = base + way
            if self._pcs[slot] == _NO_PC:
                victim = slot
                break
            key = (self._conf[slot], self._lru[slot])
            if key < victim_key:
                victim = slot
                victim_key = key
        evicted = self._pcs[victim]
        if evicted != _NO_PC:
            self.evictions += 1
            del self._slot_by_pc[evicted]
        self.allocations += 1
        self._pcs[victim] = pc
        self._slot_by_pc[pc] = victim
        self._trip[victim] = trip
        self._conf[victim] = 1
        self._tick += 1
        self._lru[victim] = self._tick

    def occupancy(self) -> int:
        return sum(1 for pc in self._pcs if pc != _NO_PC)

    def storage_bits(self) -> int:
        return self.config.storage_bits()

"""Generic two-level local predictor (Yeh & Patt style).

The paper's repair techniques are demonstrated on the loop predictor but
claimed to extend to any local predictor: "the difference ... is only in
the state saved and restored" (§1).  This predictor substantiates that
claim inside this repository — it plugs into every repair scheme through
the same :class:`~repro.core.local_base.LocalPredictorCore` interface,
with BHT state holding an h-bit direction pattern instead of a counter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bht import BhtConfig, BranchHistoryTable
from repro.core.local_base import LocalPrediction, LocalPredictorCore, SpecUpdate
from repro.errors import ConfigError

__all__ = ["TwoLevelLocalConfig", "TwoLevelLocalPredictor"]


@dataclass(frozen=True)
class TwoLevelLocalConfig:
    """Sizing for the generic local predictor."""

    bht_entries: int = 128
    bht_ways: int = 8
    history_bits: int = 10
    pt_log_entries: int = 11
    counter_bits: int = 3
    #: Counter distance from the decision boundary required to override.
    confidence_margin: int = 3
    #: Per-entry consecutive-correct streak required before overriding —
    #: filters biased-noise branches whose shared counters saturate
    #: without being reliably predictable.
    entry_confidence: int = 3
    entry_confidence_max: int = 7

    def __post_init__(self) -> None:
        if not 1 <= self.history_bits <= 20:
            raise ConfigError(f"history_bits out of range: {self.history_bits}")
        if self.counter_bits < 2:
            raise ConfigError("counter_bits must be >= 2 for a confidence margin")
        half = 1 << (self.counter_bits - 1)
        if not 1 <= self.confidence_margin <= half:
            raise ConfigError(
                f"confidence_margin {self.confidence_margin} out of range 1..{half}"
            )

    def storage_bits(self) -> int:
        bht = BhtConfig(
            entries=self.bht_entries,
            ways=self.bht_ways,
            state_bits=self.history_bits,
        ).storage_bits()
        conf_bits = self.entry_confidence_max.bit_length() * self.bht_entries
        return bht + (1 << self.pt_log_entries) * self.counter_bits + conf_bits


class TwoLevelLocalPredictor(LocalPredictorCore):
    """BHT of per-PC direction patterns + shared counter pattern table."""

    name = "two-level-local"

    def __init__(self, config: TwoLevelLocalConfig | None = None) -> None:
        self.config = config = config if config is not None else TwoLevelLocalConfig()
        self.bht = BranchHistoryTable(
            BhtConfig(
                entries=config.bht_entries,
                ways=config.bht_ways,
                state_bits=config.history_bits,
            )
        )
        self._state_mask = (1 << config.history_bits) - 1
        self._pt_mask = (1 << config.pt_log_entries) - 1
        mid = 1 << (config.counter_bits - 1)
        self._pt = [mid] * (1 << config.pt_log_entries)
        self._ctr_max = (1 << config.counter_bits) - 1
        self._mid = mid
        self._margin = config.confidence_margin
        #: Per-PC consecutive-correct streak (conceptually a few bits in
        #: each BHT entry; kept separate so BHT state stays opaque).
        self._entry_conf: dict[int, int] = {}

    def _pt_index(self, pc: int, state: int) -> int:
        return (state ^ (pc >> 2) ^ (pc >> 12)) & self._pt_mask

    def _counter_prediction(self, pc: int, state: int) -> bool | None:
        """Counter-table direction, or None below the margin."""
        ctr = self._pt[self._pt_index(pc, state)]
        # Distance from the weakly-taken boundary acts as confidence.
        if ctr >= self._mid:
            if ctr - self._mid + 1 < self._margin:
                return None
            return True
        if self._mid - ctr < self._margin:
            return None
        return False

    def lookup(self, pc: int) -> LocalPrediction | None:
        slot = self.bht.find(pc)
        if slot < 0 or not self.bht.is_valid(slot):
            return None
        state = self.bht.state_at(slot)
        taken = self._counter_prediction(pc, state)
        if taken is None:
            return None
        if self._entry_conf.get(pc, 0) < self.config.entry_confidence:
            return None
        self.bht.touch(slot)
        return LocalPrediction(pc=pc, taken=taken, count=state)

    def next_state(self, state: int, taken: bool) -> int:
        return ((state << 1) | (1 if taken else 0)) & self._state_mask

    def initial_state(self, taken: bool) -> int:
        return 1 if taken else 0

    def spec_update(self, pc: int, taken: bool) -> SpecUpdate:
        hit = self.bht.entry(pc)
        if hit is None:
            state = 1 if taken else 0
            slot = self.bht.allocate(pc, state)
            return SpecUpdate(
                pc=pc, slot=slot, pre_state=None, pre_valid=False, post_state=state
            )
        slot, pre_state, pre_valid = hit
        post_state = self.next_state(pre_state, taken)
        # For a pattern predictor, corrupt bits shift out after
        # history_bits updates; we model the "recovers naturally" effect
        # by re-validating unconditionally (the PT confidence margin
        # already guards early predictions).
        self.bht.write(slot, post_state, True)
        return SpecUpdate(
            pc=pc,
            slot=slot,
            pre_state=pre_state,
            pre_valid=pre_valid,
            post_state=post_state,
        )

    def spec_advance(self, pc: int, taken: bool) -> int | None:
        # Fused fast-forward advance: the same writes as spec_update
        # without building the SpecUpdate receipt (nothing undoes a
        # fast-forwarded span).
        bht = self.bht
        slot = bht.find(pc)
        if slot < 0:
            bht.allocate(pc, 1 if taken else 0)
            return None
        pre_state = bht.state_at(slot)
        bht.set_state(slot, ((pre_state << 1) | (1 if taken else 0)) & self._state_mask)
        bht.touch(slot)
        bht.set_valid(slot, True)
        return pre_state

    def train(
        self,
        pc: int,
        pre_state: int | None,
        taken: bool,
        predicted: bool | None = None,
    ) -> None:
        if pre_state is None:
            pre_state = 0
        # Per-entry confidence trains on what the tables *would* have
        # said for this instance, whether or not a prediction was issued
        # — streaks build while the entry is still quarantined.
        virtual = self._counter_prediction(pc, pre_state)
        if virtual is not None:
            if virtual == taken:
                conf = self._entry_conf.get(pc, 0)
                if conf < self.config.entry_confidence_max:
                    self._entry_conf[pc] = conf + 1
            else:
                self._entry_conf[pc] = 0
        index = self._pt_index(pc, pre_state)
        ctr = self._pt[index]
        if taken:
            if ctr < self._ctr_max:
                self._pt[index] = ctr + 1
        elif ctr > 0:
            self._pt[index] = ctr - 1

    def storage_bits(self) -> int:
        return self.config.storage_bits()

"""IMLI: the Inner-Most Loop Iteration counter (Seznec et al.,
MICRO-48 — reference [33] of the paper).

The paper positions local predictors against IMLI's "new dimension in
branch history": instead of per-PC iteration counters (a BHT needing
multi-entry repair), IMLI tracks a *single global* register — the
iteration count of the inner-most active loop, incremented each time
the same backward taken branch re-executes and reset when a different
backward branch takes over.  Prediction tables indexed by
``hash(pc, IMLIcount)`` capture iteration-correlated behaviour,
including inner-loop exits.

The architectural appeal — and the reason it belongs in this repository
— is the repair story: the speculative state is one register, so
misprediction recovery is exactly the GHIST treatment (each in-flight
branch carries a copy; restore is one write, zero cycles).  The price
is coverage: only behaviour correlated with the *inner-most* loop's
iteration is captured, where the BHT tracks every branch's own count.

Implemented as a :class:`~repro.core.unit.LocalBranchUnit`, so it drops
into the pipeline in place of a local predictor + repair scheme and is
directly comparable in the harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.inflight import CarriedRepair, InflightBranch
from repro.core.unit import LocalBranchUnit
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.records import BranchRecord

__all__ = ["ImliConfig", "ImliUnit"]


@dataclass(frozen=True, slots=True)
class ImliConfig:
    """Sizing of the IMLI component."""

    #: log2 of the (pc, IMLIcount)-indexed counter table.
    log_entries: int = 12
    counter_bits: int = 3
    #: Counter distance from the boundary required to override.
    confidence_margin: int = 3
    #: IMLIcount saturation.
    max_count: int = 1023

    def __post_init__(self) -> None:
        if not 4 <= self.log_entries <= 20:
            raise ConfigError(f"log_entries out of range: {self.log_entries}")
        if self.counter_bits < 2:
            raise ConfigError("counter_bits must be >= 2")
        half = 1 << (self.counter_bits - 1)
        if not 1 <= self.confidence_margin <= half:
            raise ConfigError(f"confidence_margin out of range: {self.confidence_margin}")

    def storage_bits(self) -> int:
        # Table + IMLIcount register + last-backward-PC register.
        return (1 << self.log_entries) * self.counter_bits + 10 + 64


class ImliUnit(LocalBranchUnit):
    """TAGE adjunct predicting from the inner-most loop iteration count."""

    def __init__(self, config: ImliConfig | None = None) -> None:
        super().__init__()
        self.config = config = config if config is not None else ImliConfig()
        self.name = "imli"
        self._mask = (1 << config.log_entries) - 1
        mid = 1 << (config.counter_bits - 1)
        self._mid = mid
        self._ctr_max = (1 << config.counter_bits) - 1
        self._table = [mid] * (1 << config.log_entries)
        #: Speculative IMLI state: (count, last backward-taken PC).
        self._count = 0
        self._last_backward = 0

    # ------------------------------------------------------------- #
    # IMLI state machine

    def _advance(self, pc: int, taken: bool, target: int) -> None:
        """Speculative IMLIcount update at prediction time."""
        if taken and target < pc:  # backward taken branch
            if pc == self._last_backward:
                if self._count < self.config.max_count:
                    self._count += 1
            else:
                self._last_backward = pc
                self._count = 1

    def _index(self, pc: int) -> int:
        bits = pc >> 2
        return (bits ^ (bits >> 7) ^ (self._count * 0x9E3779B1 >> 8)) & self._mask

    def _table_prediction(self, pc: int) -> bool | None:
        ctr = self._table[self._index(pc)]
        if ctr >= self._mid:
            if ctr - self._mid + 1 < self.config.confidence_margin:
                return None
            return True
        if self._mid - ctr < self.config.confidence_margin:
            return None
        return False

    # ------------------------------------------------------------- #
    # LocalBranchUnit interface

    def predict(self, branch: InflightBranch, base_taken: bool, cycle: int) -> bool:
        from repro.core.local_base import LocalPrediction

        pc = branch.pc
        self.stats.lookups += 1
        final = base_taken
        prediction = self._table_prediction(pc)
        if prediction is not None:
            self.stats.local_predictions += 1
            branch.local_pred = LocalPrediction(pc=pc, taken=prediction, count=self._count)
            if prediction == base_taken:
                branch.local_used = True
            elif self.override_enabled:
                branch.local_used = True
                final = prediction
                self.stats.overrides += 1
        branch.predicted_taken = final
        # Carry the IMLI state for recovery; its tiny size (one count +
        # one PC, like GHIST checkpoints) is the architectural point.
        branch.carried = [
            CarriedRepair(pc=self._last_backward, state=self._count, valid=True)
        ]
        branch.checkpointed = True
        self._advance(pc, final, branch.record.target)
        return final

    def _carried_state(self, branch: InflightBranch) -> tuple[int, int]:
        entry = branch.carried[0]  # type: ignore[index]
        return entry.state or 0, entry.pc

    def resolve(
        self, branch: InflightBranch, flushed: Sequence[InflightBranch], cycle: int
    ) -> None:
        if not branch.wrong_path:
            # Train with the state the branch saw at fetch.
            count, last = self._carried_state(branch)
            saved = (self._count, self._last_backward)
            self._count, self._last_backward = count, last
            index = self._index(branch.pc)
            self._count, self._last_backward = saved
            ctr = self._table[index]
            if branch.actual_taken:
                if ctr < self._ctr_max:
                    self._table[index] = ctr + 1
            elif ctr > 0:
                self._table[index] = ctr - 1
            if branch.local_pred is not None:
                self._train_chooser(branch)
                self._note_override_outcome(branch)
        if branch.mispredicted:
            # The whole repair: restore one register pair, then apply
            # the resolved outcome.  Constant cost — IMLI's selling
            # point versus BHT repair.
            count, last = self._carried_state(branch)
            self._count, self._last_backward = count, last
            self._advance(branch.pc, branch.actual_taken, branch.record.target)

    def warm(self, record: "BranchRecord") -> None:
        """Train the counter table and advance the IMLI registers.

        With every outcome known, the speculative and architectural
        IMLI states coincide, so the table index uses the live count —
        the same value the carried-state dance in ``resolve`` restores.
        """
        pc = record.pc
        taken = record.taken
        index = self._index(pc)
        ctr = self._table[index]
        if taken:
            if ctr < self._ctr_max:
                self._table[index] = ctr + 1
        elif ctr > 0:
            self._table[index] = ctr - 1
        self._advance(pc, taken, record.target)

    def retire(self, branch: InflightBranch, cycle: int) -> None:
        """Nothing to release: there is no checkpoint structure."""

    def storage_bits(self) -> int:
        return self.config.storage_bits()

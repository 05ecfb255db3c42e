"""Multi-stage prediction with a split BHT (paper §3.2).

The BHT is split into two half-size tables:

* **BHT-TAGE** sits at the branch-prediction stage next to TAGE and
  overrides with zero penalty.  Its entries are *not* checkpointed; it
  is resynchronised from BHT-Defer after a repair.
* **BHT-Defer** sits at the allocation stage.  Its entries are OBQ
  checkpointed and forward-walk repaired.  A deferred override re-steers
  the pipeline early (the instruction is already deep in the front end),
  so a wrong deferred override costs an early resteer *plus* the full
  misprediction penalty.

Repair is two-stage (§3.2.1): BHT-Defer recovers from the OBQ first,
then BHT-TAGE is repaired *from BHT-Defer* using the repair bits to
identify which PCs changed.  BHT-TAGE gives no predictions during the
whole window and therefore needs **no extra ports** — the prediction
ports double as repair ports.  Instructions that arrive mid-window have
their BHT-TAGE entries invalidated instead of updated; the valid bits
return when those branches flip direction and their counters reset.

The PT is either shared between the two stages or split in half
(``split_pt``), matching the two variants of Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.bht import BhtConfig
from repro.core.inflight import InflightBranch
from repro.core.loop_predictor import LoopPredictor, LoopPredictorConfig
from repro.core.pattern_table import LoopPatternTable, PatternTableConfig
from repro.core.ports import RepairPortConfig
from repro.core.repair.forward_walk import ForwardWalkRepair
from repro.core.unit import LocalBranchUnit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.records import BranchRecord

__all__ = ["MultiStageConfig", "MultiStageUnit"]


@dataclass(frozen=True)
class MultiStageConfig:
    """Sizing for the split-BHT design.

    Each stage gets half the entries of the single-stage design (the
    paper splits CBPw-Loop128 into 2 x 64).
    """

    entries_per_stage: int = 64
    ways: int = 8
    split_pt: bool = False
    pt_entries: int = 128
    confidence_threshold: int = 3
    obq_ports: RepairPortConfig = RepairPortConfig(32, 4, 4)
    #: Write bandwidth of the prediction ports reused for the
    #: BHT-TAGE resync (a 4-wide core has 4 BHT write ports, Table 2).
    prediction_write_ports: int = 4


class MultiStageUnit(LocalBranchUnit):
    """Two-stage CBPw-Loop: immediate BHT-TAGE + checkpointed BHT-Defer."""

    alloc_stage = True

    def __init__(self, config: MultiStageConfig | None = None) -> None:
        super().__init__()
        self.config = config = config if config is not None else MultiStageConfig()

        stage_cfg = LoopPredictorConfig(
            bht=BhtConfig(entries=config.entries_per_stage, ways=config.ways),
            pt=PatternTableConfig(
                entries=(
                    config.pt_entries // 2 if config.split_pt else config.pt_entries
                ),
                ways=config.ways,
                confidence_threshold=config.confidence_threshold,
            ),
        )
        if config.split_pt:
            self.front = LoopPredictor(stage_cfg)
            self.defer = LoopPredictor(stage_cfg)
        else:
            shared_pt = LoopPatternTable(stage_cfg.pt)
            self.front = LoopPredictor(stage_cfg, pt=shared_pt)
            self.defer = LoopPredictor(stage_cfg)
            # The defer stage owns the shared PT for storage accounting.
            self.defer.pt = shared_pt
        self.scheme = ForwardWalkRepair(ports=config.obq_ports)
        self.scheme.attach(self.defer)
        self._front_busy_until = 0
        pt_tag = "split-pt" if config.split_pt else "shared-pt"
        self.name = f"multistage-{config.entries_per_stage}x2-{pt_tag}"

    # ------------------------------------------------------------- #
    # fetch stage: BHT-TAGE

    def predict(self, branch: InflightBranch, base_taken: bool, cycle: int) -> bool:
        pc = branch.pc
        self.stats.lookups += 1
        front_pred = None
        if cycle >= self._front_busy_until:
            front_pred = self.front.lookup(pc)
        else:
            self.stats.denied_busy += 1

        final = base_taken
        if front_pred is not None:
            self.stats.local_predictions += 1
            branch.local_pred = front_pred
            if front_pred.taken == base_taken:
                branch.local_used = True
            elif self.override_enabled:
                branch.local_used = True
                final = front_pred.taken
                self.stats.overrides += 1
        branch.predicted_taken = final

        if cycle >= self._front_busy_until:
            branch.front_spec = self.front.spec_update(pc, final)
        else:
            # §3.2.1: entries touched while BHT-TAGE repairs are marked
            # invalid rather than updated with un-repairable state.
            self.front.bht.invalidate_pc(pc)
            self.stats.blocked_updates += 1
        return final

    # ------------------------------------------------------------- #
    # alloc stage: BHT-Defer

    def at_alloc(self, branch: InflightBranch, cycle: int) -> bool:
        pc = branch.record.pc
        scheme = self.scheme
        defer_pred = None
        # One availability answer for the lookup and the update (see
        # StandardLocalUnit.predict).
        available = scheme.can_predict(pc, cycle)
        if available:
            defer_pred = self.defer.lookup(pc)
        else:
            # Instruction reached BHT-Defer mid-repair: no prediction,
            # state marked invalid (paper calls this very rare).
            self.defer.bht.invalidate_pc(pc)

        final = branch.predicted_taken
        if (
            defer_pred is not None
            and defer_pred.taken != final
            and self.override_enabled
        ):
            final = defer_pred.taken
            branch.predicted_taken = final
            branch.local_pred = defer_pred
            branch.local_used = True
            branch.early_resteer = True
            self.stats.early_resteers += 1
            self.stats.overrides += 1

        if available:
            scheme.before_update(branch, cycle)
            branch.spec = self.defer.spec_update(pc, final)
            scheme.on_spec_update(branch, cycle)
        else:
            self.stats.blocked_updates += 1
            branch.spec = None
            branch.checkpointed = False
        return final

    # ------------------------------------------------------------- #
    # resolution

    def resolve(
        self, branch: InflightBranch, flushed: Sequence[InflightBranch], cycle: int
    ) -> None:
        if not branch.wrong_path:
            pc = branch.record.pc
            actual = branch.record.taken
            local_pred = branch.local_pred
            own = local_pred.taken if local_pred is not None and branch.local_used else None
            defer_pre = branch.spec.pre_state if branch.spec is not None else None
            self.defer.train(pc, defer_pre, actual, own)
            if self.config.split_pt:
                front_pre = (
                    branch.front_spec.pre_state
                    if branch.front_spec is not None
                    else None
                )
                self.front.train(pc, front_pre, actual, own)
            if local_pred is not None:
                self._train_chooser(branch)
                self._note_override_outcome(branch)
        if branch.mispredicted:
            defer_done = self.scheme.on_mispredict(branch, flushed, cycle)
            self._resync_front(defer_done)

    def _resync_front(self, defer_done: int) -> None:
        """Second repair stage: copy repaired PCs from defer to front.

        Uses the prediction write ports, so BHT-TAGE is simply
        unavailable until the copy drains — no extra ports (Table 3:
        repair ports 4\\0 for this design).
        """
        repaired = self.scheme.last_repaired
        writes = 0
        for pc in repaired:
            slot = self.defer.bht.find(pc)
            if slot < 0:
                self.front.bht.remove_pc(pc)
                continue
            self.front.repair_write(
                pc, self.defer.bht.state_at(slot), self.defer.bht.is_valid(slot)
            )
            writes += 1
        copy_cycles = -(-writes // self.config.prediction_write_ports) if writes else 0
        self._front_busy_until = defer_done + copy_cycles

    def warm(self, record: "BranchRecord") -> None:
        """Advance both stage BHTs and train the PT(s) architecturally."""
        pc = record.pc
        taken = record.taken
        self.front.spec_advance(pc, taken)
        # warm() returns the defer stage's pre-update state — the same
        # value both PT trains used historically (the front PT learns
        # from the deferred, repaired view of the pattern).
        pre_state = self.defer.warm(pc, taken)
        if self.config.split_pt:
            self.front.train(pc, pre_state, taken, None)

    def retire(self, branch: InflightBranch, cycle: int) -> None:
        self.scheme.on_retire(branch, cycle)

    # ------------------------------------------------------------- #

    def storage_bits(self) -> int:
        return (
            self.front.storage_bits()
            + self.defer.storage_bits()
            + self.scheme.storage_bits()
        )

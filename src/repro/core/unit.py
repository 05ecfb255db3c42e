"""Local branch unit: local predictor + repair scheme, as the pipeline
sees them.

The unit implements the per-branch event sequence of Figure 3A:

1. ``predict`` (fetch): BHT/PT lookup, override decision against the
   baseline prediction, then the speculative BHT update and checkpoint;
2. ``at_alloc`` (allocation stage): a hook for multi-stage designs,
   called only for units that set ``alloc_stage`` — the standard unit
   has no allocation-stage predictor;
3. ``resolve`` (execution): PT/confidence training and, on a
   misprediction, the repair scheme's walk;
4. ``retire``: checkpoint release (and, for update-at-retire, the
   architectural BHT update).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.inflight import InflightBranch
from repro.core.local_base import LocalPredictorCore

if TYPE_CHECKING:  # pragma: no cover - avoids a unit <-> repair cycle
    from repro.core.repair.base import RepairScheme
    from repro.trace.records import BranchRecord

__all__ = ["UnitStats", "LocalBranchUnit", "StandardLocalUnit"]


@dataclass(slots=True)
class UnitStats:
    """Prediction-path counters for one local branch unit."""

    lookups: int = 0
    #: Lookups that produced a confident local prediction.
    local_predictions: int = 0
    #: Local predictions whose direction differed from the baseline.
    overrides: int = 0
    #: Overrides where the local direction was right and TAGE was wrong.
    saves: int = 0
    #: Overrides where the local direction was wrong and TAGE was right.
    damages: int = 0
    #: Lookups denied because the BHT was busy repairing (§2.5a).
    denied_busy: int = 0
    #: Speculative updates dropped during repair windows (§2.5b).
    blocked_updates: int = 0
    #: Deferred-stage overrides that re-steered the pipeline (§3.2).
    early_resteers: int = 0


class LocalBranchUnit(abc.ABC):
    """Pipeline-facing interface of a repairable local predictor."""

    #: Chooser range and use-threshold (CBPw ``WITHLOOP`` mechanism):
    #: local overrides are only applied while past overrides have been
    #: net-winning.  This is what keeps a local predictor from dragging
    #: the machine below baseline when its state is mismanaged — without
    #: it, no-repair configurations lose far more than the paper shows.
    _CHOOSER_MAX = 15
    _CHOOSER_USE = 8

    #: True when the unit predicts again at the allocation stage; the
    #: pipeline calls :meth:`at_alloc` only for such units.
    alloc_stage = False

    def __init__(self) -> None:
        self.stats = UnitStats()
        self._chooser = self._CHOOSER_USE + 1

    @property
    def override_enabled(self) -> bool:
        """Whether differing local predictions are currently applied."""
        return self._chooser >= self._CHOOSER_USE

    def _train_chooser(self, branch: InflightBranch) -> None:
        """Adapt the chooser on every resolved differing prediction.

        A no-op without a local prediction, as is
        :meth:`_note_override_outcome`: callers may skip both then.
        """
        lp = branch.local_pred
        tage = branch.tage_pred
        if lp is None or tage is None or lp.taken == tage.taken:
            return
        if lp.taken == branch.actual_taken:
            if self._chooser < self._CHOOSER_MAX:
                self._chooser += 1
        elif self._chooser > 0:
            self._chooser -= 1

    @abc.abstractmethod
    def predict(self, branch: InflightBranch, base_taken: bool, cycle: int) -> bool:
        """Fetch-stage prediction; returns the final direction."""

    def warm(self, record: "BranchRecord") -> None:
        """Architectural warmup with one committed conditional outcome.

        Functional fast-forward (``repro.pipeline.fastforward``) calls
        this instead of the predict/resolve/retire sequence: advance
        the BHT state and train the PT with the *actual* direction,
        bypassing timing, checkpoints, override bookkeeping, and
        repair (no mispredictions exist when every outcome is known).
        The default is a no-op — a unit that does not override simply
        enters detailed intervals colder, which the detailed warmup
        window then compensates for.
        """

    def at_alloc(self, branch: InflightBranch, cycle: int) -> bool:
        """Allocation-stage hook; may revise the direction (multi-stage).

        The pipeline calls it only when :attr:`alloc_stage` is set.
        """
        return branch.predicted_taken

    @abc.abstractmethod
    def resolve(
        self, branch: InflightBranch, flushed: Sequence[InflightBranch], cycle: int
    ) -> None:
        """Execution-stage resolution: train, and repair on mispredicts."""

    @abc.abstractmethod
    def retire(self, branch: InflightBranch, cycle: int) -> None:
        """In-order retirement."""

    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Local predictor + repair storage."""

    def _note_override_outcome(self, branch: InflightBranch) -> None:
        """Classify a resolved local-used prediction for the stats."""
        lp = branch.local_pred
        if lp is None or not branch.local_used:
            return
        actual = branch.actual_taken
        tage = branch.tage_pred
        tage_taken = tage.taken if tage is not None else actual
        if lp.taken != tage_taken:
            if lp.taken == actual:
                self.stats.saves += 1
            else:
                self.stats.damages += 1


class StandardLocalUnit(LocalBranchUnit):
    """Single-stage local predictor at the branch prediction stage."""

    def __init__(self, local: LocalPredictorCore, scheme: "RepairScheme") -> None:
        super().__init__()
        self.local = local
        self.scheme = scheme
        scheme.attach(local)
        self.name = f"{local.name}+{scheme.name}"

    # ------------------------------------------------------------- #

    def predict(self, branch: InflightBranch, base_taken: bool, cycle: int) -> bool:
        pc = branch.record.pc
        stats = self.stats
        scheme = self.scheme
        stats.lookups += 1

        # One availability answer serves the lookup and the update:
        # every scheme's ``can_update`` equals its ``can_predict`` for
        # the same (pc, cycle), and the lookup changes neither.
        available = scheme.can_predict(pc, cycle)
        final = base_taken
        if available:
            local_pred = self.local.lookup(pc)
            if local_pred is not None:
                branch.local_pred = local_pred
                stats.local_predictions += 1
                if local_pred.taken == base_taken:
                    branch.local_used = True
                elif self._chooser >= self._CHOOSER_USE:
                    branch.local_used = True
                    final = local_pred.taken
                    stats.overrides += 1
        else:
            stats.denied_busy += 1
        branch.predicted_taken = final

        if scheme.speculative_updates:
            if available:
                scheme.before_update(branch, cycle)
                branch.spec = self.local.spec_update(pc, final)
                scheme.on_spec_update(branch, cycle)
            else:
                # §2.5(b): the entry cannot take a trustworthy update
                # mid-repair; invalidate it rather than let a desynced
                # count keep issuing overrides.  The valid bit returns
                # when the branch flips direction and the state resets.
                stats.blocked_updates += 1
                self.local.bht.invalidate_pc(pc)
                branch.spec = None
                branch.checkpointed = False
        return final

    def warm(self, record: "BranchRecord") -> None:
        """One architectural BHT advance + PT train with the outcome."""
        self.local.warm(record.pc, record.taken)

    def resolve(
        self, branch: InflightBranch, flushed: Sequence[InflightBranch], cycle: int
    ) -> None:
        record = branch.record
        if not branch.wrong_path:
            local_pred = branch.local_pred
            if self.scheme.speculative_updates:
                spec = branch.spec
                # Confidence is penalized only for predictions that
                # were actually issued to the pipeline: hardware sees a
                # "loop predictor misprediction" only when the loop
                # predictor provided the final direction.
                self.local.train(
                    record.pc,
                    spec.pre_state if spec is not None else None,
                    record.taken,
                    local_pred.taken if local_pred is not None and branch.local_used else None,
                )
            if local_pred is not None:
                # All three hooks are no-ops without a local prediction.
                self.scheme.note_resolution(branch, cycle)
                self._train_chooser(branch)
                self._note_override_outcome(branch)
        if branch.predicted_taken != record.taken:
            self.scheme.on_mispredict(branch, flushed, cycle)

    def retire(self, branch: InflightBranch, cycle: int) -> None:
        if not self.scheme.speculative_updates:
            # Update-at-retire: the only BHT write happens here, with
            # the architectural outcome.
            spec = self.local.spec_update(branch.pc, branch.actual_taken)
            own = branch.local_pred.taken if branch.local_used else None
            self.local.train(branch.pc, spec.pre_state, branch.actual_taken, own)
        self.scheme.on_retire(branch, cycle)

    def storage_bits(self) -> int:
        return self.local.storage_bits() + self.scheme.storage_bits()

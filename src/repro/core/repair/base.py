"""Repair scheme interface and shared bookkeeping.

A repair scheme owns everything about saving and restoring speculative
BHT state: the checkpointing structure (OBQ or snapshot queue, if any),
the repair walk on a misprediction, the timing window during which the
BHT cannot serve predictions, and the per-PC availability rules that
distinguish forward from backward walks.

The :class:`~repro.core.unit.StandardLocalUnit` drives a scheme through
the following per-branch hooks, in order:

* ``can_predict(pc, cycle)`` — may the BHT serve a prediction now?
  The same answer says whether it may take the branch's speculative
  update (``can_update``), so the units ask once per branch;
* ``before_update(branch, cycle)`` — about to apply the speculative
  update (snapshot-style schemes checkpoint *before* the write);
* ``on_spec_update(branch, cycle)`` — the update was applied;
  ``branch.spec`` carries the pre-state (history-file schemes push it);
* ``note_resolution(branch, cycle)`` — every correct-path resolution
  that carries a local prediction (utility tracking for limited-PC);
* ``on_mispredict(branch, flushed, cycle)`` — perform the repair;
* ``on_retire(branch, cycle)`` — release checkpoint entries.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

from repro.core.inflight import InflightBranch
from repro.core.local_base import LocalPredictorCore
from repro.telemetry import TELEMETRY, RepairWalkEvent

__all__ = ["RepairStats", "RepairScheme"]

#: Bucket bounds sized to the paper's checkpoint structures (OBQ/SQ
#: capacities of 16-64 entries).
_WALK_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64)
_BUSY_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128)


@dataclass(slots=True)
class RepairStats:
    """Counters every repair scheme maintains."""

    #: Misprediction events that triggered (or skipped) a repair.
    events: int = 0
    #: Events that arrived while a previous repair was still in flight
    #: (§2.5c / §3.1 multi-misprediction handling).
    restarts: int = 0
    #: Checkpoint-structure entries read across all repairs.
    entries_walked: int = 0
    #: BHT writes performed across all repairs.
    bht_writes: int = 0
    #: Total cycles the BHT spent (fully or partially) busy repairing.
    busy_cycles: int = 0
    #: Branches whose speculative update could not be checkpointed
    #: (structure full, or arrived during a repair window).
    uncheckpointed: int = 0
    #: Flushed speculative updates that no repair restored.
    unrepaired: int = 0
    #: Mispredictions for which no repair was possible at all.
    skipped_events: int = 0
    #: Per-event distinct-PC repair demand (drives Figure 8).
    writes_per_event_sum: int = 0
    writes_per_event_max: int = 0

    def record_event(
        self,
        writes: int,
        reads: int,
        busy: int,
        cycle: int = 0,
        scheme: str = "",
    ) -> None:
        self.events += 1
        self.entries_walked += reads
        self.bht_writes += writes
        self.busy_cycles += busy
        self.writes_per_event_sum += writes
        if writes > self.writes_per_event_max:
            self.writes_per_event_max = writes
        tel = TELEMETRY
        if tel.enabled:
            reg = tel.registry
            reg.histogram("repair.walk_entries", _WALK_BUCKETS).observe(reads)
            reg.histogram("repair.walk_writes", _WALK_BUCKETS).observe(writes)
            reg.histogram("repair.busy_cycles", _BUSY_BUCKETS).observe(busy)
            if tel.tracing:
                tel.emit(
                    RepairWalkEvent(
                        cycle=cycle,
                        scheme=scheme,
                        entries=reads,
                        writes=writes,
                        busy=busy,
                    )
                )

    @property
    def mean_writes_per_event(self) -> float:
        return self.writes_per_event_sum / self.events if self.events else 0.0


class RepairScheme(abc.ABC):
    """Base class for BHT repair schemes."""

    #: Identifier used in reports and Table 3 rows.
    name: str = "repair"
    #: False for update-at-retire: the BHT is never speculatively
    #: updated, so there is nothing to repair.
    speculative_updates: bool = True

    def __init__(self) -> None:
        self.stats = RepairStats()
        self.local: LocalPredictorCore | None = None
        self._busy_until = 0

    def attach(self, local: LocalPredictorCore) -> None:
        """Bind the scheme to the predictor whose BHT it repairs."""
        self.local = local

    # --------------------------------------------------------------- #
    # availability (issues (a) and (b) of §2.5)

    def can_predict(self, pc: int, cycle: int) -> bool:
        """May the BHT provide a prediction for ``pc`` this cycle?"""
        return cycle >= self._busy_until

    def can_update(self, pc: int, cycle: int) -> bool:
        """May ``pc``'s BHT entry take a speculative update this cycle?

        Always the :meth:`can_predict` answer: an entry that may not
        serve a prediction may not take an update either.
        """
        return self.can_predict(pc, cycle)

    @property
    def busy_until(self) -> int:
        """First cycle at which the current repair is fully complete."""
        return self._busy_until

    # --------------------------------------------------------------- #
    # per-branch hooks (default: nothing to do)

    def before_update(self, branch: InflightBranch, cycle: int) -> None:
        """About to apply ``branch``'s speculative BHT update."""

    def on_spec_update(self, branch: InflightBranch, cycle: int) -> None:
        """``branch``'s speculative update was applied (spec attached)."""

    def note_resolution(self, branch: InflightBranch, cycle: int) -> None:
        """A correct-path branch with a local prediction resolved."""

    @abc.abstractmethod
    def on_mispredict(
        self, branch: InflightBranch, flushed: Sequence[InflightBranch], cycle: int
    ) -> int:
        """Repair the BHT after ``branch`` mispredicted.

        Args:
            branch: The mispredicting branch (survives the flush).
            flushed: Every younger in-flight branch, oldest first,
                including wrong-path branches.
            cycle: Resolution cycle of the misprediction.

        Returns:
            The cycle at which the repair completes (>= ``cycle``).
        """

    def on_retire(self, branch: InflightBranch, cycle: int) -> None:
        """``branch`` retired; release its checkpoint resources."""

    # --------------------------------------------------------------- #
    # reporting

    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Repair-only storage cost (checkpoints, repair bits, ROB bits)."""

    @property
    def repair_ports(self) -> tuple[int, int]:
        """(checkpoint read ports, BHT write ports) used for repair."""
        return (0, 0)

    def storage_kb(self) -> float:
        return self.storage_bits() / 8192.0

    # --------------------------------------------------------------- #
    # shared helpers

    def _apply_own_correction(self, branch: InflightBranch, pre_state: int | None) -> None:
        """Write the mispredicting branch's entry with its true outcome.

        Paper §2.4 step 7: the BHT is recovered to the pre-branch state
        *and then updated with what execution provides*.
        """
        assert self.local is not None
        local = self.local
        actual = branch.actual_taken
        if pre_state is None:
            local.repair_write(branch.pc, local.initial_state(actual), True)
        else:
            local.repair_write(branch.pc, local.next_state(pre_state, actual), True)

    def _count_unrepaired(self, flushed: Sequence[InflightBranch]) -> int:
        """Flushed speculative updates with no checkpoint to restore from."""
        return sum(
            1 for fb in flushed if fb.spec is not None and not fb.checkpointed
        )

"""Limited-PC repair — repair only the M PCs that matter (§3.3).

Key observation: not all PCs are equally important to repair — a PC that
never overrides, or whose wrong state misses in the PT, or whose
counter will reinitialise at the next direction flip anyway, costs
nothing when left corrupt.  So each instruction carries the pre-update
BHT state of M selected PCs (24 bits each: set + tag + pattern), and a
misprediction restores exactly those — in a *deterministic* number of
cycles, with no OBQ.

Selection heuristic (utility + recency, §3.3):

1. the instruction itself (always repaired);
2. the most recent PCs whose local prediction *correctly overrode* TAGE
   (LRU-managed set);
3. backfill with the most recently updated BHT PCs.

Non-repaired PCs are left as-is by default — marking them invalid loses
override opportunities for PCs outside the misprediction's scope, which
the paper found to be the worse policy.  Both policies are implemented
(``invalidate_others``) for the ablation benchmark.

The SQ variant checkpoints the M PCs into a small snapshot queue at
prediction time instead of carrying them with the instruction; the
instruction then carries only the queue entry id (§6.5).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Literal, Sequence

from repro.core.inflight import CarriedRepair, InflightBranch
from repro.core.ports import repair_duration
from repro.core.repair.base import RepairScheme
from repro.core.snapshot import SnapshotQueue
from repro.errors import ConfigError

__all__ = ["LimitedPcRepair"]

SelectionPolicy = Literal["utility", "recency", "random"]


class LimitedPcRepair(RepairScheme):
    """Deterministic-latency repair of M heuristically chosen PCs."""

    def __init__(
        self,
        repair_count: int = 2,
        write_ports: int = 2,
        invalidate_others: bool = False,
        policy: SelectionPolicy = "utility",
        sq_entries: int | None = None,
        recency_window: int = 64,
        rob_entries: int = 224,
    ) -> None:
        super().__init__()
        if repair_count < 1:
            raise ConfigError(f"repair_count must be >= 1, got {repair_count}")
        if write_ports < 1:
            raise ConfigError(f"write_ports must be >= 1, got {write_ports}")
        self.repair_count = repair_count
        self.write_ports = write_ports
        self.invalidate_others = invalidate_others
        self.policy: SelectionPolicy = policy
        self.rob_entries = rob_entries
        self.queue = SnapshotQueue(capacity=sq_entries) if sq_entries else None
        self._useful: OrderedDict[int, None] = OrderedDict()
        self._recent: OrderedDict[int, None] = OrderedDict()
        #: pc -> cycle its repair write lands.  Repair uses *dedicated*
        #: write ports (Table 3 lists 0R/2W etc.), so the BHT keeps
        #: serving predictions throughout — only the PCs being written
        #: are unready, briefly.
        self._ready: dict[int, int] = {}
        self._recency_window = recency_window
        self._rng_state = 0xC0FFEE
        variant = f"-sq{sq_entries}" if sq_entries else ""
        suffix = "-inv" if invalidate_others else ""
        policy_tag = "" if policy == "utility" else f"-{policy}"
        self.name = f"limited-{repair_count}pc{variant}{suffix}{policy_tag}"

    # ------------------------------------------------------------- #
    # availability: per-PC, never global

    def can_predict(self, pc: int, cycle: int) -> bool:
        if cycle >= self._busy_until:
            return True
        ready = self._ready.get(pc)
        return ready is None or cycle >= ready

    # ------------------------------------------------------------- #
    # candidate tracking

    def _rand(self) -> int:
        self._rng_state = (self._rng_state * 1103515245 + 12345) & 0x7FFFFFFF
        return self._rng_state >> 8

    def note_resolution(self, branch: InflightBranch, cycle: int) -> None:
        """Track PCs whose local prediction correctly overrode TAGE."""
        if branch.local_pred is None or not branch.local_used:
            return
        tage = branch.tage_pred
        correct_override = (
            branch.local_pred.taken == branch.actual_taken
            and tage is not None
            and tage.taken != branch.actual_taken
        )
        if not correct_override:
            return
        self._useful.pop(branch.pc, None)
        self._useful[branch.pc] = None
        while len(self._useful) > self.repair_count:
            self._useful.popitem(last=False)  # LRU replacement

    def _select(self, own_pc: int) -> list[int]:
        """Choose the M PCs to carry, own PC first."""
        picks: list[int] = [own_pc]
        budget = self.repair_count - 1
        if budget <= 0:
            return picks
        if self.policy == "utility":
            for pc in reversed(self._useful):
                if pc != own_pc:
                    picks.append(pc)
                    if len(picks) - 1 >= budget:
                        return picks
        if self.policy == "random":
            pool = [pc for pc in self._recent if pc != own_pc and pc not in picks]
            while pool and len(picks) - 1 < budget:
                picks.append(pool.pop(self._rand() % len(pool)))
            return picks
        for pc in reversed(self._recent):
            if pc != own_pc and pc not in picks:
                picks.append(pc)
                if len(picks) - 1 >= budget:
                    break
        return picks

    # ------------------------------------------------------------- #
    # checkpointing

    def before_update(self, branch: InflightBranch, cycle: int) -> None:
        assert self.local is not None
        bht = self.local.bht
        carried: list[CarriedRepair] = []
        for pc in self._select(branch.pc):
            hit = bht.entry(pc)
            if hit is None:
                carried.append(CarriedRepair(pc, None, False))
            else:
                carried.append(CarriedRepair(pc, hit[1], hit[2]))
        if self.queue is not None:
            snap_id = self.queue.take(branch.uid, carried)
            branch.snapshot_id = snap_id
            branch.checkpointed = snap_id is not None
            if snap_id is None:
                self.stats.uncheckpointed += 1
        else:
            branch.carried = carried
            branch.checkpointed = True

    def on_spec_update(self, branch: InflightBranch, cycle: int) -> None:
        self._recent.pop(branch.pc, None)
        self._recent[branch.pc] = None
        while len(self._recent) > self._recency_window:
            self._recent.popitem(last=False)

    # ------------------------------------------------------------- #
    # repair

    def _carried_for(self, branch: InflightBranch) -> list[CarriedRepair] | None:
        if self.queue is not None:
            if branch.snapshot_id is None:
                return None
            snap = self.queue.find(branch.snapshot_id)
            return snap.payload if snap is not None else None
        return branch.carried

    def on_mispredict(
        self, branch: InflightBranch, flushed: Sequence[InflightBranch], cycle: int
    ) -> int:
        assert self.local is not None
        local = self.local
        if cycle < self._busy_until:
            self.stats.restarts += 1

        carried = self._carried_for(branch)
        if carried is None:
            if self.queue is not None:
                self.queue.flush_younger(branch.uid)
            self.stats.skipped_events += 1
            self.stats.record_event(
                writes=0, reads=0, busy=0, cycle=cycle, scheme=self.name
            )
            return cycle

        repaired_pcs = {entry.pc for entry in carried}
        self._ready = {}
        ports = self.write_ports
        # Own correction first (carried[0] is always the branch itself).
        self._apply_own_correction(branch, carried[0].state)
        self._ready[carried[0].pc] = cycle + 1
        for index, entry in enumerate(carried[1:], start=2):
            if entry.state is None:
                local.repair_remove(entry.pc)
            else:
                local.repair_write(entry.pc, entry.state, entry.valid)
            self._ready[entry.pc] = cycle + -(-index // ports)

        self.stats.unrepaired += sum(
            1 for fb in flushed if fb.spec is not None and fb.spec.pc not in repaired_pcs
        )
        if self.invalidate_others:
            # Without an OBQ there is no record of *which* entries the
            # flushed instructions touched, so the conservative policy
            # must invalidate every non-repaired entry — this is why the
            # paper found leave-as-is the better policy (§3.3).
            for pc in local.bht.resident_pcs():
                if pc not in repaired_pcs:
                    local.bht.invalidate_pc(pc)

        writes = len(carried)
        busy = repair_duration(0, writes, 1, self.write_ports)
        self._busy_until = cycle + busy
        if self.queue is not None:
            self.queue.flush_younger(branch.uid)
        self.stats.record_event(
            writes=writes, reads=0, busy=busy, cycle=cycle, scheme=self.name
        )
        return self._busy_until

    def on_retire(self, branch: InflightBranch, cycle: int) -> None:
        if self.queue is not None:
            self.queue.retire(branch.uid)

    # ------------------------------------------------------------- #
    # reporting

    def storage_bits(self) -> int:
        # 24 bits per carried PC: 5-bit set + 8-bit tag + 11-bit pattern.
        per_pc = 24
        if self.queue is not None:
            id_bits = max(self.queue.capacity - 1, 1).bit_length()
            return (
                self.queue.capacity * self.repair_count * per_pc
                + self.rob_entries * id_bits
            )
        return self.rob_entries * self.repair_count * per_pc

    @property
    def repair_ports(self) -> tuple[int, int]:
        return (0, self.write_ports)

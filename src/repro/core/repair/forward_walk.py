"""Forward-walk history-file repair — the paper's main proposal (§3.1).

Repair starts **at the mispredicting branch's OBQ entry and walks toward
younger entries**.  A per-BHT-entry *repair bit* (set across the table
when repair begins) ensures each PC is written at most once: the first —
oldest — walked instance of a PC carries exactly the state the BHT must
return to, and later instances are skipped.  Twin benefits:

* fewer BHT writes → shorter repair window;
* PCs closest to the resteer point (the ones about to be fetched again)
  are repaired *first*, so the local predictor resumes overriding for
  them while the rest of the walk is still in flight.  This scheme's
  ``can_predict``/``can_update`` are therefore per-PC, not global.

The optional *coalescing* optimisation (§3.1, Figure 5b) merges
consecutive same-PC OBQ entries; intermediates are recovered from the
11-bit pre-update state each instruction carries through the pipeline.

Multiple mispredictions: a younger event's repair can be superseded by
an older branch resolving mispredicted — repair restarts and the repair
bits are set again (§3.1 last paragraph).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.inflight import InflightBranch
from repro.core.obq import OutstandingBranchQueue
from repro.core.ports import RepairPortConfig, repair_duration
from repro.core.repair.base import RepairScheme

__all__ = ["ForwardWalkRepair"]


class ForwardWalkRepair(RepairScheme):
    """History-file repair walking old → young with repair bits."""

    def __init__(
        self,
        ports: RepairPortConfig | None = None,
        coalesce: bool = False,
        rob_entries: int = 224,
        use_repair_bits: bool = True,
    ) -> None:
        """Args:
        ports: M-N-P resource budget.
        coalesce: Enable OBQ same-PC run coalescing (§3.1).
        rob_entries: ROB size, for the carried-bits storage charge.
        use_repair_bits: Ablation knob — False re-writes every walked
            entry (the duplicate-write waste forward walk eliminates).
        """
        super().__init__()
        self.ports = ports if ports is not None else RepairPortConfig(32, 4, 2)
        self.coalesce = coalesce
        self.rob_entries = rob_entries
        self.use_repair_bits = use_repair_bits
        self.obq = OutstandingBranchQueue(capacity=self.ports.entries, coalesce=coalesce)
        suffix = "-coalesce" if coalesce else ""
        self.name = f"forward-walk-{self.ports.label}{suffix}"
        #: pc -> cycle at which its repaired state becomes usable.
        self._ready: dict[int, int] = {}
        #: PCs written by the most recent repair (consumed by the
        #: multi-stage design to resync its fetch-stage BHT, §3.2.1).
        self.last_repaired: set[int] = set()

    # ------------------------------------------------------------- #
    # availability: per-PC during the repair window

    def can_predict(self, pc: int, cycle: int) -> bool:
        if cycle >= self._busy_until:
            return True
        ready = self._ready.get(pc)
        # PCs outside the repair set were never corrupted; PCs inside it
        # become available as soon as their (single) repair write lands.
        return ready is None or cycle >= ready

    # ------------------------------------------------------------- #
    # checkpointing

    def on_spec_update(self, branch: InflightBranch, cycle: int) -> None:
        assert branch.spec is not None
        entry_id = self.obq.push(branch.uid, branch.spec)
        branch.obq_id = entry_id
        branch.checkpointed = entry_id is not None
        if entry_id is None:
            self.stats.uncheckpointed += 1

    # ------------------------------------------------------------- #
    # repair

    def on_mispredict(
        self, branch: InflightBranch, flushed: Sequence[InflightBranch], cycle: int
    ) -> int:
        assert self.local is not None
        local = self.local
        bht = local.bht
        if cycle < self._busy_until:
            # An older branch superseded an in-flight repair: restart.
            self.stats.restarts += 1
        self._ready = {}
        self.stats.unrepaired += self._count_unrepaired(flushed)

        if branch.obq_id is None or self.obq.find(branch.obq_id) is None:
            # Not checkpointed.  With coalescing the instruction still
            # carries its own pre-update counter, so at least the
            # mispredicting PC recovers; otherwise nothing does.
            if self.coalesce and branch.spec is not None:
                self._apply_own_correction(branch, branch.carried_pre_state)
                busy = repair_duration(0, 1, 1, self.ports.write_ports)
                self._busy_until = cycle + busy
                self.obq.flush_younger(branch.uid, branch.carried_pre_state)
                self.stats.record_event(
                    writes=1, reads=0, busy=busy, cycle=cycle, scheme=self.name
                )
                self.last_repaired = {branch.pc}
                return self._busy_until
            self.obq.flush_younger(branch.uid)
            self.stats.skipped_events += 1
            self.stats.record_event(
                writes=0, reads=0, busy=0, cycle=cycle, scheme=self.name
            )
            self.last_repaired = set()
            return cycle

        bht.set_all_repair_bits()
        walk = self.obq.forward_from(branch.obq_id)
        write_ports = self.ports.write_ports
        writes = 0
        repaired: set[int] = set()

        # The mispredicting branch repairs first (and with its carried
        # state when it is a merged intermediate), then is advanced with
        # the resolved outcome — one write, immediately usable.
        own_pre = branch.carried_pre_state if branch.spec is not None else walk[0].pre_state
        self._apply_own_correction(branch, own_pre)
        writes += 1
        repaired.add(branch.pc)
        self._ready[branch.pc] = cycle + 1
        own_slot = bht.find(branch.pc)
        if own_slot >= 0:
            bht.clear_repair_bit(own_slot)

        for entry in walk:
            if self.use_repair_bits:
                if entry.pc in repaired:
                    continue
                slot = bht.find(entry.pc)
                if slot >= 0 and not bht.repair_bit(slot):
                    continue
            elif entry.pc in repaired:
                # Without repair bits every instance rewrites the BHT;
                # the walk order still means the *last* write (youngest
                # instance) would win, which is wrong — so the ablation
                # keeps correctness by skipping state-wise but charges
                # the write bandwidth anyway.
                writes += 1
                self._ready[entry.pc] = cycle + -(-writes // write_ports)
                continue
            if entry.pre_state is None:
                local.repair_remove(entry.pc)
            else:
                local.repair_write(entry.pc, entry.pre_state, entry.pre_valid)
            slot = bht.find(entry.pc)
            if slot >= 0:
                bht.clear_repair_bit(slot)
            repaired.add(entry.pc)
            writes += 1
            # The i-th write completes ceil(i / ports) cycles in.
            self._ready[entry.pc] = cycle + -(-writes // write_ports)

        busy = repair_duration(
            reads=len(walk),
            writes=writes,
            read_ports=self.ports.read_ports,
            write_ports=write_ports,
        )
        self._busy_until = cycle + busy
        self.obq.flush_younger(branch.uid, branch.carried_pre_state)
        self.stats.record_event(
            writes=writes, reads=len(walk), busy=busy, cycle=cycle, scheme=self.name
        )
        self.last_repaired = repaired
        return self._busy_until

    def on_retire(self, branch: InflightBranch, cycle: int) -> None:
        self.obq.retire(branch.uid)

    # ------------------------------------------------------------- #
    # reporting

    def storage_bits(self) -> int:
        # OBQ entries + 1 repair bit per BHT entry + ROB-carried bits
        # (5-bit OBQ entry id + 11-bit pre-update counter), per Table 3.
        bht_entries = self.local.bht.config.entries if self.local is not None else 128
        obq_id_bits = max(self.ports.entries - 1, 1).bit_length()
        carried_bits = obq_id_bits + 11
        return (
            self.obq.storage_bits()
            + bht_entries
            + self.rob_entries * carried_bits
        )

    @property
    def repair_ports(self) -> tuple[int, int]:
        return (self.ports.read_ports, self.ports.write_ports)

"""Cycle-level out-of-order pipeline model.

A trace-driven timing model of the paper's Skylake-like core, built for
one purpose: faithfully reproduce the *pipeline dynamics around branch
mispredictions* that make local-predictor repair hard —

* predictions (and speculative BHT updates) happen at fetch, deep in
  front of execution;
* branches resolve out of order, many cycles later, with tens of
  instructions (and their speculative updates) in flight behind them;
* on a misprediction the front end has already run down the wrong path,
  polluting predictor state that must now be repaired while the machine
  restarts;
* the ROB bound and retirement pace determine how long OBQ/snapshot
  entries stay live.

The model processes the committed branch stream sequentially.  Timing
per record: fetch bandwidth (taken-branch BTB misses insert bubbles) →
allocation after ``frontend_depth`` cycles, gated by ROB occupancy →
resolution after scheduling plus execution (plus load latency for
load-dependent branches) → in-order retirement.  On a misprediction the
front end replays the recent committed window as wrong-path fetch until
resolution, then flushes, repairs, and resteers.

Wrong-path fetch replays recent committed records because real wrong
paths after loop-exit mispredictions re-execute the loop body — the
first-order effect being extra speculative bumps of the very counters
the repair schemes must restore.  Wrong-path instructions are not
charged against the ROB (they would be flushed before mattering) but do
consume fetch bandwidth, predictor state, and checkpoint entries.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence

from repro.core.inflight import InflightBranch
from repro.core.unit import LocalBranchUnit
from repro.errors import SimulationError
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline.btb import BranchTargetBuffer
from repro.pipeline.config import DEFAULT_PIPELINE, PipelineConfig
from repro.pipeline.stats import SimStats
from repro.predictors.base import GlobalPredictor
from repro.telemetry import TELEMETRY, EpisodeEvent, PredictEvent, RetireEvent
from repro.trace.records import BranchKind, BranchRecord
from repro.trace.stream import TraceStream

__all__ = ["PipelineModel"]


class PipelineModel:
    """One simulated core: baseline predictor + optional local unit.

    Args:
        baseline: The global predictor (TAGE in all paper experiments).
        unit: Local predictor + repair scheme, or None for the baseline
            system.
        config: Core timing parameters.
        hierarchy: Cache model for load latencies; None disables memory
            modelling (loads cost L1 latency).
    """

    def __init__(
        self,
        baseline: GlobalPredictor,
        unit: LocalBranchUnit | None = None,
        config: PipelineConfig | None = None,
        hierarchy: CacheHierarchy | None = None,
    ) -> None:
        self.config = config if config is not None else DEFAULT_PIPELINE
        self.baseline = baseline
        self.unit = unit
        self.hierarchy = hierarchy
        self.btb = BranchTargetBuffer(self.config.btb_entries, self.config.btb_ways)
        self.stats = SimStats()

        self._fe_cycle = 0
        self._last_alloc = 0
        self._last_retire = 0
        self._rob_occupancy = 0
        #: (retire_cycle, group_size, branch or None) in program order.
        self._rob: deque[tuple[int, int, InflightBranch | None]] = deque()
        self._next_uid = 0
        #: Telemetry handle; the disabled path costs one attribute check
        #: per instrumentation site (see repro.telemetry).
        self._tel = TELEMETRY
        self._bind_hot_paths()

    def _bind_hot_paths(self) -> None:
        """Derive the per-branch bound methods and hoisted constants.

        Hot-path bindings: the baseline and BTB never change after
        construction, so the per-branch calls in _issue/_predict go
        through pre-bound methods instead of two-level attribute
        lookups.  Bound at init so subclass overrides still apply;
        checkpoint/spec_push skip the GlobalPredictor delegation layer
        only when the predictor has not overridden them.

        ``_fused_resolve`` is the predictor's fused correct-path step
        (:meth:`~repro.predictors.base.GlobalPredictor.spec_resolve_correct`)
        when the system can use it, else None.  It needs no local unit
        (the unit predicts from the in-flight branch), a pure lookup (a
        declined step re-runs the full predict path) and the default
        checkpoint/spec_push (the step pushes the history itself).

        ``_alloc_stage`` is True only for a unit that declares an
        allocation-stage predictor
        (:attr:`~repro.core.unit.LocalBranchUnit.alloc_stage`); no other
        unit's ``at_alloc`` is called.
        """
        baseline = self.baseline
        self._base_lookup = baseline.lookup
        base_type = type(baseline)
        default_checkpoint = base_type.checkpoint is GlobalPredictor.checkpoint
        default_push = base_type.spec_push is GlobalPredictor.spec_push
        if default_checkpoint:
            self._base_checkpoint = baseline.history.checkpoint
        else:
            self._base_checkpoint = baseline.checkpoint
        if default_push:
            self._base_spec_push = baseline.history.push
        else:
            self._base_spec_push = baseline.spec_push
        fusable = (
            self.unit is None
            and baseline.pure_lookup
            and default_checkpoint
            and default_push
        )
        self._fused_resolve = baseline.spec_resolve_correct if fusable else None
        self._alloc_stage = self.unit is not None and self.unit.alloc_stage
        self._btb_lookup = self.btb.lookup
        self._btb_install = self.btb.install
        # Immutable timing parameters hoisted out of the per-branch path
        # (PipelineConfig is frozen, so these can never drift).
        cfg = self.config
        self._fetch_width = cfg.fetch_width
        self._frontend_depth = cfg.frontend_depth
        self._sched_to_exec = cfg.sched_to_exec
        self._branch_exec_latency = cfg.branch_exec_latency
        self._nonbranch_base_latency = cfg.nonbranch_base_latency
        self._exec_jitter = cfg.exec_jitter
        self._retire_width = cfg.retire_width
        self._rob_entries = cfg.rob_entries
        self._btb_miss_penalty = cfg.btb_miss_penalty
        self._early_resteer_penalty = cfg.early_resteer_penalty

    # ------------------------------------------------------------- #
    # public API

    def run(self, records: Sequence[BranchRecord]) -> SimStats:
        """Simulate the committed branch stream; returns the statistics."""
        self.run_segment(records)
        return self.finalize()

    def run_segment(self, records: Sequence[BranchRecord]) -> None:
        """Simulate one contiguous span, accumulating into ``stats``.

        The sampled two-speed engine (``repro.harness.sampling``) calls
        this once per detailed interval, with predictor state warmed by
        functional fast-forward between calls; timing state (cycles,
        ROB, retirement) carries over from segment to segment.  Call
        :meth:`finalize` once after the last segment.  The wrong-path
        replay window starts empty at each segment boundary, so the
        first few mispredictions of a segment replay a shorter wrong
        path — a boundary effect sampling accepts by design.

        Correctly predicted conditionals of a fusable system (see
        :meth:`_bind_hot_paths`) go through the predictor's fused step
        and build no per-branch objects.  Traced runs take the full
        path, so every conditional still emits its ``PredictEvent``.
        """
        stream = TraceStream(records, window=self.config.wrong_path_window)
        window_append = stream.window.append
        rob = self._rob
        retire_up_to = self._retire_up_to
        issue = self._issue
        resolve_correct = self._resolve_correct
        fused = None if self._tel.tracing else self._fused_resolve
        for record in stream.records:
            window_append(record)
            if rob and rob[0][0] <= self._fe_cycle:
                retire_up_to(self._fe_cycle)
            branch = issue(record, False, fused)
            if branch is None:
                continue
            if branch.predicted_taken != record.taken:
                self._mispredict_episode(branch, stream)
            else:
                resolve_correct(branch)

    def current_cycle(self) -> int:
        """Front-end/retirement high-water mark, for per-segment deltas.

        Work still in the ROB has not retired yet, so consecutive
        readings slightly undercount each segment's cycles — uniformly,
        which is what the sampling extrapolation needs.
        """
        return max(self._fe_cycle, self._last_retire)

    def finalize(self) -> SimStats:
        """Drain in-flight work and close the run; returns the stats."""
        self._drain()
        return self.stats

    # ------------------------------------------------------------- #
    # per-record issue: fetch, predict, allocate, schedule

    def _issue(
        self,
        record: BranchRecord,
        wrong_path: bool,
        fused: Callable[[int, bool], bool] | None = None,
    ) -> InflightBranch | None:
        """Advance fetch over one instruction group; predict the branch.

        Returns the InflightBranch for conditional branches, None for
        other control flow (which only consumes bandwidth and BTB slots)
        and for correct-path conditionals the ``fused`` step resolved.
        """
        stats = self.stats
        group = record.inst_gap + 1
        fetch_cycles = -(-group // self._fetch_width)
        fetch_cycle = self._fe_cycle + fetch_cycles - 1
        alloc_cycle = fetch_cycle + self._frontend_depth

        btb_bubble = 0
        if not wrong_path:
            # Taken control flow needs a BTB target; a miss stalls fetch.
            if record.taken and self._btb_lookup(record.pc) is None:
                self._btb_install(record.pc, record.target)
                btb_bubble = self._btb_miss_penalty
                stats.btb_misses += 1
            if alloc_cycle < self._last_alloc:
                alloc_cycle = self._last_alloc
            if self._rob_occupancy + group > self._rob_entries:
                alloc_cycle = self._allocate(alloc_cycle, group)
            self._last_alloc = alloc_cycle

        load_latency = 0
        if record.load_addr:
            if self.hierarchy is not None:
                load_latency = self.hierarchy.load_latency(record.load_addr)
            else:
                load_latency = 5

        uid = self._next_uid
        self._next_uid = uid + 1
        exec_jitter = self._exec_jitter
        jitter = ((uid * 2654435761) >> 13) % exec_jitter if exec_jitter else 0
        sched_to_exec = self._sched_to_exec
        resolve_cycle = (
            alloc_cycle
            + sched_to_exec
            + self._branch_exec_latency
            + jitter
            + (load_latency if record.depends_on_load else 0)
        )
        base_latency = self._nonbranch_base_latency
        completion = alloc_cycle + sched_to_exec + (
            load_latency if load_latency > base_latency else base_latency
        )
        if resolve_cycle > completion:
            completion = resolve_cycle

        branch: InflightBranch | None = None
        if record.kind is BranchKind.COND:
            if wrong_path:
                stats.wrong_path_branches += 1
            else:
                stats.cond_branches += 1
                if record.taken:
                    stats.taken_branches += 1
            if fused is None or not fused(record.pc, record.taken):
                # Positional (uid, record, wrong_path, squashed, fetch,
                # alloc and resolve cycles): half the cost of keywords.
                branch = InflightBranch(
                    uid, record, wrong_path, False, fetch_cycle, alloc_cycle, resolve_cycle
                )
                base_taken = self._predict(branch, record, fetch_cycle, alloc_cycle)
                if not wrong_path and base_taken != record.taken:
                    stats.base_wrong += 1

        # Single boolean check on the (default) disabled-telemetry path;
        # everything telemetry-related lives behind it.
        tel = self._tel
        if tel.enabled:
            reg = tel.registry
            reg.counter("pipeline.fetch_cycles").inc(fetch_cycles)
            if btb_bubble:
                reg.counter("pipeline.btb_bubble_cycles").inc(btb_bubble)
            if tel.tracing and branch is not None:
                tel.emit(
                    PredictEvent(
                        cycle=fetch_cycle,
                        pc=record.pc,
                        predicted=branch.predicted_taken,
                        actual=record.taken,
                        wrong_path=wrong_path,
                    )
                )

        self._fe_cycle += fetch_cycles + btb_bubble
        if wrong_path:
            if branch is not None:
                branch.retire_cycle = completion
            return branch
        stats.branches += 1
        stats.instructions += group
        retire_cycle = self._last_retire + -(-group // self._retire_width)
        if completion > retire_cycle:
            retire_cycle = completion
        self._last_retire = retire_cycle
        if branch is not None:
            branch.retire_cycle = retire_cycle
        self._rob_occupancy += group
        self._rob.append((retire_cycle, group, branch))
        return branch

    def _predict(
        self,
        branch: InflightBranch,
        record: BranchRecord,
        fetch_cycle: int,
        alloc_cycle: int,
    ) -> bool:
        """Fetch-stage prediction plus alloc-stage (deferred) hook.

        Returns the baseline predictor's own direction.  The final
        direction is settled first, so the history checkpoint is taken
        only when it is wrong: a misprediction episode restores the
        checkpoints of the mispredicting branch and of wrong-path
        branches that resolve mispredicted, and no other code reads
        one.  The unit's hooks touch no global-history state, so
        checkpointing and pushing after them is exact.
        """
        pc = record.pc
        base_pred = self._base_lookup(pc)
        branch.tage_pred = base_pred
        base_taken = fetched = final = base_pred.taken
        unit = self.unit
        if unit is not None:
            fetched = final = unit.predict(branch, base_taken, fetch_cycle)
            if self._alloc_stage:
                branch.predicted_taken = fetched
                final = unit.at_alloc(branch, alloc_cycle)
                if branch.early_resteer and not branch.wrong_path:
                    # Deferred override: squash the younger front-end
                    # contents and restart fetch behind this branch.
                    self.stats.early_resteers += 1
                    restart = alloc_cycle + self._early_resteer_penalty
                    if restart > self._fe_cycle:
                        self._fe_cycle = restart
        branch.predicted_taken = final
        if final != record.taken:
            branch.hist_ckpt = self._base_checkpoint()
        # The history takes the fetch-stage direction, also when the
        # alloc stage overrode it (ROADMAP item 8).
        self._base_spec_push(pc, fetched)
        return base_taken

    def _allocate(self, alloc_cycle: int, group: int) -> int:
        """Retire until ``group`` fits the full ROB; the delayed alloc cycle."""
        while self._rob_occupancy + group > self._rob_entries:
            if not self._rob:
                raise SimulationError(
                    f"instruction group of {group} exceeds ROB capacity"
                )
            retire_cycle, size, retired = self._rob.popleft()
            self._rob_occupancy -= size
            if retired is not None:
                if self.unit is not None:
                    self.unit.retire(retired, retire_cycle)
                if self._tel.tracing:
                    self._tel.emit(RetireEvent(cycle=retire_cycle, pc=retired.pc))
            if retire_cycle > alloc_cycle:
                self.stats.rob_stall_cycles += retire_cycle - alloc_cycle
                alloc_cycle = retire_cycle
        return alloc_cycle

    # ------------------------------------------------------------- #
    # resolution

    def _resolve_correct(self, branch: InflightBranch) -> None:
        """Correctly predicted branch: train everything, no flush."""
        self.baseline.train(branch.tage_pred, branch.actual_taken)
        if self.unit is not None:
            self.unit.resolve(branch, (), branch.resolve_cycle)

    def _mispredict_episode(self, branch: InflightBranch, stream: TraceStream) -> None:
        """Wrong-path fetch, nested wrong-path repairs, flush, resteer."""
        cfg = self.config
        stats = self.stats
        baseline = self.baseline
        unit = self.unit
        resolve = branch.resolve_cycle
        episode: list[InflightBranch] = []
        pending: list[InflightBranch] = []
        episode_start_fe = self._fe_cycle
        wp_mispredicts_before = stats.wrong_path_mispredicts

        replay = stream.recent(cfg.wrong_path_window) if cfg.wrong_path else []
        if replay:
            replay_len = len(replay)
            max_branches = cfg.wrong_path_max_branches
            fetch_width = self._fetch_width
            rob = self._rob
            retire_up_to = self._retire_up_to
            issue = self._issue
            index = 0
            produced = 0
            while produced < max_branches:
                fe_cycle = self._fe_cycle
                # The back end keeps retiring older correct-path work
                # while the front end runs down the wrong path.
                if rob and rob[0][0] <= fe_cycle:
                    retire_up_to(fe_cycle)
                record = replay[index % replay_len]
                index += 1
                if fe_cycle + -(-(record.inst_gap + 1) // fetch_width) - 1 >= resolve:
                    break
                wp_branch = issue(record, True)
                if wp_branch is not None:
                    episode.append(wp_branch)
                    produced += 1
                    if (
                        wp_branch.predicted_taken != record.taken
                        and wp_branch.resolve_cycle < resolve
                    ):
                        pending.append(wp_branch)

        # Wrong-path branches can resolve mispredicted before the real
        # (older) branch does — each triggers its own flush and repair,
        # later superseded when the older branch resolves (§2.5c).
        for wp_branch in sorted(pending, key=lambda b: b.resolve_cycle):
            if wp_branch.squashed:
                continue
            flushed = [
                b for b in episode if b.uid > wp_branch.uid and not b.squashed
            ]
            stats.wrong_path_mispredicts += 1
            baseline.recover(wp_branch.hist_ckpt, wp_branch.pc, wp_branch.actual_taken)
            if unit is not None:
                unit.resolve(wp_branch, flushed, wp_branch.resolve_cycle)
            for squashed in flushed:
                squashed.squashed = True

        # The real resolution: flush everything younger, restore the
        # global history, train, repair, resteer.
        flushed = [b for b in episode if not b.squashed]
        stats.mispredictions += 1
        actual = branch.record.taken
        baseline.recover(branch.hist_ckpt, branch.record.pc, actual)
        baseline.train(branch.tage_pred, actual)
        if unit is not None:
            unit.resolve(branch, flushed, resolve)
        for squashed in flushed:
            squashed.squashed = True
        self._fe_cycle = resolve + cfg.resteer_penalty

        tel = self._tel
        if tel.enabled:
            reg = tel.registry
            reg.counter("pipeline.episodes").inc()
            reg.counter("pipeline.resteer_cycles").inc(cfg.resteer_penalty)
            if resolve > episode_start_fe:
                reg.counter("pipeline.wrong_path_cycles").inc(
                    resolve - episode_start_fe
                )
            reg.histogram("episode.wrong_path_branches").observe(len(episode))
            if tel.tracing:
                tel.emit(
                    EpisodeEvent(
                        pc=branch.pc,
                        fetch_cycle=branch.fetch_cycle,
                        resolve_cycle=resolve,
                        wrong_path_branches=len(episode),
                        wrong_path_mispredicts=(
                            stats.wrong_path_mispredicts - wp_mispredicts_before
                        ),
                        flushed=len(flushed),
                    )
                )

    # ------------------------------------------------------------- #
    # retirement

    def _retire_up_to(self, cycle: int) -> None:
        """Release ROB groups whose retirement time has passed."""
        rob = self._rob
        if not rob or rob[0][0] > cycle:
            return
        tel = self._tel
        tracing = tel.tracing
        unit = self.unit
        popleft = rob.popleft
        freed = 0
        while rob and rob[0][0] <= cycle:
            retire_cycle, size, branch = popleft()
            freed += size
            if branch is not None:
                if unit is not None:
                    unit.retire(branch, retire_cycle)
                if tracing:
                    tel.emit(RetireEvent(cycle=retire_cycle, pc=branch.pc))
        self._rob_occupancy -= freed

    def _drain(self) -> None:
        """Retire everything left in flight and close the run."""
        final_cycle = self._fe_cycle
        tel = self._tel
        while self._rob:
            retire_cycle, size, branch = self._rob.popleft()
            self._rob_occupancy -= size
            if branch is not None:
                if self.unit is not None:
                    self.unit.retire(branch, retire_cycle)
                if tel.tracing:
                    tel.emit(RetireEvent(cycle=retire_cycle, pc=branch.pc))
            if retire_cycle > final_cycle:
                final_cycle = retire_cycle
        self.stats.cycles = max(final_cycle, self._last_retire, 1)
        if tel.enabled:
            # Mirror the stall total accumulated during allocation so
            # the stage breakdown is complete without touching the
            # ROB-bound inner loop.
            tel.registry.counter("pipeline.rob_stall_cycles").inc(
                self.stats.rob_stall_cycles
            )
        self._attach_extra()

    def _attach_extra(self) -> None:
        """Pull component statistics into the run's extra payload."""
        extra = self.stats.extra
        extra["btb_miss_rate"] = self.btb.miss_rate
        if self.hierarchy is not None:
            extra["memory"] = self.hierarchy.stats()
        if self.unit is not None:
            unit_stats = self.unit.stats
            extra["unit"] = {
                "lookups": unit_stats.lookups,
                "local_predictions": unit_stats.local_predictions,
                "overrides": unit_stats.overrides,
                "saves": unit_stats.saves,
                "damages": unit_stats.damages,
                "denied_busy": unit_stats.denied_busy,
                "blocked_updates": unit_stats.blocked_updates,
                "early_resteers": unit_stats.early_resteers,
            }
            scheme = getattr(self.unit, "scheme", None)
            if scheme is not None:
                repair = scheme.stats
                extra["repair"] = {
                    "events": repair.events,
                    "restarts": repair.restarts,
                    "entries_walked": repair.entries_walked,
                    "bht_writes": repair.bht_writes,
                    "busy_cycles": repair.busy_cycles,
                    "uncheckpointed": repair.uncheckpointed,
                    "unrepaired": repair.unrepaired,
                    "skipped_events": repair.skipped_events,
                    "mean_writes_per_event": repair.mean_writes_per_event,
                    "max_writes_per_event": repair.writes_per_event_max,
                }

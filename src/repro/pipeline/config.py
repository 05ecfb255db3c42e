"""Pipeline model configuration (paper Table 2).

The defaults model the paper's Skylake-like core: 4-wide out-of-order,
224-entry ROB, 64-entry allocation queue, 72/56-entry load/store
buffers, a 2K-entry BTB, and a deep front end whose refill time is what
makes branch mispredictions expensive.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["DEFAULT_PIPELINE", "PipelineConfig"]


@dataclass(frozen=True)
class PipelineConfig:
    """Timing and capacity parameters of the core model."""

    # -- widths --------------------------------------------------------
    fetch_width: int = 4
    retire_width: int = 4

    # -- window capacities (Table 2) ------------------------------------
    rob_entries: int = 224
    alloc_queue_entries: int = 64
    load_buffer_entries: int = 72
    store_buffer_entries: int = 56

    # -- depths / latencies ---------------------------------------------
    #: Fetch → allocation distance in cycles.  Allocation-queue buffering
    #: is folded into this figure (the queue smooths bursts; its capacity
    #: bounds how far fetch runs ahead, which the ROB bound dominates).
    frontend_depth: int = 12
    #: Allocation → first possible execution (rename + schedule).
    sched_to_exec: int = 6
    #: Branch ALU latency.
    branch_exec_latency: int = 2
    #: Completion latency charged to a non-branch instruction group with
    #: no modelled load.
    nonbranch_base_latency: int = 3
    #: Deterministic scheduling-jitter range added to branch resolution
    #: (models operand wait variance without a full dependence graph).
    exec_jitter: int = 4

    # -- resteer costs --------------------------------------------------
    #: Redirect cycles after a resolved misprediction before the front
    #: end restarts fetching (the refill itself then costs
    #: ``frontend_depth``, so the full penalty is ~2+12+6+2 cycles).
    #: Because fetch — and therefore branch prediction — restarts almost
    #: immediately, repairs that outlast this shadow start denying the
    #: local predictor its post-resteer predictions, which is exactly
    #: the §2.5(a) effect the schemes differ on.
    resteer_penalty: int = 1
    #: Extra cycles to restart fetch after a deferred-stage (alloc)
    #: override resteer (§3.2); refill cost again comes from depth.
    early_resteer_penalty: int = 1

    # -- BTB --------------------------------------------------------
    btb_entries: int = 2048
    btb_ways: int = 4
    btb_miss_penalty: int = 8

    # -- wrong-path modelling ---------------------------------------
    #: Synthesize wrong-path fetch after mispredictions (the mechanism
    #: that corrupts un-repaired BHT state).  Disable for ablation.
    wrong_path: bool = True
    #: Replay window: wrong-path fetch replays the most recent committed
    #: records (≈ re-running the loop body / fall-through block).  Kept
    #: narrow: real wrong paths reconverge with nearby code quickly, so
    #: the set of *distinct* PCs they pollute is small even when the
    #: episode is long.
    wrong_path_window: int = 12
    #: Bound on synthesized wrong-path branches per episode.  Sized to
    #: roughly one front-end window: deeper wrong paths exist on long
    #: (load-dependent) resolutions, but the instruction queue and
    #: alloc-queue bounds throttle real fetch well before 64 branches.
    wrong_path_max_branches: int = 12

    def __post_init__(self) -> None:
        if self.fetch_width <= 0 or self.retire_width <= 0:
            raise ConfigError("pipeline widths must be positive")
        if self.rob_entries <= 0:
            raise ConfigError("rob_entries must be positive")
        if self.frontend_depth < 1 or self.sched_to_exec < 0:
            raise ConfigError("pipeline depths out of range")
        if self.btb_entries % self.btb_ways:
            raise ConfigError(
                f"btb_entries {self.btb_entries} not divisible by ways {self.btb_ways}"
            )
        if self.wrong_path_window <= 0 or self.wrong_path_max_branches < 0:
            raise ConfigError("wrong-path parameters out of range")

    @classmethod
    def skylake(cls) -> "PipelineConfig":
        """The paper's Table 2 core."""
        return cls()

    def mispredict_penalty_estimate(self) -> int:
        """Approximate full misprediction penalty (for documentation)."""
        return self.resteer_penalty + self.frontend_depth + self.sched_to_exec


#: The paper's core as one shared value.  ``PipelineConfig`` is frozen,
#: so every caller that takes ``None`` for the default uses this instead
#: of building a fresh one per call.
DEFAULT_PIPELINE = PipelineConfig()

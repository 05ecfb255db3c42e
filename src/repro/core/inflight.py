"""In-flight branch bookkeeping shared by the pipeline and repair schemes.

Each fetched conditional branch becomes one :class:`InflightBranch`
carrying everything the paper says an instruction must carry through the
pipeline: the TAGE history checkpoint (GHIST/PHIST repair), its own
pre-update BHT state (11-bit counter, §3.1), an OBQ entry id, and — for
the limited-PC scheme — the pre-update state of the M selected PCs
(§3.3).  The model takes the history checkpoint only for a branch whose
final direction is wrong, the only kind a repair restores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.trace.records import BranchRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.local_base import LocalPrediction, SpecUpdate
    from repro.predictors.base import Prediction
    from repro.predictors.history import HistoryCheckpoint

__all__ = ["InflightBranch", "CarriedRepair"]


@dataclass(slots=True)
class CarriedRepair:
    """Pre-update BHT state of one PC carried for limited-PC repair."""

    pc: int
    state: int | None  # None = PC had no BHT entry at capture time
    valid: bool


@dataclass(slots=True)
class InflightBranch:
    """One conditional branch between fetch and retirement.

    ``uid`` increases in fetch order across correct and wrong path, so
    program-order comparisons reduce to uid comparisons.
    """

    uid: int
    record: BranchRecord
    wrong_path: bool = False
    #: Set once the branch has been flushed by an older misprediction.
    squashed: bool = False

    # -- timing -------------------------------------------------------
    fetch_cycle: int = 0
    alloc_cycle: int = 0
    resolve_cycle: int = 0
    retire_cycle: int = 0

    # -- prediction ---------------------------------------------------
    predicted_taken: bool = False
    tage_pred: "Prediction | None" = None
    #: Global history before this branch's push; None unless the final
    #: direction is wrong (nothing restores a right one's).
    hist_ckpt: "HistoryCheckpoint | None" = None
    local_pred: "LocalPrediction | None" = None
    #: True when the local predictor's direction was used as the final
    #: prediction (an override opportunity, §2.4 step 4).
    local_used: bool = False
    #: True when the multi-stage deferred predictor changed the direction
    #: at the alloc stage (costs an early resteer, §3.2).
    early_resteer: bool = False

    # -- repair state -------------------------------------------------
    spec: "SpecUpdate | None" = None
    #: Second-table speculative update (multi-stage split BHT: the
    #: fetch-stage BHT-TAGE update, while ``spec`` holds BHT-Defer's).
    front_spec: "SpecUpdate | None" = None
    obq_id: int | None = None
    #: False when the branch entered during a repair window and could not
    #: be checkpointed (paper issue (b), §2.5).
    checkpointed: bool = False
    snapshot_id: int | None = None
    carried: list[CarriedRepair] | None = None

    @property
    def pc(self) -> int:
        return self.record.pc

    @property
    def actual_taken(self) -> bool:
        return self.record.taken

    @property
    def mispredicted(self) -> bool:
        """Final-direction misprediction (after any deferred override)."""
        return self.predicted_taken != self.record.taken

    @property
    def carried_pre_state(self) -> int | None:
        """This branch's own pre-update BHT state (11 bits in hardware)."""
        return self.spec.pre_state if self.spec is not None else None

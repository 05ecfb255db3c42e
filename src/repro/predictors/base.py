"""Abstract interface for baseline (global) direction predictors.

The pipeline drives a predictor through four calls per conditional
branch, mirroring the pipeline events of §2.4 of the paper:

1. ``lookup(pc)`` at fetch → a :class:`Prediction` carrying everything
   the predictor needs later (indices, provider table, ...).
2. ``checkpoint()`` + ``spec_push(pc, predicted)`` — speculative history
   update at prediction time; the checkpoint travels with the branch.
3. On a misprediction, ``recover(ckpt, pc, actual)`` rewinds the history
   and inserts the resolved outcome.
4. ``train(prediction, actual)`` at resolution updates the tables.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

from repro.predictors.history import GlobalHistory, HistoryCheckpoint

__all__ = ["Prediction", "GlobalPredictor"]


@dataclass(slots=True)
class Prediction:
    """A direction prediction plus predictor-private bookkeeping.

    Attributes:
        pc: Branch address the prediction is for.
        taken: Predicted direction.
        meta: Predictor-private payload threaded back into ``train``.
    """

    pc: int
    taken: bool
    meta: Any = None


class GlobalPredictor(abc.ABC):
    """Base class for global-history direction predictors."""

    #: Short identifier used in reports (e.g. ``"tage-8kb"``).
    name: str = "predictor"

    #: True when ``lookup`` has no side effects on predictor or history
    #: state, so calling it twice for the same pc (with no state change
    #: in between) returns an identical prediction.  The generic engine
    #: (:class:`~repro.pipeline.core.PipelineModel`) relies on this to
    #: re-run the full predict path after :meth:`spec_resolve_correct`
    #: declines; predictors that cannot promise it always take the full
    #: path.
    pure_lookup: bool = False

    def __init__(self, history: GlobalHistory | None = None) -> None:
        self.history = history if history is not None else GlobalHistory()

    @abc.abstractmethod
    def lookup(self, pc: int) -> Prediction:
        """Predict the direction of the conditional branch at ``pc``."""

    @abc.abstractmethod
    def train(self, prediction: Prediction, taken: bool) -> None:
        """Update tables given the resolved outcome of ``prediction``."""

    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Total table storage in bits (excludes history registers)."""

    def checkpoint(self) -> HistoryCheckpoint:
        """Snapshot of the speculative history before this branch."""
        return self.history.checkpoint()

    def spec_push(self, pc: int, taken: bool) -> None:
        """Speculatively insert a predicted outcome into the history."""
        self.history.push(pc, taken)

    def fast_update(self, pc: int, taken: bool) -> None:
        """Cheap architectural table touch for functional fast-forward.

        Called once per committed conditional branch on non-sampled
        intervals (``repro.pipeline.fastforward``).  The default trains
        through a full lookup — exact but slow; predictors override
        with a cheaper approximation (TAGE updates only its bimodal
        base, leaving tagged tables to the detailed warmup window).
        This never feeds back into ``SimStats``; it only keeps state
        warm between detailed intervals.
        """
        self.train(self.lookup(pc), taken)

    def warm_update(self, pc: int, taken: bool) -> None:
        """Full functional update for the fast-forward warm window.

        Equivalent to the committed-stream sequence lookup → history
        push of the actual outcome → train, with no timing model in
        between.  Predictors may override with a fused implementation
        (TAGE does) — the semantics must stay identical, only the
        per-branch object traffic may go.
        """
        prediction = self.lookup(pc)
        self.history.push(pc, taken)
        self.train(prediction, taken)

    def spec_resolve_correct(self, pc: int, taken: bool) -> bool:
        """Fused correct-path step of the generic engine.

        Equivalent to the committed-stream sequence ``lookup`` →
        ``checkpoint`` (dropped unused) → ``spec_push(pc, predicted)`` →
        ``train`` *when the prediction matches* ``taken`` — in that case
        the state updates are applied and True is returned.  When the
        prediction disagrees, **no state is touched** and False is
        returned: the caller re-runs the generic predict path (valid
        because :attr:`pure_lookup` predictors return the identical
        prediction) and takes its misprediction episode.

        Only meaningful for predictors with default ``checkpoint`` /
        ``spec_push`` behaviour and :attr:`pure_lookup` True;
        :class:`~repro.pipeline.core.PipelineModel` checks both (and
        that the system has no local unit) before using it.
        """
        prediction = self.lookup(pc)
        if prediction.taken != taken:
            return False
        self.history.push(pc, taken)
        self.train(prediction, taken)
        return True

    def recover(self, ckpt: HistoryCheckpoint, pc: int, taken: bool) -> None:
        """Misprediction repair: rewind history, insert the truth.

        For global predictors this is the whole repair story — constant
        cost per event — which is precisely the asymmetry with local
        predictors the paper builds on.
        """
        self.history.restore_and_push(ckpt, pc, taken)

    def storage_kb(self) -> float:
        """Table storage in kilobytes (1 KB = 8192 bits)."""
        return self.storage_bits() / 8192.0

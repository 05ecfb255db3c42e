"""Property tests for TAGE's fused committed-path steps.

The generic engine resolves correctly predicted branches through
``spec_resolve_correct`` and the sampled engine's warm window calls
``warm_update``.  Both must leave TAGE and its history exactly as the
per-branch sequence lookup → checkpoint → push(predicted) → recover (if
wrong) → train does, and a declined ``spec_resolve_correct`` must change
nothing.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors.tage import TageConfig, TagePredictor, TageTableConfig

# Small tables so tags alias and entries allocate often, and an aging
# period short enough for the usefulness reset to fire in one example.
_CONFIG = TageConfig(
    name="tage-tiny",
    bimodal_log=6,
    tables=(
        TageTableConfig(history_length=4, log_entries=5, tag_bits=7),
        TageTableConfig(history_length=9, log_entries=5, tag_bits=8),
        TageTableConfig(history_length=21, log_entries=5, tag_bits=9),
    ),
    u_reset_period=16,
)

_PCS = tuple(0x4000 + 5 * i for i in range(12))

_streams = st.lists(
    st.tuples(st.sampled_from(_PCS), st.booleans()), min_size=48, max_size=200
)


def _state(tage: TagePredictor) -> tuple:
    history = tage.history
    return copy.deepcopy(
        (
            tage._bimodal,
            tage._ctr,
            tage._tag,
            tage._u,
            tage._use_alt,
            tage._updates_since_reset,
            tage._rng_state,
            history.ghist,
            history.phist,
            history.fold_comps,
        )
    )


def _generic_step(tage: TagePredictor, pc: int, taken: bool) -> bool:
    prediction = tage.lookup(pc)
    ckpt = tage.checkpoint()
    tage.spec_push(pc, prediction.taken)
    if prediction.taken != taken:
        tage.recover(ckpt, pc, taken)
    tage.train(prediction, taken)
    return prediction.taken


@settings(max_examples=40, deadline=None)
@given(_streams)
def test_fused_steps_match_generic_sequence(stream):
    generic = TagePredictor(_CONFIG)
    fused = TagePredictor(_CONFIG)
    warm = TagePredictor(_CONFIG)
    for pc, taken in stream:
        before = _state(fused)
        predicted = _generic_step(generic, pc, taken)
        if fused.spec_resolve_correct(pc, taken):
            assert predicted == taken
        else:
            assert predicted != taken
            assert _state(fused) == before
            _generic_step(fused, pc, taken)
        warm.warm_update(pc, taken)
        assert _state(fused) == _state(generic)
        assert _state(warm) == _state(generic)
